"""The benchmark's own tests: ``python3 -m pytest perfbench`` from the root of
a checkout. The two metric-emission tests run the benchmark itself (about a
minute together); the others take seconds."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import twopoint as tp  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate-shots",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    return json.loads(p.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, key):
    result = run_bench(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[key]}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)


def fingerprint(op) -> list:
    if isinstance(op, wl.Estimate):
        return [op.label, op.rho.tobytes(), op.a.tobytes(), op.b.tobytes(), op.shots, op.seed]
    out = []
    for arg in op.args:
        if os.path.isfile(arg):
            with open(arg, "rb") as fh:
                out.append(fh.read())
        else:
            out.append(arg)
    return out


def pass_fingerprint(name, seed, p, workdir) -> list:
    program = wl.Program(ROOT)
    return [fingerprint(op) for op in wl.WORKLOADS[name].make_pass(program, seed, p, str(workdir))]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    first = pass_fingerprint(name, 7, 0, tmp_path)
    assert first == pass_fingerprint(name, 7, 0, tmp_path)
    assert first != pass_fingerprint(name, 8, 0, tmp_path)
    assert first != pass_fingerprint(name, 7, 1, tmp_path)


def test_generated_maps_are_the_documented_ones():
    for d in (2, 3):
        np.testing.assert_allclose(gen.real_part_process_matrix(d),
                                   tp.CorrelatorFamily(d).j_real.matrix, atol=1e-12)
    jm = gen.random_map(gen.op_rng(1, "probes", 0), 2, 4)
    assert tp.error_lower_bound(tp.ChoiOperator(jm, 2, 4)) == pytest.approx(2.0, abs=1e-9)
    obs = gen.two_valued_observable(gen.op_rng(1, "probes", 0), 4)
    assert len(np.unique(np.linalg.eigvalsh(obs).round(9))) == 2


def small_estimate():
    rng = gen.op_rng(5, "probes", 0)
    return wl.Estimate("estimate-d3", gen.mixed_state(rng, 3), gen.observable(rng, 3),
                       gen.observable(rng, 3), 20_000, gen.op_seed(rng))


def test_replay_is_bit_identical_to_estimate_two_point():
    op = small_estimate()
    replayed = op.replay(tracing.Tracer())
    assert replayed == op.run()
    assert op.check(replayed) is None


def test_estimate_check_rejects_a_shifted_estimate():
    op = small_estimate()
    payload = op.run()
    assert op.check(payload) is None
    for part in (0, 1):
        bad = json.loads(json.dumps(payload))
        bad["estimate"][part] += 10 * payload["std_error"][part]
        assert op.check(bad) is not None
    bad = json.loads(json.dumps(payload))
    bad["exact"][0] = np.nextafter(bad["exact"][0], 1.0)
    assert op.check(bad) is not None


def test_verify_and_experiment_checks_reject_bad_reports():
    assert checks.check_verify({"passed": True, "checks": []}) is None
    assert checks.check_verify({"passed": False, "checks": [{"name": "x", "passed": False}]})
    good = {"p_sym": 3 / 16, "p_anti": 1 / 16, "recombination_residual": 1e-16}
    assert checks.check_experiment(good) is None
    assert checks.check_experiment(dict(good, p_sym=3 / 16 + 1e-9))
    assert checks.check_experiment(dict(good, recombination_residual=1e-6))


def test_decompose_check_rejects_a_corrupted_result():
    jm = gen.real_part_process_matrix(2)
    j = tp.ChoiOperator(jm, 2, 4)
    dec = tp.statistical_decompose(j)
    report = wl.decompose_report(dec, [True] * len(dec.weights), tp.error_lower_bound(j))
    assert checks.check_decompose(report, jm, 2) is None
    assert checks.check_decompose(report, jm, 3)
    assert checks.check_decompose(dict(report, is_cp_flags=[False] + report["is_cp_flags"][1:]), jm, 2)
    terms = [dict(t) for t in report["terms"]]
    terms[-1]["lambda"] += 1e-6
    assert checks.check_decompose(dict(report, terms=terms), jm, 2)


def test_cli_failure_exit_code_is_a_failure():
    op = wl.CliVerify(wl.Program(ROOT), 2, 1, gen.op_rng(1, "probes", 0))
    failed = subprocess.CompletedProcess(op.args, 1, b'{"passed": false}', b"")
    assert op.check(failed)


def test_tail_percentile_needs_ten_samples_beyond():
    assert wl.tail_percentile(20) is None
    assert wl.tail_percentile(36) == 72
    assert wl.tail_percentile(40) == 75
    assert wl.tail_percentile(100) == 90
    # A run with more operations than the fewest still has ten beyond it.
    for n in range(36, 200):
        assert n - math.ceil(72 * n / 100) >= 10


def test_op_means_are_per_operation_over_passes():
    # Two passes of three operations.
    assert wl.op_means([1, 5, 9, 3, 7, 11], 3) == [2, 6, 10]
