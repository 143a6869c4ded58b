"""The traced run: span recording, the replay of a workload, and layer probes.

Spans are recorded only in the benchmark's own files, around each call into a
twopoint module, and are named ``<module>.<function>``; the span of a whole
operation is ``op.<label>``. They are kept in memory and written out when the
run ends. A span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import twopoint as tp

import gen
import workloads as wl

MODULES = ("linalg", "choi", "decomposition", "correlator", "sampler", "photonics", "cli")
# Modules every workload's replay reaches; the others only appear on
# cli-checks and are reported in the run's details line.
SHARED_MODULES = ("linalg", "correlator", "sampler")
KERNEL_SHOTS = wl.SHOTS_PER_OP // 2  # one estimate-shots component


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation id]
        self._open = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[str, float]:
        """Self time summed per module; operation spans count as ``op``."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - child[i]
        return out

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def run_traced(name, program, seed, seconds, workdir, trace_path):
    """Replay the workload for ``seconds``, check the replay against the
    untraced form on pass 0's estimates, then probe each layer. Self times
    are reported per pass."""
    workload = wl.WORKLOADS[name]
    first = workload.set_up(program, seed, workdir)
    tr = Tracer()
    op_ids = itertools.count()

    def replay(op):
        def form():
            tr.op = next(op_ids)
            with tr.span(f"op.{op.label}"):
                return op.replay(tr)
        return form

    records, pass_times = wl.closed_loop(workload, program, seed, seconds, workdir, first, replay)
    failures = [f"{op.label}: {f}" for op, _, _, f, _ in records if f]

    # Fidelity and overhead: every estimate of pass 0 once more, untraced.
    traced_s = untraced_s = 0.0
    compared = [(op, secs, replayed) for op, secs, replayed, _, _ in records[: len(first)] if op.shots]
    for op, secs, replayed in compared:
        t_u, result, failure = wl.attempt(op, op.run)
        if failure:
            failures.append(f"{op.label} (untraced): {failure}")
            continue
        if not isinstance(result, dict):
            result = json.loads(result.stdout)
        if replayed is None or any(replayed[k] != result[k] for k in ("estimate", "std_error", "exact")):
            failures.append(f"{op.label}: replay is not bit-identical to the untraced estimate")
        traced_s += secs
        untraced_s += t_u

    passes = len(pass_times)
    selfs = tr.self_times()
    metrics = {f"{m}.self_s": (selfs.get(m, 0.0) / passes, "s") for m in SHARED_MODULES}
    metrics["trace.unattributed_s"] = (selfs.get("op", 0.0) / passes, "s")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0 if untraced_s else 0.0, "frac")
    metrics.update(probe_layers(program, seed, workdir))
    tr.write(trace_path)
    details = {
        "passes": passes,
        "self_s_per_pass": {m: selfs.get(m, 0.0) / passes for m in MODULES + ("op",)},
        "failures": failures,
        "spans": len(tr.spans),
        "trace_file": os.path.relpath(trace_path, program.root),
    }
    return metrics, len(records) + len(compared), failures, details


# --- layer probes -------------------------------------------------------------


def timed(fn, reps: int):
    """Median wall time of ``reps`` calls, and the last result."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def nbytes(obj, depth: int = 2) -> int:
    """Sum of ``nbytes`` over the arrays an object holds, one level of
    nested objects deep (a family holds arrays and process matrices)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0 or not hasattr(obj, "__dict__"):
        return 0
    return sum(nbytes(v, depth - 1) for v in vars(obj).values())


def probe_layers(program, seed, workdir) -> dict:
    """Time each layer's public functions directly on seeded inputs."""
    rng = gen.op_rng(seed, "probes", 1)
    ss = np.random.SeedSequence(gen.op_seed(rng))
    out = {}
    real_of = {}
    for d in (4, 8, 12):
        reps = 1 if d == 12 else 3
        rho, a, b = gen.mixed_state(rng, d), gen.observable(rng, d), gen.observable(rng, d)
        t, fam = timed(lambda: tp.CorrelatorFamily(d), reps)
        out[f"correlator.family_build_s.d{d}"] = (t, "s")
        out[f"correlator.family_bytes.d{d}"] = (nbytes(fam), "B")
        del fam
        t, (real, _) = timed(lambda: (tp.universal_real_decomposition(d),
                                      tp.universal_imag_decomposition(d)), reps)
        out[f"correlator.decompositions_s.d{d}"] = (t, "s")
        plan_s, _ = timed(lambda: tp.estimate_component(real, rho, a, b, 2, ss), reps)
        out[f"sampler.plan_s.d{d}"] = (plan_s, "s")
        t, _ = timed(lambda: tp.apply_choi(real.effects[0], rho), {4: 50, 8: 20, 12: 5}[d])
        out[f"choi.apply_choi_s.d{d}"] = (t, "s")
        if d in (4, 8):
            t, _ = timed(lambda: tp.estimate_component(real, rho, a, b, KERNEL_SHOTS, ss), 1)
            out[f"sampler.kernel_ns_per_shot.d{d}"] = ((t - plan_s) / KERNEL_SHOTS * 1e9, "ns")
        if d == 4:
            t, _ = timed(lambda: tp.estimate_component(real, rho, a, b, KERNEL_SHOTS, ss, 2), 1)
            out["sampler.kernel_ns_per_shot.threads2.d4"] = ((t - plan_s) / KERNEL_SHOTS * 1e9, "ns")
            tracemalloc.start()
            try:
                tp.estimate_component(real, rho, a, b, KERNEL_SHOTS, ss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out["sampler.alloc_bytes_per_shot.d4"] = (peak / KERNEL_SHOTS, "B")
        if d < 12:
            real_of[d] = real

    effect4, effect8 = real_of[4].effects[0], real_of[8].effects[0]
    t, _ = timed(lambda: tp.kraus_from_choi(effect4), 3)
    out["choi.kraus_from_choi_s.d4"] = (t, "s")
    t, _ = timed(lambda: tp.is_completely_positive(effect8) and tp.is_trace_preserving(effect8), 3)
    out["choi.cp_tp_check_s.d8"] = (t, "s")

    family4 = gen.real_part_process_matrix(4)
    random4 = gen.random_map(rng, 4, 16)
    decs = {}
    for label, jm in (("family-d4", family4), ("random-d4", random4)):
        t, _ = timed(lambda: tp.hermitian_eigendecomposition(jm), 5)
        out[f"linalg.hermitian_eigendecomposition_s.{label}"] = (t, "s")
        t, decs[label] = timed(lambda: tp.statistical_decompose(tp.ChoiOperator(jm, 4, 16)), 3)
        out[f"decomposition.statistical_decompose_s.{label}"] = (t, "s")
    family8 = tp.ChoiOperator(gen.real_part_process_matrix(8), 8, 64)
    t, _ = timed(lambda: tp.error_lower_bound(family8), 3)
    out["decomposition.error_lower_bound_s.d8"] = (t, "s")
    del family8
    t, _ = timed(lambda: tp.stinespring_dilation(real_of[4]), 3)
    out["decomposition.stinespring_dilation_s.d4"] = (t, "s")
    real6 = tp.universal_real_decomposition(6)
    t, _ = timed(lambda: tp.stinespring_dilation(real6), 1)
    out["decomposition.stinespring_dilation_s.d6"] = (t, "s")

    rho2, a2, b2 = gen.mixed_state(rng, 2), gen.observable(rng, 2), gen.observable(rng, 2)
    t, stats = timed(lambda: tp.simulate_optics(rho2), 21)
    out["photonics.simulate_optics_s"] = (t, "s")
    t, _ = timed(lambda: tp.recombine_coincidences(stats, a2, b2), 51)
    out["photonics.recombine_coincidences_s"] = (t, "s")

    t, _ = timed(lambda: program.cli(["--help"]), 5)
    out["cli.process_start_s"] = (t, "s")
    path4 = gen.write_matrix(os.path.join(workdir, "probe-family-d4.json"), family4)
    t, _ = timed(lambda: wl.read_matrix(path4), 5)
    out["cli.json_read_s.decompose-d4"] = (t, "s")
    dec = decs["family-d4"]
    flags = [True] * len(dec.weights)
    t, _ = timed(lambda: wl.dumps(wl.decompose_report(dec, flags, 4.0)), 3)
    out["cli.json_write_s.decompose-d4"] = (t, "s")
    for d in (3, 4):
        path = gen.write_matrix(os.path.join(workdir, f"probe-family-d{d}.json"),
                                gen.real_part_process_matrix(d))
        p = program.cli(["decompose", path, "--din", str(d), "--dout", str(d * d)])
        if p.returncode != 0:
            raise RuntimeError(f"decompose d={d} exited with {p.returncode}")
        out[f"cli.output_bytes.decompose-d{d}"] = (len(p.stdout), "B")
    return out
