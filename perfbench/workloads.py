"""Workloads, their operations, and the untraced closed-loop runner.

Each workload is a fixed list of operations (one "pass") with a fresh seeded
input per operation. One client issues one operation at a time, with
threads=1 and single-threaded BLAS. Every operation has two
forms: ``run`` goes through the user-facing entry point (``estimate_two_point``
or a ``twopoint`` CLI process) and is what the end-to-end metrics time;
``replay`` issues the public calls the operation is made of, one span each,
for the traced run. Both forms are judged by the same output check.

Only names in ``twopoint.__all__`` and the CLI (its subcommands and its
MatrixFile codec ``json_to_matrix``/``matrix_to_json``) are used.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import twopoint as tp
import twopoint.cli as tpcli

import checks
import gen

SHOTS_PER_OP = 10**7  # estimate-shots
DEFAULT_SHOTS = 200_000  # the documented default of estimate_two_point / CLI
# Set-up runs twice before the first pass and twice after each pass, so that
# its median spans the run's drift in machine speed.
SETUP_REPS = 2
TAIL_BEYOND = 10
# Runs the CLI exactly as ``python -m twopoint.cli`` does, then appends the
# process's peak resident memory to stderr. VmHWM covers only this process's
# own address space; ru_maxrss of a child also counts the memory of the
# process that spawned it.
CLI_LAUNCHER = """
import runpy, sys
sys.argv[0] = "twopoint"
try:
    runpy.run_module("twopoint.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM"))
    sys.stderr.write(f"\\npeak_rss_kb={kb}\\n")
"""


class Program:
    """The twopoint checkout under test: its source tree and CLI."""

    def __init__(self, root: str):
        self.root = root
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def cli(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", CLI_LAUNCHER, *args],
            capture_output=True, env=self.env, cwd=self.root, check=False,
        )

    def import_seconds(self) -> float:
        """Time to ``import twopoint`` in a fresh interpreter."""
        code = "import time; t = time.perf_counter(); import twopoint; print(time.perf_counter() - t)"
        p = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=self.env, cwd=self.root, check=True,
        )
        return float(p.stdout)


def dumps(obj) -> str:
    """The CLI's output encoding."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# --- estimate: in process ---------------------------------------------------


def replay_estimate(tr, rho, a, b, n_shots: int, seed: int) -> dict:
    """``estimate_two_point`` at the default split and threads=1, call by call."""
    rho = tr.call("linalg.check_density_matrix", tp.check_density_matrix, rho)
    a = tr.call("linalg.check_observable", tp.check_observable, a)
    b = tr.call("linalg.check_observable", tp.check_observable, b)
    d = rho.shape[0]
    real = tr.call("correlator.universal_real_decomposition", tp.universal_real_decomposition, d)
    imag = tr.call("correlator.universal_imag_decomposition", tp.universal_imag_decomposition, d)
    n_imag = int(n_shots * 0.5)
    # The real and imaginary pipelines draw from the seed's first two spawned
    # streams.
    ss_real, ss_imag = np.random.SeedSequence(seed).spawn(2)
    re, re_se = tr.call("sampler.estimate_component", tp.estimate_component,
                        real, rho, a, b, n_shots - n_imag, ss_real)
    im, im_se = tr.call("sampler.estimate_component", tp.estimate_component,
                        imag, rho, a, b, n_imag, ss_imag)
    exact = tr.call("correlator.two_point_exact", tp.two_point_exact, rho, a, b)
    return {"estimate": [re, -im], "std_error": [re_se, im_se], "exact": [exact.real, exact.imag]}


class Estimate:
    def __init__(self, label, rho, a, b, shots, seed):
        self.label, self.rho, self.a, self.b = label, rho, a, b
        self.shots, self.seed = shots, seed

    def run(self) -> dict:
        return checks.estimate_payload(
            tp.estimate_two_point(self.rho, self.a, self.b, self.shots, seed=self.seed)
        )

    def replay(self, tr) -> dict:
        return replay_estimate(tr, self.rho, self.a, self.b, self.shots, self.seed)

    def check(self, payload: dict) -> str | None:
        return checks.check_estimate(payload, tp.two_point_exact(self.rho, self.a, self.b))


# --- CLI operations -----------------------------------------------------------


def read_matrix(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return tpcli.json_to_matrix(json.load(fh))


class Cli:
    """One ``twopoint`` CLI process; ``run`` returns the completed process."""

    shots = 0

    def __init__(self, program: Program, label: str, args: list[str]):
        self.program, self.label, self.args = program, label, args

    def run(self) -> subprocess.CompletedProcess:
        return self.program.cli(self.args)

    def check(self, result) -> str | None:
        if isinstance(result, subprocess.CompletedProcess):
            if result.returncode != 0:
                err = result.stderr.decode(errors="replace").strip()[-300:]
                return f"exit code {result.returncode}: {err}"
            result = json.loads(result.stdout)
        return self.check_payload(result)

    def replay(self, tr) -> dict:
        """A CLI process: interpreter start-up, then the subcommand's calls."""
        tr.call("cli.process_start", self.program.cli, ["--help"])
        payload = self.replay_calls(tr)
        tr.call("cli.json_write", dumps, payload)
        return payload


class CliEstimate(Cli):
    def __init__(self, program, label, paths, rho, a, b, seed):
        super().__init__(program, label, ["estimate", *paths, "--seed", str(seed)])
        self.paths, self.rho, self.a, self.b, self.seed = paths, rho, a, b, seed
        self.shots = DEFAULT_SHOTS

    def replay_calls(self, tr) -> dict:
        rho, a, b = tr.call("cli.json_read", lambda: [read_matrix(p) for p in self.paths])
        return replay_estimate(tr, rho, a, b, self.shots, self.seed)

    def check_payload(self, payload: dict) -> str | None:
        return checks.check_estimate(payload, tp.two_point_exact(self.rho, self.a, self.b))


class CliVerify(Cli):
    def __init__(self, program, d, seed, rng):
        super().__init__(program, f"verify-d{d}", ["verify", str(d), "--seed", str(seed)])
        self.d, self.rng = d, rng

    def replay_calls(self, tr) -> dict:
        d, rng, call = self.d, self.rng, tr.call
        fam = call("correlator.CorrelatorFamily", tp.CorrelatorFamily, d)
        chois = call("correlator.choi_builders", tp.choi_builders, fam)
        real = call("correlator.universal_real_decomposition", tp.universal_real_decomposition, d)
        imag = call("correlator.universal_imag_decomposition", tp.universal_imag_decomposition, d)
        res = {}
        for part, dec in (("real", real), ("imag", imag)):
            back = call("decomposition.recombine", tp.recombine, dec)
            res[f"{part}_identity"] = (np.linalg.norm(chois[part].matrix - back.matrix), 1e-10)
        b_real = call("decomposition.error_lower_bound", tp.error_lower_bound, chois["real"])
        b_imag = call("decomposition.error_lower_bound", tp.error_lower_bound, chois["imag"])
        res["real_bound_value"] = (abs(b_real - d), 1e-9)
        res["imag_bound_value"] = (abs(b_imag - math.sqrt(d * d - 1.0)), 1e-9)
        sat_real = sat_imag = prob_dev = 0.0
        for _ in range(20):
            rho = gen.mixed_state(rng, d)
            cr = call("decomposition.decomposition_cost", tp.decomposition_cost, real, rho, bound=b_real)
            ci = call("decomposition.decomposition_cost", tp.decomposition_cost, imag, rho, bound=b_imag)
            sat_real = max(sat_real, abs(cr.cost - cr.bound))
            sat_imag = max(sat_imag, abs(ci.cost - ci.bound))
            prob_dev = max([prob_dev] + [abs(p - 0.5) for p in cr.probabilities + ci.probabilities])
        res["real_saturation"] = (sat_real, 1e-9)
        res["imag_saturation"] = (sat_imag, 1e-9)
        res["branch_probabilities"] = (prob_dev, 1e-10)
        res["orthogonality_sym"] = (abs(np.trace(chois["sym"].matrix @ chois["anti"].matrix)), 1e-12)
        res["orthogonality_phase"] = (
            abs(np.trace(chois["phase_plus"].matrix @ chois["phase_minus"].matrix)), 1e-10)
        flags = all(
            call("choi.is_completely_positive", tp.is_completely_positive, chois[k])
            and call("choi.is_trace_preserving", tp.is_trace_preserving, chois[k])
            for k in ("sym", "anti", "phase_plus", "phase_minus")
        )
        total = call("choi.ChoiOperator", tp.ChoiOperator,
                     chois["real"].matrix - 1j * chois["imag"].matrix, d_in=d, d_out=d * d)
        flags = flags and not call("choi.is_hermiticity_preserving", tp.is_hermiticity_preserving, total)
        flags = flags and not call("choi.is_trace_preserving", tp.is_trace_preserving, chois["imag"])
        res["cp_tp_flags"] = (0.0 if flags else 1.0, 0.5)
        dev = 0.0
        for _ in range(5):
            rho, a, b = gen.mixed_state(rng, d), gen.observable(rng, d), gen.observable(rng, d)
            ab = np.kron(a, b)
            r = call("correlator.real_part_apply", tp.real_part_apply, fam, rho)
            i = call("correlator.imag_part_apply", tp.imag_part_apply, fam, rho)
            want = call("correlator.two_point_exact", tp.two_point_exact, rho, a, b)
            dev = max(dev, abs(complex(np.trace(r @ ab) - 1j * np.trace(i @ ab)) - want))
        res["two_point_identity"] = (dev, 1e-10)
        report = [
            {"name": k, "residual": float(r), "threshold": t, "passed": bool(r <= t)}
            for k, (r, t) in res.items()
        ]
        return {"d": d, "checks": report, "passed": all(c["passed"] for c in report)}

    def check_payload(self, payload: dict) -> str | None:
        return checks.check_verify(payload)


class CliDecompose(Cli):
    def __init__(self, program, label, path, jm, d_in, d_out, bound):
        super().__init__(program, label,
                         ["decompose", path, "--din", str(d_in), "--dout", str(d_out)])
        self.path, self.jm, self.d_in, self.d_out, self.bound = path, jm, d_in, d_out, bound

    def replay_calls(self, tr) -> dict:
        m = tr.call("cli.json_read", read_matrix, self.path)
        j = tr.call("choi.ChoiOperator", tp.ChoiOperator, m, d_in=self.d_in, d_out=self.d_out)
        dec = tr.call("decomposition.statistical_decompose", tp.statistical_decompose, j)
        flags = [tr.call("choi.is_completely_positive", tp.is_completely_positive, e)
                 for e in dec.effects]
        bound = tr.call("decomposition.error_lower_bound", tp.error_lower_bound, j)
        return tr.call("cli.json_write", decompose_report, dec, flags, bound)

    def check_payload(self, payload: dict) -> str | None:
        return checks.check_decompose(payload, self.jm, self.bound)


def decompose_report(dec, flags, bound) -> dict:
    """The ``decompose`` output document (MatrixFile terms)."""
    terms = [{"lambda": float(lam), "effect": tpcli.matrix_to_json(eff.matrix)}
             for lam, eff in zip(dec.weights, dec.effects)]
    return {"terms": terms, "bound": float(bound), "is_cp_flags": [bool(f) for f in flags]}


class CliExperiment(Cli):
    def __init__(self, program, path, rng):
        super().__init__(program, "experiment", ["experiment", path])
        self.path, self.rng = path, rng

    def replay_calls(self, tr) -> dict:
        rho = tr.call("cli.json_read", read_matrix, self.path)
        rho = tr.call("linalg.check_density_matrix", tp.check_density_matrix, rho)
        stats = tr.call("photonics.simulate_optics", tp.simulate_optics, rho)
        residual = 0.0
        for _ in range(10):
            a, b = gen.observable(self.rng, 2), gen.observable(self.rng, 2)
            got = tr.call("photonics.recombine_coincidences", tp.recombine_coincidences, stats, a, b)
            residual = max(residual, abs(got - np.trace(rho @ (a @ b + b @ a)).real / 2))
        return {"p_sym": stats.p_sym, "p_anti": stats.p_anti, "recombination_residual": residual}

    def check_payload(self, payload: dict) -> str | None:
        return checks.check_experiment(payload)


# --- workloads ----------------------------------------------------------------


def estimate_shots_pass(program, seed, p, workdir):
    # Why: 10^7 shots per operation at d = 4 puts more than 95 % of the time
    # in the sampler kernel and its per-shot memory; the family build is
    # about 1 ms. Three mixed states with random observables (16 outcome cells
    # per branch) and one pure state with two-valued observables (4 cells)
    # make the kernel's cost per shot depend on the table size.
    ops = []
    for k in range(4):
        rng = gen.op_rng(seed, "estimate-shots", 4 * p + k)
        if k < 3:
            label, rho = "estimate-mixed-d4", gen.mixed_state(rng, 4)
            a, b = gen.observable(rng, 4), gen.observable(rng, 4)
        else:
            label, rho = "estimate-pure-d4", gen.pure_state(rng, 4)
            a, b = gen.two_valued_observable(rng, 4), gen.two_valued_observable(rng, 4)
        ops.append(Estimate(label, rho, a, b, SHOTS_PER_OP, gen.op_seed(rng)))
    return ops


def estimate_dims_pass(program, seed, p, workdir):
    # Why: at the default 2*10^5 shots nearly all the time goes to building
    # the correlator family and decompositions and to the sampler's plan
    # (branch tables via apply_choi, joint distributions), and peak memory
    # grows with d. The inputs share only d, so a per-d cache shows here and
    # not in cli-checks. d = 8 appears twice so the median lands on a d = 8
    # operation, not between two dimensions. The largest d is 10, not 12: a
    # d = 12 estimate takes 13-20 s, so a run would fit two passes and time the
    # median operation at only two moments of a machine whose speed drifts by
    # 20 % over tens of seconds; a d = 10 estimate takes about 3 s. d = 12 is
    # timed layer by layer in the traced run. d = 16 is left out: one
    # estimate takes about 100 s.
    ops = []
    for k, d in enumerate((2, 4, 8, 8, 10)):
        rng = gen.op_rng(seed, "estimate-dims", 5 * p + k)
        rho, a, b = gen.mixed_state(rng, d), gen.observable(rng, d), gen.observable(rng, d)
        ops.append(Estimate(f"estimate-d{d}", rho, a, b, DEFAULT_SHOTS, gen.op_seed(rng)))
    return ops


def cli_checks_pass(program, seed, p, workdir):
    # Why: the check path as CLI users and scripts pay for it, one fresh
    # process per operation: process matrices, eigendecompositions and JSON
    # I/O with cold per-process set-up. The real-part process matrices at
    # d = 3, 4 have large degenerate eigenvalue clusters; the random map
    # (d_in = 4, d_out = 16) has none, so it bypasses the cluster sort. A
    # change that makes process matrices lazy to speed up estimation must not
    # slow this path.
    def rng(k):
        return gen.op_rng(seed, "cli-checks", 16 * p + k)

    ops = [CliVerify(program, d, gen.op_seed(rng(k)), rng(k)) for k, d in enumerate((2, 4, 8))]
    for d in (3, 4):
        jm = gen.real_part_process_matrix(d)
        path = gen.write_matrix(os.path.join(workdir, f"p{p}-family-d{d}.json"), jm)
        ops.append(CliDecompose(program, f"decompose-family-d{d}", path, jm, d, d * d, bound=d))
    jm = gen.random_map(rng(5), 4, 16)
    path = gen.write_matrix(os.path.join(workdir, f"p{p}-random-d4x16.json"), jm)
    ops.append(CliDecompose(program, "decompose-random-d4x16", path, jm, 4, 16, bound=4))
    for k, d in ((6, 4), (7, 8)):
        r = rng(k)
        rho, a, b = gen.mixed_state(r, d), gen.observable(r, d), gen.observable(r, d)
        paths = gen.write_matrices(workdir, f"p{p}-estimate-d{d}", rho=rho, a=a, b=b)
        ops.append(CliEstimate(program, f"estimate-d{d}", paths, rho, a, b, gen.op_seed(r)))
    r = rng(8)
    path = gen.write_matrix(os.path.join(workdir, f"p{p}-experiment-rho.json"), gen.mixed_state(r, 2))
    ops.append(CliExperiment(program, path, r))
    return ops


class Workload:
    """A pass generator, where its operations run, and the fewest whole passes
    a run makes (``seconds`` may end a run sooner)."""

    def __init__(self, make_pass, in_process: bool, min_passes: int):
        self.make_pass, self.in_process, self.min_passes = make_pass, in_process, min_passes

    def warm_up(self, program: Program) -> None:
        """Finish lazy library and interpreter set-up users do not pay per call."""
        if self.in_process:
            rng = gen.op_rng(0, "probes", 0)
            tp.estimate_two_point(gen.mixed_state(rng, 2), gen.observable(rng, 2),
                                  gen.observable(rng, 2), 2000)
        else:
            program.cli(["--help"])

    def set_up(self, program, seed, workdir) -> list:
        """Import in a fresh interpreter, generate pass 0 (MatrixFiles too) and
        warm up; the in-process import happened once, before timing."""
        program.import_seconds()
        ops = self.make_pass(program, seed, 0, workdir)
        self.warm_up(program)
        return ops


# estimate-dims makes two passes so that each d = 8 position has two samples
# for op_p50_s; cli-checks makes four so that op_tail_s has a percentile above
# the median (p72 of 36 operations) in every run.
WORKLOADS = {
    "estimate-shots": Workload(estimate_shots_pass, in_process=True, min_passes=1),
    "estimate-dims": Workload(estimate_dims_pass, in_process=True, min_passes=2),
    "cli-checks": Workload(cli_checks_pass, in_process=False, min_passes=4),
}


# --- the untraced closed loop -------------------------------------------------


def attempt(op, form):
    """Run one operation through ``form`` and check it; returns
    (seconds, result, failure reason or None). An exception is a failure."""
    t0 = time.perf_counter()
    try:
        result = form()
    except Exception:
        return time.perf_counter() - t0, None, traceback.format_exc(limit=3).strip()
    seconds = time.perf_counter() - t0
    try:
        return seconds, result, op.check(result)
    except Exception:
        return seconds, result, traceback.format_exc(limit=3).strip()


def nearest_rank(values, pct: float) -> float:
    s = sorted(values)
    return s[max(math.ceil(pct * len(s) / 100), 1) - 1]


def op_means(times, per_pass: int) -> list[float]:
    """Each operation of the pass: its mean time over the run's passes.
    The machine's speed drifts over seconds; a percentile of all the times
    lands on one sample of one operation, these use every sample."""
    return [statistics.fmean(times[i::per_pass]) for i in range(per_pass)]


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile above the median with at least ten of
    ``n`` samples beyond it, or None. It is taken at the fewest operations a
    run makes, so it does not change with the number of passes a run fits
    (ten or more samples lie beyond it in every run), and applied to the
    operations' means over the passes."""
    for pct in range(99, 50, -1):
        if n - math.ceil(pct * n / 100) >= TAIL_BEYOND:
            return pct
    return None


def peak_rss_mb(records, in_process: bool) -> float:
    """Peak resident memory of the process(es) that ran the operations."""
    if in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    peaks = [int(line.split("=")[1]) for _, _, _, _, stderr in records
             for line in stderr.splitlines() if line.startswith("peak_rss_kb=")]
    return max(peaks) / 1024


def closed_loop(workload, program, seed, seconds, workdir, first_pass, form_of,
                after_pass=lambda: None):
    """Issue whole passes, one operation at a time, for about ``seconds`` and
    at least ``workload.min_passes`` passes, calling ``after_pass`` (untimed)
    after each; returns per-op records (op, seconds, result, failure reason, CLI
    stderr) and pass times. Only estimate results are kept, so the runner's
    own memory does not grow with the number of operations."""
    records, pass_times = [], []
    start = time.perf_counter()
    p, ops = 0, first_pass
    while True:
        t_pass = time.perf_counter()
        for op in ops:
            secs, result, failure = attempt(op, form_of(op))
            stderr = ""
            if isinstance(result, subprocess.CompletedProcess):
                stderr = result.stderr.decode(errors="replace")
                result = json.loads(result.stdout) if op.shots and result.returncode == 0 else None
            records.append((op, secs, result if op.shots else None, failure, stderr))
        pass_times.append(time.perf_counter() - t_pass)
        after_pass()
        p += 1
        # Stop once less than half a pass of the time is left, so that a run
        # lasts about ``seconds`` whatever the length of a pass.
        left = seconds - (time.perf_counter() - start)
        if p >= workload.min_passes and left < statistics.median(pass_times) / 2:
            return records, pass_times
        ops = workload.make_pass(program, seed, p, workdir)


def run_untraced(name, program, seed, seconds, workdir):
    workload = WORKLOADS[name]
    setup = []

    def set_up():
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            ops = workload.set_up(program, seed, workdir)
            setup.append(time.perf_counter() - t0)
        return ops

    ops = set_up()
    records, pass_times = closed_loop(workload, program, seed, seconds, workdir, ops,
                                      lambda op: op.run, after_pass=set_up)
    times = [secs for _, secs, _, _, _ in records]
    est = [(op.shots, secs) for op, secs, result, _, _ in records if result is not None]
    means = op_means(times, len(ops))
    p50 = statistics.median(means)
    tail_pct = tail_percentile(workload.min_passes * len(ops))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.fmean(pass_times), "s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (p50 if tail_pct is None else nearest_rank(means, tail_pct), "s"),
        "shots_per_s": (sum(n for n, _ in est) / sum(s for _, s in est) if est else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb(records, workload.in_process), "MB"),
    }
    failures = [f"{op.label}: {f}" for op, _, _, f, _ in records if f]
    details = {
        "op_tail_percentile": tail_pct or 50,
        "op_samples": len(times),
        "op_s": {f"{i}.{op.label}": times[i::len(ops)] for i, op in enumerate(ops)},
        "passes": len(pass_times),
        "failed_frac": len(failures) / len(records),
        "failures": failures,
        "setup_s_runs": setup,
    }
    return metrics, len(records), failures, details
