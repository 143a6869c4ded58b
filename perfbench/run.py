"""twopoint benchmark.

Run from the root of a twopoint checkout:

    python3 perfbench/run.py --workload estimate-shots --seed 1 --seconds 30 --trace 0

Workloads (definitions and the reason for each in ``workloads.py``):
``estimate-shots``, ``estimate-dims`` and ``cli-checks``. With ``--trace 0``
the run times the user-facing entry points and reports the end-to-end
metrics; with ``--trace 1`` it replays the same operations call by call under
spans and reports the per-layer metrics (see ``tracing.py``). Every
operation's output is checked; a failed check counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (tail percentile, sample counts, failures, machine).
The program is imported from ``src/`` of the checkout; without it the run
exits with code 2 and prints no result. BLAS runs single-threaded (see
``BLAS_ENV``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("estimate-shots", "estimate-dims", "cli-checks")
# Single-threaded BLAS for this process and every CLI process it starts. On
# a 2-vCPU guest the second OpenBLAS thread's wake-up stalls a d = 4 family
# build from 1 ms to 160 ms at random, which leaves run-to-run spreads of
# 20-36 %; with one thread they fall under 8 %. Set before NumPy is imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "twopoint", "__init__.py")):
        print("error: src/twopoint not found; run from the root of a twopoint checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, os.path.join(root, "src"))
    import machine
    import tracing
    import workloads

    program = workloads.Program(root)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        if args.trace:
            trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            metrics, attempted, failures, details = tracing.run_traced(
                args.workload, program, args.seed, args.seconds, workdir, trace_path)
        else:
            metrics, attempted, failures, details = workloads.run_untraced(
                args.workload, program, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   machine=machine.facts(root))
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
