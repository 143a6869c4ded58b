"""Command-line interface over a JSON matrix format.

Commands: ``decompose`` (statistical decomposition of a map given by its
process matrix), ``estimate`` (shot-based estimation of Tr[A rho B]),
``verify`` (self-check suite for one dimension), ``experiment`` (exact
three-photon optics simulation).

All structured output is JSON: UTF-8, two-space indentation, sorted keys,
complex numbers as [re, im] pairs. Matrices travel as MatrixFile objects —
``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with row-major data.
Exit codes: 0 success, 1 verification failure, 2 parse error, 3 semantic or
validation error or an unwritable output path. Diagnostics go to standard
error; results go to --out or standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .choi import ChoiOperator, is_completely_positive, is_hermiticity_preserving, is_trace_preserving
from .correlator import (
    CorrelatorFamily,
    choi_builders,
    imag_part_apply,
    real_part_apply,
    two_point_exact,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from .decomposition import (
    decomposition_cost,
    error_lower_bound,
    recombine,
    statistical_decompose,
)
from .linalg import check_density_matrix
from .photonics import recombine_coincidences, simulate_optics
from .sampler import DEFAULT_SEED, estimate_two_point

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3


class MatrixFileError(ValueError):
    """Raised when a matrix file does not parse or violates the format."""


def matrix_to_json(m: np.ndarray) -> dict:
    """Encode a matrix as a MatrixFile dict (row-major [re, im] pairs)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def json_to_matrix(obj) -> np.ndarray:
    """Decode a MatrixFile dict, validating shape and finiteness."""
    if not isinstance(obj, dict):
        raise MatrixFileError(f"matrix object must be a JSON object, got {type(obj).__name__}")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise MatrixFileError(f"matrix object missing key {key!r}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in (rows, cols)):
        raise MatrixFileError(f"rows/cols must be positive integers, got {rows!r}, {cols!r}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise MatrixFileError(
            f"data length {len(data) if isinstance(data, list) else '?'} "
            f"!= rows*cols = {rows * cols}"
        )
    out = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(data):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise MatrixFileError(f"data[{i}] must be a [re, im] number pair, got {pair!r}")
        try:
            out[i] = complex(pair[0], pair[1])
        except OverflowError as exc:  # an integer too large for a float
            raise MatrixFileError(f"data[{i}] is not a finite number pair: {exc}") from exc
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise MatrixFileError("matrix entries must be finite")
    return out.reshape(rows, cols)


def _load_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MatrixFileError(f"{path} is not valid UTF-8 JSON: {exc}") from exc
    return json_to_matrix(obj)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_out(path: str | None) -> None:
    """Raise OSError, before any work is done, if ``path`` cannot be written."""
    if path is None:
        return
    if os.path.exists(path):
        writable = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        parent = os.path.dirname(path) or "."
        writable = os.path.isdir(parent) and os.access(parent, os.W_OK)
    if not writable:
        raise OSError(f"cannot write {path}")


def _random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank density matrix G G^dag / Tr[G G^dag] from a complex Gaussian
    G (real parts drawn first, then imaginary parts)."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_observable(rng: np.random.Generator, d: int) -> np.ndarray:
    """Hermitian observable (G + G^dag) / 2, G drawn as in _random_state."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def _check_tol(tol: float) -> None:
    if not tol >= 0:  # NaN fails the comparison too
        raise ValueError(f"--tol must be a non-negative number, got {tol}")


def cmd_decompose(args) -> int:
    for flag, dim in (("--din", args.din), ("--dout", args.dout)):
        if dim < 1:
            raise ValueError(f"{flag} must be a positive integer, got {dim}")
    _check_tol(args.tol)
    m = _load_matrix(args.input)
    if args.din * args.dout != m.shape[0] or m.shape[0] != m.shape[1]:
        raise ValueError(
            f"matrix side {m.shape[0]}x{m.shape[1]} does not factor as "
            f"dout*din = {args.dout}*{args.din}"
        )
    j = ChoiOperator(m, d_in=args.din, d_out=args.dout)
    decomp = statistical_decompose(j, tol=args.tol)
    terms = [
        {"lambda": float(lam), "effect": matrix_to_json(eff.matrix)}
        for lam, eff in zip(decomp.weights, decomp.effects)
    ]
    flags = [bool(is_completely_positive(eff)) for eff in decomp.effects]
    report = {
        "terms": terms,
        "bound": float(error_lower_bound(j)),
        "is_cp_flags": flags,
    }
    _emit(_dumps(report), args.out)
    return EXIT_OK


def cmd_estimate(args) -> int:
    rho = _load_matrix(args.rho)
    a = _load_matrix(args.a)
    b = _load_matrix(args.b)
    report = estimate_two_point(
        rho, a, b, n_shots=args.shots, seed=args.seed, threads=args.threads,
        split=args.split,
    )
    payload = {
        "estimate": [report.estimate.real, report.estimate.imag],
        "std_error": [report.std_error[0], report.std_error[1]],
        "exact": [report.exact.real, report.exact.imag],
        "n_shots": report.n_shots,
        "seed": report.seed,
    }
    _emit(_dumps(payload), args.out)
    return EXIT_OK


def _verify_checks(d: int, seed: int, tol: float | None):
    """Run the invariant suite for one dimension; yields check dicts."""
    fam = CorrelatorFamily(d)
    chois = choi_builders(fam)
    rng = np.random.default_rng(seed)

    def thresh(default: float) -> float:
        return default if tol is None else tol

    checks = []

    def add(name: str, residual: float, threshold: float):
        checks.append(
            {
                "name": name,
                "residual": float(residual),
                "threshold": float(threshold),
                "passed": bool(residual <= threshold),
            }
        )

    dec_real = universal_real_decomposition(d)
    dec_imag = universal_imag_decomposition(d)
    add(
        "real_identity",
        np.linalg.norm(chois["real"].matrix - recombine(dec_real).matrix),
        thresh(1e-10),
    )
    add(
        "imag_identity",
        np.linalg.norm(chois["imag"].matrix - recombine(dec_imag).matrix),
        thresh(1e-10),
    )

    bound_real = error_lower_bound(chois["real"])
    bound_imag = error_lower_bound(chois["imag"])
    add("real_bound_value", abs(bound_real - d), thresh(1e-9))
    add("imag_bound_value", abs(bound_imag - np.sqrt(d * d - 1.0)), thresh(1e-9))

    sat_real = prob_dev = sat_imag = 0.0
    for _ in range(20):
        rho = _random_state(rng, d)
        cr = decomposition_cost(dec_real, rho, bound=bound_real)
        ci = decomposition_cost(dec_imag, rho, bound=bound_imag)
        sat_real = max(sat_real, abs(cr.cost - cr.bound))
        sat_imag = max(sat_imag, abs(ci.cost - ci.bound))
        for p in cr.probabilities + ci.probabilities:
            prob_dev = max(prob_dev, abs(p - 0.5))
    add("real_saturation", sat_real, thresh(1e-9))
    add("imag_saturation", sat_imag, thresh(1e-9))
    add("branch_probabilities", prob_dev, thresh(1e-10))

    add(
        "orthogonality_sym",
        abs(np.sum(chois["sym"].matrix * chois["anti"].matrix.T)),
        thresh(1e-12),
    )
    add(
        "orthogonality_phase",
        abs(np.sum(chois["phase_plus"].matrix * chois["phase_minus"].matrix.T)),
        thresh(1e-10),
    )

    flags_ok = all(
        is_completely_positive(chois[k]) and is_trace_preserving(chois[k])
        for k in ("sym", "anti", "phase_plus", "phase_minus")
    )
    total = ChoiOperator(
        chois["real"].matrix - 1j * chois["imag"].matrix, d_in=d, d_out=d * d
    )
    flags_ok = flags_ok and not is_hermiticity_preserving(total)
    flags_ok = flags_ok and not is_trace_preserving(chois["imag"])
    add("cp_tp_flags", 0.0 if flags_ok else 1.0, 0.5)

    two_point_dev = 0.0
    for _ in range(5):
        rho = _random_state(rng, d)
        a = _random_observable(rng, d)
        b = _random_observable(rng, d)
        ab = np.kron(a, b)
        got = complex(
            np.trace(real_part_apply(fam, rho) @ ab)
            - 1j * np.trace(imag_part_apply(fam, rho) @ ab)
        )
        two_point_dev = max(two_point_dev, abs(got - two_point_exact(rho, a, b)))
    add("two_point_identity", two_point_dev, thresh(1e-10))
    return checks, chois


def cmd_verify(args) -> int:
    if not 2 <= args.d <= 16:
        raise ValueError(f"dimension must satisfy 2 <= d <= 16, got {args.d}")
    if args.tol is not None:
        _check_tol(args.tol)
    if args.dump is not None:
        os.makedirs(args.dump, exist_ok=True)
    checks, chois = _verify_checks(args.d, args.seed, args.tol)
    if args.dump is not None:
        for name, j in chois.items():
            path = os.path.join(args.dump, f"choi_{name}_d{args.d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_dumps(matrix_to_json(j.matrix)))
    passed = all(c["passed"] for c in checks)
    report = {"d": args.d, "seed": args.seed, "checks": checks, "passed": passed}
    _emit(_dumps(report), args.out)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_experiment(args) -> int:
    rho = _load_matrix(args.rho)
    rho = check_density_matrix(rho)
    if rho.shape != (2, 2):
        raise ValueError(f"experiment needs a qubit state, got side {rho.shape[0]}")
    stats = simulate_optics(rho)
    rng = np.random.default_rng(0xC01C)
    residual = 0.0
    for _ in range(10):
        a = _random_observable(rng, 2)
        b = _random_observable(rng, 2)
        got = recombine_coincidences(stats, a, b)
        want = float(np.trace(rho @ (a @ b + b @ a)).real) / 2.0
        residual = max(residual, abs(got - want))
    payload = {
        "p_sym": stats.p_sym,
        "p_anti": stats.p_anti,
        "recombination_residual": residual,
    }
    _emit(_dumps(payload), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twopoint",
        description=(
            "Decompose two-copy correlation maps into quantum instruments, "
            "estimate Tr[A rho B] from simulated shots, and verify the "
            "family identities. Matrices are JSON files: "
            '{"rows": r, "cols": c, "data": [[re, im], ...]} row-major.'
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "decompose",
        help="statistical decomposition of a process matrix into instrument branches",
    )
    p.add_argument("input", help="MatrixFile path of the process matrix")
    p.add_argument("--din", type=int, required=True, help="input dimension")
    p.add_argument("--dout", type=int, required=True, help="output dimension")
    p.add_argument("--tol", type=float, default=1e-10, help="hermiticity tolerance (default 1e-10)")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("estimate", help="Monte Carlo estimate of Tr[A rho B]")
    p.add_argument("rho", help="MatrixFile path of the state")
    p.add_argument("a", help="MatrixFile path of observable A")
    p.add_argument("b", help="MatrixFile path of observable B")
    p.add_argument("--shots", type=int, default=200000, help="total shot budget (default 200000)")
    p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"RNG seed (default {DEFAULT_SEED} = 0x2A); same seed, same output",
    )
    p.add_argument("--threads", type=int, default=1, help="shot-evaluation threads (results unchanged)")
    p.add_argument(
        "--split",
        type=float,
        default=0.5,
        help="fraction of the budget for the real-part pipeline (default 0.5)",
    )
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("verify", help="run the invariant suite for one dimension")
    p.add_argument("d", type=int, help="dimension (2..16)")
    p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"seed for random states (default {DEFAULT_SEED} = 0x2A)",
    )
    p.add_argument("--tol", type=float, default=None, help="override per-check residual thresholds")
    p.add_argument("--dump", default=None, metavar="DIR", help="also write all process matrices as MatrixFiles")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="exact three-photon optics simulation on a qubit state")
    p.add_argument("rho", help="MatrixFile path of the qubit state")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        _check_out(args.out)
        return args.func(args)
    except MatrixFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
