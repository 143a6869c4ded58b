"""Command-line interface over a JSON matrix format.

Commands: ``decompose`` (statistical decomposition of a map given by its
process matrix), ``estimate`` (shot-based estimation of Tr[A rho B]),
``verify`` (self-check suite for one dimension), ``experiment`` (exact
three-photon optics simulation).

All structured output is JSON: UTF-8, two-space indentation, sorted keys,
complex numbers as [re, im] pairs. Matrices travel as MatrixFile objects —
``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with row-major data.
A report is written as it is formatted, once every value in it is computed;
its matrices are built and written one at a time, a block of entries at a
time, so memory does not grow with the report.
Exit codes: 0 success, 1 verification failure, 2 parse error, 3 semantic or
validation error, a non-finite number in the report or an unwritable output
path. Diagnostics go to standard error; results go to --out or standard
output.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring

import numpy as np

from .choi import (
    ChoiOperator,
    combine,
    frobenius_norm,
    is_completely_positive,
    is_hermiticity_preserving,
    is_trace_preserving,
    trace_product,
)
from .correlator import (
    CorrelatorFamily,
    choi_builders,
    imag_part_apply,
    real_part_apply,
    two_point_exact,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from .decomposition import error_lower_bound, recombine, statistical_decompose
from .linalg import HERM_TOL
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
    data = m.reshape(-1).view(float).reshape(-1, 2).tolist()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def _decode_pairs(data: list) -> np.ndarray:
    """Decode ``data`` pair by pair, naming the first entry that is not a
    finite [re, im] number pair."""
    out = np.empty(len(data), dtype=complex)
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
        if not np.isfinite(out[i]):
            raise MatrixFileError(f"data[{i}] is not a finite number pair, got {pair!r}")
    return out


def json_to_matrix(obj) -> np.ndarray:
    """Decode a MatrixFile dict, validating shape and finiteness.

    ``data`` is decoded in bulk when every entry is a list of two plain
    ints or floats and the numbers are finite; anything else goes through
    ``_decode_pairs``, which names the first bad entry."""
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
    if set(map(type, data)) == {list} and set(map(len, data)) == {2}:
        flat = list(itertools.chain.from_iterable(data))
        if set(map(type, flat)) <= {float, int}:
            try:
                values = np.array(flat, dtype=float)
            except OverflowError:  # an integer too large for a float
                pass
            else:
                if np.isfinite(values).all():
                    return values.view(complex).reshape(rows, cols)
    return _decode_pairs(data).reshape(rows, cols)


def _load_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MatrixFileError(f"{path} is not valid UTF-8 JSON: {exc}") from exc
    return json_to_matrix(obj)


BLOCK = 4096  # [re, im] pairs formatted and written at a time


def _write_json(obj, fh) -> None:
    """Write the text of json.dumps(obj, indent=2, sort_keys=True,
    ensure_ascii=False, allow_nan=False) and a newline to ``fh``, for objects
    with string keys, as it is formatted: in runs of up to 64 KiB, and each block of BLOCK
    [re, im] pairs on its own. An ndarray is written as MatrixFile data (the
    [re, im] pairs of its entries, row-major) and an iterator as a list.
    json.dumps with ``indent`` would take seconds on the side^3 numbers of a
    ``decompose`` report, and hold all its text.
    """
    pending, size = [], 0
    for text in _chunks(obj, "\n"):
        if pending and size + len(text) > 1 << 16:
            fh.write("".join(pending))
            pending, size = [], 0
        pending.append(text)
        size += len(text)
    pending.append("\n")
    fh.write("".join(pending))


def _chunks(obj, nl: str) -> Iterator[str]:
    """The text of one JSON value, whose lines continue with ``nl`` (a
    newline and the value's indentation), in pieces."""
    inner = nl + "  "
    if isinstance(obj, np.ndarray):
        yield from _float_pairs(obj, nl)
    elif isinstance(obj, dict):
        sep = "{"
        for key, value in sorted(obj.items()):
            yield sep + inner + encode_basestring(key) + ": "
            yield from _chunks(value, inner)
            sep = ","
        yield "{}" if sep == "{" else nl + "}"
    elif isinstance(obj, (list, tuple, Iterator)):
        sep = "["
        for value in obj:
            yield sep + inner
            yield from _chunks(value, inner)
            sep = ","
        yield "[]" if sep == "[" else nl + "]"
    else:
        yield json.dumps(obj, ensure_ascii=False, allow_nan=False)


def _float_pairs(m: np.ndarray, nl: str) -> Iterator[str]:
    """The text of the list of [re, im] pairs of ``m``'s entries (row-major),
    each block of BLOCK pairs formatted by one %-format (%r is float.__repr__).
    A non-finite entry raises ``ValueError``, as json.dumps(allow_nan=False) does."""
    flat = np.asarray(m, dtype=complex).reshape(-1).view(float)
    inner = nl + "  "
    pair, between = "%r," + inner + "  %r", inner + "]," + inner + "[" + inner + "  "
    template = between.join([pair] * min(BLOCK, flat.size // 2))
    for start in range(0, flat.size, 2 * BLOCK):
        block = flat[start : start + 2 * BLOCK]
        if not np.isfinite(block).all():
            bad = float(block[~np.isfinite(block)][0])
            raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
        numbers = tuple(block.tolist())
        yield between if start else "[" + inner + "[" + inner + "  "
        yield template[: (len(pair) + len(between)) * len(numbers) // 2 - len(between)] % numbers
    yield inner + "]" + nl + "]" if flat.size else "[]"


def _matrix_file(j: ChoiOperator) -> dict:
    """The MatrixFile of the process matrix of ``j``, a stacked map, as the
    writer takes it. The matrix is built on a copy, so that ``j`` does not keep it."""
    m = ChoiOperator(None, j.d_in, j.d_out, *j.stacks).matrix
    return {"rows": m.shape[0], "cols": m.shape[1], "data": m}


def _write_report(obj, path: str | None) -> None:
    """Write ``obj`` as JSON to the file ``path``, or to standard output."""
    out = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")
    with out as fh:
        _write_json(obj, fh)


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
    if not 0 <= tol < math.inf:  # NaN fails the comparison too
        raise ValueError(f"--tol must be a finite non-negative number, got {tol}")


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
    report = {
        # one term's matrix at a time, formatted and written as it is built
        "terms": (
            {"lambda": lam, "effect": _matrix_file(eff)}
            for lam, eff in zip(decomp.weights, decomp.effects)
        ),
        "bound": float(error_lower_bound(j, tol=args.tol)),
        "is_cp_flags": [bool(is_completely_positive(eff)) for eff in decomp.effects],
    }
    _write_report(report, args.out)
    return EXIT_OK


def cmd_estimate(args) -> int:
    rho = _load_matrix(args.rho)
    a = _load_matrix(args.a)
    b = _load_matrix(args.b)
    report = estimate_two_point(
        rho, a, b, n_shots=args.shots, seed=args.seed, split=args.split
    )
    payload = {
        "estimate": [report.estimate.real, report.estimate.imag],
        "std_error": [report.std_error[0], report.std_error[1]],
        "exact": [report.exact.real, report.exact.imag],
        "n_shots": report.n_shots,
        "seed": report.seed,
    }
    _write_report(payload, args.out)
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
    for part, dec in (("real", dec_real), ("imag", dec_imag)):
        residual = frobenius_norm(combine((1, -1), (chois[part], recombine(dec))))
        add(f"{part}_identity", residual, thresh(1e-10))

    bound_real = error_lower_bound(chois["real"])
    bound_imag = error_lower_bound(chois["imag"])
    add("real_bound_value", abs(bound_real - d), thresh(1e-9))
    add("imag_bound_value", abs(bound_imag - np.sqrt(d * d - 1.0)), thresh(1e-9))

    # p_i(rho) = Tr[M_i^T rho] for the input marginal M_i of effect i, so the
    # worst case over every state of |p_i - 1/2| is ||M_i - 1/2||_op, and that
    # of |cost - bound| is ||sum_i |lambda_i| M_i - bound 1||_op.
    def op_norm(h: np.ndarray) -> float:
        return float(np.abs(np.linalg.eigvalsh(h)).max())

    for part, dec, bound in (("real", dec_real, bound_real), ("imag", dec_imag, bound_imag)):
        cost = sum(abs(lam) * eff._input_marginal for lam, eff in zip(dec.weights, dec.effects))
        add(f"{part}_saturation", op_norm(cost - bound * np.eye(d)), thresh(1e-9))
    effects = dec_real.effects + dec_imag.effects
    prob_dev = max(op_norm(eff._input_marginal - np.eye(d) / 2) for eff in effects)
    add("branch_probabilities", prob_dev, thresh(1e-10))

    add("orthogonality_sym", abs(trace_product(chois["sym"], chois["anti"])), thresh(1e-12))
    add(
        "orthogonality_phase",
        abs(trace_product(chois["phase_plus"], chois["phase_minus"])),
        thresh(1e-10),
    )

    flags_ok = all(
        is_completely_positive(chois[k]) and is_trace_preserving(chois[k])
        for k in ("sym", "anti", "phase_plus", "phase_minus")
    )
    total = combine((1, -1j), (chois["real"], chois["imag"]))
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
            # each stack as one MatrixFile: its r operators, d_out x d_in, one under the next
            files = {side: {"rows": len(s) * s.shape[1], "cols": args.d, "data": s}
                     for side, s in zip(("left", "right"), j.stacks)}
            _write_report(files, os.path.join(args.dump, f"choi_{name}_d{args.d}.json"))
    passed = all(c["passed"] for c in checks)
    report = {"d": args.d, "seed": args.seed, "checks": checks, "passed": passed}
    _write_report(report, args.out)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_experiment(args) -> int:
    rho = _load_matrix(args.rho)
    stats = simulate_optics(rho)
    # The recombination and Tr[rho (AB + BA)]/2 are both linear in A (x) B, so
    # the root-sum-square of their differences over the 16 Pauli pairs bounds
    # the difference for every pair of observables of operator norm <= 1.
    paulis = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]]).reshape(4, 2, 2)
    residual = math.hypot(*(
        recombine_coincidences(stats, a, b) - float(np.trace(rho @ (a @ b + b @ a)).real) / 2
        for a in paulis for b in paulis
    ))
    payload = {
        "p_sym": stats.p_sym,
        "p_anti": stats.p_anti,
        "recombination_residual": residual,
    }
    _write_report(payload, args.out)
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
    p.add_argument("--tol", type=float, default=HERM_TOL,
                   help=f"relative hermiticity tolerance of the input (default {HERM_TOL:g})")
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
        help=f"seed for the states and observables of two_point_identity "
             f"(default {DEFAULT_SEED} = 0x2A)",
    )
    p.add_argument("--tol", type=float, default=None, help="override per-check residual thresholds")
    p.add_argument(
        "--dump",
        default=None,
        metavar="DIR",
        help="also write each map's operator stacks (L, R) as MatrixFiles",
    )
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
