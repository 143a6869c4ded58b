"""Output checks: each returns None when the result is right, else the reason.

The checks read results in the CLI's JSON shape, so in-process reports, CLI
output and traced replays are judged by the same code.
"""

from __future__ import annotations

import numpy as np

from gen import read_matrix_file

ESTIMATE_SIGMAS = 5.0
P_SYM, P_ANTI = 3 / 16, 1 / 16
OPTICS_TOL = 1e-12
RESIDUAL_TOL = 1e-10
RECOMBINE_TOL = 1e-8
BOUND_TOL = 1e-8


def estimate_payload(report) -> dict:
    """An ``EstimationReport`` in the JSON shape of ``twopoint estimate``."""
    return {
        "estimate": [report.estimate.real, report.estimate.imag],
        "std_error": list(report.std_error),
        "exact": [report.exact.real, report.exact.imag],
    }


def check_estimate(payload: dict, exact: complex) -> str | None:
    """Within 5 standard errors of ``exact`` per part, and ``exact`` reported
    bit for bit."""
    if complex(*payload["exact"]) != exact:
        return f"exact {payload['exact']} differs from two_point_exact {exact}"
    for part, got, want, se in zip(
        ("real", "imag"), payload["estimate"], (exact.real, exact.imag), payload["std_error"]
    ):
        if not abs(got - want) <= ESTIMATE_SIGMAS * se:
            return f"{part} part {got} is more than {ESTIMATE_SIGMAS} SE ({se}) from {want}"
    return None


def check_verify(report: dict) -> str | None:
    if report.get("passed") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
        return f"verify reports passed={report.get('passed')!r}, failed checks {failed}"
    return None


def check_experiment(payload: dict) -> str | None:
    if abs(payload["p_sym"] - P_SYM) > OPTICS_TOL or abs(payload["p_anti"] - P_ANTI) > OPTICS_TOL:
        return f"p_sym {payload['p_sym']}, p_anti {payload['p_anti']} are not 3/16, 1/16"
    if not payload["recombination_residual"] <= RESIDUAL_TOL:
        return f"recombination residual {payload['recombination_residual']}"
    return None


def check_decompose(payload: dict, jm: np.ndarray, bound: float) -> str | None:
    """Terms recombine to ``jm``, the bound is ``bound`` and every effect is CP."""
    terms = payload["terms"]
    if not terms:
        return "no terms"
    total = sum(t["lambda"] * read_matrix_file(t["effect"]) for t in terms)
    residual = float(np.linalg.norm(total - jm))
    if not residual <= RECOMBINE_TOL:
        return f"terms recombine with residual {residual}"
    if not abs(payload["bound"] - bound) <= BOUND_TOL:
        return f"bound {payload['bound']} is not {bound}"
    flags = payload["is_cp_flags"]
    if len(flags) != len(terms) or not all(flags):
        return "a CP flag is false or missing"
    return None
