"""Monte Carlo estimation of Tr[A rho B] from one multinomial draw of cell counts.

Each shot lands in the cell of instrument branch i and joint eigenvalue pair
(alpha, beta) with probability p(i) q_i(alpha, beta): p(i) = Tr[E_i(rho)] is
the branch probability and q_i the Born distribution of the two commuting
local observables A (x) 1 and 1 (x) B on the conditional two-copy output
state. The shot records lambda_i * alpha * beta. The mean of those records
is an unbiased estimator of Tr[L(rho) (A (x) B)] for the recombined map L;
running the real- and imaginary-part instruments and combining as
real - i*imag gives Tr[A rho B].

The mean and its standard error depend on the shots only through how many
landed in each cell, and those counts are Multinomial(n, cell
probabilities). ``_component_plan`` tabulates, once per (instrument, state,
observables), the cells' probabilities and recorded values, reading every
branch's cells off its Kraus stack in the eigenbases of A and B, and
``_cell_counts`` draws all n shots' counts at once. The work per estimate
grows with the number of cells, not with the shot count, and so does the
memory.

The draw comes from a generator keyed with
``numpy.random.SeedSequence(seed, spawn_key=(tag,))``, one tag per pipeline,
so the same (seed, pipeline tag, n) gives the same counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choi import _kraus_stack
from .correlator import (
    two_point_exact,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from .decomposition import StatisticalDecomposition
from .linalg import (
    DEGENERACY_TOL,
    check_density_matrix,
    check_observable,
    eigenvalue_clusters,
    hermitian_eigendecomposition,
)

# Documented default seed for reproducible-by-default runs.
DEFAULT_SEED = 0x2A

_REAL_TAG = 0
_IMAG_TAG = 1


@dataclass(frozen=True)
class EstimationReport:
    """Monte Carlo estimate with its exact reference value.

    ``std_error`` carries the (real-part, imaginary-part) standard errors of
    the two independent pipelines.
    """

    estimate: complex
    std_error: tuple[float, float]
    n_shots: int
    exact: complex
    seed: int


def _component_plan(decomp, rho, a, b):
    """Cells of the (branch, outcome) table: ``(cell_probs, values)``.

    ``values[i, j]`` is the recorded value lambda_i * alpha * beta of branch
    i and outcome pair j = (alpha, beta), alpha slowest. ``cell_probs`` holds
    the cells' joint probabilities p(i) q_i(j) in the order of
    ``values.ravel()``, with the branch probabilities normalised so that they
    sum to 1.

    A branch's Kraus operators K_r (the effect's own, or extracted from its
    process matrix) become M_r = (U_A^dag (x) U_B^dag) K_r in the eigenbases
    of A and B. The diagonal of sum_r M_r rho M_r^dag weighs each pair of
    eigenvectors, and its sums over the eigenvalue clusters are the branch's
    cells; no conditional two-copy state or spectral projector is formed.
    Branches of zero probability are dropped: they are never drawn.
    """
    rho = check_density_matrix(rho)
    (wa, ua), (wb, ub) = (hermitian_eigendecomposition(check_observable(x)) for x in (a, b))
    ca, cb = (eigenvalue_clusters(w, DEGENERACY_TOL) for w in (wa, wb))
    da, db, d_in = len(wa), len(wb), len(rho)
    cells, lams = [], []
    for lam, eff in zip(decomp.weights, decomp.effects):
        k = _kraus_stack(eff)
        if k.shape[1:] != (da * db, d_in):
            raise ValueError(
                f"Kraus operators of shape {k.shape[1:]} do not take a {d_in}-dimensional "
                f"state to the {da}x{db} observables' space"
            )
        m = (ua.conj().T @ k.reshape(-1, da, db * d_in)).reshape(-1, db, d_in)
        m = (ub.conj().T @ m).reshape(-1, da, db, d_in)
        born = ((m @ rho) * m.conj()).real.sum(axis=(0, 3))
        for axis, clusters in enumerate((ca, cb)):
            born = np.add.reduceat(born, [start for start, _ in clusters], axis=axis)
        q = np.maximum(born, 0.0).ravel()
        if q.sum() > 1e-15:
            cells.append(q)
            lams.append(lam)
    if not cells:
        raise ValueError("all branch probabilities vanish for this state")
    total = sum(q.sum() for q in cells)
    if abs(total - 1.0) > 1e-8:
        raise ValueError(
            f"branch probabilities sum to {total}, not 1: not an instrument"
        )
    avals, bvals = (np.array([np.mean(w[i:j]) for i, j in c]) for w, c in ((wa, ca), (wb, cb)))
    values = ((np.array(lams)[:, None] * avals)[:, :, None] * bvals).reshape(len(lams), -1)
    return np.concatenate(cells) / total, values


def _cell_counts(decomp, rho, a, b, n_shots, rng):
    """Shots per cell and the cells' recorded values, both in the order of
    ``values.ravel()``: one multinomial draw of ``n_shots`` from the
    generator keyed by the ``SeedSequence`` ``rng``."""
    cell_probs, values = _component_plan(decomp, rho, a, b)
    return np.random.default_rng(rng).multinomial(n_shots, cell_probs), values.ravel()


def estimate_component(
    decomp: StatisticalDecomposition,
    rho: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    n_shots: int,
    rng,
    threads: int = 1,
):
    """Monte Carlo mean and standard error of lambda_i * alpha * beta.

    ``rng`` is a ``numpy.random.SeedSequence``; the result depends only on
    the key and ``n_shots``. ``threads`` is ignored: it stays in the
    signature only because the benchmark's layer probes
    (``perfbench/tracing.py``) pass it.
    """
    if not 1 <= n_shots <= 2**63 - 1:  # cell counts are int64
        raise ValueError(f"need between 1 and 2**63 - 1 shots, got {n_shots}")
    counts, values = _cell_counts(decomp, rho, a, b, n_shots, rng)
    mean = float(counts @ values / n_shots)
    if n_shots > 1:
        se = float(np.sqrt(counts @ (values - mean) ** 2 / (n_shots - 1) / n_shots))
    else:
        se = 0.0
    return mean, se


def estimate_two_point(
    rho: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    n_shots: int,
    seed: int = DEFAULT_SEED,
    split: float = 0.5,
) -> EstimationReport:
    """Estimate Tr[A rho B] as real-pipeline mean minus i times imag-pipeline
    mean. ``split`` is the fraction of the budget spent on the real part
    (default even split; the real part gets the odd shot). ``n_shots`` may be
    up to 2**63 - 1 at no extra cost."""
    rho = check_density_matrix(rho)
    a = check_observable(a)
    b = check_observable(b)
    d = rho.shape[0]
    if d < 2:
        raise ValueError("estimation requires dimension >= 2")
    if a.shape != (d, d) or b.shape != (d, d):
        raise ValueError(
            f"observable shapes {a.shape}, {b.shape} do not match state "
            f"dimension {d}"
        )
    if not 2 <= n_shots <= 2**63 - 1:  # cell counts are int64
        raise ValueError(
            f"need between 2 and 2**63 - 1 shots to run both pipelines, got {n_shots}"
        )
    if not 0.0 < split < 1.0:
        raise ValueError(f"split must lie strictly between 0 and 1, got {split}")
    n_imag = int(n_shots * (1.0 - split))
    n_real = n_shots - n_imag
    if n_imag < 1 or n_real < 1:
        raise ValueError(
            f"split {split} starves one pipeline ({n_real} real / {n_imag} imag shots)"
        )
    re_mean, re_se = estimate_component(
        universal_real_decomposition(d), rho, a, b, n_real,
        np.random.SeedSequence(seed, spawn_key=(_REAL_TAG,)),
    )
    im_mean, im_se = estimate_component(
        universal_imag_decomposition(d), rho, a, b, n_imag,
        np.random.SeedSequence(seed, spawn_key=(_IMAG_TAG,)),
    )
    return EstimationReport(
        estimate=complex(re_mean, -im_mean),
        std_error=(re_se, im_se),
        n_shots=n_shots,
        exact=two_point_exact(rho, a, b),
        seed=int(seed),
    )
