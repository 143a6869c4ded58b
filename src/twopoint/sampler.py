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
observables), the cells' probabilities and recorded values, and
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

from .choi import apply_choi
from .correlator import (
    two_point_exact,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from .decomposition import StatisticalDecomposition
from .linalg import check_density_matrix, check_observable, eigenvalue_clusters, hermitian_eigendecomposition

# Documented default seed for reproducible-by-default runs.
DEFAULT_SEED = 0x2A

# Eigenvalues of an observable closer than this are treated as one degenerate
# outcome, sampled through the grouped spectral projector.
SPECTRUM_TOL = 1e-9

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


def spectral_projectors(obs: np.ndarray, tol: float = SPECTRUM_TOL):
    """Grouped eigendecomposition of a Hermitian observable.

    Returns ``(values, projectors)`` where eigenvalues with gaps <= tol are
    merged into one outcome whose value is the group mean and whose projector
    spans the group's eigenvectors.
    """
    obs = check_observable(obs)
    w, v = hermitian_eigendecomposition(obs)
    values: list[float] = []
    projs: list[np.ndarray] = []
    for start, stop in eigenvalue_clusters(w, tol):
        block = v[:, start:stop]
        values.append(float(np.mean(w[start:stop])))
        projs.append(block @ block.conj().T)
    return values, projs


def _joint_distribution(state2: np.ndarray, aspec, bspec):
    """Outcome values and Born probabilities of measuring A and B on the two
    halves of a two-copy state; ``aspec`` and ``bspec`` are the
    ``(values, projectors)`` pairs of ``spectral_projectors``."""
    (avals, aprojs), (bvals, bprojs) = aspec, bspec
    aprojs, bprojs = np.array(aprojs), np.array(bprojs)
    da, db = aprojs.shape[1], bprojs.shape[1]
    d2 = state2.shape[0]
    if state2.shape != (d2, d2) or d2 != da * db:
        raise ValueError(
            f"two-copy state side {state2.shape[0]} does not match observable "
            f"dimensions {da}x{db}"
        )
    pairs = [(av, bv) for av in avals for bv in bvals]
    # Tr[state2 (P_alpha (x) P_beta)] for all pairs at once: with state2 as
    # s[i, j, k, l] (row (i, j), column (k, l)), contract i, k with P_alpha[k, i]
    # and then j, l with P_beta[l, j].
    s = state2.reshape(da, db, da, db)
    t = np.tensordot(s, aprojs, axes=([0, 2], [2, 1]))
    born = np.tensordot(t, bprojs, axes=([0, 1], [2, 1]))
    q = np.maximum(born.real.ravel(), 0.0)
    total = q.sum()
    if total <= 0:
        raise ValueError("conditional state has no outcome support")
    return pairs, q / total


def _component_plan(decomp, rho, a, b):
    """Cells of the (branch, outcome) table: ``(cell_probs, values)``.

    ``values[i, j]`` is the recorded value lambda_i * alpha * beta of branch
    i and outcome pair j. ``cell_probs`` holds the cells' joint
    probabilities p(i) q_i(j) in the order of ``values.ravel()``, with the
    branch probabilities normalised so that they sum to 1.

    Branches of zero probability are dropped: they are never drawn.
    """
    rho = check_density_matrix(rho)
    probs, states, weights = [], [], []
    for lam, eff in zip(decomp.weights, decomp.effects):
        out = apply_choi(eff, rho)
        p = float(np.trace(out).real)
        if p > 1e-15:
            probs.append(p)
            states.append(out / p)
            weights.append(lam)
    if not probs:
        raise ValueError("all branch probabilities vanish for this state")
    total = sum(probs)
    if abs(total - 1.0) > 1e-8:
        raise ValueError(
            f"branch probabilities sum to {total}, not 1: not an instrument"
        )
    aspec, bspec = spectral_projectors(a), spectral_projectors(b)
    cell_probs = []
    values = []
    for p, st, lam in zip(probs, states, weights):
        pairs, q = _joint_distribution(st, aspec, bspec)
        cell_probs.append(p / total * q)
        values.append([lam * av * bv for av, bv in pairs])
    return np.concatenate(cell_probs), np.array(values)


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
    the key and ``n_shots``. ``threads`` must be at least 1 and has no
    effect.
    """
    if not 1 <= n_shots <= 2**63 - 1:  # cell counts are int64
        raise ValueError(f"need between 1 and 2**63 - 1 shots, got {n_shots}")
    if threads < 1:
        raise ValueError(f"need at least one thread, got {threads}")
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
    threads: int = 1,
    split: float = 0.5,
) -> EstimationReport:
    """Estimate Tr[A rho B] as real-pipeline mean minus i times imag-pipeline
    mean. ``split`` is the fraction of the budget spent on the real part
    (default even split; the real part gets the odd shot). ``n_shots`` may be
    up to 2**63 - 1 at no extra cost; ``threads`` must be at least 1 and has
    no effect."""
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
        np.random.SeedSequence(seed, spawn_key=(_REAL_TAG,)), threads,
    )
    im_mean, im_se = estimate_component(
        universal_imag_decomposition(d), rho, a, b, n_imag,
        np.random.SeedSequence(seed, spawn_key=(_IMAG_TAG,)), threads,
    )
    return EstimationReport(
        estimate=complex(re_mean, -im_mean),
        std_error=(re_se, im_se),
        n_shots=n_shots,
        exact=two_point_exact(rho, a, b),
        seed=int(seed),
    )
