"""Monte Carlo estimation of Tr[A rho B] with one vectorized sampling kernel.

Each shot draws an instrument branch i with probability p(i) = Tr[E_i(rho)],
then draws a joint eigenvalue pair (alpha, beta) of the two commuting local
observables A (x) 1 and 1 (x) B on the conditional two-copy output state, and
records lambda_i * alpha * beta. The running mean of those records is an
unbiased estimator of Tr[L(rho) (A (x) B)] for the recombined map L; running
the real- and imaginary-part instruments and combining as real - i*imag gives
Tr[A rho B].

Shots are never drawn one at a time: ``_component_plan`` tabulates the branch
and joint-outcome distributions once per (instrument, state, observables),
and ``_evaluate_block`` maps a block of uniforms to recorded values through
those tables.

Randomness is counter-based: every shot's uniforms are a pure function of
(seed, pipeline tag, shot index), generated by a Philox stream keyed with
``numpy.random.SeedSequence(seed, spawn_key=(tag, role))`` and extracted in
aligned blocks via ``Philox.advance``. Estimates are therefore bit-identical
for a fixed seed, independent of chunking and of how many threads evaluate
the chunks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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

# Shots are generated and evaluated in fixed-size blocks; the size is even so
# block starts stay aligned with the Philox counter (2 uniforms per shot,
# 4 words per counter tick).
CHUNK = 1 << 16

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


def _joint_distribution(state2: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Outcome values and Born probabilities of measuring A and B on the two
    halves of a two-copy state."""
    avals, aprojs = spectral_projectors(a)
    bvals, bprojs = spectral_projectors(b)
    d2 = state2.shape[0]
    if state2.shape != (d2, d2) or d2 != a.shape[0] * b.shape[0]:
        raise ValueError(
            f"two-copy state side {state2.shape[0]} does not match observable "
            f"dimensions {a.shape[0]}x{b.shape[0]}"
        )
    pairs = [(av, bv) for av in avals for bv in bvals]
    # Tr[state2 (P_alpha (x) P_beta)] for all pairs at once: with state2 as
    # s[i, j, k, l] (row (i, j), column (k, l)), contract i, k with P_alpha[k, i]
    # and then j, l with P_beta[l, j].
    da, db = a.shape[0], b.shape[0]
    s = state2.reshape(da, db, da, db)
    t = np.tensordot(s, np.array(aprojs), axes=([0, 2], [2, 1]))
    born = np.tensordot(t, np.array(bprojs), axes=([0, 1], [2, 1]))
    q = np.maximum(born.real.ravel(), 0.0)
    total = q.sum()
    if total <= 0:
        raise ValueError("conditional state has no outcome support")
    return pairs, q / total


def _component_plan(decomp, rho, a, b):
    """Precompute sampling tables: branch cdf, per-branch outcome cdfs, and
    the per-(branch, outcome) recorded values lambda_i * alpha * beta.

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
    branch_cdf = np.cumsum(np.array([p / total for p in probs]))
    outcome_cdfs = []
    values = []
    for st, lam in zip(states, weights):
        pairs, q = _joint_distribution(st, a, b)
        outcome_cdfs.append(np.cumsum(q))
        values.append([lam * av * bv for av, bv in pairs])
    return branch_cdf, np.vstack(outcome_cdfs), np.array(values)


def _uniform_block(ss: np.random.SeedSequence, start: int, count: int) -> np.ndarray:
    """Shots [start, start+count) of the stream keyed by ``ss``, as (count, 2)
    uniforms. ``start`` must be even so the 2-per-shot word offset lands on a
    Philox counter tick."""
    if start % 2:
        raise ValueError("block start must be even")
    bg = np.random.Philox(seed=ss)
    bg.advance((2 * start) // 4)
    return np.random.Generator(bg).random((count, 2))


def _evaluate_block(u, branch_cdf, outcome_cdfs, values):
    """Map a block of uniforms to recorded per-shot values."""
    nb = branch_cdf.size
    branch = np.minimum(
        np.searchsorted(branch_cdf, u[:, 0], side="right"), nb - 1
    )
    # Row-wise inverse CDF: count how many outcome boundaries each uniform
    # clears within its branch's row.
    rows = outcome_cdfs[branch]
    outcome = np.minimum(
        (u[:, 1][:, None] > rows).sum(axis=1), outcome_cdfs.shape[1] - 1
    )
    return values[branch, outcome]


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

    ``rng`` is a ``numpy.random.SeedSequence``; per-shot uniforms are
    counter-indexed so the result depends only on the key and ``n_shots``,
    never on chunking or ``threads``.
    """
    if n_shots < 1:
        raise ValueError(f"need at least one shot, got {n_shots}")
    if threads < 1:
        raise ValueError(f"need at least one thread, got {threads}")
    plan = _component_plan(decomp, rho, a, b)
    records = np.empty(n_shots)
    starts = range(0, n_shots, CHUNK)

    def job(s0: int):
        m = min(CHUNK, n_shots - s0)
        records[s0 : s0 + m] = _evaluate_block(_uniform_block(rng, s0, m), *plan)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(job, starts))
    else:
        for s0 in starts:
            job(s0)
    mean = float(np.mean(records))
    if n_shots > 1:
        se = float(np.std(records, ddof=1) / np.sqrt(n_shots))
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
    (default even split; the real part gets the odd shot)."""
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
    if n_shots < 2:
        raise ValueError(f"need at least 2 shots to run both pipelines, got {n_shots}")
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
