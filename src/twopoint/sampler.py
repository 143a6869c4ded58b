"""Monte Carlo estimation of Tr[A rho B] from one multinomial draw of cell counts.

Each shot lands in the cell of instrument branch i and outcome pair
(alpha, beta) of the two commuting local observables A (x) 1 and 1 (x) B,
with probability p(i) q_i(alpha, beta), and records lambda_i * alpha * beta.
The mean of those records is an unbiased estimator of Tr[L(rho) (A (x) B)]
for the recombined map L; running the real- and imaginary-part instruments
and combining as real - i*imag gives Tr[A rho B].

Every branch of the universal instruments is E(rho) = c G (1 (x) rho) G^dag
with G = (1 + zS)/2, its weight lambda, c and z read from
``correlator.universal_branches``. Since S (1 (x) rho) S = rho (x) 1 and
Tr[S (X (x) Y)] = Tr[XY], a branch's cell is

    p(i) q_i(alpha, beta) = (c/4) [r_alpha t_beta + t_alpha r_beta
                                   + 2 Re(z K_alpha,beta)],

with Pi the spectral projectors of A and B, r = Tr Pi, t = Tr[rho Pi] and
K_alpha,beta = Tr[Pi_alpha rho Pi_beta] the Kirkwood-Dirac quasiprobability
of rho. ``_kirkwood_dirac_plans`` reads both pipelines' cells off this one
d x d matrix, which costs O(d^3); the two-copy space never appears, and the
cells of each branch sum to (c/4)(2d + 2 Re z) = 1/2. ``estimate_two_point``
validates rho, A and B once each, eigendecomposes A and B in one batched
``eigh``, and builds all four branches' cells in one broadcast. A call takes
about 0.16 ms at d = 4, 5 ms at d = 64 and 0.07 s at d = 256, whatever the
shot count (one BLAS thread, 2-core x86-64); at d = 4 that is almost all
NumPy's fixed cost per call on tiny arrays, so the plan avoids extra calls.

``estimate_component`` takes any instrument decomposition instead, and
``_component_plan`` reads its cells off each branch's Kraus stack rotated
into the eigenbases of A and B. Both plans feed ``_sample``, which draws all
n shots' cell counts at once, so the work per estimate grows with the number
of cells, not with the shot count, and so does the memory.

The draw comes from a generator keyed with
``numpy.random.SeedSequence(seed, spawn_key=(tag,))``, one tag per pipeline,
so the same (seed, pipeline tag, n) gives the same counts.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .choi import _kraus_stack
from .correlator import two_point_exact, universal_branches
from .decomposition import StatisticalDecomposition
from .linalg import BRANCH_FLOOR, INSTRUMENT_TOL, _hermitian, check_density_matrix, eigenspaces

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


def _plans(cells, weights, avals, bvals):
    """One ``(cell_probs, values)`` per pipeline, from the (pipelines,
    branches, cells) array of clipped cells p(i) q_i(alpha, beta), alpha
    slowest, and the (pipelines, branches) branch weights.

    ``values[i, j]`` is the recorded value lambda_i * alpha * beta of branch
    i and outcome pair j. ``cell_probs`` holds the cells in the order of
    ``values.ravel()``, with the branch probabilities normalised so that
    they sum to 1, within ``INSTRUMENT_TOL`` before. Branches of probability
    at most ``BRANCH_FLOOR`` are dropped: they are never drawn. A
    ``ValueError`` names the records' range, max|lambda| max|alpha|
    max|beta|, if it is not a finite float.
    """
    ab_tops = [max(map(abs, x.tolist())) for x in (avals, bvals)]  # Python floats: no warning
    plans = []
    for cell, lams, sums in zip(cells, weights, np.add.reduce(cells, axis=2).tolist()):
        kept = [p > BRANCH_FLOOR for p in sums]
        if not all(kept):
            if not any(kept):
                raise ValueError("all branch probabilities vanish for this state")
            cell, lams = cell[kept], lams[kept]
            sums = [p for p, keep in zip(sums, kept) if keep]
        total = sum(sums)
        if not abs(total - 1.0) <= INSTRUMENT_TOL:
            raise ValueError(f"branch probabilities sum to {total}, not 1: not an instrument")
        tops = [max(map(abs, lams.tolist())), *ab_tops]
        if math.isfinite(tops[0] * tops[1] * tops[2]):
            values = (lams[:, None] * avals)[:, :, None] * bvals
        else:  # lambda alpha, or the records, overflow: take each factor at 2^-k
            ks = [math.frexp(t)[1] for t in tops]
            lam2, a2, b2 = (np.ldexp(x, -k) for x, k in zip((lams, avals, bvals), ks))
            with np.errstate(over="ignore"):
                values = np.ldexp((lam2[:, None] * a2)[:, :, None] * b2, sum(ks))
            if not np.isfinite(values).all():
                raise ValueError("the records lambda*alpha*beta reach {:g} * {:g} * {:g}, "
                                 "beyond the float range".format(*tops))
        plans.append((cell.ravel() / total, values.reshape(len(lams), -1)))
    return plans


def _component_plan(decomp, rho, a, b):
    """The one plan of ``_plans`` for any instrument decomposition.

    A branch's Kraus operators K_r (the effect's own, or extracted from its
    process matrix) become M_r = (U_A^dag (x) U_B^dag) K_r in the eigenbases
    of A and B. The diagonal of sum_r M_r rho M_r^dag weighs each pair of
    eigenvectors, and its sums over the eigenvalue clusters are the branch's
    cells; no conditional two-copy state or spectral projector is formed.
    """
    rho = check_density_matrix(rho)
    [(ua, sa, _, avals)], [(ub, sb, _, bvals)] = (
        eigenspaces(_hermitian(x, "observable")[1]) for x in (a, b)
    )
    da, db, d_in = len(ua), len(ub), len(rho)
    cells = np.empty((len(decomp.effects), len(avals) * len(bvals)))
    for cell, eff in zip(cells, decomp.effects):
        k = _kraus_stack(eff)
        if k.shape[1:] != (da * db, d_in):
            raise ValueError(
                f"Kraus operators of shape {k.shape[1:]} do not take a {d_in}-dimensional "
                f"state to the {da}x{db} observables' space"
            )
        m = (ua.conj().T @ k.reshape(-1, da, db * d_in)).reshape(-1, db, d_in)
        m = (ub.conj().T @ m).reshape(-1, da, db, d_in)
        born = ((m @ rho) * m.conj()).real.sum(axis=(0, 3))
        born = np.add.reduceat(np.add.reduceat(born, sa, axis=0), sb, axis=1)
        cell[:] = np.maximum(born, 0.0).ravel()
    return _plans(cells[None], np.array([decomp.weights], dtype=float), avals, bvals)[0]


@functools.lru_cache(maxsize=16)
def _branch_table(d):
    """``universal_branches(d)`` as read-only arrays, built once per d: lambda
    as (pipeline, branch), and c/4 and z as (4, 1, 1), to broadcast over K."""
    lams, c, zs = map(np.array, zip(*universal_branches(d)))
    table = lams.reshape(2, 2), (c / 4)[:, None, None], zs[:, None, None]
    for x in table:
        x.flags.writeable = False
    return table


def _kirkwood_dirac_plans(rho, ha, hb):
    """``_plans`` of the universal real- and imaginary-part instruments at
    once, from the Kirkwood-Dirac matrix K of rho (see the module
    docstring). ``rho`` is a validated d x d state, d >= 2, and ``ha`` and
    ``hb`` are the Hermitian parts of the validated d x d observables.

    K is the cluster sum of (U_A^dag rho U_B) o conj(U_A^dag U_B), and its
    row and column sums are t_alpha and t_beta. The four branches' cells
    come from one broadcast over their (c, z) in ``_branch_table``, whose
    first pair is the real part's.
    """
    (ua, sa, ra, avals), (ub, sb, rb, bvals) = eigenspaces(ha, hb)
    ua_dag = ua.conj().T
    kd = (ua_dag @ rho @ ub) * (ua_dag @ ub).conj()
    kd = np.add.reduceat(np.add.reduceat(kd, sa, axis=0), sb, axis=1)
    local = ra[:, None] * np.add.reduce(kd, 0).real + np.add.reduce(kd, 1).real[:, None] * rb
    lams, c4, zs = _branch_table(len(rho))
    cells = np.maximum(c4 * (local + 2 * (zs * kd).real), 0.0).reshape(2, 2, -1)
    return tuple(_plans(cells, lams, avals, bvals))


def _cell_counts(cell_probs, n_shots, rng):
    """Shots per cell: one multinomial draw of ``n_shots`` from the
    generator keyed by the ``SeedSequence`` ``rng``."""
    return np.random.default_rng(rng).multinomial(n_shots, cell_probs)


def _sample(plan, n_shots, rng):
    """Mean and standard error of the records of ``n_shots`` shots drawn
    over the cells of ``plan`` by ``_cell_counts``.

    Both are computed on the records times 2^-k, 2^k from their largest
    modulus, and scaled back: the scaling is exact, and squaring the scaled
    records neither overflows nor underflows."""
    cell_probs, values = plan
    counts = _cell_counts(cell_probs, n_shots, rng)
    scale = math.ldexp(1.0, math.frexp(np.abs(values).max())[1])
    values = values.ravel() / scale
    mean = float(counts @ values / n_shots)
    if n_shots == 1:
        return mean * scale, 0.0
    se = math.sqrt(counts @ (values - mean) ** 2 / (n_shots - 1) / n_shots)
    return mean * scale, se * scale


def _integer(x, name):
    """``x`` as an ``int``; a ``ValueError`` unless it is an integer other
    than a bool (NumPy integers count)."""
    try:
        if not isinstance(x, bool):
            return operator.index(x)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {x!r}")


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
    n_shots = _integer(n_shots, "n_shots")
    if not 1 <= n_shots <= 2**63 - 1:  # cell counts are int64
        raise ValueError(f"need between 1 and 2**63 - 1 shots, got {n_shots}")
    return _sample(_component_plan(decomp, rho, a, b), n_shots, rng)


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
    up to 2**63 - 1 at no extra cost, and the plan costs O(d^3)."""
    n_shots = _integer(n_shots, "n_shots")
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rho = check_density_matrix(rho)
    a, ha = _hermitian(a, "observable")
    b, hb = _hermitian(b, "observable")
    d = rho.shape[0]
    if d < 2:
        raise ValueError("estimation requires dimension >= 2")
    if a.shape != (d, d) or b.shape != (d, d):
        raise ValueError(f"observable shapes {a.shape}, {b.shape} do not match state dimension {d}")
    if not 2 <= n_shots <= 2**63 - 1:  # cell counts are int64
        raise ValueError(f"need between 2 and 2**63 - 1 shots to run both pipelines, got {n_shots}")
    if not 0.0 < split < 1.0:
        raise ValueError(f"split must lie strictly between 0 and 1, got {split}")
    n_imag = int(n_shots * (1.0 - split))
    n_real = n_shots - n_imag
    if n_imag < 1 or n_real < 1:
        raise ValueError(
            f"split {split} starves one pipeline ({n_real} real / {n_imag} imag shots)"
        )
    real_plan, imag_plan = _kirkwood_dirac_plans(rho, ha, hb)
    re_mean, re_se = _sample(
        real_plan, n_real, np.random.SeedSequence(seed, spawn_key=(_REAL_TAG,))
    )
    im_mean, im_se = _sample(
        imag_plan, n_imag, np.random.SeedSequence(seed, spawn_key=(_IMAG_TAG,))
    )
    return EstimationReport(
        estimate=complex(re_mean, -im_mean),
        std_error=(re_se, im_se),
        n_shots=n_shots,
        exact=two_point_exact(rho, a, b),
        seed=seed,
    )
