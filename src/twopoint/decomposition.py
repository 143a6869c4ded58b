"""Instrument decompositions of hermiticity-preserving maps.

Any map with a Hermitian representing operator splits as L = sum_i lambda_i
E_i with real weights and completely positive branches E_i whose unweighted
sum is trace-preserving — a quantum instrument. The branch probabilities
p(i) = Tr[E_i(rho)] weight the classical post-processing, whose error
amplification sum_i |lambda_i| p(i) is bounded below, for every input state,
by the smallest eigenvalue of the input-side reduction of |J(L)|.
``statistical_decompose`` splits any such map along the positive and
negative parts of J (its Jordan form): at most three branches, whose largest
|lambda_i| is the largest eigenvalue of that reduction.

The same decomposition also yields a physical single-circuit realization: an
isometry into (output (x) ancilla) plus an ancilla observable whose partial
expectation value reproduces the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .choi import ChoiOperator, _abs_input_marginal, _jordan, _kraus_stack, combine
from .linalg import HERM_TOL, INSTRUMENT_TOL, KRAUS_RTOL, check_density_matrix


@dataclass(frozen=True)
class StatisticalDecomposition:
    """Ordered terms (lambda_i, effect_i) with sum_i effect_i trace-preserving."""

    weights: tuple[float, ...]
    effects: tuple[ChoiOperator, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.effects):
            raise ValueError("weights and effects must pair up one-to-one")
        if not self.effects:
            raise ValueError("a decomposition needs at least one term")

    @property
    def d_in(self) -> int:
        return self.effects[0].d_in

    @property
    def d_out(self) -> int:
        return self.effects[0].d_out


@dataclass(frozen=True, eq=False)
class Dilation:
    """Isometry V into (output (x) ancilla) plus ancilla observable Z."""

    isometry: np.ndarray
    ancilla_observable: np.ndarray
    d_in: int
    d_out: int
    d_ancilla: int


@dataclass(frozen=True)
class CostReport:
    """Error-amplification factor of a decomposition at a given state."""

    cost: float
    bound: float
    probabilities: tuple[float, ...]


def statistical_decompose(j: ChoiOperator, tol: float = HERM_TOL) -> StatisticalDecomposition:
    """Split a hermiticity-preserving map into its Jordan form: at most three
    weighted instrument branches.

    With J = sum_k mu_k |x_k><x_k| and M = Tr_out |J|, let c = lambda_max(M).
    The terms are (+c, J_+/c) and (-c, J_-/c), J_+ and J_- the positive and
    negative parts of J, carried by the Kraus operators sqrt(|mu_k|/c) x_k
    reshaped to d_out x d_in, then (0, completion): at most d_in rank-1
    Kraus operators into the output state |0>, whose input marginal is
    1 - M/c.
    The effects sum to a trace-preserving map, and the cost sum_i |lambda_i|
    p(i) at a state rho is Tr[M rho^T], as for any split along J_+ and J_-;
    max|lambda| is c <= d_out max|mu|. Everything is read off one thin QR and
    one ``eigh`` of the compressed C (``choi._jordan``), never off J.

    A term whose effect is empty is left out: the eigenvalues within
    n eps max|mu| of 0 (n the side of C, eps the float epsilon) give no
    Kraus operator, nor do the completion's directions of weight at most
    ``KRAUS_RTOL``. The terms recombine the Hermitian part of J within
    rounding: the left-out eigenvalues move it by at most
    n^(3/2) eps max|mu| in Frobenius norm. The zero map is one term of
    weight 0. Raises ``ValueError`` if a stack has a non-finite entry, unless
    ||J - J^dag||_F <= tol ||J||_F, or if c (not J) is beyond the float range.
    """
    mu, q, w, k = _jordan(j, tol)
    top, basis = np.linalg.eigh(_abs_input_marginal(j, mu, q, w))
    c = float(top[-1])
    try:
        weight = math.ldexp(c, k)
    except OverflowError:
        raise ValueError(f"the weight c = {c!r} * 2^{k} is beyond the float range") from None
    weights, effects = [], []
    cutoff = len(mu) * np.finfo(float).eps * np.abs(mu).max(initial=0.0)
    for sign in (1, -1):
        keep = sign * mu > cutoff
        if keep.any():
            x = q @ (w[:, keep] * np.sqrt(sign * mu[keep] / c))
            weights.append(sign * weight)
            effects.append(x.T.reshape(-1, j.d_out, j.d_in))
    nu = 1 - top / c if c > 0 else np.ones(j.d_in)
    keep = nu > KRAUS_RTOL
    if keep.any():
        kraus = np.zeros((keep.sum(), j.d_out, j.d_in), dtype=complex)
        kraus[:, 0] = (basis[:, keep] * np.sqrt(nu[keep])).T
        weights.append(0.0)
        effects.append(kraus)
    return StatisticalDecomposition(tuple(weights), tuple(
        ChoiOperator(None, d_in=j.d_in, d_out=j.d_out, kraus=e) for e in effects))


def recombine(decomp: StatisticalDecomposition) -> ChoiOperator:
    """Sum the weighted effects back into the represented map, one operator
    stack."""
    return combine(decomp.weights, decomp.effects)


def error_lower_bound(j: ChoiOperator, tol: float = HERM_TOL) -> float:
    """Smallest achievable error-amplification factor over all decompositions.

    Equals min over states sigma of Tr[|J| (1 (x) sigma)], which reduces to
    the minimum eigenvalue of M = Tr_out |J| (the trace against sigma of a
    fixed PSD operator is minimized by its ground-state projector), formed
    off ``choi._jordan`` (``_abs_input_marginal``): the bound of M 2^-k,
    scaled back. Raises ``ValueError`` if a stack has a non-finite entry,
    unless ||J - J^dag||_F <= tol ||J||_F, or if the bound is beyond the
    float range.
    """
    mu, q, w, k = _jordan(j, tol)
    bound = float(np.linalg.eigvalsh(_abs_input_marginal(j, mu, q, w)).min())
    try:
        return math.ldexp(bound, k)
    except OverflowError:
        raise ValueError(f"the bound {bound!r} * 2^{k} is beyond the float range") from None


def decomposition_cost(
    decomp: StatisticalDecomposition, rho: np.ndarray, bound: float | None = None
) -> CostReport:
    """Evaluate sum_i |lambda_i| p(i) at the state rho, with its lower bound.

    p(i) = Tr[effect_i(rho)] is read off the effect's input marginal
    Tr_out J (d_in-sided, cached per effect). The bound comes from
    ``error_lower_bound`` of the recombined map and holds for every valid
    input state. Since it does not depend on rho, callers sweeping many
    states can precompute it once and pass it in; it costs a QR of the
    effects' stacks, d_out*d_in x 2r for r operators in all.
    """
    rho = check_density_matrix(rho)
    if rho.shape != (decomp.d_in, decomp.d_in):
        raise ValueError(
            f"state dimension {rho.shape[0]} does not match map input "
            f"dimension {decomp.d_in}"
        )
    probs = tuple(float(np.sum(eff._input_marginal * rho).real) for eff in decomp.effects)
    cost = float(sum(abs(lam) * p for lam, p in zip(decomp.weights, probs)))
    if bound is None:
        bound = error_lower_bound(recombine(decomp))
    return CostReport(cost=cost, bound=float(bound), probabilities=probs)


def stinespring_dilation(decomp: StatisticalDecomposition) -> Dilation:
    """Realize the decomposed map as a partial expectation value.

    Stacks the Kraus operators K_{i,a} of every effect into an isometry
    V psi = sum_{i,a} (K_{i,a} psi) (x) |i,a> and puts the weights on the
    ancilla as Z = sum_{i,a} lambda_i |i,a><i,a|. An effect that carries its
    Kraus stack contributes it as is; any other must be completely positive
    and is split by ``kraus_from_choi``, which raises ``ValueError``
    otherwise. Completeness of the instrument makes V^dag V = 1, and a
    ``ValueError`` says so if it fails by more than ``INSTRUMENT_TOL``.
    """
    kraus: list[np.ndarray] = []
    z_diag: list[float] = []
    for lam, eff in zip(decomp.weights, decomp.effects):
        ops = _kraus_stack(eff)
        kraus.extend(ops)
        z_diag.extend([lam] * len(ops))
    d_anc = len(kraus)
    d_in, d_out = decomp.d_in, decomp.d_out
    # V[(k, m), c] = K_m[k, c]: output index slowest, ancilla index fastest.
    v = np.stack(kraus).transpose(1, 0, 2).reshape(d_out * d_anc, d_in)
    with np.errstate(invalid="ignore"):  # a non-finite stack gives a NaN norm, which fails
        defect = np.linalg.norm(v.conj().T @ v - np.eye(d_in))
    if not defect <= INSTRUMENT_TOL:
        raise ValueError("effects do not sum to a trace-preserving map")
    z = np.diag(np.asarray(z_diag, dtype=complex))
    return Dilation(isometry=v, ancilla_observable=z, d_in=d_in, d_out=d_out, d_ancilla=d_anc)


def partial_expectation(dil: Dilation, rho: np.ndarray) -> np.ndarray:
    """Evaluate Tr_ancilla[ V rho V^dag (1 (x) Z) ], the dilated map's action.

    With V's Kraus blocks K_m (V[(k, m), c] = K_m[k, c]) this is
    sum_{m,n} Z[n, m] K_m rho K_n^dag, for any Z; the dilated state is
    never formed."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dil.d_in, dil.d_in):
        raise ValueError(
            f"state dimension {rho.shape[0]} does not match isometry input "
            f"dimension {dil.d_in}"
        )
    k = dil.isometry.reshape(dil.d_out, dil.d_ancilla, dil.d_in)
    zk = np.einsum("nm,kmc->knc", dil.ancilla_observable, k @ rho)
    return zk.reshape(dil.d_out, -1) @ k.reshape(dil.d_out, -1).conj().T
