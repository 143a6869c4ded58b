"""Instrument decompositions of hermiticity-preserving maps.

Any map with a Hermitian representing operator splits as L = sum_i lambda_i
E_i with real weights and completely positive branches E_i whose unweighted
sum is trace-preserving — a quantum instrument. The branch probabilities
p(i) = Tr[E_i(rho)] weight the classical post-processing, whose error
amplification sum_i |lambda_i| p(i) is bounded below, for every input state,
by the smallest eigenvalue of the input-side reduction of |J(L)|.

The same decomposition also yields a physical single-circuit realization: an
isometry into (output (x) ancilla) plus an ancilla observable whose partial
expectation value reproduces the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .choi import (
    ChoiOperator,
    _kraus_stack,
    combine,
    orthonormal_compression,
)
from .linalg import (
    HERM_TOL,
    INSTRUMENT_TOL,
    _hermitian_part,
    _unit_scaled,
    check_density_matrix,
    eigenspaces,
    is_hermitian,
    operator_absolute_value,
)


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
    """Split a hermiticity-preserving map into weighted instrument branches,
    one per distinct eigenvalue of J.

    Eigendecomposes J = sum_k mu_k |v_k><v_k| keeping zero-eigenvalue
    directions, and joins the eigenvalues into eigenspaces with
    ``linalg.eigenspaces``: neighbouring eigenvalues whose gap is at most
    DEGENERACY_TOL max|mu| are one eigenvalue, valued at their mean.
    Cluster i gives the weight lambda_i = d_out times that mean and the
    effect P_i / d_out, P_i its eigenprojector, carried by its m_i Kraus
    operators v_k reshaped to d_out x d_in and divided by sqrt(d_out). The
    effects sum to the map represented by 1/d_out, which is
    trace-preserving, so the instrument is complete by construction. Each
    mu_k moves to its cluster's mean, at most m_i - 1 gaps away, so the
    terms recombine the Hermitian part of J within DEGENERACY_TOL max|mu|
    sqrt(sum_i m_i (m_i - 1)^2) in Frobenius norm, plus rounding (within
    rounding if no two eigenvalues join). Raises ``ValueError`` unless
    ||J - J^dag||_F <= tol ||J||_F, or if an eigenvalue or a weight is
    beyond the float range.
    """
    if not is_hermitian(j._compressed, tol):
        raise ValueError("map is not hermiticity-preserving within tolerance")
    [(v, starts, sizes, means)] = eigenspaces(_hermitian_part(j.matrix))
    weights = tuple(j.d_out * mu for mu in means.tolist())  # Python floats: inf, no warning
    if not all(map(math.isfinite, weights)):
        raise ValueError(f"the weights d_out * mu reach {j.d_out} * {max(-means[0], means[-1]):g}, "
                         "beyond the float range")
    kraus = (v.T / np.sqrt(j.d_out)).reshape(-1, j.d_out, j.d_in)
    effects = tuple(ChoiOperator(None, d_in=j.d_in, d_out=j.d_out, kraus=kraus[s:s + m])
                    for s, m in zip(starts.tolist(), sizes.tolist()))
    return StatisticalDecomposition(weights, effects)


def recombine(decomp: StatisticalDecomposition) -> ChoiOperator:
    """Sum the weighted effects back into the represented map, one operator
    stack."""
    return combine(decomp.weights, decomp.effects)


def error_lower_bound(j: ChoiOperator, tol: float = HERM_TOL) -> float:
    """Smallest achievable error-amplification factor over all decompositions.

    Equals min over states sigma of Tr[|J| (1 (x) sigma)], which reduces to
    the minimum eigenvalue of the input-side partial trace of |J| (the trace
    against sigma of a fixed PSD operator is minimized by its ground-state
    projector). With J = Q C Q^dag, |J| = Q |C| Q^dag for a Hermitian C; Q
    comes from a thin QR of the map's stacks, taken here and not kept. Where
    ``_unit_scaled`` scales C down by 2^k, the bound is that of C 2^-k, scaled
    back. Raises ``ValueError`` unless ||J - J^dag||_F <= tol ||J||_F, or if
    the bound is beyond the float range.
    """
    if not is_hermitian(j._compressed, tol):
        raise ValueError("map is not hermiticity-preserving within tolerance")
    q, c = orthonormal_compression(j)
    u, _, k = _unit_scaled(c)
    absj = operator_absolute_value(_hermitian_part(u if k > 0 else c))
    # Tr_out[q |C| q^dag], without building the product
    qx = (q @ absj).reshape(j.d_out, j.d_in, -1)
    reduced = np.einsum("oil,ojl->ij", qx, q.conj().reshape(qx.shape))
    bound = float(np.linalg.eigvalsh(reduced).min())
    try:
        return math.ldexp(bound, max(k, 0))
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
