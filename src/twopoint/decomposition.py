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

from dataclasses import dataclass

import numpy as np

from .choi import (
    ChoiOperator,
    _kraus_stack,
    combine,
    orthonormal_compression,
    output_trace,
)
from .linalg import (
    HERM_TOL,
    INSTRUMENT_TOL,
    check_density_matrix,
    hermitian_eigendecomposition,
    is_hermitian,
    operator_absolute_value,
    partial_trace,
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
    """Split a hermiticity-preserving map into weighted instrument branches.

    Eigendecomposes J = sum_i mu_i |v_i><v_i| keeping zero-eigenvalue
    directions, and returns weights lambda_i = d_out * mu_i with effects
    |v_i><v_i| / d_out. The effects are rank-1 CP maps summing to the map
    represented by 1/d_out, which is trace-preserving, so the instrument is
    complete by construction. Each effect carries its one Kraus operator,
    v_i reshaped to d_out x d_in and divided by sqrt(d_out). Raises
    ``ValueError`` unless ||J - J^dag||_F <= tol ||J||_F.
    """
    if not is_hermitian(j._compressed, tol):
        raise ValueError("map is not hermiticity-preserving within tolerance")
    w, v = hermitian_eigendecomposition((j.matrix + j.matrix.conj().T) / 2)
    kraus = (v.T / np.sqrt(j.d_out)).reshape(w.size, 1, j.d_out, j.d_in)
    return StatisticalDecomposition(
        tuple(float(j.d_out * mu) for mu in w),
        tuple(ChoiOperator(None, d_in=j.d_in, d_out=j.d_out, kraus=k) for k in kraus),
    )


def recombine(decomp: StatisticalDecomposition) -> ChoiOperator:
    """Sum the weighted effects back into the represented map (one operator
    stack if every effect carries one)."""
    return combine(decomp.weights, decomp.effects)


def error_lower_bound(j: ChoiOperator, tol: float = HERM_TOL) -> float:
    """Smallest achievable error-amplification factor over all decompositions.

    Equals min over states sigma of Tr[|J| (1 (x) sigma)], which reduces to
    the minimum eigenvalue of the input-side partial trace of |J| (the trace
    against sigma of a fixed PSD operator is minimized by its ground-state
    projector). With J = Q C Q^dag, |J| = Q |C| Q^dag for a Hermitian C; Q
    comes from a thin QR of the map's stacks, taken here and not kept.
    Raises ``ValueError`` unless ||J - J^dag||_F <= tol ||J||_F.
    """
    if not is_hermitian(j._compressed, tol):
        raise ValueError("map is not hermiticity-preserving within tolerance")
    q, c = orthonormal_compression(j)
    reduced = output_trace(j, operator_absolute_value((c + c.conj().T) / 2), q)
    return float(np.linalg.eigvalsh(reduced).min())


def decomposition_cost(
    decomp: StatisticalDecomposition, rho: np.ndarray, bound: float | None = None
) -> CostReport:
    """Evaluate sum_i |lambda_i| p(i) at the state rho, with its lower bound.

    p(i) = Tr[effect_i(rho)] is read off the effect's input marginal
    Tr_out J (d_in-sided, cached per effect). The bound comes from
    ``error_lower_bound`` of the recombined map and holds for every valid
    input state. Since it does not depend on rho, callers sweeping many
    states can precompute it once and pass it in; for effects that carry
    operator stacks it is cheap either way.
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
    Kraus stack contributes it as is; one given as a matrix must be completely
    positive and is split by ``kraus_from_choi``, which raises ``ValueError``
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
    if np.linalg.norm(v.conj().T @ v - np.eye(d_in)) > INSTRUMENT_TOL:
        raise ValueError("effects do not sum to a trace-preserving map")
    z = np.diag(np.asarray(z_diag, dtype=complex))
    return Dilation(isometry=v, ancilla_observable=z, d_in=d_in, d_out=d_out, d_ancilla=d_anc)


def partial_expectation(dil: Dilation, rho: np.ndarray) -> np.ndarray:
    """Evaluate Tr_ancilla[ V rho V^dag (1 (x) Z) ], the dilated map's action."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dil.d_in, dil.d_in):
        raise ValueError(
            f"state dimension {rho.shape[0]} does not match isometry input "
            f"dimension {dil.d_in}"
        )
    big = dil.isometry @ rho @ dil.isometry.conj().T
    weighted = big @ np.kron(np.eye(dil.d_out), dil.ancilla_observable)
    return partial_trace(weighted, keep=0, dims=[dil.d_out, dil.d_ancilla])
