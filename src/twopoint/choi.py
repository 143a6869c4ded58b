"""Operator representation of linear maps on matrices, and its inverse.

A linear map L taking d_in x d_in matrices to d_out x d_out matrices is
represented canonically by the matrix

    J(L) = sum_{i,j} L(|i><j|) (x) |i><j|

on the (output (x) input) space, with the output factor as the slowest tensor
index. Complete positivity, hermiticity preservation and trace preservation
are predicates on J, and Kraus operators come out of its eigendecomposition.

A map can also be carried by a two-sided stack of d_out x d_in operators
(L_a, R_a): it acts as m -> sum_a L_a m R_a^dag, and its matrix is
J = sum_a vec(L_a) vec(R_a)^dag (row-major vec). A Kraus stack is the case
R_a = L_a. A stacked map keeps its operators, acts through them, and builds
J only when something asks for it. With [vec L | vec R] = Q T (thin QR), J is
Q C Q^dag for the small matrix C = T_L T_R^dag. Norms, hermiticity and
complete positivity read C alone; the map caches C (J itself for a map given
as a matrix) and never Q, which only ``error_lower_bound`` builds. The input
marginal and ``trace_product`` contract the stacks directly, so a map of rank
r costs QR and eigendecompositions of 2r-sided matrices, not of J.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .linalg import (KRAUS_RTOL, PSD_TOL, TP_TOL, _unit_scaled, hermitian_eigendecomposition,
                     is_hermitian)


class ChoiOperator:
    """A linear map carried as its (d_out*d_in)-sided matrix or an operator stack.

    ``matrix`` lives on output (x) input with the output index slowest;
    ``d_in`` and ``d_out`` are the map's input/output dimensions. A map given
    by ``kraus``, an (r, d_out, d_in) stack of operators L_a, and optionally
    ``right``, a stack R_a of the same shape (R_a = L_a if omitted), builds
    ``matrix`` on first access as sum_a vec(L_a) vec(R_a)^dag and keeps it
    read-only. ``kraus`` reads the stack of a map with R_a = L_a, and is
    None for a two-sided stack or a map given as a matrix.
    """

    def __init__(self, matrix, d_in: int, d_out: int, kraus=None, right=None):
        self.d_in, self.d_out = d_in, d_out
        self._left = self._right = self._matrix = None
        if right is not None and kraus is None:
            raise ValueError("a right stack needs a Kraus (left) stack")
        if kraus is not None:
            self._left = np.asarray(kraus, dtype=complex)
            self._right = self._left if right is None else np.asarray(right, dtype=complex)
            if matrix is not None or not (
                self._left.size and self._left.shape[1:] == (d_out, d_in)
                and self._right.shape == self._left.shape
            ):
                raise ValueError(
                    f"Kraus stack must have shape (r, {d_out}, {d_in}), r >= 1, with a right "
                    f"stack of the same shape, and come without a matrix; got shape "
                    f"{self._left.shape}"
                )
            return
        side = d_out * d_in
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (side, side):
            raise ValueError(f"matrix shape {m.shape} does not match dims (d_out*d_in = {side})")
        self._matrix = m

    @property
    def kraus(self) -> np.ndarray | None:
        return self._left if self._right is self._left else None

    @property
    def stacks(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(L, R) for a map carried by operator stacks, else None."""
        return None if self._left is None else (self._left, self._right)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            n = len(self._left)  # row-major vec(L_a), vec(R_a)
            self._matrix = self._left.reshape(n, -1).T @ self._right.reshape(n, -1).conj()
            self._matrix.flags.writeable = False
        return self._matrix

    @cached_property
    def _compressed(self) -> np.ndarray:
        """C with J = Q C Q^dag for orthonormal columns Q (J itself for a map
        given as a matrix). C = T_L T_R^dag from the triangular factor T of
        the QR of the d_out*d_in x k matrix [vec L | vec R], k = 2r. T is
        accumulated over blocks of whole output rows read straight from the
        stacks, about max(2k, 2^11 / k) rows of that matrix each,
        t = qr([t; block]) (tall-skinny QR), so neither that matrix nor Q is
        ever formed."""
        if self._left is None:
            return self._matrix
        n = len(self._left)
        step = max(1, max(4 * n, 2**10 // n) // self.d_in)
        t = np.empty((0, 2 * n), dtype=complex)
        for o in range(0, self.d_out, step):
            block = np.concatenate([self._left[:, o:o + step], self._right[:, o:o + step]])
            t = np.linalg.qr(np.concatenate([t, block.reshape(2 * n, -1).T]), mode="r")
        return t[:, :n] @ t[:, n:].conj().T

    @cached_property
    def _input_marginal(self) -> np.ndarray:
        """Tr_out J: the d_in x d_in matrix M with Tr[L(m)] = sum_ij M[i, j] m[i, j];
        sum_a L_a^T conj(R_a) for a stacked map."""
        if self._left is None:
            return output_trace(self, self._matrix)
        return np.einsum("aoi,aoj->ij", self._left, self._right.conj())


def combine(coeffs, maps) -> ChoiOperator:
    """The map sum_i c_i L_i. Stacked maps combine into one stack
    [c_i L_i] / [R_i]; if any map is given as a matrix, the matrices add."""
    maps = list(maps)
    d_in, d_out = maps[0].d_in, maps[0].d_out
    if all(j.stacks is not None for j in maps):
        return ChoiOperator(
            None, d_in=d_in, d_out=d_out,
            kraus=np.concatenate([c * j.stacks[0] for c, j in zip(coeffs, maps)]),
            right=np.concatenate([j.stacks[1] for j in maps]),
        )
    return ChoiOperator(sum(c * j.matrix for c, j in zip(coeffs, maps)), d_in=d_in, d_out=d_out)


def frobenius_norm(j: ChoiOperator) -> float:
    """||J||_F = ||C||_F: that of C's ``_unit_scaled`` form, scaled back (inf
    beyond the float range)."""
    _, scale, k = _unit_scaled(j._compressed)
    with np.errstate(over="ignore"):
        return float(np.ldexp(scale, k))


def trace_product(j1: ChoiOperator, j2: ChoiOperator) -> complex:
    """Tr[J_1 J_2]; for two stacked maps Tr[(R_1^dag L_2)(R_2^dag L_1)] over
    the stacks' vecs, an r_1 x r_2 product instead of J_1 or J_2."""
    if j1.stacks is None or j2.stacks is None:
        return complex(np.sum(j1.matrix * j2.matrix.T))
    (l1, r1), (l2, r2) = ([s.reshape(len(s), -1) for s in j.stacks] for j in (j1, j2))
    return complex(np.sum((r1.conj() @ l2.T) * (r2.conj() @ l1.T).T))


def output_trace(j: ChoiOperator, x: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """Tr_out[q x q^dag] for orthonormal columns q of the map's space, without
    building the product (Tr_out x if q is None): the input-side reduction of
    the operator that x represents in q's basis."""
    if q is None:
        return np.einsum("oioj->ij", x.reshape(j.d_out, j.d_in, j.d_out, j.d_in))
    qx = (q @ x).reshape(j.d_out, j.d_in, -1)
    return np.einsum("oil,ojl->ij", qx, q.conj().reshape(j.d_out, j.d_in, -1))


def orthonormal_compression(j: ChoiOperator) -> tuple[np.ndarray | None, np.ndarray]:
    """(Q, C) with J = Q C Q^dag: Q the orthonormal columns of a thin QR of
    [vec L | vec R] for a stacked map, None (the identity) for a map given as
    a matrix, whose C is J. Q is d_out*d_in x 2r and is not cached."""
    if j.stacks is None:
        return None, j.matrix
    n = len(j.stacks[0])
    q, t = np.linalg.qr(np.concatenate([s.reshape(n, -1) for s in j.stacks]).T)
    return q, t[:, :n] @ t[:, n:].conj().T


def apply_choi(j: ChoiOperator, m: np.ndarray) -> np.ndarray:
    """Act with the map represented by ``j`` on the matrix ``m``.

    Computes sum_a L_a m R_a^dag for a map given by its stacks, and
    Tr_in[ J (1_out (x) m^T) ] otherwise; linear in both arguments.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (j.d_in, j.d_in):
        raise ValueError(f"input shape {m.shape} does not match map input dimension {j.d_in}")
    if j.stacks is not None:
        left, right = j.stacks
        return np.tensordot(left @ m, right.conj(), axes=([0, 2], [0, 2]))
    # Contract without building the d_out*d_in sized product explicitly:
    # J reshaped to (k, i, l, j) gives L(m)[k, l] = sum_{ij} J[k,i,l,j] m[j,i].
    t = j.matrix.reshape(j.d_out, j.d_in, j.d_out, j.d_in)
    return np.einsum("kilj,ij->kl", t, m)


def is_hermiticity_preserving(j: ChoiOperator) -> bool:
    """True iff ||J - J^dag||_F <= HERM_TOL ||J||_F."""
    return is_hermitian(j._compressed)


def is_completely_positive(j: ChoiOperator) -> bool:
    """True iff J is Hermitian within ``HERM_TOL`` and the least eigenvalue
    of its Hermitian part is >= -PSD_TOL ||J||_F (||J||_F = ||C||_F).

    J is zero outside the span of [vec L | vec R]. Those zero eigenvalues are
    in C's spectrum too: C = T_L T_R^dag for a stack of r pairs has rank <= r,
    and T has 2r rows unless 2r > d_out d_in, where C is as large as J. C
    is judged as its ``_unit_scaled`` form."""
    c, scale, _ = _unit_scaled(j._compressed)
    return is_hermitian(c) and np.linalg.eigvalsh((c + c.conj().T) / 2).min() >= -PSD_TOL * scale


def is_trace_preserving(j: ChoiOperator) -> bool:
    """True iff tracing out the output factor of J leaves the identity 1:
    ||Tr_out J - 1||_F <= TP_TOL ||1||_F."""
    return np.linalg.norm(j._input_marginal - np.eye(j.d_in)) <= TP_TOL * math.sqrt(j.d_in)


def kraus_from_choi(j: ChoiOperator) -> list[np.ndarray]:
    """Extract Kraus operators K_a with sum_a K_a m K_a^dag = apply_choi(j, m).

    Requires ``j`` completely positive. Eigenvectors are scaled
    by sqrt(eigenvalue); eigenvalues below ``KRAUS_RTOL`` times the largest are
    dropped. Each eigenvector reshapes to a (d_out, d_in) operator because the
    output index is the slowest.
    """
    if not is_completely_positive(j):
        raise ValueError("map is not completely positive within tolerance")
    w, v = hermitian_eigendecomposition((j.matrix + j.matrix.conj().T) / 2)
    cutoff = KRAUS_RTOL * max(w.max(), 0.0)
    # largest eigenvalue first
    return [np.sqrt(w[k]) * v[:, k].reshape(j.d_out, j.d_in) for k in range(w.size - 1, -1, -1)
            if w[k] > cutoff]


def _kraus_stack(j: ChoiOperator) -> np.ndarray:
    """The (r, d_out, d_in) Kraus stack of a CP map: the one it carries, else
    the one ``kraus_from_choi`` extracts (which raises for a non-CP map)."""
    if j.kraus is not None:
        return j.kraus
    return np.reshape(kraus_from_choi(j), (-1, j.d_out, j.d_in))
