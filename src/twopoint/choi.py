"""Operator representation of linear maps on matrices, and its inverse.

A linear map L taking d_in x d_in matrices to d_out x d_out matrices is
represented canonically by the matrix

    J(L) = sum_{i,j} L(|i><j|) (x) |i><j|

on the (output (x) input) space, with the output factor as the slowest tensor
index. Complete positivity, hermiticity preservation and trace preservation
are predicates on J, and Kraus operators are its eigenvectors, scaled by the
roots of their eigenvalues.

Every map is carried by a two-sided stack of d_out x d_in operators
(L_a, R_a): it acts as m -> sum_a L_a m R_a^dag, and its matrix is
J = sum_a vec(L_a) vec(R_a)^dag (row-major vec). A Kraus stack is the case
R_a = L_a. A map given as its matrix J is the stack of unit operators
vec(L_a) = e_a against R_a = conj(J[a]) and keeps J; any other builds J only
when something asks for it. With [vec L | vec R] = Q T (thin QR), J is
Q C Q^dag for the small matrix C = T_L T_R^dag; for a map given as J,
[1 | J^dag] is already triangular and LAPACK's QR keeps it: Q = 1 and C = J,
bit for bit. Norms, hermiticity and complete positivity read C alone; the map
caches C and never Q. ``_jordan`` builds Q and is the one routine that
eigendecomposes a map: J's eigenpairs are read off one ``eigh`` of C, for
Kraus operators, Jordan forms and error bounds alike. The input marginal and
``trace_product`` contract the stacks directly, so a map of rank r costs QR
and eigendecompositions of 2r-sided matrices, not of J.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .linalg import (HERM_TOL, KRAUS_RTOL, PSD_TOL, TP_TOL, _hermitian_part, _unit_scaled,
                     is_hermitian)


class ChoiOperator:
    """A linear map, carried by an operator stack (see the module docstring).

    ``matrix`` lives on output (x) input with the output index slowest;
    ``d_in`` and ``d_out`` are the map's input/output dimensions. A map is
    given as ``matrix`` J, or by ``kraus``, an (r, d_out, d_in) stack of
    operators L_a, and optionally ``right``, a stack R_a of the same shape
    (R_a = L_a if omitted); a stack builds ``matrix`` on first access and
    keeps it read-only. ``kraus`` reads the stack of a map with R_a = L_a,
    and is None for a two-sided stack or a map given as a matrix.
    """

    def __init__(self, matrix, d_in: int, d_out: int, kraus=None, right=None):
        if d_in < 1 or d_out < 1:
            raise ValueError(f"dimensions must be positive, got d_in={d_in}, d_out={d_out}")
        self.d_in, self.d_out = d_in, d_out
        self._matrix = None
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
        # L_a = E_a, R_a = conj(J[a]): sum_a vec(L_a) vec(R_a)^dag = 1 J
        self._left = np.eye(side, dtype=complex).reshape(side, d_out, d_in)
        self._right = m.conj().reshape(side, d_out, d_in)

    @property
    def kraus(self) -> np.ndarray | None:
        return self._left if self._right is self._left else None

    @property
    def stacks(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, R), the map's two operator stacks."""
        return self._left, self._right

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
        ever formed. It runs on each stack's ``_unit_scaled`` form L 2^-k_L,
        R 2^-k_R; a power-of-two column scaling scales T exactly, so C is
        scaled back by 2^(k_L + k_R): inf where J is beyond the float range,
        which the predicates then judge as they judge a non-finite J."""
        (left, _, kl), (right, _, kr) = (_unit_scaled(s) for s in (self._left, self._right))
        n = len(left)
        step = max(1, max(4 * n, 2**10 // n) // self.d_in)
        t = np.empty((0, 2 * n), dtype=complex)
        for o in range(0, self.d_out, step):
            block = np.concatenate([left[:, o:o + step], right[:, o:o + step]])
            t = np.linalg.qr(np.concatenate([t, block.reshape(2 * n, -1).T]), mode="r")
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite stack or J: C too
            c = t[:, :n] @ t[:, n:].conj().T
            return c if kl == kr == 0 else np.ldexp(c.view(float), kl + kr).view(complex)

    @cached_property
    def _input_marginal(self) -> np.ndarray:
        """M = Tr_out J = sum_a L_a^T conj(R_a), so Tr[L(m)] = sum_ij M[i, j] m[i, j]."""
        return np.einsum("aoi,aoj->ij", self._left, self._right.conj())


def combine(coeffs, maps) -> ChoiOperator:
    """The map sum_i c_i L_i, carried by the stacks [c_i L_i] / [R_i]."""
    maps = list(maps)
    left = np.concatenate([c * j.stacks[0] for c, j in zip(coeffs, maps)])
    right = np.concatenate([j.stacks[1] for j in maps])
    return ChoiOperator(None, maps[0].d_in, maps[0].d_out, kraus=left, right=right)


def frobenius_norm(j: ChoiOperator) -> float:
    """||J||_F = ||C||_F: that of C's ``_unit_scaled`` form, scaled back (inf
    beyond the float range)."""
    _, scale, k = _unit_scaled(j._compressed)
    with np.errstate(over="ignore"):
        return float(np.ldexp(scale, k))


def trace_product(j1: ChoiOperator, j2: ChoiOperator) -> complex:
    """Tr[J_1 J_2] = Tr[(R_1^dag L_2)(R_2^dag L_1)] over the stacks' vecs, an
    r_1 x r_2 product instead of J_1 or J_2."""
    (l1, r1), (l2, r2) = ([s.reshape(len(s), -1) for s in j.stacks] for j in (j1, j2))
    return complex(np.sum((r1.conj() @ l2.T) * (r2.conj() @ l1.T).T))


def orthonormal_compression(j: ChoiOperator) -> tuple[np.ndarray, np.ndarray]:
    """(Q, C) with J = Q C Q^dag: Q the d_out*d_in x min(2r, d_out*d_in)
    orthonormal columns of a thin QR of [vec L | vec R], not cached; Q = 1 and
    C = J for a map given as its matrix J (see the module docstring)."""
    n = len(j.stacks[0])
    q, t = np.linalg.qr(np.concatenate([s.reshape(n, -1) for s in j.stacks]).T)
    return q, t[:, :n] @ t[:, n:].conj().T


def _jordan(j: ChoiOperator, tol: float = HERM_TOL):
    """``(mu, q, w, m, k)``: J's eigenpairs and M = Tr_out |J| from one ``eigh``.

    The ``orthonormal_compression`` of the stacks' ``_unit_scaled`` forms
    L 2^-k_L and R 2^-k_R gives J 2^-(k_L + k_R) = Q C Q^dag. With k the sum
    of k_L, k_R and C's own ``_unit_scaled`` exponent, the Hermitian part of
    C 2^(k_L + k_R - k) is W diag(mu) W^dag (mu ascending), so J's Hermitian
    part is (QW) diag(mu 2^k) (QW)^dag and m = Tr_out[QW |diag(mu)| (QW)^dag]
    is M 2^-k: only k grows with the map's scale. Raises ``ValueError``
    unless ||J - J^dag||_F <= tol ||J||_F."""
    if not is_hermitian(j._compressed, tol):
        raise ValueError("map is not hermiticity-preserving within tolerance")
    (left, _, kl), (right, _, kr) = (_unit_scaled(s) for s in j.stacks)
    q, c = orthonormal_compression(ChoiOperator(None, j.d_in, j.d_out, kraus=left, right=right))
    u, _, k = _unit_scaled(c)
    mu, w = np.linalg.eigh(_hermitian_part(u))
    # Tr_out[q |C| q^dag], without building the product
    qx = (q @ ((w * np.abs(mu)) @ w.conj().T)).reshape(j.d_out, j.d_in, -1)
    return mu, q, w, np.einsum("oil,ojl->ij", qx, q.conj().reshape(qx.shape)), k + kl + kr


def apply_choi(j: ChoiOperator, m: np.ndarray) -> np.ndarray:
    """Act with the map represented by ``j`` on the matrix ``m``:
    sum_a L_a m R_a^dag, linear in both arguments."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (j.d_in, j.d_in):
        raise ValueError(f"input shape {m.shape} does not match map input dimension {j.d_in}")
    return np.tensordot(j.stacks[0] @ m, j.stacks[1].conj(), axes=([0, 2], [0, 2]))


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

    Requires ``j`` completely positive. The K_a are J's eigenvectors scaled
    by sqrt(eigenvalue), largest eigenvalue first, read off ``_jordan``, so J
    is never built; eigenvalues below ``KRAUS_RTOL`` times the largest are
    dropped. Each eigenvector reshapes to a (d_out, d_in) operator because
    the output index is the slowest.
    """
    if not is_completely_positive(j):
        raise ValueError("map is not completely positive within tolerance")
    mu, q, w, _, k = _jordan(j)
    keep = mu > KRAUS_RTOL * max(mu.max(), 0.0)
    # sqrt(mu 2^k) = sqrt(mu 2^(k mod 2)) 2^(k // 2): exact scalings, whatever k's parity
    x = q @ (w[:, keep] * np.sqrt(np.ldexp(mu[keep], k % 2)))
    x = np.ldexp(x.view(float), k // 2).view(complex)
    return list(x.T[::-1].reshape(-1, j.d_out, j.d_in))


def _kraus_stack(j: ChoiOperator) -> np.ndarray:
    """The (r, d_out, d_in) Kraus stack of a CP map: the one it carries, else
    the one ``kraus_from_choi`` extracts (which raises for a non-CP map)."""
    if j.kraus is not None:
        return j.kraus
    return np.reshape(kraus_from_choi(j), (-1, j.d_out, j.d_in))
