"""Operator representation of linear maps on matrices, and its inverse.

A linear map L taking d_in x d_in matrices to d_out x d_out matrices is
represented canonically by the matrix

    J(L) = sum_{i,j} L(|i><j|) (x) |i><j|

on the (output (x) input) space, with the output factor as the slowest tensor
index. Complete positivity, hermiticity preservation and trace preservation
are predicates on J, and Kraus operators come out of its eigendecomposition.
A map known by its Kraus operators keeps them, acts through them, and builds
J only when something asks for it.
"""

from __future__ import annotations

import numpy as np

from .linalg import hermitian_eigendecomposition, partial_trace

# Eigenvalues below KRAUS_RTOL * (max eigenvalue) are treated as zero rank
# when extracting Kraus operators.
KRAUS_RTOL = 1e-12


class ChoiOperator:
    """A linear map carried as its (d_out*d_in)-sided matrix or its Kraus stack.

    ``matrix`` lives on output (x) input with the output index slowest;
    ``d_in`` and ``d_out`` are the map's input/output dimensions. A map given
    by ``kraus``, an (r, d_out, d_in) stack of operators K_a, builds ``matrix``
    on first access as sum_a vec(K_a) vec(K_a)^dag and keeps it read-only;
    ``kraus`` is None for a map given as a matrix.
    """

    def __init__(self, matrix, d_in: int, d_out: int, kraus=None):
        self.d_in, self.d_out, self.kraus, self._matrix = d_in, d_out, None, None
        if kraus is not None:
            self.kraus = np.asarray(kraus, dtype=complex)
            if matrix is not None or self.kraus.shape[1:] != (d_out, d_in):
                raise ValueError(
                    f"Kraus stack must have shape (r, {d_out}, {d_in}) and come "
                    f"without a matrix; got shape {self.kraus.shape}"
                )
            return
        side = d_out * d_in
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (side, side):
            raise ValueError(
                f"matrix shape {m.shape} does not match dims "
                f"(d_out*d_in = {side})"
            )
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            vecs = self.kraus.reshape(len(self.kraus), -1)  # row-major vec(K_a)
            self._matrix = vecs.T @ vecs.conj()
            self._matrix.flags.writeable = False
        return self._matrix


def apply_choi(j: ChoiOperator, m: np.ndarray) -> np.ndarray:
    """Act with the map represented by ``j`` on the matrix ``m``.

    Computes sum_a K_a m K_a^dag for a map given by its Kraus stack, and
    Tr_in[ J (1_out (x) m^T) ] otherwise; linear in both arguments.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (j.d_in, j.d_in):
        raise ValueError(
            f"input shape {m.shape} does not match map input dimension {j.d_in}"
        )
    if j.kraus is not None:
        return np.tensordot(j.kraus @ m, j.kraus.conj(), axes=([0, 2], [0, 2]))
    # Contract without building the d_out*d_in sized product explicitly:
    # J reshaped to (k, i, l, j) gives L(m)[k, l] = sum_{ij} J[k,i,l,j] m[j,i].
    t = j.matrix.reshape(j.d_out, j.d_in, j.d_out, j.d_in)
    return np.einsum("kilj,ij->kl", t, m)


def is_hermiticity_preserving(j: ChoiOperator, tol: float = 1e-10) -> bool:
    """True iff ||J - J^dag||_F <= tol * ||J||_F."""
    m = j.matrix
    return np.linalg.norm(m - m.conj().T) <= tol * np.linalg.norm(m)


def is_completely_positive(j: ChoiOperator, tol: float = 1e-10) -> bool:
    """True iff J is Hermitian within tol (absolute, Frobenius) and its
    Hermitian part is PSD within -tol."""
    m = j.matrix
    if np.linalg.norm(m - m.conj().T) > tol:
        return False
    wmin = np.linalg.eigvalsh((m + m.conj().T) / 2).min()
    return wmin >= -tol


def is_trace_preserving(j: ChoiOperator, tol: float = 1e-10) -> bool:
    """True iff tracing out the output factor of J leaves the identity."""
    reduced = partial_trace(j.matrix, keep=1, dims=[j.d_out, j.d_in])
    return np.linalg.norm(reduced - np.eye(j.d_in)) <= tol


def kraus_from_choi(j: ChoiOperator, tol: float = 1e-10) -> list[np.ndarray]:
    """Extract Kraus operators K_a with sum_a K_a m K_a^dag = apply_choi(j, m).

    Requires ``j`` completely positive within ``tol``. Eigenvectors are scaled
    by sqrt(eigenvalue); eigenvalues below ``KRAUS_RTOL`` times the largest are
    dropped. Each eigenvector reshapes to a (d_out, d_in) operator because the
    output index is the slowest.
    """
    if not is_completely_positive(j, tol):
        raise ValueError("map is not completely positive within tolerance")
    w, v = hermitian_eigendecomposition((j.matrix + j.matrix.conj().T) / 2)
    cutoff = KRAUS_RTOL * max(w.max(), 0.0)
    ops = []
    for k in range(w.size - 1, -1, -1):  # largest eigenvalue first
        if w[k] <= cutoff:
            break
        ops.append(np.sqrt(w[k]) * v[:, k].reshape(j.d_out, j.d_in))
    return ops
