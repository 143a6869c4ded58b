"""Dense complex linear algebra primitives and fixed two-copy operators.

Matrices are plain complex ``numpy.ndarray`` values treated as immutable:
every function returns a fresh array and never mutates its inputs. The global
tensor index convention is row-major with subsystem 1 as the slowest index,
i.e. ``np.kron(a, b)[i*db + k, j*db + l] == a[i, j] * b[k, l]``.

Eigendecompositions order eigenvalues ascending; within a degenerate cluster
the eigenvector columns are phase-canonicalized (largest-magnitude entry made
real positive) and sorted lexicographically by their entries, so repeated runs
produce identical output.
"""

from __future__ import annotations

import numpy as np

# Relative Frobenius tolerance for Hermiticity preconditions.
HERM_TOL = 1e-10
# Frobenius tolerance for eigendecomposition reconstruction residuals.
EIG_TOL = 1e-10
# Absolute gap below which eigenvalues are treated as one degenerate cluster
# when canonicalizing eigenvector ordering.
DEGENERACY_TOL = 1e-9


def partial_trace(m: np.ndarray, keep, dims) -> np.ndarray:
    """Trace out all subsystems except ``keep`` (an index or list of indices).

    Parameters
    ----------
    m : square matrix of dimension prod(dims)
    keep : int or sequence of int, subsystems (0-based) retained in their
        original relative order
    dims : sequence of positive int, the subsystem dimensions

    Returns
    -------
    The reduced matrix on the kept subsystems.
    """
    m = np.asarray(m)
    dims = list(dims)
    n = len(dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(
            f"matrix shape {m.shape} does not match subsystem dims {dims}"
        )
    if isinstance(keep, (int, np.integer)):
        keep = [int(keep)]
    keep = list(keep)
    if any(k < 0 or k >= n for k in keep) or len(set(keep)) != len(keep):
        raise ValueError(f"invalid subsystem selector {keep} for {n} subsystems")
    t = m.reshape(dims + dims)
    # Trace paired (row, column) axes of every traced-out subsystem, highest
    # index first so earlier axis positions stay valid.
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    kept = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(kept, kept)


def eigenvalue_clusters(w: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Index ranges [start, stop) of the runs of ascending eigenvalues ``w``
    in which each neighbouring gap is <= tol, in order."""
    edges = [0, *(np.flatnonzero(np.diff(w) > tol) + 1), len(w)]
    return list(zip(edges[:-1], edges[1:]))


def _canonical_eigenbasis(w: np.ndarray, v: np.ndarray):
    """Phase-fix eigenvectors and order degenerate clusters deterministically."""
    v = v.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        pivot = int(np.argmax(np.abs(col)))
        phase = col[pivot] / abs(col[pivot]) if abs(col[pivot]) > 0 else 1.0
        v[:, k] = col / phase
    # Lexicographic sort inside clusters of (numerically) equal eigenvalues.
    for start, stop in eigenvalue_clusters(w, DEGENERACY_TOL):
        if stop - start > 1:
            cols = sorted(
                range(start, stop),
                key=lambda k: tuple(
                    (round(x.real, 9), round(x.imag, 9)) for x in v[:, k]
                ),
            )
            v[:, start:stop] = v[:, cols]
    return w, v


def _checked_eigh(m: np.ndarray):
    """eigh after validating squareness and hermiticity (relative Frobenius)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(np.linalg.norm(m), 1.0)
    if np.linalg.norm(m - m.conj().T) > HERM_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh((m + m.conj().T) / 2)


def hermitian_eigendecomposition(m: np.ndarray):
    """Eigendecompose a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns, such that
    ``m == eigenvectors @ diag(eigenvalues) @ eigenvectors.conj().T`` within
    ``EIG_TOL``. Raises ``ValueError`` if ``m`` is not Hermitian within
    ``HERM_TOL`` (relative Frobenius).
    """
    w, v = _checked_eigh(m)
    return _canonical_eigenbasis(w, v)


def operator_absolute_value(m: np.ndarray) -> np.ndarray:
    """Return |m| = sum_i |mu_i| |v_i><v_i| for Hermitian m (a PSD matrix).

    |m| does not depend on the choice of eigenbasis, so this skips the
    deterministic basis canonicalization (which is slow on the large
    degenerate clusters these operators tend to have).
    """
    w, v = _checked_eigh(m)
    return (v * np.abs(w)) @ v.conj().T


def swap_operator(d: int) -> np.ndarray:
    """The unitary, Hermitian operator exchanging the two d-dimensional factors."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    # Row (i, j) of S is row (j, i) of the identity.
    return np.eye(d * d, dtype=complex)[np.arange(d * d).reshape(d, d).T.ravel()]


def sector_projector(d: int, sign: int) -> np.ndarray:
    """Projector (1 ± S)/2 onto the exchange-symmetric (+1) or -antisymmetric
    (-1) subspace of two d-dimensional copies."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return (np.eye(d * d, dtype=complex) + sign * swap_operator(d)) / 2


def q_operator(d: int, sign: int) -> np.ndarray:
    """The non-Hermitian operators (1 + zS)/2 with z = (-1 + i sqrt(d^2-1))/d.

    ``sign=+1`` returns the operator itself, ``sign=-1`` its adjoint. |z| = 1,
    so these are halfway between the two exchange-sector projectors in a
    complex-phase sense; they require d >= 2.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    z = (-1 + 1j * np.sqrt(d * d - 1)) / d
    if sign < 0:
        z = np.conj(z)
    return (np.eye(d * d, dtype=complex) + z * swap_operator(d)) / 2


def check_density_matrix(rho: np.ndarray, *, eig_floor: float = -1e-9,
                         trace_tol: float = 1e-9) -> np.ndarray:
    """Validate rho as a state: Hermitian, min eigenvalue >= eig_floor,
    |trace - 1| <= trace_tol. Returns rho as a complex array or raises
    ``ValueError``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"state must be a square matrix, got shape {rho.shape}")
    scale = max(np.linalg.norm(rho), 1.0)
    if np.linalg.norm(rho - rho.conj().T) > HERM_TOL * scale:
        raise ValueError("state is not Hermitian within tolerance")
    tr = np.trace(rho).real
    if abs(np.trace(rho) - 1.0) > trace_tol:
        raise ValueError(f"state trace {tr} is not 1 within {trace_tol}")
    wmin = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if wmin < eig_floor:
        raise ValueError(f"state has negative eigenvalue {wmin}")
    return rho


def check_observable(a: np.ndarray) -> np.ndarray:
    """Validate a Hermitian observable; returns it as a complex array."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"observable must be square, got shape {a.shape}")
    scale = max(np.linalg.norm(a), 1.0)
    if np.linalg.norm(a - a.conj().T) > HERM_TOL * scale:
        raise ValueError("observable is not Hermitian within tolerance")
    return a
