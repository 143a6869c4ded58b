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

import math

import numpy as np

# Relative Frobenius tolerance for Hermiticity preconditions.
HERM_TOL = 1e-10
# Frobenius tolerance for eigendecomposition reconstruction residuals.
EIG_TOL = 1e-10
# Absolute gap below which eigenvalues are treated as one degenerate cluster,
# when canonicalizing eigenvector ordering and when the sampler merges an
# observable's eigenvalues into one outcome.
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


def eigenvalue_clusters(w: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Start indices and sizes of the runs of ascending eigenvalues ``w`` in
    which each neighbouring gap is <= tol, in order."""
    # a run starts at 0 and after each gap above tol; the last ends at len(w)
    edges = np.ones(len(w) + 1, dtype=bool)
    edges[1:-1] = w[1:] - w[:-1] > tol
    edges = edges.nonzero()[0]
    return edges[:-1], edges[1:] - edges[:-1]


def _canonical_eigenbasis(w: np.ndarray, v: np.ndarray):
    """Phase-fix eigenvectors and order degenerate clusters deterministically."""
    v = v.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        pivot = int(np.argmax(np.abs(col)))
        phase = col[pivot] / abs(col[pivot]) if abs(col[pivot]) > 0 else 1.0
        v[:, k] = col / phase
    # Lexicographic sort inside clusters of (numerically) equal eigenvalues.
    for start, size in zip(*eigenvalue_clusters(w, DEGENERACY_TOL)):
        if size > 1:
            stop = start + size
            cols = sorted(
                range(start, stop),
                key=lambda k: tuple(
                    (round(x.real, 9), round(x.imag, 9)) for x in v[:, k]
                ),
            )
            v[:, start:stop] = v[:, cols]
    return w, v


_SQUARE = {"state": "state must be a square matrix", "observable": "observable must be square",
           "matrix": "expected a square matrix"}


def _hermitian(m: np.ndarray, name: str):
    """``(m, (m + m^dag)/2)`` for a square matrix m with finite entries that is
    Hermitian within ``HERM_TOL`` (relative Frobenius); ``name`` ("state",
    "observable" or "matrix") is what a ``ValueError`` calls m."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{_SQUARE[name]}, got shape {m.shape}")
    scale = math.sqrt(np.vdot(m, m).real)  # Frobenius norms, as one BLAS call each
    if not scale < math.inf:  # a non-finite entry, or a norm beyond float range
        bad = np.argwhere(~np.isfinite(m))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"{name} entry [{i}, {j}] is not finite: {m[i, j]}")
    m_dag = m.conj().T
    r = m - m_dag
    if not math.sqrt(np.vdot(r, r).real) <= HERM_TOL * max(scale, 1.0):
        raise ValueError(f"{name} is not Hermitian within tolerance")
    return m, (m + m_dag) / 2


def hermitian_eigendecomposition(m: np.ndarray):
    """Eigendecompose a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns, such that
    ``m == eigenvectors @ diag(eigenvalues) @ eigenvectors.conj().T`` within
    ``EIG_TOL``. Raises ``ValueError`` if ``m`` is not Hermitian within
    ``HERM_TOL`` (relative Frobenius).
    """
    w, v = np.linalg.eigh(_hermitian(m, "matrix")[1])
    return _canonical_eigenbasis(w, v)


def operator_absolute_value(m: np.ndarray) -> np.ndarray:
    """Return |m| = sum_i |mu_i| |v_i><v_i| for Hermitian m (a PSD matrix).

    |m| does not depend on the choice of eigenbasis, so this skips the
    deterministic basis canonicalization (which is slow on the large
    degenerate clusters these operators tend to have).
    """
    w, v = np.linalg.eigh(_hermitian(m, "matrix")[1])
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
    """Validate rho as a state: finite, Hermitian, min eigenvalue >= eig_floor,
    |trace - 1| <= trace_tol. Returns rho as a complex array or raises
    ``ValueError``."""
    rho, h = _hermitian(rho, "state")
    tr = rho.trace()
    if not abs(tr - 1.0) <= trace_tol:
        raise ValueError(f"state trace {tr.real} is not 1 within {trace_tol}")
    wmin = np.linalg.eigvalsh(h).min()
    if not wmin >= eig_floor:
        raise ValueError(f"state has negative eigenvalue {wmin}")
    return rho


def check_observable(a: np.ndarray) -> np.ndarray:
    """Validate a finite Hermitian observable; returns it as a complex array."""
    return _hermitian(a, "observable")[0]
