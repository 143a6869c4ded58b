"""Dense complex linear algebra primitives, the swap operator, and validation.

Matrices are plain complex ``numpy.ndarray`` values treated as immutable:
every function returns a fresh array and never mutates its inputs. The global
tensor index convention is row-major with subsystem 1 as the slowest index,
i.e. ``np.kron(a, b)[i*db + k, j*db + l] == a[i, j] * b[k, l]``.

Eigendecompositions order eigenvalues ascending; within a degenerate cluster
the eigenvector columns are phase-canonicalized (largest-magnitude entry made
real positive) and sorted lexicographically by their entries, so repeated runs
produce identical output.

Every tolerance of the package is defined here. A bound on an operator is
relative to a stated norm of it, so inputs of any scale are judged alike; one
on a scale-free quantity (a state, a probability, an isometry) is absolute.
An operator whose squared norm would overflow or underflow is judged as its
exact scaling by a power of two (``_unit_scaled``).

==============  =====  ====================================================================
HERM_TOL        1e-10  ||m - m^dag||_F <= HERM_TOL ||m||_F: states, observables, maps' J
DEGENERACY_TOL  1e-9   ascending eigenvalues w cluster across gaps <= DEGENERACY_TOL max|w|
PSD_TOL         1e-10  a CP map's J has least eigenvalue >= -PSD_TOL ||J||_F
TP_TOL          1e-10  ||Tr_out J - 1||_F <= TP_TOL ||1||_F = TP_TOL sqrt(d_in)
KRAUS_RTOL      1e-12  eigenvalues of J <= KRAUS_RTOL max(w) give no Kraus operator
STATE_TOL       1e-9   |Tr rho - 1| <= STATE_TOL, least eigenvalue of rho >= -STATE_TOL
BRANCH_FLOOR    1e-15  a sampler branch of probability <= BRANCH_FLOOR is not drawn
INSTRUMENT_TOL  1e-8   |sum_i p(i) - 1| of a plan, ||V^dag V - 1||_F of a dilation
==============  =====  ====================================================================
"""

from __future__ import annotations

import math

import numpy as np

HERM_TOL = 1e-10
DEGENERACY_TOL = 1e-9
PSD_TOL = 1e-10
TP_TOL = 1e-10
KRAUS_RTOL = 1e-12
STATE_TOL = 1e-9
BRANCH_FLOOR = 1e-15
INSTRUMENT_TOL = 1e-8


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
        raise ValueError(f"matrix shape {m.shape} does not match subsystem dims {dims}")
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


def eigenvalue_clusters(w: np.ndarray):
    """Start indices and sizes (two arrays) of the runs of ascending
    eigenvalues ``w`` in which each neighbouring gap is
    <= DEGENERACY_TOL * max|w|."""
    # a run starts at 0 and after each gap above the bound; the last ends at
    # len(w). max|w| of an ascending w is -w[0] or w[-1].
    edges = np.ones(len(w) + 1, dtype=bool)
    if len(w) > 1:
        edges[1:-1] = w[1:] - w[:-1] > DEGENERACY_TOL * max(-w[0], w[-1])
    edges = edges.nonzero()[0]
    return edges[:-1], edges[1:] - edges[:-1]


def _canonical_eigenbasis(w: np.ndarray, v: np.ndarray):
    """Phase-fix eigenvectors and order degenerate clusters deterministically.

    Each column is a unit vector, so its largest-magnitude entry is nonzero;
    ``np.hypot`` gives its modulus rounded as ``abs`` of one complex does."""
    top = v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])]
    v = v / (top / np.hypot(top.real, top.imag))
    # Lexicographic sort inside clusters of (numerically) equal eigenvalues,
    # by the (real, imaginary) parts of each entry in turn, rounded to 9 places.
    for start, size in zip(*eigenvalue_clusters(w)):
        if size > 1:
            block = v[:, start:start + size]
            keys = np.stack([np.round(block.real, 9), np.round(block.imag, 9)], axis=1)
            keys = keys.reshape(-1, size).T.tolist()
            v[:, start:start + size] = block[:, sorted(range(size), key=keys.__getitem__)]
    return w, v


_SQUARE = {"state": "state must be a square matrix", "observable": "observable must be square",
           "matrix": "expected a square matrix"}


def _frobenius(m: np.ndarray) -> float:
    """||m||_F, as one BLAS call."""
    return math.sqrt(np.vdot(m, m).real)


# The least ||m||_F at which a difference at the rounding level,
# 2^-53 ||m||_F, still squares to a normal float.
_SMALL_NORM = 2.0**-458


def _unit_scaled(m: np.ndarray):
    """``(m, ||m||_F, 0)``, or ``(m 2^-k, ||m 2^-k||_F, k)`` with 2^k from the
    largest entry where ||m||_F is below ``_SMALL_NORM`` or its square
    overflows: an exact scaling, subnormal entries included, under which
    relative bounds hold alike. The norm is inf iff an entry is not finite."""
    scale = _frobenius(m)
    if _SMALL_NORM <= scale < math.inf:
        return m, scale, 0
    if not np.isfinite(m).all():
        return m, math.inf, 0
    top = max(np.abs(m.real).max(initial=0.0), np.abs(m.imag).max(initial=0.0))
    k = int(np.frexp(top)[1])
    m = np.ldexp(m.real, -k) + 1j * np.ldexp(m.imag, -k)
    return m, _frobenius(m), k


def is_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    """True iff m has finite entries and ||m - m^dag||_F <= tol ||m||_F."""
    m, scale, _ = _unit_scaled(m)
    return scale < math.inf and _frobenius(m - m.conj().T) <= tol * scale


def _hermitian(m: np.ndarray, name: str):
    """``(m, (m + m^dag)/2)`` for a square matrix m with finite entries that is
    Hermitian within ``HERM_TOL`` (relative Frobenius); ``name`` ("state",
    "observable" or "matrix") is what a ``ValueError`` calls m."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{_SQUARE[name]}, got shape {m.shape}")
    if not is_hermitian(m):
        bad = np.argwhere(~np.isfinite(m))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"{name} entry [{i}, {j}] is not finite: {m[i, j]}")
        raise ValueError(f"{name} is not Hermitian within tolerance")
    return m, (m + m.conj().T) / 2


def hermitian_eigendecomposition(m: np.ndarray):
    """Eigendecompose a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns, such that
    ``m == eigenvectors @ diag(eigenvalues) @ eigenvectors.conj().T`` up to
    rounding. Raises ``ValueError`` if ``m`` is not Hermitian within
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


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate rho as a state: finite, Hermitian within ``HERM_TOL``, trace 1
    and min eigenvalue >= 0, each within ``STATE_TOL``. Returns rho as a
    complex array or raises ``ValueError``."""
    rho, h = _hermitian(rho, "state")
    tr = rho.trace()
    if not abs(tr - 1.0) <= STATE_TOL:
        raise ValueError(f"state trace {tr.real} is not 1 within {STATE_TOL}")
    wmin = np.linalg.eigvalsh(h).min()
    if not wmin >= -STATE_TOL:
        raise ValueError(f"state has negative eigenvalue {wmin}")
    return rho


def check_observable(a: np.ndarray) -> np.ndarray:
    """Validate a finite Hermitian observable; returns it as a complex array."""
    return _hermitian(a, "observable")[0]
