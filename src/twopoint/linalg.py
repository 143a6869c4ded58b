"""Dense complex linear algebra primitives, the swap operator, and validation.

Matrices are plain complex ``numpy.ndarray`` values treated as immutable:
every function returns a fresh array and never mutates its inputs. The global
tensor index convention is row-major with subsystem 1 as the slowest index,
i.e. ``np.kron(a, b)[i*db + k, j*db + l] == a[i, j] * b[k, l]``.

Eigenvalues come ascending, and the eigenvectors of an eigenspace in the
basis LAPACK returns. ``eigenspaces`` is the one routine that joins
eigenvalues into eigenspaces: runs within ``DEGENERACY_TOL``, each valued at
its mean.

Every tolerance of the package is defined here. A bound on an operator is
relative to a stated norm of it, so inputs of any scale are judged alike; one
on a scale-free quantity (a state, a probability, an isometry) is absolute.
An operator whose squared norm would overflow or underflow is judged as its
exact scaling by a power of two (``_unit_scaled``).

==============  =====  ====================================================================
HERM_TOL        1e-10  ||m - m^dag||_F <= HERM_TOL ||m||_F: states, observables, maps' J
DEGENERACY_TOL  1e-9   an observable's ascending eigenvalues w (the sampler's outcomes)
                       cluster across gaps <= DEGENERACY_TOL max|w|
PSD_TOL         1e-10  the Hermitian part h of a CP map's J has least eigenvalue
                       >= -PSD_TOL ||h||_F
TP_TOL          1e-10  ||Tr_out J - 1||_F <= TP_TOL ||1||_F = TP_TOL sqrt(d_in)
KRAUS_RTOL      1e-12  eigenvalues of J <= KRAUS_RTOL max(w) give no Kraus operator, nor
                       directions of weight <= KRAUS_RTOL to a Jordan form's completion
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


def eigenvalue_clusters(w: np.ndarray):
    """Start indices and sizes (two arrays) of the runs of ascending
    eigenvalues ``w`` in which each neighbouring gap is
    <= DEGENERACY_TOL * max|w|."""
    # a run starts at 0 and after each gap above the bound; the last ends at
    # len(w). max|w| of an ascending w is -w[0] or w[-1]. On Python floats a
    # gap beyond the float range is inf, above the bound as it should be, and
    # inf - inf is NaN, not above it: infinities join. Nothing warns.
    w = w.tolist()
    bound = DEGENERACY_TOL * max(-w[0], w[-1])
    gaps = [i for i, (x, y) in enumerate(zip(w, w[1:]), 1) if y - x > bound]
    edges = np.array([0, *gaps, len(w)])
    return edges[:-1], edges[1:] - edges[:-1]


def cluster_means(w: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The mean of each cluster (``eigenvalue_clusters``) of the ascending
    eigenvalues ``w``; where a cluster sum could overflow, that of w 2^-k
    (2^k from max|w|), scaled back. Raises ``ValueError`` if an eigenvalue
    is not finite."""
    top = max(-float(w[0]), float(w[-1]))
    if top * len(w) < math.inf:  # Python floats: no cluster sum overflows
        return np.add.reduceat(w, starts) / sizes
    if not np.isfinite(w).all():
        raise ValueError("a matrix has an eigenvalue beyond the float range")
    k = math.frexp(top)[1]
    return np.ldexp(np.add.reduceat(np.ldexp(w, -k), starts) / sizes, k)


def eigenspaces(*hs):
    """Yields ``(eigenvectors, starts, sizes, values)`` of each Hermitian
    matrix in ``hs`` (all of one shape) from one batched ``eigh``: the
    ``eigenvalue_clusters`` of its eigenvalues and each cluster's value, its
    ``cluster_means``. The columns of a cluster span its eigenspace in
    LAPACK's basis; what is read off a cluster as a whole does not depend on
    that basis."""
    ws, us = np.linalg.eigh(np.array(hs))
    for w, u in zip(ws, us):
        starts, sizes = eigenvalue_clusters(w)
        yield u, starts, sizes, cluster_means(w, starts, sizes)


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


def _hermitian_part(m: np.ndarray, scaled=None) -> np.ndarray:
    """(m + m^dag)/2 of a square matrix with finite entries; where that could
    overflow (``_unit_scaled`` scales m by 2^-k, k > 0), the Hermitian part of
    m 2^-k, scaled back. ``scaled`` is ``_unit_scaled(m)`` if the caller has it."""
    u, _, k = _unit_scaled(m) if scaled is None else scaled
    if k <= 0:  # m + m^dag cannot overflow, and halving rounds once
        return (m + m.conj().T) / 2
    return np.ldexp(((u + u.conj().T) / 2).view(float), k).view(complex)


def _hermitian(m: np.ndarray, name: str):
    """``(m, _hermitian_part(m))`` for a square matrix m with finite entries
    that is Hermitian within ``HERM_TOL`` (relative Frobenius); ``name``
    ("state", "observable" or "matrix") is what a ``ValueError`` calls m."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{_SQUARE[name]}, got shape {m.shape}")
    u, scale, k = _unit_scaled(m)  # as is_hermitian judges m
    u_dag = u.conj().T
    if not (scale < math.inf and _frobenius(u - u_dag) <= HERM_TOL * scale):
        bad = np.argwhere(~np.isfinite(m))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"{name} entry [{i}, {j}] is not finite: {m[i, j]}")
        raise ValueError(f"{name} is not Hermitian within tolerance")
    return m, (m + u_dag) / 2 if k == 0 else _hermitian_part(m, (u, scale, k))  # k = 0: u is m


def hermitian_eigendecomposition(m: np.ndarray):
    """Eigendecompose a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns, such that
    ``m == eigenvectors @ diag(eigenvalues) @ eigenvectors.conj().T`` up to
    rounding. Inside an eigenspace the columns come in LAPACK's phase and
    order. Raises ``ValueError`` if ``m`` is not Hermitian within
    ``HERM_TOL`` (relative Frobenius).
    """
    return np.linalg.eigh(_hermitian(m, "matrix")[1])


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
    wmin = np.linalg.eigvalsh(h)[0]  # ascending
    if not wmin >= -STATE_TOL:
        raise ValueError(f"state has negative eigenvalue {wmin}")
    return rho


def check_observable(a: np.ndarray) -> np.ndarray:
    """Validate a finite Hermitian observable; returns it as a complex array."""
    return _hermitian(a, "observable")[0]
