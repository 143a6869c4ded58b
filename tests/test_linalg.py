import numpy as np
import pytest

from twopoint.correlator import (
    universal_branches,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from twopoint.linalg import (
    DEGENERACY_TOL,
    _hermitian,
    _hermitian_part,
    check_density_matrix,
    check_observable,
    eigenspaces,
    eigenvalue_clusters,
    hermitian_eigendecomposition,
    swap_operator,
)

from reference_maps import (
    maximally_entangled_projector,
    operator_absolute_value,
    partial_trace,
    random_observable as rand_herm,
    random_state as rand_state,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _charpoly_eigenvalues(m):
    """Independent eigenvalue oracle: characteristic-polynomial coefficients
    by the trace recursion, rooted with numpy's companion solver."""
    n = m.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    mk = np.zeros_like(m)
    c = 1.0
    for k in range(1, n + 1):
        mk = m @ mk + c * np.eye(n)
        c = -np.trace(m @ mk).real / k
        coeffs[k] = c
    return np.sort(np.roots(coeffs).real)


# --- index convention: np.kron, subsystem 1 slowest -----------------------


def test_tensor_identity():
    assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_diagonal():
    assert np.allclose(np.kron(SZ, SZ), np.diag([1, -1, -1, 1]))


def test_tensor_matches_index_expansion():
    # brute-force oracle: out[i*2+k, j*2+l] = a[i,j] * b[k,l]
    want = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    want[i * 2 + k, j * 2 + l] = SX[i, j] * SY[k, l]
    assert np.allclose(np.kron(SX, SY), want, atol=1e-14)


# --- hermitian_eigendecomposition ----------------------------------------


def test_eigendecomposition_pauli_z():
    w, v = hermitian_eigendecomposition(SZ)
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-14)


def test_eigendecomposition_identity_multiplicity():
    w, _ = hermitian_eigendecomposition(np.eye(4))
    assert np.allclose(w, np.ones(4))


def test_eigendecomposition_reconstruction():
    rng = np.random.default_rng(2)
    m = rand_herm(rng, 6)
    w, v = hermitian_eigendecomposition(m)
    assert np.all(np.diff(w) >= -1e-14)
    assert np.linalg.norm((v * w) @ v.conj().T - m) <= 1e-10


def test_eigendecomposition_correlation_choi_vs_charpoly():
    """Spectrum of the real-part process matrix at d=2 against both an
    independent characteristic-polynomial oracle and the closed form."""
    from twopoint.correlator import CorrelatorFamily

    jr = CorrelatorFamily(2).j_real.matrix
    w, _ = hermitian_eigendecomposition(jr)
    oracle = _charpoly_eigenvalues(jr)
    # the oracle's multiple root at 0 limits its accuracy
    assert np.allclose(np.sort(w), oracle, atol=5e-4)
    closed = np.sort([1.5, 1.5, -0.5, -0.5, 0, 0, 0, 0])
    assert np.allclose(np.sort(w), closed, atol=1e-10)


def test_eigendecomposition_rejects_non_hermitian():
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        hermitian_eigendecomposition(np.array([[0, 1], [0, 0]], dtype=complex))


def _clusters(w):
    return [a.tolist() for a in eigenvalue_clusters(np.array(w, dtype=float))]


def test_eigenvalue_clusters_split_at_gaps_above_tol():
    w = np.array([-1.0, -1.0 + 1e-10, 0.5, 2.0, 2.0, 2.0 + 2e-10])
    assert [a.tolist() for a in eigenvalue_clusters(w)] == [[0, 2, 3], [2, 1, 3]]
    assert [a.tolist() for a in eigenvalue_clusters(np.array([3.0]))] == [[0], [1]]
    assert _clusters([-2.5]) == [[0], [1]]
    # a gap of exactly DEGENERACY_TOL max|w| joins; the next float above splits
    assert 1e-9 - 0.0 == DEGENERACY_TOL * 1.0
    assert _clusters([0.0, 1e-9, 1.0]) == [[0, 2], [2, 1]]
    assert _clusters([0.0, np.nextafter(1e-9, 1.0), 1.0]) == [[0, 1, 2], [1, 1, 1]]


def test_eigenvalue_clusters_are_relative_to_the_largest_modulus():
    w = np.array([-1.0, -1.0 + 1e-10, 0.5, 2.0, 2.0, 2.0 + 2e-10])
    for scale in (1e-12, 1.0, 1e9):
        assert [a.tolist() for a in eigenvalue_clusters(scale * w)] == [[0, 2, 3], [2, 1, 3]]
    assert [a.tolist() for a in eigenvalue_clusters(np.zeros(3))] == [[0], [3]]
    assert _clusters([0.7] * 5) == [[0], [5]]
    # an infinite eigenvalue makes the bound infinite: one cluster, and no
    # RuntimeWarning from inf - inf (the suite turns warnings into errors)
    assert _clusters([-np.inf, 0.0, 1.0]) == [[0], [3]]
    assert _clusters([-1.0, 0.0, np.inf]) == [[0], [3]]
    assert _clusters([-np.inf, -np.inf, 0.0, np.inf, np.inf]) == [[0], [5]]
    assert _clusters([np.inf]) == [[0], [1]]
    # subnormal eigenvalues: the bound underflows to 0, so only equal ones join
    assert _clusters([-1e-320, -1e-320, 0.0, 2e-320]) == [[0, 2, 3], [2, 1, 1]]


def test_eigenspaces_of_a_batch():
    """One batched eigh: each matrix's clusters, their means, and columns
    whose cluster projectors are the eigenprojectors, in any basis."""
    rng = np.random.default_rng(25)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    w = np.array([-1.0, 2.0, 2.0 + 1e-12, 2.0])
    got = list(eigenspaces((u * w) @ u.conj().T, np.diag([0.0, 0.0, 0.0, 5.0])))
    assert [(s.tolist(), m.tolist()) for _, s, m, _ in got] == [([0, 1], [1, 3]), ([0, 3], [3, 1])]
    np.testing.assert_allclose(got[0][3], [-1.0, 2.0 + 1e-12 / 3], rtol=0, atol=1e-14)
    assert got[1][3].tolist() == [0.0, 5.0]
    v = got[0][0][:, 1:]
    want = u[:, 1:] @ u[:, 1:].conj().T
    assert np.abs(v @ v.conj().T - want).max() <= 1e-12


# --- operator_absolute_value, the decomposition tests' reference |m| -------


def test_absolute_value_pauli():
    assert np.allclose(operator_absolute_value(SZ), np.eye(2), atol=1e-14)


def test_absolute_value_negated_projector():
    p = np.array([[1, 0], [0, 0]], dtype=complex)
    assert np.allclose(operator_absolute_value(-p), p, atol=1e-14)


def test_absolute_value_sandwich_psd():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = rand_herm(rng, 5)
        am = operator_absolute_value(m)
        assert np.linalg.eigvalsh(am - m).min() >= -1e-10
        assert np.linalg.eigvalsh(am + m).min() >= -1e-10


def test_absolute_value_of_real_part_choi():
    from twopoint.correlator import CorrelatorFamily

    aj = operator_absolute_value(CorrelatorFamily(2).j_real.matrix)
    assert np.linalg.eigvalsh(aj).min() >= -1e-12
    reduced = partial_trace(aj, 1, [4, 2])
    assert abs(np.linalg.eigvalsh(reduced).min() - 2.0) <= 1e-10


# --- swap_operator ----------------------------------------------------------


def test_swap_qubit_matrix():
    want = np.zeros((4, 4))
    want[0, 0] = want[3, 3] = 1
    want[1, 2] = want[2, 1] = 1
    assert np.array_equal(swap_operator(2), want)


def test_swap_is_hermitian_involution():
    for d in (2, 3, 4):
        s = swap_operator(d)
        assert np.array_equal(s, s.conj().T)
        assert np.array_equal(s @ s, np.eye(d * d))


def test_swap_conjugation_exchanges_factors():
    rng = np.random.default_rng(4)
    rho = rand_state(rng, 3)
    s = swap_operator(3)
    lhs = s @ np.kron(np.eye(3), rho) @ s
    assert np.allclose(lhs, np.kron(rho, np.eye(3)), atol=1e-13)


def test_swap_trace_identity():
    rng = np.random.default_rng(5)
    for d in (2, 4):
        a = rand_herm(rng, d)
        b = rand_herm(rng, d)
        got = np.trace(swap_operator(d) @ np.kron(a, b))
        assert abs(got - np.trace(a @ b)) <= 1e-11


def test_swap_rejects_dimension_zero():
    with pytest.raises(ValueError, match="dimension must be positive, got 0"):
        swap_operator(0)


# --- the two-copy operators of the universal branches ------------------------
#
# Each branch of correlator.universal_branches is c G (1 (x) rho) G^dag with
# G = (1 + zS)/2; its effect carries the Kraus stack sqrt(c) G (|a> (x) 1),
# from which G is read back column block by column block.


def _branch_operators(d):
    """G of the four branches, in the order of ``universal_branches``:
    P+, P-, Q+ and Q- = Q+^dag."""
    effects = [*universal_real_decomposition(d).effects, *universal_imag_decomposition(d).effects]
    return [eff.kraus.transpose(1, 0, 2).reshape(d * d, d * d) / np.sqrt(c)
            for eff, (_, c, _) in zip(effects, universal_branches(d))]


def test_sector_projector_traces():
    pp, pm, _, _ = _branch_operators(2)
    assert abs(np.trace(pp) - 3) <= 1e-13
    assert abs(np.trace(pm) - 1) <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 5])
def test_sector_projector_algebra(d):
    pp, pm, _, _ = _branch_operators(d)
    assert [z for _, _, z in universal_branches(d)[:2]] == [1, -1]
    assert np.linalg.norm(pp @ pp - pp) <= 1e-12
    assert np.linalg.norm(pm @ pm - pm) <= 1e-12
    assert np.linalg.norm(pp - pp.conj().T) <= 1e-12
    assert np.linalg.norm(pp + pm - np.eye(d * d)) <= 1e-12
    assert np.linalg.norm(pp @ pm) <= 1e-12
    assert np.linalg.norm(pp - pm - swap_operator(d)) <= 1e-12
    assert abs(np.trace(pp) - d * (d + 1) / 2) <= 1e-11
    assert abs(np.trace(pm) - d * (d - 1) / 2) <= 1e-11


def test_antisymmetric_qubit_projector_is_singlet():
    singlet = np.zeros(4, dtype=complex)
    singlet[1] = 1 / np.sqrt(2)
    singlet[2] = -1 / np.sqrt(2)
    assert np.allclose(_branch_operators(2)[1], np.outer(singlet, singlet.conj()), atol=1e-14)


def test_q_phase_qubit_is_cube_root():
    z = universal_branches(2)[2][2]
    assert abs(z - (-1 + 1j * np.sqrt(3)) / 2) <= 1e-14
    assert abs(z**3 - 1) <= 1e-13
    assert abs(z - 1) > 1
    # entry |01> <10| of (1 + zS)/2 is z/2
    assert abs(2 * _branch_operators(2)[2][1, 2] - z) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32, 64])
def test_q_phase_unimodular(d):
    (_, _, z), (_, _, z_bar) = universal_branches(d)[2:]
    assert abs(abs(z) - 1) <= 1e-12
    assert z_bar == z.conjugate()
    assert abs(z + z_bar + 2 / d) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_q_operators_sum_and_product(d):
    _, _, qp, qm = _branch_operators(d)
    assert np.allclose(qm, qp.conj().T, atol=1e-14)
    # z + conj(z) = -2/d
    assert np.allclose(qp + qm, np.eye(d * d) - swap_operator(d) / d, atol=1e-13)
    assert np.linalg.norm(qp @ qm - qm @ qp) <= 1e-12
    assert np.linalg.eigvalsh(qp @ qm).min() >= -1e-12


# --- maximally_entangled_projector -------------------------------------------


def test_entangled_projector_scalar_case():
    assert np.allclose(maximally_entangled_projector(1), np.array([[1.0]]))


def test_entangled_projector_qubit_matrix():
    want = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            want[i, j] = 0.5
    assert np.allclose(maximally_entangled_projector(2), want, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_entangled_projector_structure(d):
    phi = maximally_entangled_projector(d)
    w = np.linalg.eigvalsh(phi)
    assert w.min() >= -1e-13
    assert abs(np.trace(phi) - 1) <= 1e-13
    assert np.sum(w > 1e-9) == 1  # rank one


def test_entangled_transpose_trick():
    rng = np.random.default_rng(6)
    d = 3
    vec = np.eye(d).reshape(-1) / np.sqrt(d)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    lhs = np.kron(m, np.eye(d)) @ vec
    rhs = np.kron(np.eye(d), m.T) @ vec
    assert np.allclose(lhs, rhs, atol=1e-13)


# --- validation helpers -------------------------------------------------------


def test_check_density_matrix_accepts_state():
    rng = np.random.default_rng(7)
    rho = check_density_matrix(rand_state(rng, 3))
    assert abs(np.trace(rho) - 1) <= 1e-9


def test_check_density_matrix_rejects_trace():
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(np.eye(2))


def test_check_density_matrix_rejects_negative():
    with pytest.raises(ValueError, match="eigenvalue"):
        check_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_check_observable_rejects_non_hermitian():
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        check_observable(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("scale", [1e-200, 1e160, 1e300, 1e-320, 5e-324])
def test_hermiticity_is_judged_beyond_the_squared_norm_range(scale):
    """Entries above about 1e154 overflow ||m||_F^2 (and inf <= tol * inf
    holds), and entries below about 1e-162 underflow it (and 0 <= tol * 0
    holds), so such m is judged as m 2^-k, an exact scaling: a non-Hermitian
    one is refused and a Hermitian one comes back bit for bit. Subnormal
    entries (1e-320, 5e-324) are scaled exactly too, where 2^-k itself would
    overflow."""
    with pytest.raises(ValueError, match="Hermitian"):
        check_observable(scale * np.array([[0, 1], [0, 0]], dtype=complex))
    a = scale * np.array([[1, 1j], [-1j, -2]])
    m, h = _hermitian(a, "observable")
    assert np.array_equal(m, a) and np.array_equal(h, a)
    near = a + 1e-12 * scale * np.array([[0, 1], [0, 0]])
    assert np.array_equal(check_observable(near), near)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hermitian_part_holds_near_the_float_maximum():
    """m + m^dag overflows at 1e308; the Hermitian part is that of m 2^-k,
    scaled back, and comes back bit for bit."""
    a = 1e308 * np.array([[1, 0.5 - 0.25j], [0.5 + 0.25j, -1]])
    m, h = _hermitian(a, "observable")
    assert np.array_equal(m, a) and np.array_equal(h, a)


@pytest.mark.parametrize("scale", [1.0, 1e-320, 1e154, 1.5e308])
def test_hermitian_part_keeps_in_range_bits(scale):
    """``_hermitian_part`` is (m + m^dag)/2 bit for bit wherever that sum
    cannot overflow, and is finite and exact for a Hermitian m near the float
    maximum, where the plain sum overflows."""
    g = np.random.default_rng(7).uniform(-1, 1, size=(4, 8)).view(complex)
    m = scale * g
    if scale < 1e300:
        assert np.array_equal(_hermitian_part(m), (m + m.conj().T) / 2)
    h = scale * ((g + g.conj().T) / 4)
    assert np.array_equal(_hermitian_part(h), h)
