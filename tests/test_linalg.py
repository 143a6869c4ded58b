import numpy as np
import pytest

from twopoint.cli import _random_observable as rand_herm, _random_state as rand_state
from twopoint.linalg import (
    check_density_matrix,
    check_observable,
    eigenvalue_clusters,
    hermitian_eigendecomposition,
    operator_absolute_value,
    partial_trace,
    q_operator,
    sector_projector,
    swap_operator,
)

from reference_maps import maximally_entangled_projector

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


# --- partial_trace --------------------------------------------------------


def test_partial_trace_product_state():
    rng = np.random.default_rng(0)
    a = rand_herm(rng, 3)
    b = rand_herm(rng, 2)
    kept_first = partial_trace(np.kron(a, b), 0, [3, 2])
    assert np.allclose(kept_first, a * np.trace(b), atol=1e-12)
    kept_second = partial_trace(np.kron(a, b), 1, [3, 2])
    assert np.allclose(kept_second, b * np.trace(a), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_partial_trace_entangled_marginal(d):
    phi = maximally_entangled_projector(d)
    for keep in (0, 1):
        assert np.allclose(partial_trace(phi, keep, [d, d]), np.eye(d) / d, atol=1e-13)


def test_partial_trace_against_index_sum():
    """Trace out the second qubit of S(1 x rho) and compare with an explicit
    elementwise index sum."""
    rng = np.random.default_rng(1)
    rho = rand_state(rng, 2)
    m = swap_operator(2) @ np.kron(np.eye(2), rho)
    got = partial_trace(m, 0, [2, 2])
    want = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                want[i, j] += m[i * 2 + k, j * 2 + k]
    assert np.allclose(got, want, atol=1e-14)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError, match="dims"):
        partial_trace(np.eye(5), 0, [2, 2])


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


def test_eigenvalue_clusters_split_at_gaps_above_tol():
    w = np.array([-1.0, -1.0 + 1e-10, 0.5, 2.0, 2.0, 2.0 + 2e-10])
    for tol, starts, sizes in [
        (1e-9, [0, 2, 3], [2, 1, 3]),
        (0.0, [0, 1, 2, 3, 5], [1, 1, 1, 2, 1]),
    ]:
        got = eigenvalue_clusters(w, tol)
        assert [a.tolist() for a in got] == [starts, sizes]
    assert [a.tolist() for a in eigenvalue_clusters(np.array([3.0]), 1e-9)] == [[0], [1]]


# --- operator_absolute_value ----------------------------------------------


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


# --- sector_projector -------------------------------------------------------


def test_sector_projector_traces():
    assert abs(np.trace(sector_projector(2, +1)) - 3) <= 1e-13
    assert abs(np.trace(sector_projector(2, -1)) - 1) <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 5])
def test_sector_projector_algebra(d):
    pp = sector_projector(d, +1)
    pm = sector_projector(d, -1)
    assert np.linalg.norm(pp @ pp - pp) <= 1e-12
    assert np.linalg.norm(pm @ pm - pm) <= 1e-12
    assert np.linalg.norm(pp - pp.conj().T) <= 1e-12
    assert np.linalg.norm(pp + pm - np.eye(d * d)) <= 1e-12
    assert np.linalg.norm(pp @ pm) <= 1e-12
    assert abs(np.trace(pp) - d * (d + 1) / 2) <= 1e-11
    assert abs(np.trace(pm) - d * (d - 1) / 2) <= 1e-11


def test_antisymmetric_qubit_projector_is_singlet():
    singlet = np.zeros(4, dtype=complex)
    singlet[1] = 1 / np.sqrt(2)
    singlet[2] = -1 / np.sqrt(2)
    assert np.allclose(sector_projector(2, -1), np.outer(singlet, singlet.conj()), atol=1e-14)


def test_sector_projector_bad_sign():
    with pytest.raises(ValueError, match="sign"):
        sector_projector(2, 0)


# --- q_operator --------------------------------------------------------------


def _phase_from_q(d):
    # entry |01..> <10..| of (1 + z*S)/2 is z/2
    q = q_operator(d, +1)
    return 2 * q[1, d]


def test_q_phase_qubit_is_cube_root():
    z = _phase_from_q(2)
    assert abs(z - (-1 + 1j * np.sqrt(3)) / 2) <= 1e-14
    assert abs(z**3 - 1) <= 1e-13
    assert abs(z - 1) > 1


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32, 64])
def test_q_phase_unimodular(d):
    assert abs(abs(_phase_from_q(d)) - 1) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_q_operators_sum_and_product(d):
    qp = q_operator(d, +1)
    qm = q_operator(d, -1)
    assert np.allclose(qm, qp.conj().T, atol=1e-14)
    # z + conj(z) = -2/d
    assert np.allclose(qp + qm, np.eye(d * d) - swap_operator(d) / d, atol=1e-13)
    assert np.linalg.eigvalsh(qp @ qm).min() >= -1e-12


def test_q_operator_rejects_d1():
    with pytest.raises(ValueError, match="d"):
        q_operator(1, +1)


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
