import numpy as np
import pytest

from twopoint.choi import (
    ChoiOperator,
    apply_choi,
    is_completely_positive,
    is_hermiticity_preserving,
    is_trace_preserving,
    kraus_from_choi,
)
from twopoint.cli import _random_observable as rand_herm, _random_state as rand_state
from twopoint.correlator import (
    CorrelatorFamily,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from twopoint.linalg import swap_operator

from reference_maps import choi_of_action, cloner_apply, maximally_entangled_projector


def _rand_channel_choi(rng, d, n_kraus):
    """Choi operator of a random channel with the given Kraus rank."""
    ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n_kraus)]
    s = sum(k.conj().T @ k for k in ops)
    w, v = np.linalg.eigh(s)
    s_inv_half = (v * (w**-0.5)) @ v.conj().T
    ops = [k @ s_inv_half for k in ops]
    return (
        choi_of_action(lambda m: sum(k @ m @ k.conj().T for k in ops), d, d),
        ops,
    )


def test_choi_operator_validates_side():
    with pytest.raises(ValueError, match="dims"):
        ChoiOperator(np.eye(5), d_in=2, d_out=2)


def test_choi_operator_requires_square():
    with pytest.raises(ValueError, match="shape"):
        ChoiOperator(np.ones((4, 2)), d_in=2, d_out=2)


def test_choi_operator_validates_kraus_stack():
    with pytest.raises(ValueError, match="Kraus"):
        ChoiOperator(None, d_in=2, d_out=4, kraus=np.ones((3, 2, 4)))
    with pytest.raises(ValueError, match="Kraus"):
        ChoiOperator(None, d_in=2, d_out=4, kraus=np.ones((4, 2)))
    with pytest.raises(ValueError, match="Kraus"):
        ChoiOperator(np.eye(4), d_in=2, d_out=2, kraus=np.ones((1, 2, 2)))
    with pytest.raises(ValueError, match="shape"):
        ChoiOperator(None, d_in=2, d_out=2)


# --- apply_choi ---------------------------------------------------------------


def test_apply_identity_channel():
    rng = np.random.default_rng(0)
    d = 3
    j = ChoiOperator(d * maximally_entangled_projector(d), d_in=d, d_out=d)
    rho = rand_state(rng, d)
    assert np.allclose(apply_choi(j, rho), rho, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_apply_kraus_path_matches_matrix_path(d):
    """A map carried by its Kraus stack acts exactly as its process matrix."""
    rng = np.random.default_rng(40 + d)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))  # any input, linearity
    for dec in (universal_real_decomposition(d), universal_imag_decomposition(d)):
        for eff in dec.effects:
            assert eff.kraus is not None
            by_matrix = ChoiOperator(eff.matrix, d_in=d, d_out=d * d)
            for x in (rand_state(rng, d), m):
                diff = apply_choi(eff, x) - apply_choi(by_matrix, x)
                assert np.abs(diff).max() <= 1e-12


def test_apply_depolarizing_channel():
    # fully depolarizing map: J = 1/d, output = Tr[rho] * 1/d
    rng = np.random.default_rng(1)
    d = 2
    j = ChoiOperator(np.eye(d * d) / d, d_in=d, d_out=d)
    rho = rand_state(rng, d)
    got = apply_choi(j, rho)
    # independent evaluation of Tr_in[J (1 x rho^T)]
    want = np.zeros((d, d), dtype=complex)
    full = (np.eye(d * d) / d) @ np.kron(np.eye(d), rho.T)
    for i in range(d):
        for j2 in range(d):
            for k in range(d):
                want[i, j2] += full[i * d + k, j2 * d + k]
    assert np.allclose(got, want, atol=1e-14)
    assert np.allclose(got, np.eye(d) / d, atol=1e-12)


def test_apply_round_trip_on_swap_action():
    rng = np.random.default_rng(2)
    d = 2
    s = swap_operator(d)

    def action(m):
        return s @ np.kron(np.eye(d), m)

    j = choi_of_action(action, d_in=d, d_out=d * d)
    rho = rand_state(rng, d)
    assert np.allclose(apply_choi(j, rho), action(rho), atol=1e-12)


def test_apply_dimension_mismatch():
    j = ChoiOperator(np.eye(4), d_in=2, d_out=2)
    with pytest.raises(ValueError, match="dimension"):
        apply_choi(j, np.eye(3))


# --- choi_of_action -------------------------------------------------------------


def test_choi_of_identity_map():
    j = choi_of_action(lambda m: m, d_in=2, d_out=2)
    assert np.allclose(j.matrix, 2 * maximally_entangled_projector(2), atol=1e-14)


def test_choi_of_transpose_is_swap():
    j = choi_of_action(lambda m: m.T, d_in=2, d_out=2)
    assert np.allclose(j.matrix, swap_operator(2), atol=1e-14)


def test_choi_of_ideal_correlator_matches_family():
    """The process matrix of rho -> S(1 x rho) must equal the real-part
    matrix minus i times the imaginary-part matrix."""
    d = 2
    fam = CorrelatorFamily(d)
    s = swap_operator(d)
    j = choi_of_action(lambda m: s @ np.kron(np.eye(d), m), d_in=d, d_out=d * d)
    combined = fam.j_real.matrix - 1j * fam.j_imag.matrix
    assert np.linalg.norm(j.matrix - combined) <= 1e-10
    # second route: the closed product formula for the same matrix
    phi23 = np.kron(np.eye(d), maximally_entangled_projector(d))
    s12 = np.kron(s, np.eye(d))
    direct = d * (s12 @ phi23)
    assert np.linalg.norm(j.matrix - direct) <= 1e-10


def test_choi_round_trip_random_map():
    rng = np.random.default_rng(3)
    m = rand_herm(rng, 6)
    j = ChoiOperator(m, d_in=2, d_out=3)
    j2 = choi_of_action(lambda x: apply_choi(j, x), d_in=2, d_out=3)
    assert np.linalg.norm(j2.matrix - j.matrix) <= 1e-10


def test_choi_of_action_linearity():
    rng = np.random.default_rng(4)
    d = 2
    k1 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    k2 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    ja = choi_of_action(lambda m: k1 @ m @ k1.conj().T, d, d)
    jb = choi_of_action(lambda m: k2 @ m @ k2.conj().T, d, d)
    jc = choi_of_action(
        lambda m: 0.7 * (k1 @ m @ k1.conj().T) - 1.3 * (k2 @ m @ k2.conj().T), d, d
    )
    assert np.linalg.norm(jc.matrix - (0.7 * ja.matrix - 1.3 * jb.matrix)) <= 1e-12


# --- predicates -----------------------------------------------------------------


def test_cp_identity_channel():
    assert is_completely_positive(ChoiOperator(2 * maximally_entangled_projector(2), 2, 2))


def test_cp_rejects_ideal_correlator():
    fam = CorrelatorFamily(2)
    total = ChoiOperator(fam.j_real.matrix - 1j * fam.j_imag.matrix, d_in=2, d_out=4)
    assert not is_completely_positive(total)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cp_phase_family(d):
    fam = CorrelatorFamily(d)
    assert is_completely_positive(fam.j_phase_plus)
    assert is_completely_positive(fam.j_phase_minus)


def test_hp_real_and_imag_parts():
    fam = CorrelatorFamily(3)
    assert is_hermiticity_preserving(fam.j_real)
    assert is_hermiticity_preserving(fam.j_imag)
    total = ChoiOperator(fam.j_real.matrix - 1j * fam.j_imag.matrix, d_in=3, d_out=9)
    assert not is_hermiticity_preserving(total)


def test_tp_flags():
    fam = CorrelatorFamily(2)
    assert is_trace_preserving(fam.j_real)
    assert not is_trace_preserving(fam.j_imag)
    assert is_trace_preserving(fam.j_sym)
    assert is_trace_preserving(fam.j_anti)


# --- kraus_from_choi --------------------------------------------------------------


def test_kraus_of_identity_channel():
    j = ChoiOperator(2 * maximally_entangled_projector(2), 2, 2)
    ops = kraus_from_choi(j)
    assert len(ops) == 1
    k = ops[0]
    # unitary and proportional to the identity (global phase allowed)
    assert np.allclose(k @ k.conj().T, np.eye(2), atol=1e-12)
    assert abs(abs(np.trace(k)) - 2) <= 1e-12


def test_kraus_reproduces_symmetric_cloner():
    rng = np.random.default_rng(5)
    fam = CorrelatorFamily(2)
    ops = kraus_from_choi(fam.j_sym)
    for _ in range(10):
        rho = rand_state(rng, 2)
        got = sum(k @ rho @ k.conj().T for k in ops)
        assert np.linalg.norm(got - cloner_apply(fam, +1, rho)) <= 1e-10


def test_kraus_depolarizing_completeness():
    j = ChoiOperator(np.eye(4) / 2, d_in=2, d_out=2)
    ops = kraus_from_choi(j)
    assert len(ops) == 4
    total = sum(k.conj().T @ k for k in ops)
    assert np.allclose(total, np.eye(2), atol=1e-12)


def test_kraus_rejects_non_cp():
    fam = CorrelatorFamily(2)
    with pytest.raises(ValueError, match="positive"):
        kraus_from_choi(fam.j_real)


@pytest.mark.parametrize("d,n_kraus", [(2, 2), (2, 4), (3, 3)])
def test_random_channels_cp_tp_and_reconstruction(d, n_kraus):
    rng = np.random.default_rng(6 + d + n_kraus)
    j, _ = _rand_channel_choi(rng, d, n_kraus)
    assert is_completely_positive(j)
    assert is_trace_preserving(j)
    ops = kraus_from_choi(j)
    for _ in range(3):
        rho = rand_state(rng, d)
        got = sum(k @ rho @ k.conj().T for k in ops)
        assert np.linalg.norm(got - apply_choi(j, rho)) <= 1e-10
