import warnings

import numpy as np
import pytest

from twopoint.cli import _random_observable as rand_herm, _random_state as rand_state
from twopoint.choi import ChoiOperator, combine, frobenius_norm
from twopoint.correlator import CorrelatorFamily, real_part_apply
from twopoint.photonics import (
    _K_ANTI,
    _K_SYM,
    CoincidenceStats,
    recombine_coincidences,
    simulate_optics,
)

from reference_maps import (
    beamsplitter_action,
    cloner_apply,
    fock_norm_squared,
    fock_post_selected,
    partial_trace,
    pattern_probabilities,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

SINGLET = np.zeros((4, 4), dtype=complex)
_v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
SINGLET += np.outer(_v, _v.conj())


# --- Fock bookkeeping -----------------------------------------------------------


def test_norm_counts_double_occupancy():
    assert fock_norm_squared({(("a", 0), ("a", 0)): 1.0}) == pytest.approx(2.0)
    assert fock_norm_squared({(("a", 0),): 1.0 + 0j}) == pytest.approx(1.0)
    assert fock_norm_squared({}) == pytest.approx(0.0)


# --- beamsplitter ----------------------------------------------------------------


def test_balanced_splitter_single_photon():
    out = beamsplitter_action({(("a", 0),): 1.0 + 0j}, ("a", "b"), 0.5)
    r = 1 / np.sqrt(2)
    assert out[(("a", 0),)] == pytest.approx(r)
    assert out[(("b", 0),)] == pytest.approx(r)


def test_unbalanced_splitter_probabilities():
    out = beamsplitter_action({(("a", 0),): 1.0 + 0j}, ("a", "b"), 0.8)
    assert abs(out[(("a", 0),)]) ** 2 == pytest.approx(0.8)
    assert abs(out[(("b", 0),)]) ** 2 == pytest.approx(0.2)


def test_hong_ou_mandel_dip():
    """Two indistinguishable photons never exit on opposite ports of a
    balanced splitter; they bunch with probability 1/2 per side."""
    out = beamsplitter_action({(("a", 0), ("b", 0)): 1.0 + 0j}, ("a", "b"), 0.5)
    coincidence = out.get((("a", 0), ("b", 0)), 0j)
    assert abs(coincidence) <= 1e-14
    p_aa = abs(out[(("a", 0), ("a", 0))]) ** 2 * 2  # 2! multiplicity
    p_bb = abs(out[(("b", 0), ("b", 0))]) ** 2 * 2
    assert p_aa == pytest.approx(0.5)
    assert p_bb == pytest.approx(0.5)


def test_orthogonal_polarizations_do_not_interfere():
    out = beamsplitter_action({(("a", 0), ("b", 1)): 1.0 + 0j}, ("a", "b"), 0.5)
    p_coinc = sum(
        abs(amp) ** 2
        for key, amp in out.items()
        if {s for s, _ in key} == {"a", "b"}
    )
    assert p_coinc == pytest.approx(0.5)


def test_splitter_preserves_norm():
    rng = np.random.default_rng(0)
    state = {
        (("a", 0), ("b", 1)): complex(rng.normal(), rng.normal()),
        (("a", 1), ("r", 0)): complex(rng.normal(), rng.normal()),
        (("b", 0), ("b", 0)): complex(rng.normal(), rng.normal()),
    }
    before = fock_norm_squared(state)
    after = fock_norm_squared(beamsplitter_action(state, ("a", "b"), 0.37))
    assert abs(before - after) <= 1e-12


def test_splitter_rejects_bad_arguments():
    with pytest.raises(ValueError, match="invalid mode labels"):
        beamsplitter_action({}, ("a", "a"), 0.5)
    with pytest.raises(ValueError, match="transmissivity"):
        beamsplitter_action({}, ("a", "b"), 1.2)
    with pytest.raises(ValueError, match="transmissivity"):
        beamsplitter_action({}, ("a", "b"), -0.1)


# --- stats container -------------------------------------------------------------


def test_stats_ordering_enforced():
    blank = np.eye(8, dtype=complex) / 8
    with pytest.raises(ValueError, match="order"):
        CoincidenceStats(p_sym=0.05, p_anti=0.10, state_sym=blank, state_anti=blank)
    with pytest.raises(ValueError, match="order"):
        CoincidenceStats(p_sym=1.5, p_anti=0.10, state_sym=blank, state_anti=blank)


# --- full bench: probabilities ------------------------------------------------------


def test_pattern_probabilities_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(5):
        table = pattern_probabilities(rand_state(rng, 2))
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-10)
        assert all(p >= -1e-12 for p in table.values())


def test_accepted_pattern_probabilities_are_state_independent():
    rng = np.random.default_rng(2)
    for _ in range(20):
        stats = simulate_optics(rand_state(rng, 2))
        assert abs(stats.p_sym - 3 / 16) <= 1e-10
        assert abs(stats.p_anti - 1 / 16) <= 1e-10


def test_pattern_table_contains_accepted_profiles():
    table = pattern_probabilities(np.diag([1.0, 0.0]).astype(complex))
    assert table[("e", "f", "r")] == pytest.approx(3 / 16, abs=1e-10)
    assert table[("c", "e", "r")] == pytest.approx(1 / 16, abs=1e-10)


def test_rejects_non_qubit_input():
    with pytest.raises(ValueError, match="qubit"):
        simulate_optics(np.eye(3, dtype=complex) / 3)
    with pytest.raises(ValueError, match="qubit"):
        pattern_probabilities(np.eye(3, dtype=complex) / 3)


# --- full bench: one Kraus operator per pattern ------------------------------------


def test_kraus_model_matches_fock_reference():
    """K rho K^dag equals the Fock-space bench run eigenvector by eigenvector,
    on random mixed states and a pure one."""
    rng = np.random.default_rng(9)
    for rho in [rand_state(rng, 2) for _ in range(10)] + [np.diag([1.0, 0.0])]:
        stats = simulate_optics(rho)
        ref_sym, ref_anti = fock_post_selected(rho)
        for p, state, ref in ((stats.p_sym, stats.state_sym, ref_sym),
                              (stats.p_anti, stats.state_anti, ref_anti)):
            p_ref = np.trace(ref).real
            assert abs(p - p_ref) <= 1e-14
            assert np.abs(state - ref / p_ref).max() <= 1e-14


def test_pattern_probabilities_are_an_operator_identity():
    """K^dag K is 3/16 and 1/16 times the identity: every input state is kept
    with the same probability."""
    assert _K_SYM.shape == _K_ANTI.shape == (8, 2)
    assert np.abs(_K_SYM.conj().T @ _K_SYM - 3 / 16 * np.eye(2)).max() <= 1e-14
    assert np.abs(_K_ANTI.conj().T @ _K_ANTI - 1 / 16 * np.eye(2)).max() <= 1e-14


def test_detected_pair_maps_are_the_cloner_branches():
    """With the reference traced out, each pattern is the map of the
    2-operator stack (1_pair (x) <r|) K, r = 0, 1; it equals 3/16 of j_sym and
    1/16 of j_anti at d = 2, judged as verify judges its identities."""
    fam = CorrelatorFamily(2)
    scale = frobenius_norm(fam.j_sym)
    for k, weight, branch in ((_K_SYM, 3 / 16, fam.j_sym), (_K_ANTI, 1 / 16, fam.j_anti)):
        stack = k.reshape(4, 2, 2).transpose(1, 0, 2)
        pair = ChoiOperator(None, d_in=2, d_out=4, kraus=stack)
        assert frobenius_norm(combine((1.0, -weight), (pair, branch))) <= 1e-12 * scale


# --- full bench: post-selected states ---------------------------------------------


def test_post_selected_states_are_density_matrices():
    rng = np.random.default_rng(3)
    stats = simulate_optics(rand_state(rng, 2))
    for state in (stats.state_sym, stats.state_anti):
        assert state.shape == (8, 8)
        assert abs(np.trace(state) - 1) <= 1e-11
        assert np.linalg.eigvalsh(state).min() >= -1e-12


def test_detected_pairs_match_cloner_outputs():
    """Tracing out the reference qubit must leave exactly the two
    projector-sandwich states that the instrument route produces."""
    rng = np.random.default_rng(4)
    fam = CorrelatorFamily(2)
    for _ in range(10):
        rho = rand_state(rng, 2)
        stats = simulate_optics(rho)
        pair_sym = partial_trace(stats.state_sym, 0, [4, 2])
        pair_anti = partial_trace(stats.state_anti, 0, [4, 2])
        assert np.linalg.norm(pair_sym - cloner_apply(fam, +1, rho)) <= 1e-11
        assert np.linalg.norm(pair_anti - cloner_apply(fam, -1, rho)) <= 1e-11


def test_sym_pair_lives_in_symmetric_sector():
    rng = np.random.default_rng(5)
    s = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            s[2 * i + j, 2 * j + i] = 1.0
    p_minus = (np.eye(4) - s) / 2
    stats = simulate_optics(rand_state(rng, 2))
    pair_sym = partial_trace(stats.state_sym, 0, [4, 2])
    assert np.linalg.norm(p_minus @ pair_sym @ p_minus) <= 1e-11


def test_anti_pair_is_the_singlet_for_every_input():
    rng = np.random.default_rng(6)
    for _ in range(5):
        stats = simulate_optics(rand_state(rng, 2))
        pair_anti = partial_trace(stats.state_anti, 0, [4, 2])
        assert np.linalg.norm(pair_anti - SINGLET) <= 1e-11


def test_maximally_mixed_input_gives_mixed_marginals():
    stats = simulate_optics(np.eye(2, dtype=complex) / 2)
    pair_sym = partial_trace(stats.state_sym, 0, [4, 2])
    for keep in (0, 1):
        marg = partial_trace(pair_sym, keep, [2, 2])
        assert np.allclose(marg, np.eye(2) / 2, atol=1e-11)


# --- recombination ---------------------------------------------------------------------


def test_recombination_reads_the_anticommutator():
    rng = np.random.default_rng(7)
    fam = CorrelatorFamily(2)
    for _ in range(20):
        rho = rand_state(rng, 2)
        a = rand_herm(rng, 2)
        b = rand_herm(rng, 2)
        stats = simulate_optics(rho)
        got = recombine_coincidences(stats, a, b)
        direct = np.trace(rho @ (a @ b + b @ a)).real / 2
        assert abs(got - direct) <= 1e-9
        # cross-route through the process-matrix pipeline
        routed = np.trace(real_part_apply(fam, rho) @ np.kron(a, b)).real
        assert abs(got - routed) <= 1e-9


def test_recombination_identity_observables():
    stats = simulate_optics(np.eye(2, dtype=complex) / 2)
    got = recombine_coincidences(stats, np.eye(2), np.eye(2))
    assert got == pytest.approx(1.0, abs=1e-10)


def test_recombination_anticommuting_pair_vanishes():
    rng = np.random.default_rng(8)
    stats = simulate_optics(rand_state(rng, 2))
    assert recombine_coincidences(stats, SX, SZ) == pytest.approx(0.0, abs=1e-10)


def test_recombination_rejects_wrong_size_observable():
    stats = simulate_optics(np.eye(2, dtype=complex) / 2)
    with pytest.raises(ValueError, match="polarization"):
        recombine_coincidences(stats, np.eye(4), np.eye(4))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("arg", [0, 1])
def test_recombination_rejects_non_finite_observable(arg, value):
    stats = simulate_optics(np.eye(2, dtype=complex) / 2)
    obs = [SX.copy(), SZ.copy()]
    obs[arg][0, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^observable entry \[0, 1\] is not finite"):
            recombine_coincidences(stats, *obs)
