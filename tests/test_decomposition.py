import tracemalloc

import numpy as np
import pytest

from twopoint.choi import (
    ChoiOperator,
    apply_choi,
    is_completely_positive,
    is_trace_preserving,
)
from twopoint.cli import _random_observable as rand_herm, _random_state as rand_state
from twopoint.correlator import (
    CorrelatorFamily,
    imag_part_apply,
    real_part_apply,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from twopoint.decomposition import (
    StatisticalDecomposition,
    decomposition_cost,
    error_lower_bound,
    partial_expectation,
    recombine,
    statistical_decompose,
    stinespring_dilation,
)
from twopoint.linalg import hermitian_eigendecomposition, partial_trace

from reference_maps import choi_of_action, maximally_entangled_projector


def _rand_hp_choi(rng, d_in, d_out):
    return ChoiOperator(rand_herm(rng, d_out * d_in), d_in=d_in, d_out=d_out)


def _rand_channel_choi(rng, d):
    ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3)]
    s = sum(k.conj().T @ k for k in ops)
    w, v = np.linalg.eigh(s)
    s_inv_half = (v * (w**-0.5)) @ v.conj().T
    ops = [k @ s_inv_half for k in ops]
    return choi_of_action(lambda m: sum(k @ m @ k.conj().T for k in ops), d, d)


# --- statistical_decompose ---------------------------------------------------


def test_decompose_identity_channel():
    """The identity channel splits into one weight-4 branch plus three
    zero-weight completions making the instrument exactly trace preserving."""
    j = ChoiOperator(2 * maximally_entangled_projector(2), d_in=2, d_out=2)
    dec = statistical_decompose(j)
    assert len(dec.weights) == 4
    assert np.allclose(sorted(dec.weights), [0, 0, 0, 4], atol=1e-12)
    top = dec.effects[int(np.argmax(dec.weights))]
    assert np.allclose(top.matrix, maximally_entangled_projector(2) / 2, atol=1e-10)
    assert np.linalg.norm(recombine(dec).matrix - j.matrix) <= 1e-10
    assert abs(error_lower_bound(j) - 1) <= 1e-10


def test_decompose_real_part_family():
    jr = CorrelatorFamily(2).j_real
    dec = statistical_decompose(jr)
    assert np.linalg.norm(recombine(dec).matrix - jr.matrix) <= 1e-10
    for eff in dec.effects:
        assert is_completely_positive(eff)
    unweighted = ChoiOperator(
        sum(e.matrix for e in dec.effects), d_in=dec.d_in, d_out=dec.d_out
    )
    assert is_trace_preserving(unweighted)


def test_decompose_effects_carry_one_kraus_operator():
    """Effect k carries the single operator v_k reshaped to d_out x d_in and
    divided by sqrt(d_out); its matrix is v_k v_k^dag / d_out."""
    rng = np.random.default_rng(16)
    for j in (_rand_hp_choi(rng, 2, 3), CorrelatorFamily(3).j_real):
        _, v = hermitian_eigendecomposition(j.matrix)
        dec = statistical_decompose(j)
        for k, eff in enumerate(dec.effects):
            assert eff.kraus.shape == (1, j.d_out, j.d_in)
            want = np.outer(v[:, k], v[:, k].conj()) / j.d_out
            assert np.abs(eff.matrix - want).max() <= 1e-14


def test_decompose_channel_has_nonnegative_weights():
    rng = np.random.default_rng(0)
    j = _rand_channel_choi(rng, 2)
    dec = statistical_decompose(j)
    assert min(dec.weights) >= -1e-10
    assert is_trace_preserving(recombine(dec))


def test_decompose_rejects_non_hp():
    fam = CorrelatorFamily(2)
    total = ChoiOperator(fam.j_real.matrix - 1j * fam.j_imag.matrix, d_in=2, d_out=4)
    with pytest.raises(ValueError, match="[Hh]ermit"):
        statistical_decompose(total)


def test_recombine_round_trip_random_hp():
    rng = np.random.default_rng(1)
    for d_in, d_out in [(2, 2), (2, 3), (3, 2)]:
        j = _rand_hp_choi(rng, d_in, d_out)
        dec = statistical_decompose(j)
        assert np.linalg.norm(recombine(dec).matrix - j.matrix) <= 1e-10


# --- cost and bound -----------------------------------------------------------


def test_cost_universal_real_qubit():
    rng = np.random.default_rng(2)
    dec = universal_real_decomposition(2)
    for _ in range(5):
        report = decomposition_cost(dec, rand_state(rng, 2))
        assert np.allclose(report.probabilities, [0.5, 0.5], atol=1e-10)
        assert abs(report.cost - 2.0) <= 1e-10


def test_cost_universal_imag_qubit():
    rng = np.random.default_rng(3)
    dec = universal_imag_decomposition(2)
    report = decomposition_cost(dec, rand_state(rng, 2))
    assert abs(report.cost - np.sqrt(3)) <= 1e-10


def test_cost_trivial_identity_decomposition():
    j = ChoiOperator(2 * maximally_entangled_projector(2), d_in=2, d_out=2)
    dec = StatisticalDecomposition(weights=(1.0,), effects=(j,))
    report = decomposition_cost(dec, np.eye(2, dtype=complex) / 2)
    assert abs(report.cost - 1.0) <= 1e-12
    assert abs(report.probabilities[0] - 1.0) <= 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_cost_probabilities_match_apply_choi(d):
    """p(i) from the input marginal equals Tr[apply_choi(effect, rho)] for
    Kraus, two-sided and dense maps."""
    rng = np.random.default_rng(40 + d)
    rho = rand_state(rng, d)
    fam = CorrelatorFamily(d)
    kraus = universal_real_decomposition(d).effects + universal_imag_decomposition(d).effects
    two_sided = (fam.j_real, fam.j_imag)
    dense = (
        ChoiOperator(kraus[0].matrix, d_in=d, d_out=d * d),
        ChoiOperator(fam.j_imag.matrix, d_in=d, d_out=d * d),
        _rand_hp_choi(rng, d, 3),
    )
    for eff in kraus + two_sided + dense:
        dec = StatisticalDecomposition(weights=(1.0,), effects=(eff,))
        (p,) = decomposition_cost(dec, rho, bound=0.0).probabilities
        assert abs(p - np.trace(apply_choi(eff, rho)).real) <= 1e-12


def test_cost_rejects_invalid_state():
    dec = universal_real_decomposition(2)
    with pytest.raises(ValueError, match="trace"):
        decomposition_cost(dec, np.eye(2, dtype=complex))


def test_bound_values_qubit():
    fam = CorrelatorFamily(2)
    assert abs(error_lower_bound(fam.j_real) - 2.0) <= 1e-9
    assert abs(error_lower_bound(fam.j_imag) - np.sqrt(3)) <= 1e-9


def test_bound_of_channel_is_one():
    rng = np.random.default_rng(4)
    j = _rand_channel_choi(rng, 3)
    assert abs(error_lower_bound(j) - 1.0) <= 1e-9


@pytest.mark.parametrize("case", ["real_family", "random_hp"])
def test_bound_reduction_matches_direct_minimization(case):
    """The eigenvalue shortcut for min_sigma Tr[|J|(1 x sigma)] must lower-
    bound a direct scan over random pure states."""
    rng = np.random.default_rng(5)
    if case == "real_family":
        j = CorrelatorFamily(2).j_real
    else:
        j = _rand_hp_choi(rng, 2, 3)
    value = error_lower_bound(j)
    from twopoint.linalg import operator_absolute_value

    aj = operator_absolute_value(j.matrix)
    best = np.inf
    for _ in range(1000):
        psi = rng.normal(size=j.d_in) + 1j * rng.normal(size=j.d_in)
        psi /= np.linalg.norm(psi)
        sigma = np.outer(psi, psi.conj())
        sampled = np.trace(aj @ np.kron(np.eye(j.d_out), sigma)).real
        assert value <= sampled + 1e-9
        best = min(best, sampled)
    # the scan should come close to the analytic minimum
    assert best - value <= 0.35


@pytest.mark.parametrize("d", range(2, 11))
def test_cost_default_bound_equals_passed_bound(d):
    """Without ``bound=`` the cost report bounds the recombined branches'
    stack, at the cost of a few 2d-sided eigendecompositions."""
    rng = np.random.default_rng(90 + d)
    rho = rand_state(rng, d)
    fam = CorrelatorFamily(d)
    for dec, j in (
        (universal_real_decomposition(d), fam.j_real),
        (universal_imag_decomposition(d), fam.j_imag),
    ):
        passed = decomposition_cost(dec, rho, bound=error_lower_bound(j))
        default = decomposition_cost(dec, rho)
        assert abs(default.bound - passed.bound) <= 1e-12
        assert (default.cost, default.probabilities) == (passed.cost, passed.probabilities)


def test_cost_never_beats_bound_small_sample():
    rng = np.random.default_rng(6)
    for _ in range(5):
        j = _rand_hp_choi(rng, 2, 2)
        dec = statistical_decompose(j)
        bound = error_lower_bound(j)
        for _ in range(4):
            report = decomposition_cost(dec, rand_state(rng, 2))
            assert report.cost >= bound - 1e-9


# --- dilation ------------------------------------------------------------------


def test_dilation_of_unitary_channel():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(g)
    j = choi_of_action(lambda m: u @ m @ u.conj().T, 2, 2)
    dec = StatisticalDecomposition(weights=(1.0,), effects=(j,))
    dil = stinespring_dilation(dec)
    assert dil.d_ancilla == 1
    assert np.allclose(dil.ancilla_observable, [[1.0]], atol=1e-12)
    rho = rand_state(rng, 2)
    assert np.linalg.norm(partial_expectation(dil, rho) - u @ rho @ u.conj().T) <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_dilation_reproduces_real_part(d):
    rng = np.random.default_rng(8 + d)
    fam = CorrelatorFamily(d)
    dil = stinespring_dilation(universal_real_decomposition(d))
    v = dil.isometry
    assert np.linalg.norm(v.conj().T @ v - np.eye(d)) <= 1e-10
    for _ in range(10):
        rho = rand_state(rng, d)
        assert np.linalg.norm(partial_expectation(dil, rho) - real_part_apply(fam, rho)) <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_dilation_reproduces_imag_part(d):
    rng = np.random.default_rng(10 + d)
    fam = CorrelatorFamily(d)
    dil = stinespring_dilation(universal_imag_decomposition(d))
    for _ in range(10):
        rho = rand_state(rng, d)
        assert np.linalg.norm(partial_expectation(dil, rho) - imag_part_apply(fam, rho)) <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_dilation_scalar_expectations(d):
    """Tr[V rho V' (A x Z)] must equal Tr[R(rho) A] for observables A on the
    doubled output space."""
    rng = np.random.default_rng(12 + d)
    fam = CorrelatorFamily(d)
    dil = stinespring_dilation(universal_real_decomposition(d))
    v, z = dil.isometry, dil.ancilla_observable
    for _ in range(20):
        rho = rand_state(rng, d)
        a = rand_herm(rng, d * d)
        lhs = np.trace(v @ rho @ v.conj().T @ np.kron(a, z)).real
        rhs = np.trace(real_part_apply(fam, rho) @ a).real
        assert abs(lhs - rhs) <= 1e-10


def test_dilation_stacks_stored_kraus_operators():
    """At d = 16 the effects' process matrices would be 268 MB each; the
    dilation stacks the d Kraus operators each effect carries."""
    d = 16
    dec = universal_imag_decomposition(d)
    tracemalloc.start()
    try:
        dil = stinespring_dilation(dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert dil.d_ancilla == 2 * d
    v = dil.isometry
    assert np.linalg.norm(v.conj().T @ v - np.eye(d)) <= 1e-10
    weights = np.diag(dil.ancilla_observable)
    np.testing.assert_allclose(weights, [dec.weights[0]] * d + [dec.weights[1]] * d)


def test_dilation_isometry_for_random_hp_maps():
    rng = np.random.default_rng(14)
    for _ in range(5):
        j = _rand_hp_choi(rng, 2, 3)
        dil = stinespring_dilation(statistical_decompose(j))
        v = dil.isometry
        assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-10


def test_partial_expectation_with_identity_ancilla():
    rng = np.random.default_rng(15)
    j = _rand_channel_choi(rng, 2)
    dec = statistical_decompose(j)
    dil = stinespring_dilation(dec)
    rho = rand_state(rng, 2)
    # replacing Z by the identity must give the recombined-with-|weights|...
    # here: the plain channel output when all weights are ~1? They are the
    # eigen-branch weights, so instead check the Z=1 marginal is the
    # unweighted instrument output sum(E_i(rho)) with unit total trace.
    v = dil.isometry
    full = v @ rho @ v.conj().T
    marginal = partial_trace(full, 0, [dil.d_out, dil.d_ancilla])
    total = sum(apply_choi(e, rho) for e in dec.effects)
    assert np.linalg.norm(marginal - total) <= 1e-10
    assert abs(np.trace(marginal) - 1) <= 1e-10


def test_dilation_rejects_non_cp_effect():
    dec = StatisticalDecomposition(weights=(1.0,), effects=(CorrelatorFamily(2).j_real,))
    with pytest.raises(ValueError, match="completely positive"):
        stinespring_dilation(dec)


def test_dilation_rejects_non_instrument():
    # a lone half-weight effect does not sum to a trace-preserving map
    dec = universal_real_decomposition(2)
    bad = StatisticalDecomposition(weights=(3.0,), effects=(dec.effects[0],))
    with pytest.raises(ValueError, match="trace-preserving"):
        stinespring_dilation(bad)
