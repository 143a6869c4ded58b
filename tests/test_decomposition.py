import dataclasses
import tracemalloc

import numpy as np
import pytest

from twopoint.choi import (
    ChoiOperator,
    apply_choi,
    is_completely_positive,
    is_trace_preserving,
    kraus_from_choi,
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
from twopoint.linalg import DEGENERACY_TOL

from reference_maps import (
    choi_of_action,
    eigenprojectors,
    maximally_entangled_projector,
    partial_trace,
)


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
    """The identity channel's J = 2 Phi has the eigenvalues 0 (three times)
    and 2: a zero-weight completion and a weight-4 branch, each effect its
    eigenprojector / d_out, make the instrument exactly trace preserving."""
    j = ChoiOperator(2 * maximally_entangled_projector(2), d_in=2, d_out=2)
    dec = statistical_decompose(j)
    assert dec.weights == pytest.approx((0, 4), abs=1e-12)
    assert [len(eff.kraus) for eff in dec.effects] == [3, 1]
    for eff, proj in zip(dec.effects, eigenprojectors(j.matrix, (0, 2))):
        assert np.abs(eff.matrix - proj / 2).max() <= 1e-12
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


def test_decompose_effects_are_eigenprojectors():
    """One term per distinct eigenvalue mu of J, of weight d_out mu: its
    effect carries the m orthonormal eigenvectors v_k of mu as the Kraus
    operators v_k / sqrt(d_out), and its matrix is the eigenprojector /
    d_out. A generic map has a term per eigenvalue; the d = 3 family's real
    part has the eigenvalues -1, 0 and 2."""
    generic = _rand_hp_choi(np.random.default_rng(16), 2, 3)
    for j, mus in ((generic, np.linalg.eigvalsh(generic.matrix)),
                   (CorrelatorFamily(3).j_real, (-1, 0, 2))):
        dec = statistical_decompose(j)
        assert dec.weights == pytest.approx(np.multiply(j.d_out, mus), abs=1e-12)
        for mu, eff, proj in zip(mus, dec.effects, eigenprojectors(j.matrix, mus)):
            vecs = eff.kraus.reshape(len(eff.kraus), -1) * np.sqrt(j.d_out)
            assert np.abs(vecs.conj() @ vecs.T - np.eye(len(vecs))).max() <= 1e-12
            assert np.abs(j.matrix @ vecs.T - mu * vecs.T).max() <= 1e-12
            assert np.abs(eff.matrix - proj / j.d_out).max() <= 1e-12


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


def test_cost_rejects_a_state_of_another_dimension():
    dec = universal_real_decomposition(2)
    with pytest.raises(ValueError, match="state dimension 3 does not match map input dimension 2"):
        decomposition_cost(dec, np.eye(3, dtype=complex) / 3)


def test_decomposition_needs_paired_terms():
    effect = universal_real_decomposition(2).effects[0]
    with pytest.raises(ValueError, match="weights and effects must pair up one-to-one"):
        StatisticalDecomposition(weights=(1.0, 2.0), effects=(effect,))
    with pytest.raises(ValueError, match="a decomposition needs at least one term"):
        StatisticalDecomposition(weights=(), effects=())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_map_near_the_float_maximum_is_decomposed():
    """J = 1.5e308 diag(1, -1, 0.5, 0) is finite and Hermitian: its weights,
    Kraus operators and bound are finite, although J + J^dag overflows."""
    j = ChoiOperator(1.5e308 * np.diag([1, -1, 0.5, 0]), d_in=4, d_out=1)
    assert statistical_decompose(j).weights == (-1.5e308, 0.0, 0.75e308, 1.5e308)
    assert error_lower_bound(j) == 0.0
    cp = ChoiOperator(1.5e308 * np.diag([1, 0, 0.5, 0.25]), d_in=4, d_out=1)
    assert sorted(np.abs(k).max() ** 2 for k in kraus_from_choi(cp)) == pytest.approx(
        [0.375e308, 0.75e308, 1.5e308], rel=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_degenerate_maps_at_either_end_of_the_float_range_are_decomposed():
    """1.5e308 1_4 is one eigenvalue, whose cluster sum 6e308 overflows: it
    is taken at a power-of-two scale, so the one term has weight 1.5e308.
    5e-324 diag(1, 1, 2, 2) keeps its two eigenvalues apart (the gap bound
    1e-9 * 1e-323 is 0) and gives two terms."""
    dec = statistical_decompose(ChoiOperator(1.5e308 * np.eye(4), d_in=4, d_out=1))
    assert dec.weights == (1.5e308,)
    assert np.array_equal(dec.effects[0].matrix, np.eye(4))
    dec = statistical_decompose(ChoiOperator(5e-324 * np.diag([1, 1, 2, 2]), d_in=2, d_out=2))
    assert dec.weights == (1e-323, 2e-323)
    assert [len(eff.kraus) for eff in dec.effects] == [2, 2]


def test_decompose_merges_eigenvalues_within_the_degeneracy_bound():
    """A 2 -> 2 map with the eigenvalues 1, 1 + 1e-12, 3 and 3 + 1e-6: the
    first gap is below DEGENERACY_TOL * 3, so that pair is one term of the
    mean weight 2 (1 + 0.5e-12), and its recombination moves each eigenvalue
    by 0.5e-12, within the docstring's DEGENERACY_TOL max|mu|
    sqrt(sum_i m_i (m_i - 1)^2); the gap 1e-6 is above it, so the second
    pair stays two terms."""
    mus = np.array([1, 1 + 1e-12, 3, 3 + 1e-6])
    u, _ = np.linalg.qr(np.random.default_rng(24).normal(size=(4, 8)).view(complex))
    j = ChoiOperator((u * mus) @ u.conj().T, d_in=2, d_out=2)
    dec = statistical_decompose(j)
    assert [len(eff.kraus) for eff in dec.effects] == [2, 1, 1]
    assert dec.weights == pytest.approx((2 + 1e-12, 6, 6 + 2e-6), rel=1e-12)
    residual = np.linalg.norm(recombine(dec).matrix - j.matrix)
    assert residual == pytest.approx(np.sqrt(2) * 0.5e-12, rel=1e-2)
    assert residual <= DEGENERACY_TOL * mus.max() * np.sqrt(2 * 1**2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weights_or_bound_beyond_the_float_range_are_refused():
    """d_out mu = 2 * 1.5e308 and Tr_out |J| = 3e308 have no float: each is
    refused with a ValueError that names it."""
    with pytest.raises(ValueError, match=r"weights d_out \* mu reach 2 \* 1.5e\+308, beyond"):
        statistical_decompose(ChoiOperator(1.5e308 * np.diag([1, -1, 0.5, 0]), d_in=2, d_out=2))
    with pytest.raises(ValueError, match="bound .* is beyond the float range"):
        error_lower_bound(ChoiOperator(1.5e308 * np.eye(4), d_in=2, d_out=2))


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
    """With Z = 1 the readout is the unweighted instrument output
    sum_i E_i(rho), of unit trace."""
    rng = np.random.default_rng(15)
    j = _rand_channel_choi(rng, 2)
    dec = statistical_decompose(j)
    dil = stinespring_dilation(dec)
    rho = rand_state(rng, 2)
    ones = dataclasses.replace(dil, ancilla_observable=np.eye(dil.d_ancilla))
    marginal = partial_expectation(ones, rho)
    total = sum(apply_choi(e, rho) for e in dec.effects)
    assert np.linalg.norm(marginal - total) <= 1e-10
    assert abs(np.trace(marginal) - 1) <= 1e-10


def test_partial_expectation_with_any_ancilla_observable():
    """A non-diagonal Z gives the dense Tr_anc[V rho V^dag (1 (x) Z)]."""
    rng = np.random.default_rng(17)
    dil = stinespring_dilation(universal_imag_decomposition(3))
    z = rng.normal(size=(dil.d_ancilla, 2 * dil.d_ancilla)).view(complex)
    dil = dataclasses.replace(dil, ancilla_observable=z)
    rho = rand_state(rng, 3)
    v = dil.isometry
    full = v @ rho @ v.conj().T @ np.kron(np.eye(dil.d_out), z)
    want = partial_trace(full, 0, [dil.d_out, dil.d_ancilla])
    assert np.abs(partial_expectation(dil, rho) - want).max() <= 1e-13


def test_partial_expectation_contracts_kraus_blocks():
    """At d = 8 the dilated state V rho V^dag would be 1024-sided (16 MiB);
    the readout contracts V's Kraus blocks instead."""
    d = 8
    rho = rand_state(np.random.default_rng(18), d)
    fam = CorrelatorFamily(d)
    for dec, part_apply in ((universal_real_decomposition(d), real_part_apply),
                            (universal_imag_decomposition(d), imag_part_apply)):
        dil = stinespring_dilation(dec)
        tracemalloc.start()
        try:
            got = partial_expectation(dil, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert np.abs(got - part_apply(fam, rho)).max() <= 1e-12


def test_partial_expectation_rejects_a_state_of_another_dimension():
    dil = stinespring_dilation(universal_real_decomposition(2))
    with pytest.raises(ValueError, match="state dimension 3 does not match isometry input dimension 2"):
        partial_expectation(dil, np.eye(3) / 3)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dilation_rejects_a_non_finite_kraus_stack(bad):
    # ||V^dag V - 1||_F is NaN: it must fail the bound, not slip past it
    kraus = np.full((1, 2, 2), bad, dtype=complex)
    dec = StatisticalDecomposition(weights=(1.0,), effects=(
        ChoiOperator(None, d_in=2, d_out=2, kraus=kraus),))
    with pytest.raises(ValueError, match="trace-preserving"):
        stinespring_dilation(dec)
