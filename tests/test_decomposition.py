import dataclasses
import tracemalloc

import numpy as np
import pytest

from twopoint.choi import (
    ChoiOperator,
    apply_choi,
    combine,
    is_completely_positive,
    is_trace_preserving,
    kraus_from_choi,
)
from twopoint.correlator import (
    CorrelatorFamily,
    imag_part_apply,
    real_part_apply,
    two_point_exact,
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
from twopoint.sampler import estimate_component

from reference_maps import (
    choi_of_action,
    jordan_parts,
    maximally_entangled_projector,
    needs_vmhwm,
    operator_absolute_value,
    partial_trace,
    random_observable as rand_herm,
    random_state as rand_state,
    run_with_peak,
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
    """The identity channel's J = 2 Phi is PSD with Tr_out J = 1, so c = 1:
    its Jordan form is the one term (1, J), carried by one Kraus operator,
    with no negative part and no completion."""
    j = ChoiOperator(2 * maximally_entangled_projector(2), d_in=2, d_out=2)
    dec = statistical_decompose(j)
    assert dec.weights == pytest.approx((1,), rel=1e-15)
    assert len(dec.effects[0].kraus) == 1
    assert np.abs(dec.effects[0].matrix - j.matrix).max() <= 1e-12
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


def test_decompose_effects_are_the_jordan_parts():
    """With M = Tr_out |J| and c = lambda_max(M), the terms are (c, J_+/c),
    (-c, J_-/c) and a weight-0 completion of input marginal 1 - M/c, made of
    rank-1 Kraus operators into |0>. A generic map has all three; the d = 3
    family's real part, whose M is 3 1, has no completion."""
    generic = _rand_hp_choi(np.random.default_rng(16), 2, 3)
    for j, n_terms in ((generic, 3), (CorrelatorFamily(3).j_real, 2)):
        dec = statistical_decompose(j)
        pos, neg, marginal = jordan_parts(j.matrix, j.d_in, j.d_out)
        c = np.linalg.eigvalsh(marginal).max()
        assert dec.weights == pytest.approx((c, -c, 0)[:n_terms], rel=1e-12)
        for eff, part in zip(dec.effects, (pos, neg)):
            assert np.abs(eff.matrix - part / c).max() <= 1e-12
    completion = statistical_decompose(generic).effects[2].kraus
    marginal = jordan_parts(generic.matrix, 2, 3)[2]
    want = np.eye(2) - marginal / np.linalg.eigvalsh(marginal).max()
    assert np.abs(np.einsum("aoi,aoj->ij", completion, completion.conj()) - want).max() <= 1e-12
    assert not completion[:, 1:].any()
    assert all(np.linalg.matrix_rank(k) == 1 for k in completion)


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
    """J = 1.5e308 diag(1, -1, 0.5, 0), 4 -> 1, is finite and Hermitian,
    although J + J^dag overflows: M = |J|, so c = 1.5e308, and the terms are
    (c, diag(1, 0, 0.5, 0)), (-c, diag(0, 1, 0, 0)) and the completion
    diag(0, 0, 0.5, 1), all with finite Kraus operators; the bound is 0."""
    j = ChoiOperator(1.5e308 * np.diag([1, -1, 0.5, 0]), d_in=4, d_out=1)
    dec = statistical_decompose(j)
    assert dec.weights == (1.5e308, -1.5e308, 0.0)
    for eff, want in zip(dec.effects, ([1, 0, 0.5, 0], [0, 1, 0, 0], [0, 0, 0.5, 1])):
        assert np.abs(eff.matrix - np.diag(want)).max() <= 1e-15
    assert error_lower_bound(j) == 0.0
    cp = ChoiOperator(1.5e308 * np.diag([1, 0, 0.5, 0.25]), d_in=4, d_out=1)
    assert sorted(np.abs(k).max() ** 2 for k in kraus_from_choi(cp)) == pytest.approx(
        [0.375e308, 0.75e308, 1.5e308], rel=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_degenerate_maps_at_either_end_of_the_float_range_are_decomposed():
    """1.5e308 1_4, 4 -> 1, has M = 1.5e308 1, whose trace overflows: it is
    taken at a power-of-two scale, so the one term is (1.5e308, 1). 5e-324
    diag(1, 1, 2, 2), 2 -> 2, has M = 1.5e-323 1: one term of weight
    c = 3 * 5e-324 whose effect J/c is diag(1, 1, 2, 2)/3, and no
    completion."""
    dec = statistical_decompose(ChoiOperator(1.5e308 * np.eye(4), d_in=4, d_out=1))
    assert dec.weights == (1.5e308,)
    assert np.array_equal(dec.effects[0].matrix, np.eye(4))
    dec = statistical_decompose(ChoiOperator(5e-324 * np.diag([1, 1, 2, 2]), d_in=2, d_out=2))
    assert dec.weights == (1.5e-323,)
    assert np.abs(dec.effects[0].matrix - np.diag([1, 1, 2, 2]) / 3).max() <= 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_stacked_map_near_the_float_maximum_is_bounded_and_decomposed():
    """1e308 times the d = 2 cloner, carried by the stacks [1e308 L] / [L]:
    ||J||_F = 1.41e308 is finite, but a QR of the stacks as they are would
    overflow. It is taken at the stacks' unit scale, so the bound and the
    weights are those of the cloner times 1e308, and the Kraus operators,
    divided by 1e154, reproduce the cloner."""
    unit = CorrelatorFamily(2).j_sym
    j = combine((1e308,), (unit,))
    assert error_lower_bound(j) == pytest.approx(1e308 * error_lower_bound(unit), rel=1e-12)
    assert statistical_decompose(j).weights == pytest.approx(
        [1e308 * w for w in statistical_decompose(unit).weights], rel=1e-12)
    rho = rand_state(np.random.default_rng(308), 2)
    ops = [k / 1e154 for k in kraus_from_choi(j)]
    assert len(ops) == len(kraus_from_choi(unit))
    assert np.linalg.norm(sum(k @ rho @ k.conj().T for k in ops) - apply_choi(unit, rho)) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_zero_map_is_one_completion():
    """J = 0 has c = 0: one weight-0 term, d_in rank-1 Kraus operators into
    |0> that sum to a trace-preserving map, with no division by c."""
    dec = statistical_decompose(ChoiOperator(np.zeros((6, 6)), d_in=3, d_out=2))
    assert dec.weights == (0.0,)
    assert len(dec.effects[0].kraus) == 3
    assert is_trace_preserving(dec.effects[0]) and is_completely_positive(dec.effects[0])
    assert not recombine(dec).matrix.any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weights_or_bound_beyond_the_float_range_are_refused():
    """J = 1.5e308 diag(1, -1, 0.5, 0), 2 -> 2, has M = Tr_out |J| =
    1.5e308 diag(1.5, 1), so c = 2.25e308; 1.5e308 1_4, 2 -> 2, has the
    bound 3e308. Neither has a float, and each is refused with a ValueError
    that names it."""
    with pytest.raises(ValueError, match=r"the weight c = 1\.2516\d* \* 2\^1024 is beyond the float"):
        statistical_decompose(ChoiOperator(1.5e308 * np.diag([1, -1, 0.5, 0]), d_in=2, d_out=2))
    with pytest.raises(ValueError, match="bound .* is beyond the float range"):
        error_lower_bound(ChoiOperator(1.5e308 * np.eye(4), d_in=2, d_out=2))


def _assert_jordan_form(j, dec):
    """The gates of a Jordan form, against a dense M = Tr_out |J|: at most
    three terms, weighted c, -c and 0 in that order, with c = lambda_max(M)
    <= d_out max|mu|; the cost operator sum_i |lambda_i| M_i equals M within
    1e-12 relative, so the cost is Tr[M rho^T] at every state rho; each
    effect CP and their sum trace-preserving; the terms recombine J within
    rounding."""
    marginal = jordan_parts(j.matrix, j.d_in, j.d_out)[2]
    c = abs(dec.weights[0])
    assert dec.weights in {(c,), (-c,), (c, -c), (c, 0.0), (-c, 0.0), (c, -c, 0.0)}
    assert c == pytest.approx(np.linalg.eigvalsh(marginal).max(), rel=1e-12)
    assert c <= j.d_out * np.abs(np.linalg.eigvalsh(j.matrix)).max() * (1 + 1e-12)
    cost = sum(abs(lam) * eff._input_marginal for lam, eff in zip(dec.weights, dec.effects))
    assert np.abs(cost - marginal).max() <= 1e-12 * np.abs(marginal).max()
    assert all(is_completely_positive(eff) for eff in dec.effects)
    assert is_trace_preserving(combine([1] * len(dec.effects), dec.effects))
    assert np.linalg.norm(recombine(dec).matrix - j.matrix) <= 1e-12 * np.linalg.norm(j.matrix)


@pytest.mark.parametrize("d_in, d_out", [(1, 1), (1, 4), (2, 2), (2, 3), (3, 2), (4, 4), (4, 16)])
def test_jordan_form_of_random_maps(d_in, d_out):
    """A random Hermitian J, and a rank-2 map given by the two-sided stack
    [L, R] / [R, L] (J = vec L vec R^dag + vec R vec L^dag), whose J is read
    from a 4-sided C."""
    rng = np.random.default_rng(100 * d_in + d_out)
    left, right = rng.normal(size=(2, 1, d_out, 2 * d_in)).view(complex)
    for j in (_rand_hp_choi(rng, d_in, d_out),
              ChoiOperator(None, d_in, d_out, kraus=np.concatenate([left, right]),
                           right=np.concatenate([right, left]))):
        _assert_jordan_form(j, statistical_decompose(j))


@pytest.mark.parametrize("d", range(2, 9))
def test_jordan_form_of_the_family(d):
    """The family's parts have M = bound 1: two terms, weights +-d and
    +-sqrt(d^2 - 1), with c equal to ``error_lower_bound``."""
    fam = CorrelatorFamily(d)
    for j, bound in ((fam.j_real, d), (fam.j_imag, np.sqrt(d * d - 1))):
        dec = statistical_decompose(j)
        _assert_jordan_form(j, dec)
        assert dec.weights == pytest.approx((bound, -bound), rel=1e-12)
        assert dec.weights[0] == pytest.approx(error_lower_bound(j), rel=1e-12)


def test_decompose_the_family_from_its_stacks():
    """At d = 16 J would be 4096-sided (256 MiB): each part is read from its
    4d-sided C and gives two terms, in a small fraction of that memory."""
    d = 16
    fam = CorrelatorFamily(d)
    tracemalloc.start()
    try:
        decs = [statistical_decompose(j) for j in (fam.j_real, fam.j_imag)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert decs[0].weights == pytest.approx((d, -d), rel=1e-12)
    assert decs[1].weights == pytest.approx((np.sqrt(d * d - 1), -np.sqrt(d * d - 1)), rel=1e-12)


def test_estimates_from_a_jordan_form_are_unbiased():
    """The Jordan forms of a random 2 -> 4 map and of the d = 2 family's
    parts, sampled with A and B on the output's two qubits, land within 5 SE
    of Tr[(A (x) B) L(rho)]: Re and -Im of Tr[A rho B] for the parts."""
    rng = np.random.default_rng(27)
    rho, a, b = rand_state(rng, 2), rand_herm(rng, 2), rand_herm(rng, 2)
    random_map = _rand_hp_choi(rng, 2, 4)
    exact = two_point_exact(rho, a, b)
    fam = CorrelatorFamily(2)
    for k, (j, want) in enumerate((
            (random_map, np.trace(np.kron(a, b) @ apply_choi(random_map, rho)).real),
            (fam.j_real, exact.real), (fam.j_imag, -exact.imag))):
        mean, se = estimate_component(statistical_decompose(j), rho, a, b, 200_000,
                                      np.random.SeedSequence(k))
        assert abs(mean - want) <= 5 * se


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


# The d = 16 real part's dilation read out at a random state: the largest
# entry of its difference from real_part_apply.
_D16_READOUT = """
import numpy as np
from twopoint import (CorrelatorFamily, partial_expectation, real_part_apply,
                      stinespring_dilation, universal_real_decomposition)

d = 16
g = np.random.default_rng(16).normal(size=(d, 2 * d)).view(complex)
rho = g @ g.conj().T
rho /= np.trace(rho).real
got = partial_expectation(stinespring_dilation(universal_real_decomposition(d)), rho)
print(np.abs(got - real_part_apply(CorrelatorFamily(d), rho)).max())
"""


@needs_vmhwm
def test_dilation_reads_out_the_d16_real_part_in_bounded_memory():
    """partial_expectation contracts the isometry's Kraus blocks, so at d = 16
    the dilated state V rho V^dag (8192-sided, 1 GiB per array) is never
    formed: in its own process the readout matches real_part_apply within
    1e-12 and peaks near 50 MB, under 100 MB."""
    code, out, kb = run_with_peak(_D16_READOUT)
    assert code == 0 and kb < 100 * 1024, (code, kb)
    assert float(out) <= 1e-12


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
