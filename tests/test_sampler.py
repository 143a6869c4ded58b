import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopoint.correlator import (
    CorrelatorFamily,
    two_point_exact,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from twopoint.choi import ChoiOperator, apply_choi
from twopoint.decomposition import StatisticalDecomposition, statistical_decompose
from twopoint.linalg import _hermitian, check_density_matrix
import twopoint.sampler as sampler
from twopoint.sampler import (
    DEFAULT_SEED,
    _cell_counts,
    _component_plan,
    _kirkwood_dirac_plans,
    estimate_component,
    estimate_two_point,
)

from reference_maps import (
    _joint_distribution,
    assert_plans_agree,
    partial_trace,
    pure_state,
    random_observable as rand_herm,
    random_state as rand_state,
    rank_two_state,
    reference_plan,
    spectral_projectors,
    two_valued_observable,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
KET0 = np.diag([1.0, 0.0]).astype(complex)
MIXED2 = np.eye(2, dtype=complex) / 2
I2 = np.eye(2, dtype=complex)
ONE = np.ones((1, 1), dtype=complex)


# --- spectral grouping -------------------------------------------------------


def test_spectral_projectors_pauli_z():
    values, projectors = spectral_projectors(SZ)
    assert np.allclose(values, [-1.0, 1.0])
    assert np.allclose(projectors[0], np.diag([0, 1]), atol=1e-14)
    assert np.allclose(projectors[1], np.diag([1, 0]), atol=1e-14)


def test_spectral_projectors_merge_degenerate():
    values, projectors = spectral_projectors(np.eye(3, dtype=complex))
    assert len(values) == 1
    assert values[0] == pytest.approx(1.0)
    assert np.allclose(projectors[0], np.eye(3), atol=1e-13)


def test_spectral_projectors_reconstruct():
    rng = np.random.default_rng(0)
    obs = rand_herm(rng, 4)
    values, projectors = spectral_projectors(obs)
    rebuilt = sum(v * p for v, p in zip(values, projectors))
    assert np.linalg.norm(rebuilt - obs) <= 1e-12
    total = sum(projectors)
    assert np.allclose(total, np.eye(4), atol=1e-12)


# --- cell counts: branch draws --------------------------------------------------


def _records(decomp, rho, a, b, n, seed):
    """The n recorded values lambda_i * alpha * beta of one draw of cell
    counts, grouped by cell."""
    probs, values = _component_plan(decomp, rho, a, b)
    return np.repeat(values.ravel(), _cell_counts(probs, n, np.random.SeedSequence(seed)))


def _preparation(kraus):
    """Weight-1 single-branch instrument that prepares sum_a K_a K_a^dag from
    the trivial input state ONE; kraus is an (r, 4, 1) stack."""
    eff = ChoiOperator(None, d_in=1, d_out=kraus.shape[1], kraus=kraus)
    return StatisticalDecomposition(weights=(1.0,), effects=(eff,))


def test_branch_frequencies_universal_real():
    # with A = B = 1 every record is its branch weight (+3 or -1)
    dec = universal_real_decomposition(2)
    n = 4000
    hits = np.count_nonzero(_records(dec, MIXED2, I2, I2, n, 1) == dec.weights[1])
    # each branch has probability 1/2 for every state
    sigma = np.sqrt(n * 0.25)
    assert abs(hits - n / 2) <= 4 * sigma


def test_branch_single_effect_channel():
    fam = CorrelatorFamily(2)
    dec = StatisticalDecomposition(weights=(1.0,), effects=(fam.j_sym,))
    cell_probs, values = _component_plan(dec, KET0, I2, I2)
    # one branch and one outcome pair: the single cell takes every shot
    assert cell_probs.tolist() == [1.0]
    assert np.all(_records(dec, KET0, I2, I2, 50, 2) == values[0, 0])
    assert values[0, 0] == 1.0


def test_branch_frequencies_random_instrument():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    j = g @ g.conj().T
    j = (j + j.conj().T) / 2
    # normalize so tracing out the first (output) factor leaves the identity
    # on the input factor, which makes the map trace preserving
    reduced = partial_trace(j, 1, [2, 2])
    inv_sqrt = np.linalg.inv(_herm_sqrt(reduced))
    fix = np.kron(np.eye(2), inv_sqrt)
    j = fix @ j @ fix.conj().T
    dec = statistical_decompose(ChoiOperator(j, d_in=2, d_out=2))
    assert len(set(dec.weights)) == len(dec.weights)
    rho = rand_state(rng, 2)
    probs = _branch_probabilities(dec, rho)
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)
    n = 100_000
    # the output is one qubit, read as the 1 x 2 split measured with A = B = 1:
    # each record is its branch weight, and the weights differ
    records = _records(dec, rho, ONE, I2, n, 3)
    for lam, p in zip(dec.weights, probs):
        count = np.count_nonzero(records == lam)
        sigma = np.sqrt(n * p * (1 - p)) if 0 < p < 1 else 1.0
        assert abs(count - n * p) <= 4 * sigma + 1


def _herm_sqrt(m):
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T


def _branch_probabilities(dec, rho):
    probs = []
    for eff in dec.effects:
        out = apply_choi(eff, rho)
        probs.append(np.trace(out).real)
    return probs


def test_branch_weight_magnitude_mean():
    # weights are (+3, -1) at p = 1/2 each, so E|weight| is the cost d = 2
    dec = universal_real_decomposition(2)
    n = 2000
    draws = np.abs(_records(dec, MIXED2, I2, I2, n, 4))
    assert abs(np.mean(draws) - 2.0) <= 4 / np.sqrt(n)  # per-draw sigma is 1


# --- cell counts: joint projective measurement -----------------------------------


@pytest.mark.parametrize("d", range(2, 9))
def test_joint_distribution_matches_kron_loop(d):
    """Born probabilities against the pair-by-pair reference
    Tr[state2 (P_alpha (x) P_beta)], degenerate observables included."""
    rng = np.random.default_rng(50 + d)
    state2 = rand_state(rng, d * d)
    generic, two_valued = rand_herm(rng, d), two_valued_observable(rng, d)
    for a, b in ((generic, two_valued), (two_valued, two_valued), (generic, generic)):
        avals, aprojs = spectral_projectors(a)
        bvals, bprojs = spectral_projectors(b)
        pairs, q = _joint_distribution(state2, (avals, aprojs), (bvals, bprojs))
        assert pairs == [(av, bv) for av in avals for bv in bvals]
        ref = np.array([
            max(float(np.trace(state2 @ np.kron(ap, bp)).real), 0.0)
            for ap in aprojs for bp in bprojs
        ])
        assert np.abs(q - ref / ref.sum()).max() <= 1e-12


def test_joint_measurement_identity_observables():
    # prepare 1/2 (x) 1/2 with weight 1: every record is alpha * beta, and
    # the identities have the single outcome pair (1, 1)
    dec = _preparation(np.eye(4, dtype=complex).reshape(4, 4, 1) / 2)
    _, values = _component_plan(dec, ONE, I2, I2)
    assert values.tolist() == [[1.0]]
    assert np.all(_records(dec, ONE, I2, I2, 100, 5) == 1.0)


def test_joint_measurement_product_state_born():
    # prepare |0>|+> with weight 1; measuring SZ (x) 1 records the outcome of
    # SZ alone and 1 (x) SX that of SX alone
    psi = np.kron([1.0, 0.0], [1.0, 1.0]) / np.sqrt(2)
    dec = _preparation(psi.astype(complex).reshape(1, 4, 1))
    n = 10_000
    za = _records(dec, ONE, SZ, I2, n, 6)
    xb = _records(dec, ONE, I2, SX, n, 6)
    assert np.allclose(za, 1.0)  # |0><0| is a z eigenstate
    sigma = 1 / np.sqrt(n)
    assert abs(xb.mean() - 1.0) <= 4 * sigma + 1e-9


def test_joint_measurement_mean_tracks_effect_state():
    rng = np.random.default_rng(7)
    fam = CorrelatorFamily(2)
    rho = rand_state(rng, 2)
    state = apply_choi(fam.j_sym, rho)
    state = state / np.trace(state).real
    exact = np.trace(state @ np.kron(SZ, SX)).real
    dec = StatisticalDecomposition(weights=(1.0,), effects=(fam.j_sym,))
    n = 100_000
    mean, se = estimate_component(dec, rho, SZ, SX, n, np.random.SeedSequence(7))
    assert abs(mean - exact) <= 4 * se


# --- cell counts: recorded values ------------------------------------------------


def _distance_to(records, allowed):
    return np.abs(records[:, None] - np.asarray(allowed)[None, :]).min(axis=1).max()


def test_records_are_weighted_pauli_products():
    # branch weights (+3, -1) times Pauli outcome pairs (+-1, +-1)
    dec = universal_real_decomposition(2)
    records = _records(dec, MIXED2, SZ, SX, 1000, 8)
    assert _distance_to(records, [3.0, -3.0, 1.0, -1.0]) <= 1e-12
    # both branches are drawn, so both weights show up as magnitudes
    assert set(np.round(np.abs(records), 9)) == {3.0, 1.0}


def test_records_live_in_weighted_spectra():
    rng = np.random.default_rng(9)
    a = rand_herm(rng, 2)
    b = rand_herm(rng, 2)
    va, _ = spectral_projectors(a)
    vb, _ = spectral_projectors(b)
    dec = universal_imag_decomposition(2)
    allowed = [lam * x * y for lam in dec.weights for x in va for y in vb]
    for k in range(40):
        records = _records(dec, rand_state(rng, 2), a, b, 100, k)
        assert _distance_to(records, allowed) <= 1e-9


# --- cell counts: distribution ------------------------------------------------


def _many_branch_instrument(rng, n):
    """n branches K_i = sqrt(p_i) V_i, V_i a random 4 x 2 isometry. The
    branch probabilities p_i sum to 1 + 5e-9, inside the plan's 1e-8
    completeness tolerance, so only a plan that normalises them gives a
    distribution."""
    effects = []
    for p in rng.dirichlet(np.ones(n)) * (1 + 5e-9):
        v, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
        effects.append(ChoiOperator(None, d_in=2, d_out=4, kraus=np.sqrt(p) * v[None]))
    return StatisticalDecomposition(weights=tuple(rng.normal(size=n)), effects=tuple(effects))


def _chi_square_rejections(plan_probs, probs, n, seeds):
    """How many of the seeds' draws of n shots over the cells of a plan a
    chi-square goodness-of-fit test at level 0.01 rejects against the
    reference plan's cell probabilities ``probs``. Cells expecting fewer
    than 5 shots are pooled into one bin; a shot in a bin expecting none
    rejects outright."""
    # multinomial hands the last cell whatever the others leave, so a plan
    # that does not sum to 1 would not show in the counts
    assert abs(plan_probs.sum() - 1.0) <= 1e-12
    small = n * probs < 5
    expected = np.append(n * probs[~small], n * probs[small].sum())
    k = expected.size - 1
    # Wilson-Hilferty quantile of chi-square with k degrees of freedom, z = 2.326
    critical = k * (1 - 2 / (9 * k) + 2.326 * np.sqrt(2 / (9 * k))) ** 3
    rejections = 0
    for seed in seeds:
        counts = _cell_counts(plan_probs, n, np.random.SeedSequence(seed))
        observed = np.append(counts[~small], counts[small].sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(expected > 0, (observed - expected) ** 2 / expected, np.inf * observed)
        rejections += bool(np.nansum(terms) > critical)
    return rejections


@pytest.mark.parametrize("d", [2, 4, 8])
def test_cell_counts_fit_cell_probabilities(d):
    """Counts of 10^5 shots over 20 seeds, drawn over the cells of the
    closed-form plans of both parts on a mixed and a pure state: a fit
    rejected at level 0.01 more than 3 times in 20 has odds below 1e-4."""
    rng = np.random.default_rng(60 + d)
    a, b = rand_herm(rng, d), two_valued_observable(rng, d)
    for rho in (rand_state(rng, d), pure_state(rng, d)):
        parts = (universal_real_decomposition(d), universal_imag_decomposition(d))
        for dec, (plan_probs, _) in zip(parts, _kirkwood_dirac_plans(rho, a, b)):
            probs = reference_plan(dec, rho, a, b)[0]
            assert _chi_square_rejections(plan_probs, probs, 100_000, range(20)) <= 3


def test_cell_counts_fit_many_branch_instrument():
    rng = np.random.default_rng(70)
    dec = _many_branch_instrument(rng, 2500)
    rho, a, b = rand_state(rng, 2), rand_herm(rng, 2), rand_herm(rng, 2)
    plan_probs, probs = _component_plan(dec, rho, a, b)[0], reference_plan(dec, rho, a, b)[0]
    assert _chi_square_rejections(plan_probs, probs, 1_000_000, range(5)) <= 1


def test_cell_search_many_branches():
    rng = np.random.default_rng(70)
    dec = _many_branch_instrument(rng, 2500)
    rho, a, b = rand_state(rng, 2), rand_herm(rng, 2), rand_herm(rng, 2)
    _, values = _component_plan(dec, rho, a, b)
    assert values.shape == (2500, 4)
    ss = np.random.SeedSequence(72)
    serial = estimate_component(dec, rho, a, b, 49_162, ss, threads=1)
    pooled = estimate_component(dec, rho, a, b, 49_162, ss, threads=3)
    assert serial == pooled


def test_budget_of_1e12_shots():
    """At d = 4, n SE^2 of each pipeline matches the plan's variance
    sum p v^2 - mu^2 within 1 %, and the estimate lies within 5 SE."""
    rng = np.random.default_rng(90)
    rho, a, b = rand_state(rng, 4), rand_herm(rng, 4), rand_herm(rng, 4)
    n = 10**12
    report = estimate_two_point(rho, a, b, n_shots=n, seed=91)
    plans = _kirkwood_dirac_plans(rho, a, b)
    for (probs, values), n_part, se in zip(plans, (n - n // 2, n // 2), report.std_error):
        mu = probs @ values.ravel()
        variance = probs @ values.ravel() ** 2 - mu**2
        assert n_part * se**2 == pytest.approx(variance, rel=0.01)
    err = report.estimate - report.exact
    assert abs(err.real) <= 5 * report.std_error[0]
    assert abs(err.imag) <= 5 * report.std_error[1]


# --- plan against the reference plan ----------------------------------------------


def _assert_plan_matches_reference(decomp, rho, a, b):
    assert_plans_agree(_component_plan(decomp, rho, a, b), reference_plan(decomp, rho, a, b))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    d=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    state=st.sampled_from([rand_state, pure_state, rank_two_state]),
    degenerate_a=st.booleans(),
    same=st.booleans(),
    part=st.sampled_from([universal_real_decomposition, universal_imag_decomposition]),
)
def test_plan_matches_reference_plan(d, seed, state, degenerate_a, same, part):
    """Mixed, pure and rank-deficient states; A generic or with two
    degenerate clusters; B = A or generic; the real or imaginary part."""
    rng = np.random.default_rng(seed)
    rho = state(rng, d)
    a = two_valued_observable(rng, d) if degenerate_a else rand_herm(rng, d)
    b = a if same else rand_herm(rng, d)
    _assert_plan_matches_reference(part(d), rho, a, b)


@pytest.mark.parametrize("d", [2, 3])
def test_plan_matches_reference_on_dense_effects(d):
    """Effects given as process matrices reach the plan through
    kraus_from_choi."""
    rng = np.random.default_rng(40 + d)
    rho, a, b = rand_state(rng, d), two_valued_observable(rng, d), rand_herm(rng, d)
    for part in (universal_real_decomposition(d), universal_imag_decomposition(d)):
        dense = StatisticalDecomposition(
            weights=part.weights,
            effects=tuple(ChoiOperator(e.matrix, d_in=d, d_out=d * d) for e in part.effects),
        )
        _assert_plan_matches_reference(dense, rho, a, b)
    dec = statistical_decompose(CorrelatorFamily(d).j_real)
    assert all(eff.kraus is not None for eff in dec.effects)
    _assert_plan_matches_reference(dec, rho, a, b)


def test_plan_matches_reference_on_many_branch_instrument():
    rng = np.random.default_rng(70)
    dec = _many_branch_instrument(rng, 2500)
    rho, a, b = rand_state(rng, 2), rand_herm(rng, 2), rand_herm(rng, 2)
    _assert_plan_matches_reference(dec, rho, a, b)
    _assert_plan_matches_reference(dec, pure_state(rng, 2), a, a)


def test_plan_drops_branches_of_zero_probability():
    # measure in the computational basis and prepare |00> or |11>: on |0><0|
    # the second branch never fires and has no cells
    kraus = np.zeros((2, 1, 4, 2), dtype=complex)
    kraus[0, 0, 0, 0] = kraus[1, 0, 3, 1] = 1.0
    dec = StatisticalDecomposition(
        weights=(2.0, -5.0),
        effects=tuple(ChoiOperator(None, d_in=2, d_out=4, kraus=k) for k in kraus),
    )
    probs, values = _component_plan(dec, KET0, SZ, SX)
    assert values.shape == (1, 4)
    # (alpha, beta) in ascending order: (-1, -1), (-1, 1), (1, -1), (1, 1)
    assert values[0].tolist() == [2.0, -2.0, -2.0, 2.0]
    assert np.abs(probs - [0.0, 0.0, 0.5, 0.5]).max() <= 1e-15
    _assert_plan_matches_reference(dec, KET0, SZ, SX)


def test_plan_merges_eigenvalues_within_degeneracy_tolerance():
    """Eigenvalues 1 and 1 + 5e-10 lie within 1e-9 of each other: A has two
    outcome values, the first the mean of the pair."""
    rng = np.random.default_rng(45)
    a = np.diag([1.0, 1.0 + 5e-10, 2.0]).astype(complex)
    dec = universal_real_decomposition(3)
    rho = rand_state(rng, 3)
    probs, values = _component_plan(dec, rho, a, np.eye(3))
    assert probs.shape == (4,) and values.shape == (2, 2)
    assert values[0] / dec.weights[0] == pytest.approx([1.0 + 2.5e-10, 2.0], abs=1e-15)
    _assert_plan_matches_reference(dec, rho, a, np.eye(3))


def test_plan_rejects_non_cp_effect():
    """The real part is not completely positive; its Kraus extraction raises
    instead of the plan clipping negative weights."""
    dec = StatisticalDecomposition(weights=(1.0,), effects=(CorrelatorFamily(2).j_real,))
    with pytest.raises(ValueError, match="completely positive"):
        _component_plan(dec, MIXED2, SZ, SX)


def test_plan_rejects_mismatched_observable_space():
    dec = universal_real_decomposition(2)
    three = np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="Kraus operators"):
        _component_plan(dec, MIXED2, three, three)
    with pytest.raises(ValueError, match="Kraus operators"):
        _component_plan(dec, np.eye(3) / 3, SZ, SX)


# --- closed-form plan -------------------------------------------------------------


@pytest.mark.parametrize(
    "state", [rand_state, pure_state, rank_two_state], ids=["mixed", "pure", "rank2"]
)
@pytest.mark.parametrize("d", range(2, 13))
def test_kirkwood_dirac_plans_match_kraus_and_reference_plans(d, state):
    """Both parts' closed-form plans equal the Kraus-stack plan and the
    reference plan, with A generic or two-valued (degenerate) and B = A or
    not."""
    rng = np.random.default_rng(110 + d)
    rho = state(rng, d)
    generic, degenerate = rand_herm(rng, d), two_valued_observable(rng, d)
    parts = (universal_real_decomposition(d), universal_imag_decomposition(d))
    pairs = ((generic, rand_herm(rng, d)), (degenerate, generic), (generic, generic),
             (degenerate, degenerate))
    for a, b in pairs:
        for dec, plan in zip(parts, _kirkwood_dirac_plans(rho, a, b)):
            assert_plans_agree(plan, _component_plan(dec, rho, a, b))
            assert_plans_agree(plan, reference_plan(dec, rho, a, b))


@pytest.mark.parametrize("d", [2, 16, 64, 256])
def test_kirkwood_dirac_branches_sum_to_one_half(d):
    """p(i) = 1/2 for all four branches, read off the closed form."""
    rng = np.random.default_rng(120 + d)
    rho, a, b = rand_state(rng, d), rand_herm(rng, d), two_valued_observable(rng, d)
    for probs, values in _kirkwood_dirac_plans(rho, a, b):
        branches = probs.reshape(2, -1)
        assert values.shape == branches.shape == (2, 2 * d)
        assert np.abs(branches.sum(axis=1) - 0.5).max() <= 1e-12


def test_estimate_memory_stays_quadratic_at_d64():
    """A Kraus-stack plan at d = 64 holds d-operator stacks of d^4
    complex numbers (268 MB); the closed form needs a few d x d arrays."""
    rng = np.random.default_rng(130)
    rho, a, b = rand_state(rng, 64), rand_herm(rng, 64), rand_herm(rng, 64)
    assert _peak_bytes(lambda: estimate_two_point(rho, a, b, n_shots=10**6, seed=131)) < 16 * 2**20


def test_estimate_at_d256_and_a_billion_shots():
    """At d = 256, with a random mixed state and random observables, a
    budget of 10^9 shots lands each part within 5 SE of the exact value."""
    rng = np.random.default_rng(256)
    g = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    a, b = ((h + h.conj().T) / 2 for h in (g, g.T))
    report = estimate_two_point(rho, a, b, n_shots=10**9, seed=1)
    err = report.estimate - report.exact
    assert abs(err.real) <= 5 * report.std_error[0], report
    assert abs(err.imag) <= 5 * report.std_error[1], report


# --- component estimators --------------------------------------------------------


def test_estimate_component_zero_mean():
    dec = universal_real_decomposition(2)
    mean, se = estimate_component(dec, MIXED2, SX, SY, 20_000, np.random.SeedSequence(10))
    assert abs(mean) <= 5 * se + 1e-12


def test_estimate_component_unit_value():
    dec = universal_real_decomposition(2)
    mean, se = estimate_component(dec, KET0, SZ, SZ, 20_000, np.random.SeedSequence(11))
    assert abs(mean - 1.0) <= 5 * se + 1e-12


def test_estimate_component_identity_pair():
    # with A = B = 1 every shot equals its weight (+3 or -1 at p = 1/2),
    # so the running mean converges on +1
    dec = universal_real_decomposition(2)
    mean, se = estimate_component(
        dec, MIXED2, np.eye(2), np.eye(2), 20_000, np.random.SeedSequence(12)
    )
    assert abs(mean - 1.0) <= 5 * se + 1e-12


# --- full estimator -----------------------------------------------------------------


def test_estimate_two_point_commutator_example():
    report = estimate_two_point(KET0, SX, SY, n_shots=200_000, seed=7)
    exact = two_point_exact(KET0, SX, SY)
    assert report.exact == pytest.approx(exact)
    assert abs(exact - (-1j)) <= 1e-14
    assert abs(report.estimate.real - exact.real) <= 5 * report.std_error[0] + 1e-12
    assert abs(report.estimate.imag - exact.imag) <= 5 * report.std_error[1] + 1e-12


def test_estimate_two_point_diagonal_pair():
    report = estimate_two_point(KET0, SZ, SZ, n_shots=50_000, seed=8)
    assert abs(report.estimate.real - 1.0) <= 5 * report.std_error[0] + 1e-12
    assert abs(report.estimate.imag) <= 5 * report.std_error[1] + 1e-12


def test_estimate_two_point_identity_observables():
    report = estimate_two_point(MIXED2, np.eye(2), np.eye(2), n_shots=20_000, seed=9)
    assert report.exact == pytest.approx(1.0, abs=1e-13)
    assert abs(report.estimate.real - 1.0) <= 5 * report.std_error[0] + 1e-12
    assert abs(report.estimate.imag) <= 5 * report.std_error[1] + 1e-12


def test_estimate_report_metadata():
    report = estimate_two_point(MIXED2, SZ, SZ, n_shots=100, seed=3)
    assert report.n_shots == 100
    assert report.seed == 3
    assert report.std_error[0] >= 0 and report.std_error[1] >= 0


def test_estimate_builds_no_process_matrix_at_d16():
    """One d = 16 process matrix is 4096 x 4096 complex (268 MB); the
    estimate needs only d^2-sided operators."""
    rng = np.random.default_rng(24)
    rho, a, b = rand_state(rng, 16), rand_herm(rng, 16), rand_herm(rng, 16)
    tracemalloc.start()
    try:
        report = estimate_two_point(rho, a, b, n_shots=4_000, seed=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.isfinite(report.estimate)


def test_estimate_makes_one_eigvalsh_and_one_batched_eigh(monkeypatch):
    """The fixed cost of a call: one eigvalsh (the state's PSD check) and one
    eigh of A and B stacked, and no other eigendecomposition."""
    rng = np.random.default_rng(26)
    rho, a, b = rand_state(rng, 4), rand_herm(rng, 4), rand_herm(rng, 4)
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        def counted(m, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(m)))
            return _fn(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    estimate_two_point(rho, a, b, n_shots=1000, seed=11)
    assert calls == [("eigvalsh", (4, 4)), ("eigh", (2, 4, 4))]


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimate_memory_does_not_grow_with_shots():
    rng = np.random.default_rng(80)
    dec = universal_real_decomposition(4)
    rho, a, b = rand_state(rng, 4), rand_herm(rng, 4), rand_herm(rng, 4)
    ss = np.random.SeedSequence(81)
    small = _peak_bytes(lambda: estimate_component(dec, rho, a, b, 32_768, ss))
    large = _peak_bytes(lambda: estimate_component(dec, rho, a, b, 4_000_000, ss))
    assert large < 8 * 2**20
    assert large - small <= 2**20


# --- determinism ---------------------------------------------------------------------


def test_same_seed_bit_identical():
    a = estimate_two_point(KET0, SX, SY, n_shots=5_000, seed=21)
    b = estimate_two_point(KET0, SX, SY, n_shots=5_000, seed=21)
    assert a.estimate == b.estimate
    assert a.std_error == b.std_error


def test_different_seed_differs():
    a = estimate_two_point(KET0, SX, SY, n_shots=5_000, seed=21)
    b = estimate_two_point(KET0, SX, SY, n_shots=5_000, seed=22)
    assert a.estimate != b.estimate


def test_default_seed_is_42():
    assert DEFAULT_SEED == 0x2A == 42


# --- statistical soundness -------------------------------------------------------------


def test_unbiased_qubit_ensemble():
    rng = np.random.default_rng(24)
    good = 0
    for trial in range(20):
        rho = rand_state(rng, 2)
        a = rand_herm(rng, 2)
        b = rand_herm(rng, 2)
        report = estimate_two_point(rho, a, b, n_shots=100_000, seed=100 + trial)
        exact = report.exact
        ok_r = abs(report.estimate.real - exact.real) <= 5 * report.std_error[0] + 1e-12
        ok_i = abs(report.estimate.imag - exact.imag) <= 5 * report.std_error[1] + 1e-12
        good += ok_r and ok_i
    assert good >= 19


def test_unbiased_qutrit_sample():
    rng = np.random.default_rng(25)
    for trial in range(5):
        rho = rand_state(rng, 3)
        a = rand_herm(rng, 3)
        b = rand_herm(rng, 3)
        report = estimate_two_point(rho, a, b, n_shots=60_000, seed=300 + trial)
        assert abs(report.estimate.real - report.exact.real) <= 5 * report.std_error[0] + 1e-12
        assert abs(report.estimate.imag - report.exact.imag) <= 5 * report.std_error[1] + 1e-12


def test_standard_error_is_calibrated():
    """The share of parts within 2 SE of the exact value, over 400 seeded
    d = 2 estimates, lies in the 4-sigma binomial band around 95 %."""
    rng = np.random.default_rng(26)
    hits = []
    for trial in range(400):
        rho, a, b = rand_state(rng, 2), rand_herm(rng, 2), rand_herm(rng, 2)
        report = estimate_two_point(rho, a, b, n_shots=2_000, seed=500 + trial)
        err = report.estimate - report.exact
        hits += [abs(err.real) <= 2 * report.std_error[0], abs(err.imag) <= 2 * report.std_error[1]]
    band = 4 * np.sqrt(0.95 * 0.05 / len(hits))
    assert abs(np.mean(hits) - 0.95) <= band


def test_error_scales_like_inverse_sqrt():
    small = estimate_two_point(KET0, SX, SY, n_shots=1_000, seed=30)
    large = estimate_two_point(KET0, SX, SY, n_shots=100_000, seed=30)
    ratio = small.std_error[1] / large.std_error[1]
    assert 8.0 <= ratio <= 12.0  # sqrt(100) with sampling noise


@pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200])
def test_standard_error_survives_extreme_observable_scales(scale):
    """The records are squared at a power-of-two scale near their largest
    modulus, so the error bar neither overflows to inf nor underflows to 0,
    and it is the unit-scale one times the scale."""
    unit = estimate_two_point(MIXED2, SZ, SX, n_shots=10**6, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = estimate_two_point(MIXED2, scale * SZ, SX, n_shots=10**6, seed=1)
    for se, se_unit in zip(report.std_error, unit.std_error):
        assert 0.0 < se < np.inf
        assert abs(se / scale - se_unit) <= 1e-12 * se_unit


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a, b, reach", [
    (1e308 * SZ, SX, "3 * 1e+308 * 1,"), (1e300 * SZ, 1e300 * SZ, "3 * 1e+300 * 1e+300,"),
], ids=["1e308-sz-sx", "1e300-sz-1e300-sz"])
def test_records_beyond_the_float_range_are_refused(a, b, reach):
    """(d + 1) max|alpha| max|beta| is beyond the largest float: the estimate
    is refused, naming that range (no overflow warning, no NaN estimate)."""
    with pytest.raises(ValueError, match=re.escape(f"records lambda*alpha*beta reach {reach} beyond")):
        estimate_two_point(MIXED2, a, b, n_shots=1000)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_degenerate_observable_near_the_float_maximum_is_estimated():
    """A = 1e308 1: the cluster sum 2e308 overflows, and so does lambda alpha
    = 3e308, though the records, 3e298 at most, are floats. Both are taken
    at a power-of-two scale, so the estimate is 10 times that at 1e307."""
    b = 1e-10 * SX
    big, small = (estimate_two_point(MIXED2, s * np.eye(2), b, n_shots=1000) for s in (1e308, 1e307))
    assert abs(big.estimate / 10 - small.estimate) <= 1e-15 * abs(small.estimate)
    assert big.exact == 0 and big.std_error == pytest.approx(np.multiply(10, small.std_error))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_observable_eigenvalues_beyond_the_float_range_are_refused():
    """1.5e308 [[1, 1], [1, 1]] is finite and Hermitian, but its eigenvalue
    3e308 is not a float. Two such blocks give two infinite eigenvalues,
    whose gap inf - inf is NaN: they join one cluster, with no warning."""
    with pytest.raises(ValueError, match="eigenvalue beyond the float range"):
        estimate_two_point(MIXED2, 1.5e308 * np.ones((2, 2)), SX, n_shots=1000)
    with pytest.raises(ValueError, match="eigenvalue beyond the float range"):
        estimate_two_point(np.eye(4) / 4, 1.5e308 * np.kron(I2, np.ones((2, 2))), np.eye(4),
                           n_shots=1000)


def test_split_shifts_budget():
    lopsided = estimate_two_point(KET0, SX, SY, n_shots=10_000, seed=31, split=0.9)
    assert lopsided.n_shots == 10_000
    # nine tenths of the shots went to the real component; imag error grows
    balanced = estimate_two_point(KET0, SX, SY, n_shots=10_000, seed=31, split=0.5)
    assert lopsided.std_error[1] > balanced.std_error[1]


# --- error paths -----------------------------------------------------------------------


def test_rejects_tiny_budget():
    with pytest.raises(ValueError, match="shots"):
        estimate_two_point(KET0, SX, SY, n_shots=1)


def test_rejects_budget_above_int64():
    with pytest.raises(ValueError, match="2\\*\\*63 - 1 shots"):
        estimate_two_point(KET0, SX, SY, n_shots=2**63)
    dec = universal_real_decomposition(2)
    with pytest.raises(ValueError, match="2\\*\\*63 - 1 shots"):
        estimate_component(dec, KET0, SX, SY, 2**63, np.random.SeedSequence(0))


def test_estimate_component_rejects_fractional_shots():
    """100.5 shots would draw 100 and divide their sum by 100.5."""
    dec = universal_real_decomposition(2)
    with pytest.raises(ValueError, match="n_shots must be an integer, got 100.5"):
        estimate_component(dec, KET0, SX, SY, 100.5, np.random.SeedSequence(0))


def test_rejects_starving_split():
    with pytest.raises(ValueError, match="split"):
        estimate_two_point(KET0, SX, SY, n_shots=10, split=0.999)
    with pytest.raises(ValueError, match="split"):
        estimate_two_point(KET0, SX, SY, n_shots=100, split=1.5)


def test_rejects_scalar_system():
    one = np.ones((1, 1), dtype=complex)
    with pytest.raises(ValueError):
        estimate_two_point(one, one, one, n_shots=100)


def test_rejects_mismatched_observable():
    with pytest.raises(ValueError):
        estimate_two_point(KET0, np.eye(3), SX, n_shots=100)


_NON_HERMITIAN = np.array([[0, 1], [0, 0]], dtype=complex)

# One fault per input, with the message estimate_two_point gave before its
# checks were fused (commit 3348c67): which error a user sees must not move.
SINGLE_FAULTS = {
    "non-square-state": (
        (np.ones((2, 3)) / 2, SX, SY), {}, "state must be a square matrix, got shape (2, 3)"
    ),
    "non-square-a": ((KET0, np.ones((2, 3)), SY), {}, "observable must be square, got shape (2, 3)"),
    "non-square-b": ((KET0, SX, np.ones((3, 2))), {}, "observable must be square, got shape (3, 2)"),
    "non-hermitian-state": (
        (np.array([[0.5, 1], [0, 0.5]]), SX, SY), {}, "state is not Hermitian within tolerance"
    ),
    "trace-not-1": ((np.eye(2), SX, SY), {}, "state trace 2.0 is not 1 within 1e-09"),
    "negative-eigenvalue": (
        (np.diag([1.5, -0.5]), SX, SY), {}, "state has negative eigenvalue -0.5"
    ),
    "non-hermitian-a": ((KET0, _NON_HERMITIAN, SY), {}, "observable is not Hermitian within tolerance"),
    "non-hermitian-b": ((KET0, SX, _NON_HERMITIAN), {}, "observable is not Hermitian within tolerance"),
    "shape-mismatch": (
        (KET0, np.eye(3), SY), {}, "observable shapes (3, 3), (2, 2) do not match state dimension 2"
    ),
    "d-1": ((ONE, ONE, ONE), {}, "estimation requires dimension >= 2"),
    "one-shot": (
        (KET0, SX, SY), {"n_shots": 1},
        "need between 2 and 2**63 - 1 shots to run both pipelines, got 1",
    ),
    "shots-above-int64": (
        (KET0, SX, SY), {"n_shots": 2**63},
        "need between 2 and 2**63 - 1 shots to run both pipelines, got 9223372036854775808",
    ),
    "split-above-1": ((KET0, SX, SY), {"split": 1.5}, "split must lie strictly between 0 and 1, got 1.5"),
    "split-0": ((KET0, SX, SY), {"split": 0.0}, "split must lie strictly between 0 and 1, got 0.0"),
    "starved-pipeline": (
        (KET0, SX, SY), {"n_shots": 10, "split": 0.999},
        "split 0.999 starves one pipeline (10 real / 0 imag shots)",
    ),
}


@pytest.mark.parametrize("fault", SINGLE_FAULTS)
def test_single_fault_keeps_its_message(fault):
    args, kwargs, message = SINGLE_FAULTS[fault]
    with pytest.raises(ValueError) as exc:
        estimate_two_point(*args, **{"n_shots": 100, **kwargs})
    assert str(exc.value) == message


@pytest.mark.parametrize("entry", [(0, 0), (1, 0)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("arg", [0, 1, 2])
def test_rejects_non_finite_entry(arg, value, entry):
    """NaN and infinities are named, not carried into the arithmetic (NaN
    compares false with every tolerance)."""
    args = [MIXED2.copy(), SX.copy(), SZ.copy()]
    args[arg][entry] = value
    name = ("state", "observable", "observable")[arg]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = rf"^{name} entry \[{entry[0]}, {entry[1]}\] is not finite"
        with pytest.raises(ValueError, match=message):
            estimate_two_point(*args, 100)


def _no_work(*args):
    raise AssertionError("the estimate began before its arguments were checked")


BAD_COUNTS = {
    "fractional-shots": ({"n_shots": 100000.5}, "n_shots must be an integer, got 100000.5"),
    "float-shots": ({"n_shots": 1e5}, "n_shots must be an integer, got 100000.0"),
    "bool-shots": ({"n_shots": True}, "n_shots must be an integer, got True"),
    "str-shots": ({"n_shots": "100"}, "n_shots must be an integer, got '100'"),
    "no-seed": ({"seed": None}, "seed must be an integer, got None"),
    "float-seed": ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    "bool-seed": ({"seed": False}, "seed must be an integer, got False"),
    "negative-seed": ({"seed": -1}, "seed must be non-negative, got -1"),
}


@pytest.mark.parametrize("case", BAD_COUNTS)
def test_rejects_bad_shot_count_or_seed_before_any_work(monkeypatch, case):
    kwargs, message = BAD_COUNTS[case]
    monkeypatch.setattr(sampler, "check_density_matrix", _no_work)
    monkeypatch.setattr(sampler, "_kirkwood_dirac_plans", _no_work)
    with pytest.raises(ValueError) as exc:
        estimate_two_point(KET0, SX, SY, **{"n_shots": 1000, **kwargs})
    assert str(exc.value) == message


def test_numpy_integer_shots_and_seed_give_the_int_report():
    ref = estimate_two_point(KET0, SX, SY, 1000, seed=7)
    for n, seed in [(np.int64(1000), 7), (1000, np.uint32(7)), (np.int32(1000), np.int64(7))]:
        report = estimate_two_point(KET0, SX, SY, n, seed=seed)
        assert report == ref
        assert type(report.n_shots) is int and type(report.seed) is int


# --- pinned bits -----------------------------------------------------------------------


def _pinned_input(rng, d, kind):
    """A mixed or pure state, or a generic or two-valued (Householder)
    observable, built from one d x d complex Gaussian draw."""
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if kind == "mixed":
        m = x @ x.conj().T
        return m / np.trace(m).real
    if kind == "pure":
        return np.outer(x[0], x[0].conj()) / np.vdot(x[0], x[0]).real
    if kind == "two_valued":
        return np.eye(d) - 2 * np.outer(x[0], x[0].conj()) / np.vdot(x[0], x[0]).real
    return x + x.conj().T


# float.hex of estimate (real, imag), std_error (real part, imag part) and
# exact (real, imag) at seed 7, keyed "d-state-A-B-n_shots", as computed by
# commit 3348c67, before validation and eigendecomposition were fused.
PINNED_BITS = {
    "2-mixed-generic-generic-2":
        "0x1.3f3e98353eb99p+2 -0x1.25237b35e97dfp+2 0x0.0p+0 0x0.0p+0 0x1.3a15bdab2e8cfp-1 0x1.25322e7e3d148p-3",
    "2-mixed-generic-generic-10000000":
        "0x1.37b66d13a5e6dp-1 0x1.264344a4571e8p-3 0x1.2b500cc7e21e3p-9 0x1.ce0233196f330p-10 0x1.3a15bdab2e8cfp-1 0x1.25322e7e3d148p-3",
    "2-pure-two_valued-generic-2":
        "0x1.c35a30c634c64p+1 -0x1.9e7183322f7d5p+1 0x0.0p+0 0x0.0p+0 0x1.00ae50ad4f897p+0 -0x1.b255ca8e8478fp-1",
    "2-pure-two_valued-generic-10000000":
        "0x1.ffd9de0a08d80p-1 -0x1.b24aba5661fa2p-1 0x1.8186906b2236bp-10 0x1.2a30fbb25eb0fp-10 0x1.00ae50ad4f897p+0 -0x1.b255ca8e8478fp-1",
    "2-mixed-generic-two_valued-2":
        "0x1.0f9b13e479877p+2 0x1.399f92a6f4cd4p+1 0x0.0p+0 0x0.0p+0 -0x1.39862a2a0ebbdp+0 -0x1.1fce47671bb0fp-2",
    "2-mixed-generic-two_valued-10000000":
        "-0x1.3a55b285513f0p+0 -0x1.200cc13b4f113p-2 0x1.5bdcd887a8f9bp-10 0x1.227d2c07cb20dp-10 -0x1.39862a2a0ebbdp+0 -0x1.1fce47671bb0fp-2",
    "3-mixed-generic-generic-2":
        "-0x1.10922fb57f130p+6 -0x1.817941ec58446p+5 0x0.0p+0 0x0.0p+0 -0x1.b45ff502e7c44p+2 0x1.a6eef9da0fc50p-4",
    "3-mixed-generic-generic-10000000":
        "-0x1.b2f79cf9bfc7bp+2 0x1.a902cd04e8143p-4 0x1.358dd20c02d86p-6 0x1.24a45aa863086p-6 -0x1.b45ff502e7c44p+2 0x1.a6eef9da0fc50p-4",
    "3-pure-two_valued-generic-2":
        "-0x1.ad0f44becc815p+4 0x1.0afc14ec24031p+2 0x0.0p+0 0x0.0p+0 -0x1.bca5e6506a934p-2 0x1.dd308d323495fp-3",
    "3-pure-two_valued-generic-10000000":
        "-0x1.b6d72cfffac06p-2 0x1.ce9cbdd72c5cbp-3 0x1.c4f47b0abf294p-8 0x1.8705720c67299p-8 -0x1.bca5e6506a934p-2 0x1.dd308d323495fp-3",
    "3-mixed-generic-two_valued-2":
        "0x1.4542d18c8f1ccp+3 -0x1.ca8b337f3e91fp-3 0x0.0p+0 0x0.0p+0 0x1.0c1f8d0063e70p+0 -0x1.23c506b2a0edfp-1",
    "3-mixed-generic-two_valued-10000000":
        "0x1.0b0cb70046a1dp+0 -0x1.20ac134275198p-1 0x1.0057df4dcf3eap-8 0x1.d1fa92907d2edp-9 0x1.0c1f8d0063e70p+0 -0x1.23c506b2a0edfp-1",
    "4-mixed-generic-generic-2":
        "-0x1.0e52379e9d9fep+1 0x1.5cfbada6e8a9dp+1 0x0.0p+0 0x0.0p+0 -0x1.dfc766084d390p-2 -0x1.86024790c6680p+1",
    "4-mixed-generic-generic-10000000":
        "-0x1.d7a2f0097e88ap-2 -0x1.892fe33f6fa27p+1 0x1.cd1507421bd86p-6 0x1.b0d3647980ca4p-6 -0x1.dfc766084d390p-2 -0x1.86024790c6680p+1",
    "4-pure-two_valued-generic-2":
        "0x1.9fc83c490392fp+3 -0x1.4e0a2378d8060p+4 0x0.0p+0 0x0.0p+0 -0x1.f3ec90531e4fep+1 -0x1.def799941e620p+0",
    "4-pure-two_valued-generic-10000000":
        "-0x1.f48be7ddab4d5p+1 -0x1.dfd0918b64dd0p+0 0x1.409b43d43de8cp-7 0x1.2e71367f395f8p-7 -0x1.f3ec90531e4fep+1 -0x1.def799941e620p+0",
    "4-mixed-generic-two_valued-2":
        "0x1.6af6b5fa13415p+2 -0x1.69f3b48569887p+2 0x0.0p+0 0x0.0p+0 -0x1.4d63e140064e6p-2 -0x1.0d7f8834ac92cp-2",
    "4-mixed-generic-two_valued-10000000":
        "-0x1.497ba4fcc9b5fp-2 -0x1.155f4e19fc108p-2 0x1.687171ab6708fp-8 0x1.524b43828e3cdp-8 -0x1.4d63e140064e6p-2 -0x1.0d7f8834ac92cp-2",
    "8-mixed-generic-generic-2":
        "0x1.859105f831d0ap+8 -0x1.c6300c86583c8p+6 0x0.0p+0 0x0.0p+0 0x1.5a12f0041b730p-2 0x1.44ea0463b06efp-1",
    "8-mixed-generic-generic-10000000":
        "0x1.91b529bc5fe40p-2 0x1.3b417d8a04393p-1 0x1.9f4d6b1a1ff39p-4 0x1.98edebc6825cdp-4 0x1.5a12f0041b730p-2 0x1.44ea0463b06efp-1",
    "8-pure-two_valued-generic-2":
        "0x1.9f15f3e6af96ep+4 -0x1.d6a9ba996b35ap+4 0x0.0p+0 0x0.0p+0 -0x1.23fc9d8f537d0p+0 0x1.d6383ae2556b3p-2",
    "8-pure-two_valued-generic-10000000":
        "-0x1.2b9110211e710p+0 0x1.de841aed01609p-2 0x1.1f28a2322568fp-6 0x1.1aed0b7a960bcp-6 -0x1.23fc9d8f537d0p+0 0x1.d6383ae2556b3p-2",
    "8-mixed-generic-two_valued-2":
        "0x1.0d405a953f06ep+6 0x1.daea30386a072p+5 0x0.0p+0 0x0.0p+0 0x1.3c622f6f7edbfp+0 -0x1.00d6ad391abf8p-3",
    "8-mixed-generic-two_valued-10000000":
        "0x1.42a7b0c7c1e8bp+0 -0x1.1689ab0f0c7a9p-3 0x1.5898be2d696e8p-6 0x1.535b1a5ed03f3p-6 0x1.3c622f6f7edbfp+0 -0x1.00d6ad391abf8p-3",
    "16-mixed-generic-generic-2":
        "-0x1.cad1345904434p+7 -0x1.f2668f163273dp+9 0x0.0p+0 0x0.0p+0 0x1.6f93159140db1p+1 0x1.34ec5b7f8b0f9p+1",
    "16-mixed-generic-generic-10000000":
        "0x1.7a7a77db8365cp+1 0x1.56c59973dda5bp+1 0x1.02ce9ed32cd8fp-1 0x1.01f6a2f9b4bc6p-1 0x1.6f93159140db1p+1 0x1.34ec5b7f8b0f9p+1",
    "16-pure-two_valued-generic-2":
        "0x1.03483a7ba41f6p+8 0x1.e2a1144a6148cp+4 0x0.0p+0 0x0.0p+0 -0x1.ad587bb45f59cp-5 0x1.bac7ad5925414p-4",
    "16-pure-two_valued-generic-10000000":
        "-0x1.dedaf75c60ba5p-5 0x1.e4a459f401418p-5 0x1.0c6af91b8590fp-4 0x1.0b3c89ddea722p-4 -0x1.ad587bb45f59cp-5 0x1.bac7ad5925414p-4",
    "16-mixed-generic-two_valued-2":
        "0x1.343ca88c35cfcp+3 0x1.892fff7993e18p+6 0x0.0p+0 0x0.0p+0 0x1.a4cd3460cfefap-2 0x1.d6a84d7c1d380p-9",
    "16-mixed-generic-two_valued-10000000":
        "0x1.f116fe6e21ef7p-2 -0x1.31ea869dab8c1p-5 0x1.cbb17dad90c74p-5 0x1.c9e6dd4cb3165p-5 0x1.a4cd3460cfefap-2 0x1.d6a84d7c1d380p-9",
}


@pytest.mark.parametrize("case", PINNED_BITS)
def test_estimate_bits_match_parent(case):
    """The determinism contract: the same inputs and seed give the same bits
    in every field of the report."""
    d, *kinds, n = case.split("-")
    rng = np.random.default_rng(int(d))
    rho, a, b = (_pinned_input(rng, int(d), kind) for kind in kinds)
    r = estimate_two_point(rho, a, b, int(n), seed=7)
    fields = (r.estimate.real, r.estimate.imag, *r.std_error, r.exact.real, r.exact.imag)
    assert " ".join(float(x).hex() for x in fields) == PINNED_BITS[case]


def test_plan_bits_match_parent():
    """Both pipelines' cell probabilities and recorded values over the pinned
    inputs, byte for byte, as commit 3348c67 computed them. The report's bits
    cannot show a last-bit change in a cell probability unless it flips a
    draw, so the order of the plan's arithmetic is pinned here."""
    digest = hashlib.sha256()
    for case in PINNED_BITS:
        d, *kinds, n = case.split("-")
        if n != "2":  # the plan does not depend on the shot count
            continue
        rng = np.random.default_rng(int(d))
        rho, a, b = (_pinned_input(rng, int(d), kind) for kind in kinds)
        ha, hb = (_hermitian(x, "observable")[1] for x in (a, b))
        for probs, values in _kirkwood_dirac_plans(check_density_matrix(rho), ha, hb):
            digest.update(probs.tobytes())
            digest.update(values.tobytes())
    assert digest.hexdigest() == (
        "425c000d0a3ef5a2c27bcd9292c987b4cf5c9ae400507feeb2e3775d3f405ffe"
    )


# --- observables of any scale ---------------------------------------------------


def test_estimate_of_a_tiny_observable_has_an_error_bar():
    """At 1e-12 sigma_z the eigenvalues +-1e-12 stay two outcomes: the
    degeneracy bound is relative to the largest eigenvalue modulus."""
    rho = (I2 + 0.3 * SX - 0.2 * SY + 0.5 * SZ) / 2
    report = estimate_two_point(rho, 1e-12 * SZ, SX, 10**6)
    assert abs(report.exact - 2e-13j) <= 1e-25
    err = report.estimate - report.exact
    for part, se in zip((err.real, err.imag), report.std_error):
        assert se > 0
        assert abs(part) <= 5 * se


def test_tiny_non_hermitian_observable_is_rejected():
    """Hermiticity is judged relative to the observable's own norm."""
    with pytest.raises(ValueError, match="^observable is not Hermitian within tolerance$"):
        estimate_two_point(MIXED2, 1e-12 * _NON_HERMITIAN, SX, 10)


@pytest.mark.parametrize("factor, message", [
    (0.0, "all branch probabilities vanish for this state"),
    (2.0, "branch probabilities sum to 4.0, not 1: not an instrument"),
], ids=["vanishing", "not-trace-preserving"])
def test_plan_rejects_a_decomposition_that_is_no_instrument(factor, message):
    """One hand-built effect K rho K^dag with K = f (|0> (x) 1), of total
    probability f^2: at f = 0 nothing is left to draw, and f = 2 gives no
    instrument."""
    kraus = factor * np.eye(4, 2, dtype=complex)[None]
    effect = ChoiOperator(None, d_in=2, d_out=4, kraus=kraus)
    dec = StatisticalDecomposition(weights=(1.0,), effects=(effect,))
    with pytest.raises(ValueError, match=message):
        estimate_component(dec, MIXED2, SZ, SZ, 100, np.random.SeedSequence(0))
