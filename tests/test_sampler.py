import tracemalloc

import numpy as np
import pytest

from twopoint.cli import _random_observable as rand_herm, _random_state as rand_state
from twopoint.correlator import (
    CorrelatorFamily,
    two_point_exact,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from twopoint.choi import ChoiOperator, apply_choi
from twopoint.decomposition import StatisticalDecomposition, statistical_decompose
from twopoint.sampler import (
    CHUNK,
    DEFAULT_SEED,
    _component_plan,
    _evaluate_block,
    _joint_distribution,
    _uniform_block,
    estimate_component,
    estimate_two_point,
    spectral_projectors,
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


# --- sampling kernel: branch draws ----------------------------------------------


def _records(decomp, rho, a, b, n, seed):
    """The kernel's first n recorded values lambda_i * alpha * beta."""
    cell_cdf, values = _component_plan(decomp, rho, a, b)
    cells = _evaluate_block(_uniform_block(np.random.SeedSequence(seed), 0, n), cell_cdf)
    return values.ravel()[cells]


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
    cell_cdf, values = _component_plan(dec, KET0, I2, I2)
    # one branch and one outcome pair: the single cell takes every shot
    assert cell_cdf.tolist() == [1.0]
    assert np.all(_records(dec, KET0, I2, I2, 50, 2) == values[0, 0])
    assert values[0, 0] == 1.0


def test_branch_frequencies_random_instrument():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    j = g @ g.conj().T
    j = (j + j.conj().T) / 2
    from twopoint.linalg import partial_trace

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


# --- sampling kernel: joint projective measurement --------------------------------


def _two_valued(rng, d):
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return u @ np.diag([1.0] * (d // 2) + [-1.0] * (d - d // 2)) @ u.conj().T


@pytest.mark.parametrize("d", range(2, 9))
def test_joint_distribution_matches_kron_loop(d):
    """Born probabilities against the pair-by-pair reference
    Tr[state2 (P_alpha (x) P_beta)], degenerate observables included."""
    rng = np.random.default_rng(50 + d)
    state2 = rand_state(rng, d * d)
    generic, two_valued = rand_herm(rng, d), _two_valued(rng, d)
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


# --- sampling kernel: recorded values ---------------------------------------------


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


# --- sampling kernel: exact cell search ---------------------------------------
# Generator.random returns k * 2**-53 for an integer k, so a lattice of such
# uniforms at and next to every CDF entry reaches each tie the kernel can meet.


def _brute_force_cells(u, cdf):
    """Reference kernel: min(#{c < u}, n_cells - 1) for each uniform, from a
    comparison with every entry of ``cdf``."""
    cdf = np.asarray(cdf)
    return np.concatenate([
        np.minimum((u[s : s + 1024, None] > cdf).sum(axis=1), cdf.size - 1)
        for s in range(0, u.size, 1024)
    ])


def _uncapped_cell_cdf(decomp, rho, a, b):
    """Running sum of p(i) q_i(j) over the (branch, outcome) cells, built
    here from apply_choi and _joint_distribution, not capped at 1."""
    aspec, bspec = spectral_projectors(a), spectral_projectors(b)
    probs, born = [], []
    for eff in decomp.effects:
        out = apply_choi(eff, rho)
        p = float(np.trace(out).real)
        if p > 1e-15:
            probs.append(p)
            born.append(_joint_distribution(out / p, aspec, bspec)[1])
    total = sum(probs)
    return np.cumsum(np.concatenate([p / total * q for p, q in zip(probs, born)]))


def _capped(cdf):
    """The plan's form of a cell CDF: capped at 1, last entry set to 1."""
    cdf = np.minimum(cdf, 1.0)
    cdf[-1] = 1.0
    return cdf


def _pure(rng, d):
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


@pytest.mark.parametrize("d", [2, 4, 8])
def test_integer_search_matches_comparison_kernel(d):
    rng = np.random.default_rng(60 + d)
    a, b = rand_herm(rng, d), _two_valued(rng, d)
    u = _uniform_block(np.random.SeedSequence(d), 0, 1 << 16)
    # the edge lattice below rests on Generator.random returning k * 2**-53
    assert np.array_equal(np.floor(u * 2.0**53), u * 2.0**53)
    for rho in (rand_state(rng, d), _pure(rng, d)):
        for dec in (universal_real_decomposition(d), universal_imag_decomposition(d)):
            cell_cdf, _ = _component_plan(dec, rho, a, b)
            assert np.all(np.diff(cell_cdf) >= 0) and cell_cdf[-1] == 1.0
            ref = _brute_force_cells(u, _uncapped_cell_cdf(dec, rho, a, b))
            assert np.array_equal(_evaluate_block(u, cell_cdf), ref)


def _lattice(cdf):
    """Generator outputs k * 2**-53 at and next to each CDF entry, plus
    u = 0 and u = 1 - 2**-53."""
    k = np.floor(np.ravel(cdf) * 2.0**53).astype(np.int64)
    k = np.concatenate([k - 1, k, k + 1, [0, 2**53 - 1]])
    return np.unique(np.clip(k, 0, 2**53 - 1)) / 2.0**53


@pytest.mark.parametrize(
    "cdf",
    [
        [0.125, 0.25, 0.5, 0.75, 0.875, 1.0],  # entries on the lattice
        [0.0, 0.25, 0.25, 0.5, 0.5, 0.5, 1.0],  # zero-probability cells
        [0.1, 0.3, 0.6, 0.6, 1 - 2**-51, 1 - 2**-52],  # last below 1
        [0.25, 0.5, 1.0, 1 + 2**-52, 1 + 2**-52, 1 + 2**-52],  # above 1
    ],
    ids=["exact", "repeated", "last-below-1", "above-1"],
)
def test_integer_search_edge_uniforms(cdf):
    cdf = np.array(cdf)
    u = _lattice(cdf)
    assert {0.0, 1 - 2**-53} <= set(u)
    assert np.array_equal(_evaluate_block(u, _capped(cdf)), _brute_force_cells(u, cdf))


def test_integer_search_uniform_on_an_entry():
    # u == c is not beyond c: u = 0.5 lands in the cell whose cdf reaches 0.5
    u = np.array([0.5, 0.5 + 2**-53, 0.0, 1 - 2**-53])
    assert _evaluate_block(u, np.array([0.25, 0.5, 0.75, 1.0])).tolist() == [1, 2, 0, 3]


def test_uniform_blocks_tile_one_stream():
    ss = np.random.SeedSequence(73)
    whole = np.random.Generator(np.random.Philox(seed=ss)).random(40)
    blocks = [_uniform_block(ss, start, 8) for start in range(0, 40, 8)]
    assert np.array_equal(np.concatenate(blocks), whole)
    with pytest.raises(ValueError, match="multiple of 4"):
        _uniform_block(ss, 2, 8)


def _many_branch_instrument(rng, n):
    """n branches K_i = sqrt(p_i) V_i, V_i a random 4 x 2 isometry; the
    effects sum to a channel and the branch probabilities are p_i."""
    effects = []
    for p in rng.dirichlet(np.ones(n)):
        v, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
        effects.append(ChoiOperator(None, d_in=2, d_out=4, kraus=np.sqrt(p) * v[None]))
    return StatisticalDecomposition(weights=tuple(rng.normal(size=n)), effects=tuple(effects))


def test_cell_search_many_branches():
    rng = np.random.default_rng(70)
    dec = _many_branch_instrument(rng, 2500)
    rho, a, b = rand_state(rng, 2), rand_herm(rng, 2), rand_herm(rng, 2)
    cell_cdf, values = _component_plan(dec, rho, a, b)
    assert values.shape == (2500, 4)
    u = _uniform_block(np.random.SeedSequence(71), 0, 1 << 16)
    ref = _brute_force_cells(u, _uncapped_cell_cdf(dec, rho, a, b))
    assert np.array_equal(_evaluate_block(u, cell_cdf), ref)
    ss = np.random.SeedSequence(72)
    serial = estimate_component(dec, rho, a, b, 3 * CHUNK + 10, ss, threads=1)
    pooled = estimate_component(dec, rho, a, b, 3 * CHUNK + 10, ss, threads=3)
    assert serial == pooled


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
    small = _peak_bytes(lambda: estimate_component(dec, rho, a, b, 2 * CHUNK, ss))
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


def test_threads_do_not_change_stream():
    rng = np.random.default_rng(23)
    rho = rand_state(rng, 2)
    a = rand_herm(rng, 2)
    b = rand_herm(rng, 2)
    serial = estimate_two_point(rho, a, b, n_shots=70_000, seed=5, threads=1)
    pooled = estimate_two_point(rho, a, b, n_shots=70_000, seed=5, threads=3)
    assert serial.estimate == pooled.estimate
    assert serial.std_error == pooled.std_error


def test_multi_chunk_matches_single_chunk_semantics():
    # n > CHUNK forces several blocks; the counter-based generator must make
    # the chunk boundaries invisible.
    report = estimate_two_point(KET0, SZ, SX, n_shots=140_000, seed=6, threads=2)
    again = estimate_two_point(KET0, SZ, SX, n_shots=140_000, seed=6, threads=1)
    assert report.estimate == again.estimate


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


def test_rejects_starving_split():
    with pytest.raises(ValueError, match="split"):
        estimate_two_point(KET0, SX, SY, n_shots=10, split=0.999)
    with pytest.raises(ValueError, match="split"):
        estimate_two_point(KET0, SX, SY, n_shots=100, split=1.5)


@pytest.mark.parametrize("threads", [0, -3])
def test_rejects_nonpositive_threads(threads):
    with pytest.raises(ValueError, match="thread"):
        estimate_two_point(KET0, SX, SY, n_shots=100, threads=threads)


def test_rejects_scalar_system():
    one = np.ones((1, 1), dtype=complex)
    with pytest.raises(ValueError):
        estimate_two_point(one, one, one, n_shots=100)


def test_rejects_mismatched_observable():
    with pytest.raises(ValueError):
        estimate_two_point(KET0, np.eye(3), SX, n_shots=100)
