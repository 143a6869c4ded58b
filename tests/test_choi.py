import tracemalloc

import numpy as np
import pytest

from twopoint.choi import (
    ChoiOperator,
    apply_choi,
    combine,
    frobenius_norm,
    is_completely_positive,
    is_hermiticity_preserving,
    is_trace_preserving,
    _jordan,
    kraus_from_choi,
    trace_product,
)
from twopoint.correlator import (
    CorrelatorFamily,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from twopoint.decomposition import error_lower_bound, recombine, statistical_decompose
from twopoint.linalg import swap_operator

from reference_maps import (
    choi_of_action,
    cloner_apply,
    maximally_entangled_projector,
    random_observable as rand_herm,
    random_state as rand_state,
)


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


@pytest.mark.parametrize("d_in,d_out", [(0, 3), (3, 0), (0, 0), (-1, 2)])
def test_choi_operator_rejects_a_dimension_below_one(d_in, d_out):
    with pytest.raises(ValueError, match="dimensions must be positive"):
        ChoiOperator(np.zeros((0, 0)), d_in=d_in, d_out=d_out)


def test_choi_operator_validates_kraus_stack():
    with pytest.raises(ValueError, match="Kraus"):
        ChoiOperator(None, d_in=2, d_out=4, kraus=np.ones((3, 2, 4)))
    with pytest.raises(ValueError, match="Kraus"):
        ChoiOperator(None, d_in=2, d_out=4, kraus=np.ones((4, 2)))
    with pytest.raises(ValueError, match="Kraus"):
        ChoiOperator(np.eye(4), d_in=2, d_out=2, kraus=np.ones((1, 2, 2)))
    with pytest.raises(ValueError, match="shape"):
        ChoiOperator(None, d_in=2, d_out=2)
    with pytest.raises(ValueError, match="Kraus"):
        ChoiOperator(None, d_in=2, d_out=4, kraus=np.ones((3, 4, 2)), right=np.ones((2, 4, 2)))
    with pytest.raises(ValueError, match="Kraus"):
        ChoiOperator(np.eye(4), d_in=2, d_out=2, right=np.ones((1, 2, 2)))
    with pytest.raises(ValueError, match="r >= 1"):
        ChoiOperator(None, d_in=2, d_out=3, kraus=np.zeros((0, 3, 2)))


# --- two-sided stacks -----------------------------------------------------------


def _stack(rng, r, d_out, d_in):
    return rng.normal(size=(r, d_out, d_in)) + 1j * rng.normal(size=(r, d_out, d_in))


def _stacked_map(case, rng):
    """A (d_in, d_out) = (2, 3) map carried by stacks, per ``case``."""
    left, right = _stack(rng, 3, 3, 2), _stack(rng, 3, 3, 2)
    if case == "channel":  # Kraus operators with sum K^dag K = 1
        w, v = np.linalg.eigh(np.einsum("aoi,aoj->ij", left.conj(), left))
        return ChoiOperator(None, 2, 3, kraus=left @ ((v * w**-0.5) @ v.conj().T))
    if case == "hermitian":  # X + X^dag
        return ChoiOperator(None, 2, 3, kraus=np.concatenate([left, right]),
                            right=np.concatenate([right, left]))
    if case == "negative":  # minus a CP map
        return ChoiOperator(None, 2, 3, kraus=left, right=-left)
    return ChoiOperator(None, 2, 3, kraus=left, right=right)


@pytest.mark.parametrize("case", ["channel", "hermitian", "negative", "two-sided"])
def test_stacked_map_matches_its_matrix(case):
    """J = sum_a vec(L_a) vec(R_a)^dag; the action, predicates and values on
    the factors equal those on the dense matrix."""
    rng = np.random.default_rng(["channel", "hermitian", "negative", "two-sided"].index(case))
    j = _stacked_map(case, rng)
    left, right = j.stacks
    want = sum(np.outer(a.reshape(-1), b.reshape(-1).conj()) for a, b in zip(left, right))
    assert np.abs(j.matrix - want).max() <= 1e-12
    dense = ChoiOperator(want, d_in=2, d_out=3)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    action = sum(a @ m @ b.conj().T for a, b in zip(left, right))
    assert np.abs(apply_choi(j, m) - action).max() <= 1e-12
    assert np.abs(apply_choi(dense, m) - action).max() <= 1e-12
    for pred in (is_hermiticity_preserving, is_completely_positive, is_trace_preserving):
        assert pred(j) == pred(dense), pred.__name__
    assert abs(frobenius_norm(j) - np.linalg.norm(want)) <= 1e-12
    other = _stacked_map("two-sided", rng)
    for a, b in ((j, other), (dense, other), (j, ChoiOperator(other.matrix, 2, 3))):
        assert abs(trace_product(a, b) - np.trace(want @ other.matrix)) <= 1e-12
    if is_hermiticity_preserving(dense):
        assert abs(error_lower_bound(j) - error_lower_bound(dense)) <= 1e-12
    flags = [is_hermiticity_preserving(j), is_completely_positive(j), is_trace_preserving(j)]
    assert flags == {
        "channel": [True, True, True],
        "hermitian": [True, False, False],
        "negative": [True, False, False],
        "two-sided": [False, False, False],
    }[case]


def _channel(stack):
    """The stack K_a S^(-1/2), S = sum_a K_a^dag K_a: a channel's Kraus stack."""
    w, v = np.linalg.eigh(np.einsum("aoi,aoj->ij", stack.conj(), stack))
    return stack @ ((v * w**-0.5) @ v.conj().T)


_COMPRESSION_CASES = ["two-sided", "kraus", "channel", "shared", "wide-channel", "wide-shared",
                      "tall-shared", "family-real", "family-imag"]


def _compression_case(case):
    """A stacked map and its (hermiticity-preserving, completely positive,
    trace-preserving) flags. "shared" is c X + conj(c) X^dag carried, as the
    family's parts are, by [c A, conj(c) B] / [B, A]: [vec L | vec R] has
    rank r, not 2r. The "wide" maps have 2r > d_out d_in columns; the "tall"
    one has d_out d_in = 160 rows, read in three blocks of output rows."""
    rng = np.random.default_rng(_COMPRESSION_CASES.index(case))
    a, b = _stack(rng, 3, 3, 2), _stack(rng, 3, 3, 2)
    if case == "two-sided":
        return ChoiOperator(None, 2, 3, kraus=a, right=b), (False, False, False)
    if case == "kraus":
        return ChoiOperator(None, 2, 3, kraus=a), (True, True, False)
    if case == "channel":
        return ChoiOperator(None, 2, 3, kraus=_channel(a)), (True, True, True)
    if case == "shared":
        return ChoiOperator(None, 2, 3, kraus=np.concatenate([0.5j * a, -0.5j * b]),
                            right=np.concatenate([b, a])), (True, False, False)
    if case == "wide-channel":
        return ChoiOperator(None, 2, 2, kraus=_channel(_stack(rng, 5, 2, 2))), (True, True, True)
    if case == "wide-shared":
        a, b = _stack(rng, 3, 2, 2), _stack(rng, 3, 2, 2)
        return ChoiOperator(None, 2, 2, kraus=np.concatenate([0.5 * a, 0.5 * b]),
                            right=np.concatenate([b, a])), (True, False, False)
    if case == "tall-shared":
        a, b = _stack(rng, 8, 40, 4), _stack(rng, 8, 40, 4)
        return ChoiOperator(None, 4, 40, kraus=np.concatenate([0.5j * a, -0.5j * b]),
                            right=np.concatenate([b, a])), (True, False, False)
    fam = CorrelatorFamily(3)
    return (fam.j_real, (True, False, True)) if case == "family-real" else (fam.j_imag, (True, False, False))


@pytest.mark.parametrize("case", _COMPRESSION_CASES)
def test_compressed_map_agrees_with_its_dense_matrix(case):
    """Norm, trace product, the three predicates and the bound read off the
    compressed matrix C = T_L T_R^dag (and the stacks) equal those of the
    same map given as its dense matrix, within 1e-12 relative."""
    j, flags = _compression_case(case)
    left, right = j.stacks
    want = sum(np.outer(a.reshape(-1), b.reshape(-1).conj()) for a, b in zip(left, right))
    dense = ChoiOperator(want, d_in=j.d_in, d_out=j.d_out)
    norm = np.linalg.norm(want)
    assert abs(frobenius_norm(j) - norm) <= 1e-12 * norm
    rng = np.random.default_rng(7)
    other = ChoiOperator(None, j.d_in, j.d_out, kraus=_stack(rng, 2, j.d_out, j.d_in),
                         right=_stack(rng, 2, j.d_out, j.d_in))
    as_matrix = {j: dense, other: ChoiOperator(other.matrix, j.d_in, j.d_out)}
    for x, y in ((j, other), (other, j), (j, j)):
        want_tp = trace_product(as_matrix[x], as_matrix[y])
        assert abs(trace_product(x, y) - want_tp) <= 1e-12 * frobenius_norm(x) * frobenius_norm(y)
    preds = (is_hermiticity_preserving, is_completely_positive, is_trace_preserving)
    assert tuple(p(j) for p in preds) == tuple(p(dense) for p in preds) == flags
    if flags[0]:
        assert abs(error_lower_bound(j) - error_lower_bound(dense)) <= 1e-12 * norm
    else:
        for m in (j, dense):
            with pytest.raises(ValueError, match="hermiticity"):
                error_lower_bound(m)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_frobenius_norm_holds_beyond_the_squared_norm_range(scale):
    """||s J||_F = s ||J||_F where ||C||_F^2 underflows (1e-200) or
    overflows (1e200)."""
    j = CorrelatorFamily(2).j_sym
    want = scale * frobenius_norm(j)
    assert abs(frobenius_norm(combine((scale,), (j,))) - want) <= 1e-12 * want


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_frobenius_norm_holds_at_the_float_maximum():
    """At 1e308 the compressed matrix C = T_L T_R^dag of the raw stacks
    overflows; each stack is QR-factored at a power-of-two scale and C is
    scaled back, so the norm is the finite s ||J||_F at both ends."""
    j = CorrelatorFamily(2).j_sym
    for scale in (1e308, 1e-300):
        want = scale * frobenius_norm(j)
        assert abs(frobenius_norm(combine((scale,), (j,))) - want) <= 1e-15 * want


def _cached_sides(j):
    """Every side length of every array the map holds, cached values included."""
    held = [a for v in vars(j).values() for a in (v if isinstance(v, tuple) else (v,))]
    return {n for a in held if isinstance(a, np.ndarray) for n in a.shape}


@pytest.mark.parametrize("predicate", [
    frobenius_norm, is_hermiticity_preserving, is_completely_positive, is_trace_preserving,
    error_lower_bound, lambda j: trace_product(j, CorrelatorFamily(3).j_sym),
])
def test_stacked_map_caches_no_process_matrix_sided_array(predicate):
    """After any predicate, a stacked map holds its stacks and small matrices
    only: no array with a side of d_out d_in = 27, such as an orthonormal
    basis Q of its stacks or its process matrix."""
    fam = CorrelatorFamily(3)
    residual = combine((1, -1), (fam.j_real, recombine(universal_real_decomposition(3))))
    total = combine((1, -1j), (fam.j_real, fam.j_imag))
    for j in (fam.j_real, fam.j_imag, fam.j_sym, residual, total):
        try:
            predicate(j)
        except ValueError:  # the bound of a map that is not hermiticity-preserving
            pass
        assert 27 not in _cached_sides(j), j.stacks[0].shape


def test_combine_concatenates_stacks():
    """Stacked and matrix-given maps combine into one stack [c_i L_i] / [R_i]
    whose matrix is the weighted sum of theirs."""
    rng = np.random.default_rng(11)
    a, b = _stacked_map("two-sided", rng), _stacked_map("hermitian", rng)
    want = 2 * a.matrix - 1j * b.matrix
    for other in (b, ChoiOperator(b.matrix, 2, 3)):
        combined = combine((2, -1j), (a, other))
        assert combined.kraus is None
        left, right = combined.stacks
        assert np.array_equal(left, np.concatenate([2 * a.stacks[0], -1j * other.stacks[0]]))
        assert np.array_equal(right, np.concatenate([a.stacks[1], other.stacks[1]]))
        assert np.abs(combined.matrix - want).max() <= 1e-12


# (d_in, d_out): square, family (3, 9) (4, 16) (8, 64), and a prime output side
_MATRIX_SHAPES = [(2, 2), (3, 9), (4, 16), (8, 64), (2, 5)]


@pytest.mark.parametrize("d_in,d_out", _MATRIX_SHAPES)
def test_matrix_given_map_is_its_unit_stack(d_in, d_out):
    """A map given as its matrix J is carried by the unit operators against
    J's rows conjugated, and [1 | J^dag] is already upper triangular: the QR
    leaves it as it is, so C = J bit for bit, and ``matrix`` is the array
    given. ``_jordan``'s thin QR gives Q = 1 bit for bit for a Hermitian J
    (it refuses any other)."""
    side = d_in * d_out
    rng = np.random.default_rng(side)
    g = rng.normal(size=(side, 2 * side)).view(complex)
    maps = [(g + g.conj().T) / 2, g]
    if d_out == d_in * d_in:
        maps.append(CorrelatorFamily(d_in).j_real.matrix.copy())
    for m in maps:
        j = ChoiOperator(m, d_in=d_in, d_out=d_out)
        assert j.matrix is m and j.kraus is None
        left, right = j.stacks
        assert np.array_equal(left.reshape(side, side), np.eye(side))
        assert np.array_equal(right.reshape(side, side), m.conj())
        assert np.array_equal(j._compressed[0], m)
        if np.array_equal(m, m.conj().T):
            assert np.array_equal(_jordan(j)[1], np.eye(side))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_non_finite_matrix_is_no_hermitian_map(bad):
    """A non-finite entry of J reaches the QR of [1 | J^dag]: C is not
    finite, so the map is neither hermiticity-preserving nor completely
    positive, the bound is refused before any QR as not finite, and no
    RuntimeWarning is raised on the way."""
    m = np.eye(4, dtype=complex)
    m[0, 1] = bad
    j = ChoiOperator(m, 2, 2)
    assert not is_hermiticity_preserving(j) and not is_completely_positive(j)
    assert frobenius_norm(j) == np.inf
    with pytest.raises(ValueError, match="not finite"):
        error_lower_bound(j)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_map_beyond_the_float_range_is_judged_by_its_structure():
    """1e155 times the d = 2 cloner's Kraus operators: the stacks are finite,
    but J, of order 1e310, is not. C is kept at the stacks' scale, so the map
    is hermiticity-preserving and completely positive (and not trace
    preserving); only the numbers that would have to be printed, the norm,
    the bound and the weights, are beyond the float range: the norm is inf,
    the bound and the decomposition are refused as such. Its Kraus operators,
    of order 1e155, are finite and give back the cloner's. No RuntimeWarning
    is raised on the way."""
    cloner = CorrelatorFamily(2).j_sym
    j = ChoiOperator(None, 2, 4, kraus=1e155 * cloner.kraus)
    assert is_hermiticity_preserving(j) and is_completely_positive(j)
    assert not is_trace_preserving(j)
    assert frobenius_norm(j) == np.inf
    for split in (error_lower_bound, statistical_decompose):
        with pytest.raises(ValueError, match="beyond the float range"):
            split(j)
    back = ChoiOperator(None, 2, 4, kraus=np.array(kraus_from_choi(j)) / 1e155)
    assert np.abs(back.matrix - cloner.matrix).max() <= 1e-12


def test_spectral_questions_take_their_own_qr(monkeypatch):
    """The decomposition, the bound and the Kraus operators each read the one
    thin QR of ``_jordan``, never the cached tall-skinny ``_compressed``."""
    def refuse(self):
        raise AssertionError("_compressed was read")

    monkeypatch.setattr(ChoiOperator, "_compressed", property(refuse))
    fam = CorrelatorFamily(3)
    assert error_lower_bound(fam.j_real) == pytest.approx(3, rel=1e-12)
    assert statistical_decompose(fam.j_imag).weights[0] == pytest.approx(np.sqrt(8), rel=1e-12)
    assert len(kraus_from_choi(ChoiOperator(fam.j_sym.matrix, 3, 9))) == 3
    with pytest.raises(ValueError, match="completely positive"):
        kraus_from_choi(fam.j_real)


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


def test_kraus_come_largest_eigenvalue_first():
    """J = diag(0.25, 1, 0, 0.5), 2 -> 2: three operators, of squared norms
    1, 0.5 and 0.25 in that order; the zero eigenvalue gives none."""
    ops = kraus_from_choi(ChoiOperator(np.diag([0.25, 1, 0, 0.5]), d_in=2, d_out=2))
    assert [np.linalg.norm(k) ** 2 for k in ops] == pytest.approx([1, 0.5, 0.25], rel=1e-15)


def test_kraus_of_the_d16_cloner_builds_no_process_matrix(monkeypatch):
    """At d = 16 the cloner's J would be 4096-sided (256 MiB): its 16 Kraus
    operators are read off the 32-sided C, never off J, in a small fraction
    of that memory, and they reproduce the map."""
    d = 16
    j = CorrelatorFamily(d).j_sym

    def must_not_build(self):
        raise AssertionError("a process matrix was built")

    monkeypatch.setattr(ChoiOperator, "matrix", property(must_not_build))
    tracemalloc.start()
    try:
        ops = kraus_from_choi(j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert len(ops) == d
    rho = rand_state(np.random.default_rng(16), d)
    got = sum(k @ rho @ k.conj().T for k in ops)
    assert np.linalg.norm(got - apply_choi(j, rho)) <= 1e-12


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
