import hashlib
import warnings

import numpy as np
import pytest

from twopoint.choi import apply_choi, is_trace_preserving
from twopoint.cli import _random_observable as rand_herm, _random_state as rand_state
from twopoint.correlator import (
    CorrelatorFamily,
    choi_builders,
    imag_part_apply,
    real_part_apply,
    two_point_exact,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from twopoint.decomposition import decomposition_cost, recombine
from twopoint.linalg import swap_operator

from reference_maps import (
    choi_of_action,
    cloner_apply,
    ideal_correlator_apply,
    partial_trace,
    rootswap_apply,
    sector_projector,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
KET0 = np.diag([1.0, 0.0]).astype(complex)


# --- ideal map and its parts -------------------------------------------------


def test_ideal_on_maximally_mixed():
    fam = CorrelatorFamily(3)
    got = ideal_correlator_apply(fam, np.eye(3, dtype=complex) / 3)
    assert np.allclose(got, swap_operator(3) / 3, atol=1e-13)


def test_ideal_reproduces_product_trace():
    fam = CorrelatorFamily(2)
    out = ideal_correlator_apply(fam, KET0)
    got = np.trace(out @ np.kron(SX, SY))
    assert abs(got - (-1j)) <= 1e-12
    # independent matrix-product oracle
    assert abs(np.trace(SX @ KET0 @ SY) - (-1j)) <= 1e-15


def test_ideal_normalization():
    rng = np.random.default_rng(0)
    fam = CorrelatorFamily(2)
    rho = rand_state(rng, 2)
    out = ideal_correlator_apply(fam, rho)
    assert abs(np.trace(out @ np.eye(4)) - 1) <= 1e-12


def test_real_imag_traces():
    rng = np.random.default_rng(1)
    fam = CorrelatorFamily(3)
    for _ in range(5):
        rho = rand_state(rng, 3)
        r = real_part_apply(fam, rho)
        i = imag_part_apply(fam, rho)
        assert np.linalg.norm(r - r.conj().T) <= 1e-12
        assert np.linalg.norm(i - i.conj().T) <= 1e-12
        assert abs(np.trace(r) - 1) <= 1e-12
        assert abs(np.trace(i)) <= 1e-12


def test_real_part_kills_anticommuting_pair():
    rng = np.random.default_rng(2)
    fam = CorrelatorFamily(2)
    ab = np.kron(SX, SY)
    for _ in range(5):
        rho = rand_state(rng, 2)
        assert abs(np.trace(real_part_apply(fam, rho) @ ab)) <= 1e-12


def test_imag_part_reads_commutator():
    fam = CorrelatorFamily(2)
    got = np.trace(imag_part_apply(fam, KET0) @ np.kron(SX, SY))
    assert abs(got - 1.0) <= 1e-12  # [sx, sy]/2i = sz and <0|sz|0> = 1


def test_ideal_equals_real_minus_i_imag():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        fam = CorrelatorFamily(d)
        rho = rand_state(rng, d)
        lhs = ideal_correlator_apply(fam, rho)
        rhs = real_part_apply(fam, rho) - 1j * imag_part_apply(fam, rho)
        assert np.linalg.norm(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_two_point_identity_random_triples(d):
    rng = np.random.default_rng(4 + d)
    fam = CorrelatorFamily(d)
    for _ in range(25):
        rho = rand_state(rng, d)
        a = rand_herm(rng, d)
        b = rand_herm(rng, d)
        lhs = np.trace(ideal_correlator_apply(fam, rho) @ np.kron(a, b))
        assert abs(lhs - two_point_exact(rho, a, b)) <= 1e-10


# --- cloners and phase maps -----------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cloner_outputs_are_states(d):
    rng = np.random.default_rng(8 + d)
    fam = CorrelatorFamily(d)
    for sign, branch in ((+1, fam.j_sym), (-1, fam.j_anti)):
        rho = rand_state(rng, d)
        out = cloner_apply(fam, sign, rho)
        assert abs(np.trace(out) - 1) <= 1e-11
        assert np.linalg.eigvalsh(out).min() >= -1e-10
        opposite = sector_projector(d, -sign)
        assert np.linalg.norm(opposite @ out @ opposite) <= 1e-11
        assert np.linalg.norm(apply_choi(branch, rho) - out) <= 1e-11


def test_cloner_marginal_formula_qubit():
    """Tracing the first output of the symmetric cloner: known shrinking
    (4 rho + 1)/6, checked against a from-scratch projector sandwich."""
    rng = np.random.default_rng(9)
    fam = CorrelatorFamily(2)
    rho = rand_state(rng, 2)
    out = cloner_apply(fam, +1, rho)
    marginal = partial_trace(out, 1, [2, 2])
    assert np.allclose(marginal, (4 * rho + np.eye(2)) / 6, atol=1e-11)
    # independent construction of the same map
    s = swap_operator(2)
    pp = (np.eye(4) + s) / 2
    direct = (2 / 3) * pp @ np.kron(np.eye(2), rho) @ pp
    assert np.allclose(out, direct, atol=1e-11)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rootswap_outputs_are_states(d):
    rng = np.random.default_rng(13 + d)
    fam = CorrelatorFamily(d)
    for sign in (+1, -1):
        rho = rand_state(rng, d)
        out = rootswap_apply(fam, sign, rho)
        assert abs(np.trace(out) - 1) <= 1e-11
        assert np.linalg.eigvalsh(out).min() >= -1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rootswap_difference_recovers_imag_part(d):
    rng = np.random.default_rng(18 + d)
    fam = CorrelatorFamily(d)
    rho = rand_state(rng, d)
    scale = np.sqrt(d * d - 1) / 2
    lhs = scale * (rootswap_apply(fam, +1, rho) - rootswap_apply(fam, -1, rho))
    assert np.linalg.norm(lhs - imag_part_apply(fam, rho)) <= 1e-11


# --- universal decompositions -----------------------------------------------------


def test_real_decomposition_qubit_weights():
    dec = universal_real_decomposition(2)
    assert dec.weights == (3.0, -1.0)
    fam = CorrelatorFamily(2)
    assert np.allclose(dec.effects[0].matrix, fam.j_sym.matrix / 2, atol=1e-13)
    assert np.allclose(dec.effects[1].matrix, fam.j_anti.matrix / 2, atol=1e-13)


def test_imag_decomposition_qubit_weights():
    dec = universal_imag_decomposition(2)
    assert np.allclose(dec.weights, (np.sqrt(3), -np.sqrt(3)), atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_decompositions_recombine_to_family(d):
    fam = CorrelatorFamily(d)
    assert (
        np.linalg.norm(recombine(universal_real_decomposition(d)).matrix - fam.j_real.matrix)
        <= 1e-10
    )
    assert (
        np.linalg.norm(recombine(universal_imag_decomposition(d)).matrix - fam.j_imag.matrix)
        <= 1e-10
    )


@pytest.mark.parametrize("d", [2, 3, 4])
def test_half_half_branch_probabilities(d):
    rng = np.random.default_rng(23 + d)
    for dec in (universal_real_decomposition(d), universal_imag_decomposition(d)):
        for _ in range(5):
            report = decomposition_cost(dec, rand_state(rng, d))
            assert max(abs(p - 0.5) for p in report.probabilities) <= 1e-10


@pytest.mark.parametrize("d", range(2, 9))
def test_kraus_built_effects_match_applied_maps(d):
    """The universal effects, built from their Kraus stacks, against the
    basis expansion of the half-channels they represent."""
    fam = CorrelatorFamily(d)
    halves = (
        (universal_real_decomposition(d), cloner_apply),
        (universal_imag_decomposition(d), rootswap_apply),
    )
    for dec, channel in halves:
        for sign, eff in zip((+1, -1), dec.effects):
            assert eff.kraus.shape == (d, d * d, d)
            ref = choi_of_action(lambda m: channel(fam, sign, m) / 2, d, d * d)
            assert np.abs(eff.matrix - ref.matrix).max() <= 1e-12


@pytest.mark.parametrize("d", [-1, 0, 1])
@pytest.mark.parametrize(
    "build", [universal_real_decomposition, universal_imag_decomposition]
)
def test_decompositions_reject_small_dimension(build, d):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(ValueError, match=f"dimension >= 2, got {d}"):
            build(d)


# --- Choi builders ------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3])
def test_builders_match_applied_maps(d):
    """Every cached process matrix must agree with the basis-expansion
    matrix of the map it claims to represent."""
    fam = CorrelatorFamily(d)
    chois = choi_builders(fam)
    actions = {
        "real": lambda m: real_part_apply(fam, m),
        "imag": lambda m: imag_part_apply(fam, m),
        "sym": lambda m: cloner_apply(fam, +1, m),
        "anti": lambda m: cloner_apply(fam, -1, m),
        "phase_plus": lambda m: rootswap_apply(fam, +1, m),
        "phase_minus": lambda m: rootswap_apply(fam, -1, m),
    }
    for name, action in actions.items():
        built = choi_of_action(action, d_in=d, d_out=d * d)
        assert np.linalg.norm(built.matrix - chois[name].matrix) <= 1e-10, name


@pytest.mark.parametrize("d", [2, 3, 4])
def test_family_stacks_are_c_contiguous(d):
    """Every operator stack of the family maps and of the universal
    decompositions' effects is C-contiguous, so reading it as a (r, side)
    matrix is a view, not a copy."""
    maps = list(choi_builders(CorrelatorFamily(d)).values())
    maps += [*universal_real_decomposition(d).effects, *universal_imag_decomposition(d).effects]
    for j in maps:
        for stack in j.stacks:
            assert stack.flags.c_contiguous


# sha256 of the branch stacks, recorded from the dense construction
# sqrt(c) column blocks of (1 + zS)/2 that the stacks replace: any moved bit fails.
STACK_DIGESTS = {
    2: "ee78ba920fe4098d7b7a9482a2f00b7296ee05407b567e8a875b4441fb149845",
    3: "65b773c80313fe2a97ccdb014838399c25f7fe7f408bd43fa374225bccd9480d",
    4: "3f3474c5d34f18d86a95e6caeb622814a5c88389578e54705289c1b1ac21a0d0",
    8: "d189e6df183064033da76284990abac76114c24406db4cb70a5997ac1972433e",
}


@pytest.mark.parametrize("d", sorted(STACK_DIGESTS))
def test_branch_stacks_keep_their_bits(d):
    """The Kraus stacks of the four family branches, then those of the real
    and imaginary decompositions' effects, then the (L, R) stacks of j_real
    and j_imag: each complex128 and C-contiguous, hashed with its shape."""
    fam = CorrelatorFamily(d)
    stacks = [j.kraus for j in (fam.j_sym, fam.j_anti, fam.j_phase_plus, fam.j_phase_minus)]
    stacks += [eff.kraus for dec in (universal_real_decomposition(d), universal_imag_decomposition(d))
               for eff in dec.effects]
    stacks += [*fam.j_real.stacks, *fam.j_imag.stacks]
    digest = hashlib.sha256()
    for stack in stacks:
        assert stack.dtype == np.complex128 and stack.flags.c_contiguous
        digest.update(repr(stack.shape).encode())
        digest.update(stack.tobytes())
    assert digest.hexdigest() == STACK_DIGESTS[d]


def test_builder_trace_normalization():
    fam = CorrelatorFamily(2)
    reduced = partial_trace(fam.j_sym.matrix, 1, [4, 2])
    assert np.allclose(reduced, np.eye(2), atol=1e-12)
    assert is_trace_preserving(fam.j_sym)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_builder_orthogonality(d):
    fam = CorrelatorFamily(d)
    assert abs(np.trace(fam.j_sym.matrix @ fam.j_anti.matrix)) <= 1e-12
    assert abs(np.trace(fam.j_phase_plus.matrix @ fam.j_phase_minus.matrix)) <= 1e-10


def test_apply_choi_consistency_with_applies():
    """The parts' stacks act as the Hermitian part (X + X^dag)/2 and the
    imaginary part i (X - X^dag)/2 of the dense reference X = S (1 (x) rho)."""
    rng = np.random.default_rng(30)
    for d in (2, 3, 4, 5):
        fam = CorrelatorFamily(d)
        rho = rand_state(rng, d)
        x = ideal_correlator_apply(fam, rho)
        assert np.linalg.norm(apply_choi(fam.j_real, rho) - (x + x.conj().T) / 2) <= 1e-11
        assert np.linalg.norm(apply_choi(fam.j_imag, rho) - 0.5j * (x - x.conj().T)) <= 1e-11


# --- exact two-point values -----------------------------------------------------------


def test_two_point_exact_identity_pair():
    rng = np.random.default_rng(31)
    rho = rand_state(rng, 2)
    assert two_point_exact(rho, np.eye(2), np.eye(2)) == pytest.approx(1.0)


def test_two_point_exact_traceless_product():
    got = two_point_exact(np.eye(2, dtype=complex) / 2, SX, SY)
    assert abs(got) <= 1e-14


def test_two_point_exact_pauli_example():
    assert abs(two_point_exact(KET0, SX, SY) - (-1j)) <= 1e-14


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 33, 64])
def test_two_point_exact_matches_the_trace_of_the_product(d):
    """One d^3 product and an elementwise sum give Tr[A rho B]."""
    rng = np.random.default_rng(d)
    rho, a, b = rand_state(rng, d), rand_herm(rng, d), rand_herm(rng, d)
    want = np.trace(a @ rho @ b)
    assert abs(two_point_exact(rho, a, b) - want) <= 1e-12 * abs(want)


def test_two_point_exact_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match=r"dimension mismatch: rho \(2, 2\), a \(3, 3\), b \(2, 2\)"):
        two_point_exact(np.eye(2) / 2, np.eye(3), np.eye(2))


@pytest.mark.parametrize("part_apply", [real_part_apply, imag_part_apply])
def test_part_apply_rejects_a_state_of_another_dimension(part_apply):
    with pytest.raises(ValueError, match=r"state shape \(3, 3\) does not match family dimension 2"):
        part_apply(CorrelatorFamily(2), np.eye(3) / 3)


def test_correlator_family_rejects_d1():
    with pytest.raises(ValueError):
        CorrelatorFamily(1)
