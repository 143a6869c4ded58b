"""Property tests of the paper's identities over d = 2..16 and random inputs.

Each example draws a dimension and a seed; the seed feeds the shared random
state and observable helpers. ``derandomize=True`` makes the examples the
same on every run, and each property also runs at d = 16, the top of the
documented range.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twopoint.choi import apply_choi, combine, is_completely_positive, is_hermiticity_preserving
from twopoint.correlator import (
    CorrelatorFamily,
    imag_part_apply,
    real_part_apply,
    two_point_exact,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from twopoint.decomposition import decomposition_cost
from twopoint.sampler import _kirkwood_dirac_plans, estimate_two_point

from reference_maps import (
    assert_plans_agree,
    random_observable as rand_herm,
    random_state as rand_state,
    reference_plan,
    two_valued_observable,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
DIMS = st.integers(min_value=2, max_value=16)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@PROPERTY
@given(d=DIMS, seed=SEEDS)
@example(d=16, seed=16)
def test_two_point_reproduction(d, seed):
    """Tr[R(rho) (A x B)] - i Tr[I(rho) (A x B)] = Tr[A rho B]."""
    rng = np.random.default_rng(seed)
    rho, a, b = rand_state(rng, d), rand_herm(rng, d), rand_herm(rng, d)
    fam = CorrelatorFamily(d)
    ab = np.kron(a, b)
    got = np.trace(real_part_apply(fam, rho) @ ab) - 1j * np.trace(imag_part_apply(fam, rho) @ ab)
    assert abs(got - two_point_exact(rho, a, b)) <= 1e-10


@PROPERTY
@given(d=DIMS, seed=SEEDS)
@example(d=16, seed=16)
def test_branch_probabilities_are_one_half(d, seed):
    rho = rand_state(np.random.default_rng(seed), d)
    for dec in (universal_real_decomposition(d), universal_imag_decomposition(d)):
        for eff in dec.effects:
            assert abs(np.trace(apply_choi(eff, rho)).real - 0.5) <= 1e-10


@PROPERTY
@given(d=DIMS, seed=SEEDS)
@example(d=16, seed=16)
def test_cost_saturates_the_bounds(d, seed):
    """The realized cost meets the lower bound, d for the real part and
    sqrt(d^2-1) for the imaginary part, at every state."""
    rho = rand_state(np.random.default_rng(seed), d)
    real = decomposition_cost(universal_real_decomposition(d), rho)
    imag = decomposition_cost(universal_imag_decomposition(d), rho)
    for report, value in ((real, d), (imag, np.sqrt(d * d - 1.0))):
        assert abs(report.cost - value) <= 1e-9
        assert abs(report.bound - value) <= 1e-9


@PROPERTY
@given(d=DIMS, seed=SEEDS, degenerate_b=st.booleans())
@example(d=16, seed=16, degenerate_b=True)
def test_closed_form_plan_is_the_reference_plan(d, seed, degenerate_b):
    """The Kirkwood-Dirac cells of both parts are the cells of the dense
    conditional two-copy states measured with dense projectors."""
    rng = np.random.default_rng(seed)
    rho, a = rand_state(rng, d), rand_herm(rng, d)
    b = two_valued_observable(rng, d) if degenerate_b else rand_herm(rng, d)
    parts = (universal_real_decomposition(d), universal_imag_decomposition(d))
    for dec, plan in zip(parts, _kirkwood_dirac_plans(rho, a, b)):
        assert_plans_agree(plan, reference_plan(dec, rho, a, b))


@PROPERTY
@given(d=DIMS, seed=SEEDS, scale=st.sampled_from([1e-12, 1e-6, 1e3, 1e9]))
@example(d=4, seed=4, scale=1e-12)
@example(d=4, seed=4, scale=1e9)
@example(d=16, seed=16, scale=1e9)
def test_plan_outcomes_do_not_depend_on_the_observable_scale(d, seed, scale):
    """The plan of (rho, s A, B) has the outcomes of (rho, A, B), with the
    same cell probabilities and each recorded value times s. A two-valued A
    keeps two outcomes at every scale: its degenerate eigenvalues differ by
    rounding, about 1e-16 times the scale."""
    rng = np.random.default_rng(seed)
    rho, a, b = rand_state(rng, d), two_valued_observable(rng, d), rand_herm(rng, d)
    for (probs, values), ref in zip(_kirkwood_dirac_plans(rho, scale * a, b),
                                    _kirkwood_dirac_plans(rho, a, b)):
        assert values.shape == ref[1].shape == (2, 2 * d)
        assert_plans_agree((probs, values / scale), ref)


@PROPERTY
@given(d=DIMS, scale=st.sampled_from([1e-200, 1e-12, 1e-6, 1e3, 1e9, 1e200]))
@example(d=16, scale=1e-12)
@example(d=16, scale=1e9)
@example(d=2, scale=1e-200)
@example(d=2, scale=1e200)
def test_map_predicates_do_not_depend_on_scale(d, scale):
    """A map is hermiticity-preserving or completely positive exactly when
    s times it is: both bounds are relative to ||J||_F, and a J whose squared
    norm would underflow or overflow is judged at an exact scaling."""
    fam = CorrelatorFamily(d)
    for j in (fam.j_sym, fam.j_phase_plus, fam.j_real, combine((1, -1j), (fam.j_real, fam.j_imag))):
        scaled = combine((scale,), (j,))
        assert is_hermiticity_preserving(scaled) == is_hermiticity_preserving(j)
        assert is_completely_positive(scaled) == is_completely_positive(j)


@PROPERTY
@given(d=DIMS, seed=SEEDS, ks=st.integers(-300, 300), kt=st.integers(-300, 300))
@example(d=4, seed=4, ks=300, kt=300)
@example(d=4, seed=4, ks=-300, kt=-300)
@example(d=16, seed=16, ks=-300, kt=300)
def test_estimate_is_exactly_scale_equivariant(d, seed, ks, kt):
    """(rho, sA, tB) gives s t times the estimate and the error bar of
    (rho, A, B), bit for bit, for s = 2^ks and t = 2^kt. LAPACK's eigh scales
    exactly only while a matrix's largest entry stays within about 2^-404 to
    2^484, so the exponents stay within +-300 of unit-scale observables."""
    rng = np.random.default_rng(seed)
    rho, a, b = rand_state(rng, d), rand_herm(rng, d), rand_herm(rng, d)
    s, t = math.ldexp(1.0, ks), math.ldexp(1.0, kt)
    unit = estimate_two_point(rho, a, b, n_shots=10**5, seed=seed)
    scaled = estimate_two_point(rho, s * a, t * b, n_shots=10**5, seed=seed)
    assert scaled.estimate == s * t * unit.estimate
    assert scaled.std_error == (s * t * unit.std_error[0], s * t * unit.std_error[1])
