"""Property tests of the paper's identities over d = 2..6 and random inputs.

Each example draws a dimension and a seed; the seed feeds the shared random
state and observable helpers. ``derandomize=True`` makes the examples the
same on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twopoint.choi import apply_choi
from twopoint.cli import _random_observable as rand_herm, _random_state as rand_state
from twopoint.correlator import (
    CorrelatorFamily,
    imag_part_apply,
    real_part_apply,
    two_point_exact,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from twopoint.decomposition import decomposition_cost

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
DIMS = st.integers(min_value=2, max_value=6)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@PROPERTY
@given(d=DIMS, seed=SEEDS)
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
def test_branch_probabilities_are_one_half(d, seed):
    rho = rand_state(np.random.default_rng(seed), d)
    for dec in (universal_real_decomposition(d), universal_imag_decomposition(d)):
        for eff in dec.effects:
            assert abs(np.trace(apply_choi(eff, rho)).real - 0.5) <= 1e-10


@PROPERTY
@given(d=DIMS, seed=SEEDS)
def test_cost_saturates_the_bounds(d, seed):
    """The realized cost meets the lower bound, d for the real part and
    sqrt(d^2-1) for the imaginary part, at every state."""
    rho = rand_state(np.random.default_rng(seed), d)
    real = decomposition_cost(universal_real_decomposition(d), rho)
    imag = decomposition_cost(universal_imag_decomposition(d), rho)
    for report, value in ((real, d), (imag, np.sqrt(d * d - 1.0))):
        assert abs(report.cost - value) <= 1e-9
        assert abs(report.bound - value) <= 1e-9
