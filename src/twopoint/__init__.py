"""Unbiased estimation of two-point correlation functions Tr[A rho B].

The package decomposes the (non-physical) two-copy correlation maps into
quantum instruments, realizes them as dilations and shot-based samplers with
classical post-processing, and models an exact three-photon optical
implementation of the real-part instrument on polarization qubits.

The names below are the public surface; the remaining helpers (the
universal branch table, the swap operator, report containers) are imported
from their submodules.
"""

from .choi import (
    ChoiOperator,
    apply_choi,
    is_completely_positive,
    is_hermiticity_preserving,
    is_trace_preserving,
    kraus_from_choi,
)
from .correlator import (
    CorrelatorFamily,
    choi_builders,
    imag_part_apply,
    real_part_apply,
    two_point_exact,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from .decomposition import (
    decomposition_cost,
    error_lower_bound,
    partial_expectation,
    recombine,
    statistical_decompose,
    stinespring_dilation,
)
from .linalg import (
    check_density_matrix,
    check_observable,
    hermitian_eigendecomposition,
)
from .photonics import recombine_coincidences, simulate_optics
from .sampler import estimate_component, estimate_two_point

__version__ = "0.1.0"

__all__ = [
    "ChoiOperator",
    "CorrelatorFamily",
    "apply_choi",
    "check_density_matrix",
    "check_observable",
    "choi_builders",
    "decomposition_cost",
    "error_lower_bound",
    "estimate_component",
    "estimate_two_point",
    "hermitian_eigendecomposition",
    "imag_part_apply",
    "is_completely_positive",
    "is_hermiticity_preserving",
    "is_trace_preserving",
    "kraus_from_choi",
    "partial_expectation",
    "real_part_apply",
    "recombine",
    "recombine_coincidences",
    "simulate_optics",
    "statistical_decompose",
    "stinespring_dilation",
    "two_point_exact",
    "universal_imag_decomposition",
    "universal_real_decomposition",
]
