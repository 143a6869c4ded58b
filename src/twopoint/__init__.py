"""Unbiased estimation of two-point correlation functions Tr[A rho B].

The package decomposes the (non-physical) two-copy correlation maps into
quantum instruments, realizes them as dilations and shot-based samplers with
classical post-processing, and models an exact three-photon optical
implementation of the real-part instrument on polarization qubits.
"""

from .choi import (
    ChoiOperator,
    apply_choi,
    choi_of_action,
    is_completely_positive,
    is_hermiticity_preserving,
    is_trace_preserving,
    kraus_from_choi,
)
from .correlator import (
    CorrelatorFamily,
    choi_builders,
    cloner_apply,
    ideal_correlator_apply,
    imag_part_apply,
    real_part_apply,
    rootswap_apply,
    two_point_exact,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from .decomposition import (
    CostReport,
    Dilation,
    StatisticalDecomposition,
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
    maximally_entangled_projector,
    operator_absolute_value,
    partial_trace,
    q_operator,
    sector_projector,
    swap_operator,
    tensor_product,
)
from .photonics import (
    CoincidenceStats,
    beamsplitter_action,
    fock_norm_squared,
    pattern_probabilities,
    recombine_coincidences,
    simulate_optics,
)
from .sampler import (
    DEFAULT_SEED,
    EstimationReport,
    estimate_component,
    estimate_two_point,
    spectral_projectors,
)

__version__ = "0.1.0"

__all__ = [
    "ChoiOperator",
    "CoincidenceStats",
    "CorrelatorFamily",
    "CostReport",
    "DEFAULT_SEED",
    "Dilation",
    "EstimationReport",
    "StatisticalDecomposition",
    "apply_choi",
    "beamsplitter_action",
    "check_density_matrix",
    "check_observable",
    "choi_builders",
    "choi_of_action",
    "cloner_apply",
    "decomposition_cost",
    "error_lower_bound",
    "estimate_component",
    "estimate_two_point",
    "fock_norm_squared",
    "hermitian_eigendecomposition",
    "ideal_correlator_apply",
    "imag_part_apply",
    "is_completely_positive",
    "is_hermiticity_preserving",
    "is_trace_preserving",
    "kraus_from_choi",
    "maximally_entangled_projector",
    "operator_absolute_value",
    "partial_expectation",
    "partial_trace",
    "pattern_probabilities",
    "q_operator",
    "real_part_apply",
    "recombine",
    "recombine_coincidences",
    "rootswap_apply",
    "sector_projector",
    "simulate_optics",
    "spectral_projectors",
    "statistical_decompose",
    "stinespring_dilation",
    "swap_operator",
    "tensor_product",
    "two_point_exact",
    "universal_imag_decomposition",
    "universal_real_decomposition",
]
