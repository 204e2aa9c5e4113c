"""Finite-coupling quantum thermometry.

Numerical toolkit for temperature estimation with a probe that couples to its
environment at small but non-negligible strength: second-order reduced thermal
states, logarithmic derivatives, quantum and classical Fisher information, the
spectral decomposition of the coupling correction to the temperature
signal-to-noise ratio, and an exact small-system reference that every
perturbative formula is validated against.
"""

from .config import GridSpec, RunConfig, SweepSpec, load_config, load_operator_pair, parse_config
from .errors import (
    ConfigError,
    CouplingTooStrongError,
    FcthermError,
    NonzeroMeanError,
    SingularSupportError,
    TruncationWarning,
)
from .linalg import (
    DensityOperator,
    QuadratureRule,
    SpectralDecomposition,
    eigendecompose,
    gibbs_populations,
    gibbs_state,
    qfi_from_sld,
    quad_finite,
    quad_imaginary_time,
    quad_semiinfinite,
    quad_thermal_frequency,
    require_hermitian,
    sld_solve,
)
from .metrology import (
    MetrologyReport,
    cfi_energy_general,
    cfi_energy_perturbative,
    high_T_asymptote,
    qfi_perturbative_integral,
    qfi_perturbative_sum,
    snr_bound,
    snr_kernel,
    xi_via_spectral_kernel,
)
from .models import (
    ContinuumBath,
    ContinuumBathCorrelation,
    CorrelationFn,
    DiscreteBath,
    EigenbasisCorrelation,
    OscillatorCorrelation,
    ProbeModel,
    bath_correlation,
    bath_mode,
    bath_qubit,
    oscillator_levels,
    probe_correlation,
    probe_custom,
    probe_oscillator,
    probe_qubit,
    spectral_density,
)
from .oracle import (
    JointModel,
    OrderFit,
    exact_fishers,
    exact_mfg,
    order_fit,
    trace_distance,
)
from .perturbation import (
    MeanForceExpansion,
    mfg_second_order,
    p1_operator,
    sld_second_order,
    x_matrix,
)
from .tolerances import DEFAULT_TOL, Tolerances

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "RunConfig",
    "SweepSpec",
    "load_config",
    "load_operator_pair",
    "parse_config",
    "ConfigError",
    "CouplingTooStrongError",
    "FcthermError",
    "NonzeroMeanError",
    "SingularSupportError",
    "TruncationWarning",
    "DensityOperator",
    "QuadratureRule",
    "SpectralDecomposition",
    "eigendecompose",
    "gibbs_populations",
    "gibbs_state",
    "qfi_from_sld",
    "quad_finite",
    "quad_imaginary_time",
    "quad_semiinfinite",
    "quad_thermal_frequency",
    "require_hermitian",
    "sld_solve",
    "MetrologyReport",
    "cfi_energy_general",
    "cfi_energy_perturbative",
    "high_T_asymptote",
    "qfi_perturbative_integral",
    "qfi_perturbative_sum",
    "snr_bound",
    "snr_kernel",
    "xi_via_spectral_kernel",
    "ContinuumBath",
    "ContinuumBathCorrelation",
    "CorrelationFn",
    "DiscreteBath",
    "EigenbasisCorrelation",
    "OscillatorCorrelation",
    "ProbeModel",
    "bath_correlation",
    "bath_mode",
    "bath_qubit",
    "oscillator_levels",
    "probe_correlation",
    "probe_custom",
    "probe_oscillator",
    "probe_qubit",
    "spectral_density",
    "JointModel",
    "OrderFit",
    "exact_fishers",
    "exact_mfg",
    "order_fit",
    "trace_distance",
    "MeanForceExpansion",
    "mfg_second_order",
    "p1_operator",
    "sld_second_order",
    "x_matrix",
    "DEFAULT_TOL",
    "Tolerances",
    "__version__",
]
