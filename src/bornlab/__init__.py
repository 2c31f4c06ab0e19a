"""Triple-slit interference null-test toolkit.

Computes the interference hierarchy and its order-3 test statistics from
amplitudes or measured counts, simulates the eight-combination far-field
diffraction experiment, and quantifies how source, mask and detector
imperfections masquerade as a violation of the quadratic probability
rule.
"""

from .config import ConfigError, RunConfig, load_config, parse_config
from .experiment import (
    RhoSeries,
    RunCounts,
    estimate_rho_series,
    rho_per_repetition,
    run_experiment,
)
from .interference import (
    BORN,
    COMBINATIONS,
    DEFAULT_GUARD,
    ProbabilityRule,
    SorkinCurves,
    interference_terms,
    sorkin_curves,
)
from .optics import (
    BLOCKING,
    OPENING,
    CombinationAperture,
    CombinationMask,
    SlitPlate,
    build_combination_aperture,
    combination_mask_for_plate,
    far_field_amplitude,
    pattern_set,
    triple_slit_plate,
)
from .systematics import (
    DetectorModel,
    PowerModel,
    RhoSweep,
    detector_response,
    misalignment_rho_sweep,
    poisson_sigma_curves,
    power_sigma_curves,
    rho_sweep,
    uniform_displacement_sampler,
)

__version__ = "0.1.0"

# fixed values; their only reader is perfbench/child.py (its machine facts)
HAS_NUMBA = False
BACKEND = "numpy"

__all__ = [
    "BLOCKING",
    "BORN",
    "COMBINATIONS",
    "ConfigError",
    "CombinationAperture",
    "CombinationMask",
    "DEFAULT_GUARD",
    "DetectorModel",
    "OPENING",
    "PowerModel",
    "ProbabilityRule",
    "RhoSeries",
    "RhoSweep",
    "RunConfig",
    "RunCounts",
    "SlitPlate",
    "SorkinCurves",
    "build_combination_aperture",
    "combination_mask_for_plate",
    "detector_response",
    "estimate_rho_series",
    "far_field_amplitude",
    "interference_terms",
    "load_config",
    "misalignment_rho_sweep",
    "parse_config",
    "pattern_set",
    "poisson_sigma_curves",
    "power_sigma_curves",
    "rho_per_repetition",
    "rho_sweep",
    "run_experiment",
    "sorkin_curves",
    "triple_slit_plate",
    "uniform_displacement_sampler",
]
