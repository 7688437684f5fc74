"""Two-slit interferometer with a reflective strip grating.

Analytical model of a double slit whose interference fringes are sampled by
a matched strip grating: grating Fourier decomposition, single- and
two-slit diffraction-order spectra, detector signals, scattered-field
synthesis, and the visibility/distinguishability duality measures, all with
independent numerical oracles.
"""

from .complementarity import (
    SweepColumns,
    VisibilityResult,
    complementarity_sweep,
    distinguishability_closed,
    distinguishability_from_amplitudes,
    visibility_closed,
    visibility_quadrature,
)
from .geometry import ParaxialWarning, SetupGeometry
from .grating import (
    CHANNELS,
    AmplitudeTable,
    Channel,
    GratingSpec,
    grid_function,
    normalization_defect,
)
from .scattering import (
    DetectorSignal,
    OrderSpectrum,
    TwoSlitConfig,
    detector_signal,
    interference_intensity,
    single_slit_detector_signal,
    single_slit_spectrum,
    synthesize_field,
    two_slit_power_limit,
    two_slit_spectrum,
)
from .verify import CheckResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "AmplitudeTable",
    "CHANNELS",
    "Channel",
    "CheckResult",
    "DetectorSignal",
    "GratingSpec",
    "OrderSpectrum",
    "ParaxialWarning",
    "SetupGeometry",
    "SweepColumns",
    "TwoSlitConfig",
    "VisibilityResult",
    "complementarity_sweep",
    "detector_signal",
    "distinguishability_closed",
    "distinguishability_from_amplitudes",
    "grid_function",
    "interference_intensity",
    "normalization_defect",
    "run_verification",
    "single_slit_detector_signal",
    "single_slit_spectrum",
    "synthesize_field",
    "two_slit_power_limit",
    "two_slit_spectrum",
    "visibility_closed",
    "visibility_quadrature",
]
