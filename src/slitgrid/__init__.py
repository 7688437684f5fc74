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
from .geometry import (
    GratingGeometry,
    OrderWaveVector,
    ParaxialWarning,
    SetupGeometry,
    derive_grating_geometry,
    max_propagating_order,
    order_wavevector,
)
from .grating import (
    CHANNELS,
    AmplitudeTable,
    Channel,
    GratingSpec,
    fourier_coefficient,
    grid_function,
    normalization_defect,
    reflection_amplitude,
    transmission_amplitude,
)
from .scattering import (
    DetectorSignal,
    OrderSpectrum,
    TwoSlitConfig,
    detector_signal,
    interference_intensity,
    single_slit_detector_signal,
    single_slit_power_limit,
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
    "GratingGeometry",
    "GratingSpec",
    "OrderSpectrum",
    "OrderWaveVector",
    "ParaxialWarning",
    "SetupGeometry",
    "SweepColumns",
    "TwoSlitConfig",
    "VisibilityResult",
    "complementarity_sweep",
    "derive_grating_geometry",
    "detector_signal",
    "distinguishability_closed",
    "distinguishability_from_amplitudes",
    "fourier_coefficient",
    "grid_function",
    "interference_intensity",
    "max_propagating_order",
    "normalization_defect",
    "order_wavevector",
    "reflection_amplitude",
    "run_verification",
    "single_slit_detector_signal",
    "single_slit_power_limit",
    "single_slit_spectrum",
    "synthesize_field",
    "transmission_amplitude",
    "two_slit_power_limit",
    "two_slit_spectrum",
    "visibility_closed",
    "visibility_quadrature",
]
