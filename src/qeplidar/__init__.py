"""Monte Carlo simulator and analysis toolkit for quantum-enhanced parallel
LiDAR: correlated photon-pair time-tag generation through a pump / source /
dispersion / grating / target / detector chain, plus the full coincidence
analysis stack (CAR, classical and quantum SNR, calibration, target
reconstruction, Fisher information) with closed-form cross-checks."""

from .model import (
    SPEED_OF_LIGHT_M_PER_S,
    SpectralPoint,
    bandwidth_frequency_to_wavelength,
    bandwidth_wavelength_to_frequency,
    frequency_to_wavelength,
    wavelength_to_frequency,
)
from .source import (
    EmissionRates,
    PhaseMatchModel,
    PumpSpec,
    SpectralBand,
    jsi_weight,
    pulse_time,
    sample_pulse_range,
)
from .channel import (
    ChannelSpec,
    DispersionModel,
    GratingSpec,
    Target,
    angular_dispersion,
    diffraction_angle,
    dispersed_arrival,
)
from .detect import DetectorSpec, TagStream, detect_channel, merge_streams, read_tags, write_tags
from .analysis import (
    CalibrationMap,
    FoldedEvents,
    Histogram2D,
    build_jti,
    calibrate_time_to_wavelength,
    car_per_herald_bin,
    direction_resolution_deg,
    distance_resolution_cm,
    fit_gaussian_peak,
    fold_to_pulse_frame,
    randomness_report,
    reconstruct_targets,
)
from .theory import (
    FisherParams,
    RateParams,
    car_closed_form,
    detection_probabilities,
    esnr_closed_form,
    fisher_enhancement,
    fisher_information_classical,
    fisher_information_quantum,
    fisher_numeric_oracle,
    snr_closed_form,
)
from .scenario import ScenarioConfig, ScenarioError, load_scenario, save_scenario
from .pipeline import analyze, simulate, sweep

__version__ = "0.1.0"
