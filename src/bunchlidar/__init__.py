"""Photon-bunching lidar toolkit.

Simulates photon-detection timestamp streams from a narrowband thermal
source, computes second-order correlation histograms at high throughput, and
fits the bunching peak for time-of-flight ranging and SNR analysis.
"""

from .quantities import (
    Medium,
    SourceSpec,
    SPEED_OF_LIGHT,
    PLANCK_CONSTANT,
    coherence_time_from_linewidth,
    delay_from_range,
    g2_model,
    linewidth_from_wavelength_spread,
    photon_rate_from_power,
    range_from_delay,
)
from .photonsim import (
    DetectorSpec,
    EventStream,
    ScenarioConfig,
    simulate_ranging_scenario,
)
from .correlator import (
    CorrelationConfig,
    CorrelationHistogram,
    cross_correlate,
    cross_correlate_bruteforce,
    normalize_g2,
)
from .estimator import (
    FitResult,
    SnrReport,
    bin_attenuation,
    estimate_range,
    fit_g2,
    initial_guess,
    snr_measure,
    snr_predict,
)
from . import tagio

__version__ = "0.1.0"
