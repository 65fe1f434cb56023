"""Physical constants, tick-based time handling, and spectral/radiometric conversions.

All internal event times are integer picosecond ticks (64-bit). Physical
quantities (seconds, meters, hertz, watts) are plain floats and convert to
ticks only at module boundaries. A signed 64-bit tick count spans about
+/- 9.2e6 seconds, comfortably beyond any scenario this toolkit handles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 2019 SI exact definitions
SPEED_OF_LIGHT = 299_792_458.0  # m/s
PLANCK_CONSTANT = 6.626_070_15e-34  # J*s

TICKS_PER_SECOND = 10**12  # 1 tick = 1 ps
_TICK_MIN = -(2**63)
_TICK_MAX = 2**63 - 1


class UserError(Exception):
    """Root of every input fault; the command line reports it without a traceback (exit 1)."""


class DomainError(UserError, ValueError):
    """Argument outside the physical domain of an operation."""


class TickOverflowError(UserError, OverflowError):
    """Tick arithmetic left the signed 64-bit range."""


def seconds_to_ticks(t_s: float) -> int:
    """Convert seconds to the nearest integer picosecond tick."""
    ticks = t_s * TICKS_PER_SECOND
    if not _TICK_MIN <= ticks <= _TICK_MAX:  # also false for NaN
        raise TickOverflowError(f"{t_s} s does not fit in 64-bit picosecond ticks")
    return int(round(ticks))


def nonnegative(name: str, value: float, limit: float = math.inf) -> float:
    """``value`` if 0 <= value < limit, else a DomainError naming the field."""
    if not 0.0 <= value < limit:  # also true for NaN
        raise DomainError(f"{name} must be in [0, {limit:g}), got {value}")
    return value


@dataclass(frozen=True)
class Medium:
    """Propagation medium, reduced to a single scalar refractive index."""

    refractive_index: float = 1.0

    def __post_init__(self):
        if not self.refractive_index >= 1.0:  # also true for NaN
            raise DomainError(f"refractive index must be >= 1, got {self.refractive_index}")


VACUUM = Medium(1.0)


def coherence_time_from_linewidth(linewidth_hz: float) -> float:
    """Coherence time in seconds for an optical linewidth in hertz."""
    if linewidth_hz <= 0:
        raise DomainError(f"linewidth must be positive, got {linewidth_hz}")
    return 1.0 / linewidth_hz


def linewidth_from_wavelength_spread(wavelength_m: float, wavelength_spread_m: float) -> float:
    """Frequency linewidth c*dlambda/lambda^2 in hertz."""
    if wavelength_m <= 0:
        raise DomainError(f"wavelength must be positive, got {wavelength_m}")
    nonnegative("wavelength_spread_m", wavelength_spread_m)
    return SPEED_OF_LIGHT * wavelength_spread_m / wavelength_m**2


def photon_rate_from_power(power_w: float, wavelength_m: float) -> float:
    """Photon flux P*lambda/(h*c) in events per second."""
    if wavelength_m <= 0:
        raise DomainError(f"wavelength must be positive, got {wavelength_m}")
    nonnegative("power_w", power_w)
    return power_w * wavelength_m / (PLANCK_CONSTANT * SPEED_OF_LIGHT)


def range_from_delay(delay_s: float, medium: Medium = VACUUM) -> float:
    """One-way target distance in meters for a round-trip delay in seconds.

    Negative delays are allowed and return negative ranges for diagnostics.
    """
    return SPEED_OF_LIGHT / (2.0 * medium.refractive_index) * delay_s


def delay_from_range(distance_m: float, medium: Medium = VACUUM) -> float:
    """Round-trip delay 2*d*n/c in seconds for a one-way distance in meters."""
    return 2.0 * distance_m * medium.refractive_index / SPEED_OF_LIGHT


def g2_model(tau_s, baseline: float, amplitude: float, delay_s: float, coherence_time_s: float):
    """Displaced bunching peak: B + A * exp(-2|tau - tau0| / tau_c).

    Accepts a scalar or array ``tau_s``; returns the matching shape.
    """
    if coherence_time_s <= 0:
        raise DomainError(f"coherence time must be positive, got {coherence_time_s}")
    nonnegative("amplitude", amplitude)
    tau = np.asarray(tau_s, dtype=np.float64)
    value = baseline + amplitude * np.exp(-2.0 * np.abs(tau - delay_s) / coherence_time_s)
    return float(value) if np.ndim(tau_s) == 0 else value


@dataclass(frozen=True, kw_only=True)
class SourceSpec:
    """Narrowband thermal source parameters.

    ``coherence_time_s`` is required; ``coherence_time_from_linewidth``
    converts a linewidth to it. ``wavelength_m`` is descriptive (the
    simulation does not read it) and may be omitted.
    """

    wavelength_m: float | None = None
    photon_rate_hz: float
    coherence_time_s: float

    def __post_init__(self):
        if self.wavelength_m is not None and not 0.0 < self.wavelength_m < math.inf:
            raise DomainError(f"wavelength_m must be finite and positive, got {self.wavelength_m}")
        nonnegative("photon_rate_hz", self.photon_rate_hz)
        if not 0.0 < self.coherence_time_s < math.inf:  # also true for NaN
            raise DomainError(
                f"coherence_time_s must be finite and positive, got {self.coherence_time_s}"
            )
