"""Synthetic photon-detection timestamp streams for thermal-light ranging.

The latent source model is a single-mode chaotic field: two independent
stationary Gauss-Markov quadratures x, y with autocorrelation exp(-|tau|/tau_c),
giving a normalized intensity I = (x^2 + y^2)/2 with unit mean and intensity
autocorrelation 1 + exp(-2|tau|/tau_c). Detection is doubly stochastic Poisson
sampling of that intensity, followed by a detector imperfection pipeline
(background, dead time, jitter).

`simulate_ranging_scenario` is the one sampling path. It never materializes
the intensity trace: it draws one time-ordered stream of rate-capped
candidate events for all channels (the beamsplitter, path and efficiency
losses are folded into each channel's rate), propagates the quadratures
exactly from one candidate time to the next, keeps each candidate with
probability I/cap at its own time, routes the kept events to the channels
by rate share, and delays the probe channel by the round-trip time. The
field is sampled only where candidates fall, so second-scale acquisitions
with nanosecond (or picosecond) coherence times stay practical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantities import (
    Medium,
    SourceSpec,
    TICKS_PER_SECOND,
    VACUUM,
    delay_from_range,
    seconds_to_ticks,
    shift_ticks,
)

# FWHM of a Gaussian = 2*sqrt(2*ln 2) * sigma
_FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

# Lags beyond this many coherence times carry correlation exp(-37) ~ 8.5e-17,
# below double-precision resolution of an O(1) state: the chain restarts fresh.
_RESTART_LAG = 37.0

# Candidate-rate multiple for the capped thinning sampler. Intensity is unit-mean
# exponential, so the fraction of true events above the cap is (1+cap)*exp(-cap):
# 8e-5 at cap 12, far below every statistical tolerance in the test suite.
DEFAULT_INTENSITY_CAP = 12.0

_CANDIDATE_BLOCK = 4_000_000  # candidates per processing block (memory bound)


class ConfigurationError(ValueError):
    """Simulation configuration violates a precondition."""


@dataclass(frozen=True)
class EventStream:
    """Sorted photon-detection timestamps for one channel, in picosecond ticks."""

    channel: int
    times: np.ndarray  # int64 ticks, nondecreasing, within [0, duration]
    duration_s: float

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=np.int64)
        object.__setattr__(self, "times", times)
        if self.duration_s < 0:
            raise ConfigurationError(f"duration must be non-negative, got {self.duration_s}")
        if times.size:
            if np.any(np.diff(times) < 0):
                raise ConfigurationError("event times must be nondecreasing")
            if times[0] < 0 or times[-1] > seconds_to_ticks(self.duration_s):
                raise ConfigurationError("event times must lie within [0, duration]")

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def duration_ticks(self) -> int:
        return seconds_to_ticks(self.duration_s)


@dataclass(frozen=True)
class DetectorSpec:
    """Detection-chain imperfections for a single-photon detector."""

    efficiency: float = 0.5
    jitter_fwhm_s: float = 40e-12
    dead_time_s: float = 50e-9
    dark_rate_hz: float = 100.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigurationError(f"efficiency must be in [0,1], got {self.efficiency}")
        for name in ("jitter_fwhm_s", "dead_time_s", "dark_rate_hz"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


IDEAL_DETECTOR = DetectorSpec(efficiency=1.0, jitter_fwhm_s=0.0, dead_time_s=0.0, dark_rate_hz=0.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full two-detector ranging scenario.

    ``split_probe``/``split_ref`` are the beamsplitter routing fractions; the
    probe arm is additionally attenuated by ``probe_round_trip_transmission``
    and delayed by the round-trip time 2*d*n/c. Ambient rates are homogeneous
    Poisson backgrounds per channel, uncorrelated with the source field.
    """

    source: SourceSpec
    duration_s: float
    seed: int
    distance_m: float = 0.0
    medium: Medium = VACUUM
    split_probe: float = 0.92
    split_ref: float = 0.04
    probe_round_trip_transmission: float = 1.0
    ambient_rate_probe_hz: float = 0.0
    ambient_rate_ref_hz: float = 0.0
    detector_ref: DetectorSpec = IDEAL_DETECTOR
    detector_probe: DetectorSpec = IDEAL_DETECTOR
    intensity_cap: float = DEFAULT_INTENSITY_CAP

    def __post_init__(self):
        for name in ("split_probe", "split_ref", "probe_round_trip_transmission"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0,1], got {value}")
        if self.split_probe + self.split_ref > 1.0 + 1e-12:
            raise ConfigurationError("split fractions must sum to at most 1")
        if self.duration_s < 0:
            raise ConfigurationError("duration must be non-negative")
        if self.distance_m < 0:
            raise ConfigurationError("distance must be non-negative")
        if self.ambient_rate_probe_hz < 0 or self.ambient_rate_ref_hz < 0:
            raise ConfigurationError("ambient rates must be non-negative")
        if self.intensity_cap < 4.0:
            raise ConfigurationError("intensity cap below 4 visibly distorts bunching")


_SCAN_COLUMNS = 64


def _affine_scan(gain: np.ndarray, offset_x: np.ndarray, offset_y: np.ndarray):
    """Inclusive scan over affine maps x -> gain*x + offset, two offset tracks.

    In place; small inputs only (used for the row-level stitch below). Gains
    below the restart threshold flush to zero, which keeps long products out
    of (slow) subnormal arithmetic.
    """
    shift = 1
    n = gain.size
    flush = math.exp(-_RESTART_LAG)
    while shift < n:
        g_lo = gain[:-shift].copy()
        x_lo = offset_x[:-shift].copy()
        y_lo = offset_y[:-shift].copy()
        offset_x[shift:] += gain[shift:] * x_lo
        offset_y[shift:] += gain[shift:] * y_lo
        gain[shift:] *= g_lo
        gain[gain < flush] = 0.0
        shift *= 2


def _gauss_markov_scan_pair(
    lags: np.ndarray,
    noise_x: np.ndarray,
    noise_y: np.ndarray,
    carry_x: float,
    carry_y: float,
):
    """Sample two stationary unit-variance Gauss-Markov chains at shared lags.

    ``lags[i]`` is the time since sample i-1 in units of the correlation time;
    ``lags[0]`` is measured from the carried-in state (pass ``np.inf`` to start
    from the stationary distribution). Each step applies the exact update
    x_i = a*x_{i-1} + sqrt(1-a^2)*noise_i with a = exp(-lags[i]).

    Vectorized as a blocked scan: a sequential sweep across 64 columns handles
    rows of 64 consecutive steps in parallel, and an affine scan stitches the
    row boundary states, so total work is ~4 multiply-adds per sample.
    """
    n = lags.size
    if n == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty.copy()
    cols = _SCAN_COLUMNS
    rows = -(-n // cols)
    pad = rows * cols - n
    if pad:
        lags = np.concatenate([lags, np.full(pad, np.inf)])
        noise_x = np.concatenate([noise_x, np.zeros(pad)])
        noise_y = np.concatenate([noise_y, np.zeros(pad)])
    a = np.exp(-lags)
    a[lags >= _RESTART_LAG] = 0.0
    scale = np.sqrt(-np.expm1(-2.0 * lags))
    wx = scale * noise_x
    wy = scale * noise_y
    # within-chunk decay products in log space, flushed to zero past the
    # restart threshold: never touches subnormal arithmetic
    decay = np.cumsum(lags.reshape(rows, cols), axis=1)
    # transposed (cols, rows) layout keeps the per-column recursion contiguous
    a = np.ascontiguousarray(a.reshape(rows, cols).T)
    x = np.ascontiguousarray(wx.reshape(rows, cols).T)
    y = np.ascontiguousarray(wy.reshape(rows, cols).T)
    decay = np.ascontiguousarray(decay.T)
    prefix = np.exp(-decay)
    prefix[decay > _RESTART_LAG] = 0.0
    tmp = np.empty(rows)
    for k in range(1, cols):
        ak = a[k]
        np.multiply(ak, x[k - 1], out=tmp)
        x[k] += tmp
        np.multiply(ak, y[k - 1], out=tmp)
        y[k] += tmp
    # stitch rows: entry state of chunk r is the composed map of chunks 0..r-1
    # applied to the carry
    gain = prefix[-1].copy()
    end_x = x[-1].copy()
    end_y = y[-1].copy()
    _affine_scan(gain, end_x, end_y)
    entry_x = np.empty(rows)
    entry_y = np.empty(rows)
    entry_x[0] = carry_x
    entry_y[0] = carry_y
    entry_x[1:] = gain[:-1] * carry_x + end_x[:-1]
    entry_y[1:] = gain[:-1] * carry_y + end_y[:-1]
    x += prefix * entry_x[None, :]
    y += prefix * entry_y[None, :]
    return x.T.reshape(-1)[:n], y.T.reshape(-1)[:n]


def dead_time_filter(times: np.ndarray, dead_ticks: int) -> np.ndarray:
    """Non-paralyzable dead time: drop events within dead_ticks of the last kept one.

    Iterative fixpoint: each pass drops the first too-close event of every run,
    whose predecessor is provably kept; converges to the sequential-scan result.
    """
    if dead_ticks <= 0 or times.size == 0:
        return times
    kept = times
    while True:
        close = np.empty(kept.size, dtype=bool)
        close[0] = False
        np.less(np.diff(kept), dead_ticks, out=close[1:])
        if not close.any():
            return kept
        first_of_run = close & ~np.concatenate(([False], close[:-1]))
        kept = kept[~first_of_run]


def dead_time_filter_sequential(times: np.ndarray, dead_ticks: int) -> np.ndarray:
    """Reference event-by-event dead-time scan (test oracle for the vectorized filter)."""
    if dead_ticks <= 0 or times.size == 0:
        return times
    out = []
    last = None
    for t in times.tolist():
        if last is None or t - last >= dead_ticks:
            out.append(t)
            last = t
    return np.asarray(out, dtype=np.int64)


def _detector_noise(
    times: np.ndarray,
    spec: DetectorSpec,
    ambient_rate_hz: float,
    duration_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Background merge, dead time, jitter, and clipping (everything after thinning)."""
    duration_ticks = seconds_to_ticks(duration_s)
    background_rate = ambient_rate_hz + spec.dark_rate_hz
    if background_rate > 0 and duration_ticks > 0:
        n_background = rng.poisson(background_rate * duration_s)
        background = rng.integers(0, duration_ticks, size=n_background, dtype=np.int64)
        times = np.concatenate([times, background])
        times.sort(kind="stable")
    dead_ticks = seconds_to_ticks(spec.dead_time_s)
    times = dead_time_filter(times, dead_ticks)
    if spec.jitter_fwhm_s > 0 and times.size:
        sigma_ticks = spec.jitter_fwhm_s * TICKS_PER_SECOND / _FWHM_PER_SIGMA
        times = times + np.rint(sigma_ticks * rng.standard_normal(times.size)).astype(np.int64)
        times.sort(kind="stable")
    if times.size:
        times = times[(times >= 0) & (times <= duration_ticks)]
    return times


def _sample_cox_channels(
    rates_hz,
    coherence_time_s: float,
    duration_ticks: int,
    cap: float,
    rng_candidates: np.random.Generator,
    rng_field: np.random.Generator,
    rng_accept: np.random.Generator,
) -> list[np.ndarray]:
    """Sample per-channel doubly stochastic streams sharing one latent field.

    Conditioned on the intensity path, the channels are independent Poisson
    processes with the per-channel rates, i.e. one Poisson process at the
    summed rate whose events are routed to channel i with probability
    rate_i/sum(rates). That merged stream is sampled by thinning (Lewis &
    Shedler): candidates arrive homogeneously at cap*sum(rates) on integer
    ticks, drawn and sorted per block, the quadratures are propagated with
    the exact Gauss-Markov update to each candidate's own time (Gillespie),
    and a candidate is kept with probability I(t)/cap, which is exact for
    intensities below the cap. Kept events are then routed by rate share.
    """
    n_channels = len(rates_hz)
    total_rate = sum(rates_hz)
    if duration_ticks <= 0 or total_rate <= 0:
        return [np.empty(0, dtype=np.int64) for _ in range(n_channels)]
    tau_c_ticks = coherence_time_s * TICKS_PER_SECOND
    # a uniform u routes to the number of bounds at or below it
    bounds = np.cumsum(rates_hz)[:-1] / total_rate
    expected = cap * total_rate * duration_ticks / TICKS_PER_SECOND
    n_blocks = max(1, math.ceil(expected / _CANDIDATE_BLOCK))
    block_ticks = -(-duration_ticks // n_blocks)  # ceil division
    accepted: list[list[np.ndarray]] = [[] for _ in range(n_channels)]
    carry_x = carry_y = 0.0
    carry_time = None
    for lo in range(0, duration_ticks, block_ticks):
        hi = min(lo + block_ticks, duration_ticks)
        n = rng_candidates.poisson(cap * total_rate * (hi - lo) / TICKS_PER_SECOND)
        if n == 0:
            continue
        times = np.sort(rng_candidates.integers(lo, hi, size=n, dtype=np.int64))
        lags = np.empty(n, dtype=np.float64)
        lags[0] = np.inf if carry_time is None else (times[0] - carry_time) / tau_c_ticks
        np.divide(np.diff(times), tau_c_ticks, out=lags[1:])
        x, y = _gauss_markov_scan_pair(
            lags, rng_field.standard_normal(n), rng_field.standard_normal(n), carry_x, carry_y
        )
        carry_x, carry_y, carry_time = x[-1], y[-1], int(times[-1])
        kept = times[rng_accept.random(n) * cap < 0.5 * (x * x + y * y)]
        channels = np.searchsorted(bounds, rng_candidates.random(kept.size), side="right")
        for ch in range(n_channels):
            accepted[ch].append(kept[channels == ch])
    # block-local sorted segments concatenate into globally sorted streams
    return [
        np.concatenate(parts) if parts else np.empty(0, dtype=np.int64) for parts in accepted
    ]


def simulate_ranging_scenario(config: ScenarioConfig):
    """Simulate the full two-detector ranging experiment.

    Pipeline: shared chaotic field -> per-channel doubly stochastic signal
    streams at the effective detected rates (source rate x split x path
    transmission x quantum efficiency) -> probe delayed by 2*d*n/c ->
    per-channel background, dead time, and jitter.

    Returns (reference stream, probe stream, truth record). The truth record
    holds every ground-truth parameter needed to check recovered quantities.
    """
    src = config.source
    duration_ticks = seconds_to_ticks(config.duration_s)
    delay_s = delay_from_range(config.distance_m, config.medium)
    delay_ticks = seconds_to_ticks(delay_s)

    rate_ref = src.photon_rate_hz * config.split_ref * config.detector_ref.efficiency
    rate_probe = (
        src.photon_rate_hz
        * config.split_probe
        * config.probe_round_trip_transmission
        * config.detector_probe.efficiency
    )

    root = np.random.SeedSequence(config.seed)
    seeds = root.spawn(5)
    signal_ref, signal_probe = _sample_cox_channels(
        [rate_ref, rate_probe],
        src.coherence_time_s,
        duration_ticks,
        config.intensity_cap,
        rng_candidates=np.random.default_rng(seeds[0]),
        rng_field=np.random.default_rng(seeds[1]),
        rng_accept=np.random.default_rng(seeds[2]),
    )
    signal_probe = shift_ticks(signal_probe, delay_ticks)

    ref_times = _detector_noise(
        signal_ref,
        config.detector_ref,
        config.ambient_rate_ref_hz,
        config.duration_s,
        np.random.default_rng(seeds[3]),
    )
    probe_times = _detector_noise(
        signal_probe,
        config.detector_probe,
        config.ambient_rate_probe_hz,
        config.duration_s,
        np.random.default_rng(seeds[4]),
    )
    reference = EventStream(channel=0, times=ref_times, duration_s=config.duration_s)
    probe = EventStream(channel=1, times=probe_times, duration_s=config.duration_s)

    bg_ref = config.ambient_rate_ref_hz + config.detector_ref.dark_rate_hz
    bg_probe = config.ambient_rate_probe_hz + config.detector_probe.dark_rate_hz
    frac_ref = rate_ref / (rate_ref + bg_ref) if rate_ref + bg_ref > 0 else 0.0
    frac_probe = rate_probe / (rate_probe + bg_probe) if rate_probe + bg_probe > 0 else 0.0
    truth = {
        "seed": config.seed,
        "duration_s": config.duration_s,
        "coherence_time_s": src.coherence_time_s,
        "intensity_cap": config.intensity_cap,
        "distance_m": config.distance_m,
        "refractive_index": config.medium.refractive_index,
        "delay_s": delay_s,
        "delay_ticks": delay_ticks,
        "signal_rate_reference_hz": rate_ref,
        "signal_rate_probe_hz": rate_probe,
        "background_rate_reference_hz": bg_ref,
        "background_rate_probe_hz": bg_probe,
        "reference_signal_fraction": frac_ref,
        "probe_signal_fraction": frac_probe,
        "expected_amplitude": frac_ref * frac_probe,
    }
    return reference, probe, truth
