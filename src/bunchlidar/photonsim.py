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
with nanosecond (or picosecond) coherence times stay practical. The sampler
shares each block's work with one helper thread; the streams it returns do
not depend on that (see `_gauss_markov_scan_pair`).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .quantities import (
    Medium,
    SourceSpec,
    TICKS_PER_SECOND,
    VACUUM,
    _TICK_MAX,
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
    """Sorted photon-detection timestamps for one channel, in picosecond ticks.

    The one owner of the stream invariants, kept for its lifetime by a
    read-only ``times`` view (the caller's array stays writable). Without
    ``duration_s`` the duration is the last event time, exact in ticks.
    """

    channel: int
    times: np.ndarray  # int64 ticks, nondecreasing, within [0, duration_ticks]
    duration_s: float | None = None
    duration_ticks: int = field(init=False)

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=np.int64).view()
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        if self.duration_s is None:
            duration_ticks = int(times[-1]) if times.size else 0
            object.__setattr__(self, "duration_s", duration_ticks / TICKS_PER_SECOND)
        elif self.duration_s < 0:
            raise ConfigurationError(f"duration must be non-negative, got {self.duration_s}")
        else:
            duration_ticks = seconds_to_ticks(self.duration_s)
        object.__setattr__(self, "duration_ticks", duration_ticks)
        if times.size:
            if np.any(times[1:] < times[:-1]):
                raise ConfigurationError("event times must be nondecreasing")
            if times[0] < 0 or times[-1] > duration_ticks:
                raise ConfigurationError("event times must lie within [0, duration]")

    def __len__(self) -> int:
        return int(self.times.size)


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
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if self.distance_m < 0:
            raise ConfigurationError("distance must be non-negative")
        if self.ambient_rate_probe_hz < 0 or self.ambient_rate_ref_hz < 0:
            raise ConfigurationError("ambient rates must be non-negative")
        if self.intensity_cap < 4.0:
            raise ConfigurationError("intensity cap below 4 visibly distorts bunching")


_SCAN_COLUMNS = 64

# Rows of _SCAN_COLUMNS candidates per scan tile: a tile's transposed work
# arrays stay in a core's cache while the row recursion sweeps them.
_TILE_ROWS = 1024


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


class _TileScratch:
    """One thread's cache-sized scratch arrays for a tile of the scan."""

    def __init__(self, tile_rows: int):
        size = tile_rows * _SCAN_COLUMNS
        self.lags = np.empty(size)
        self.a = np.empty(size)
        self.tmp = np.empty(size)
        self.mask = np.empty(size, dtype=bool)
        self.xy = np.empty(2 * size)
        self.step = np.empty(2 * tile_rows)


class _BlockWork:
    """Work buffers of one candidate block and the one helper thread.

    A sampler call opens one of these and reuses it for every block: the
    block-sized buffers grow when a block needs more room and are never
    allocated again otherwise. ``x``/``y`` take the noise in and the chains
    out, ``u`` the acceptance uniforms, ``keep`` the thinning verdicts.
    The helper thread is shut down (joined) when the ``with`` block exits.
    """

    def __init__(self):
        self.tile_rows = _TILE_ROWS
        self.capacity = 0
        self._scratch = (_TileScratch(self.tile_rows), _TileScratch(self.tile_rows))
        self.helper = ThreadPoolExecutor(max_workers=1)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.helper.shutdown(wait=True)

    def reserve(self, n: int) -> None:
        """Make room for a block of ``n`` samples padded to whole rows."""
        size = -(-n // _SCAN_COLUMNS) * _SCAN_COLUMNS
        if size <= self.capacity:
            return
        # grow geometrically: Poisson block sizes set a new maximum now and then
        size = max(size, self.capacity + self.capacity // 8)
        self.capacity = size
        rows = size // _SCAN_COLUMNS
        self.lags, self.x, self.y, self.u, self.prefix = (np.empty(size) for _ in range(5))
        self.keep = np.empty(size, dtype=bool)
        self.gain, self.end_x, self.end_y, self.entry_x, self.entry_y = (
            np.empty(rows) for _ in range(5)
        )

    def each_tile(self, rows: int, fn, *args) -> None:
        """Run ``fn(self, scratch, r0, r1, *args)`` over the tiles of ``rows``.

        This thread takes the first half of the tiles, the helper the rest;
        each writes only its own rows, with its own scratch.
        """
        starts = range(0, rows, self.tile_rows)
        cut = (len(starts) + 1) // 2

        def run(part, scratch):
            for r0 in part:
                fn(self, scratch, r0, min(r0 + self.tile_rows, rows), *args)

        helped = None
        if cut < len(starts):
            helped = self.helper.submit(run, starts[cut:], self._scratch[1])
        try:
            run(starts[:cut], self._scratch[0])
        finally:
            if helped is not None:
                helped.result()


def _scan_tile_rows(work: _BlockWork, scratch: _TileScratch, r0: int, r1: int) -> None:
    """Pass 1 on rows r0..r1: row-local chains, decay prefixes, row-end states."""
    cols = _SCAN_COLUMNS
    t = r1 - r0
    span = slice(r0 * cols, r1 * cols)
    lags = work.lags[span].reshape(t, cols)
    # transposed (cols, t) copies keep each column's step contiguous; x and y
    # are interleaved so one multiply-add per column serves both chains
    lags_t = scratch.lags[: cols * t].reshape(cols, t)
    a = scratch.a[: cols * t].reshape(cols, t)
    scale = scratch.tmp[: cols * t].reshape(cols, t)
    mask = scratch.mask[: cols * t].reshape(cols, t)
    xy = scratch.xy[: 2 * cols * t].reshape(cols, 2, t)
    np.copyto(lags_t, lags.T)
    np.negative(lags_t, out=a)
    np.exp(a, out=a)
    np.greater_equal(lags_t, _RESTART_LAG, out=mask)
    a[mask] = 0.0
    np.multiply(lags_t, -2.0, out=scale)
    np.expm1(scale, out=scale)
    np.negative(scale, out=scale)
    np.sqrt(scale, out=scale)
    noise_x = work.x[span].reshape(t, cols)
    noise_y = work.y[span].reshape(t, cols)
    np.copyto(xy[:, 0], noise_x.T)
    np.copyto(xy[:, 1], noise_y.T)
    xy *= scale[:, None, :]
    # within-row decay products in log space, flushed to zero past the
    # restart threshold: never touches subnormal arithmetic
    decay = scratch.tmp[: t * cols].reshape(t, cols)
    mask = scratch.mask[: t * cols].reshape(t, cols)
    prefix = work.prefix[span].reshape(t, cols)
    np.cumsum(lags, axis=1, out=decay)
    np.negative(decay, out=prefix)
    np.exp(prefix, out=prefix)
    np.greater(decay, _RESTART_LAG, out=mask)
    prefix[mask] = 0.0
    step = scratch.step[: 2 * t].reshape(2, t)
    for k in range(1, cols):
        np.multiply(a[k], xy[k - 1], out=step)
        xy[k] += step
    np.copyto(noise_x, xy[:, 0].T)
    np.copyto(noise_y, xy[:, 1].T)
    work.gain[r0:r1] = prefix[:, -1]
    work.end_x[r0:r1] = xy[-1, 0]
    work.end_y[r0:r1] = xy[-1, 1]


def _finish_tile_rows(
    work: _BlockWork, scratch: _TileScratch, r0: int, r1: int, cap: float
) -> None:
    """Pass 2 on rows r0..r1: add each row's entry state, then thin at u*cap < I."""
    cols = _SCAN_COLUMNS
    t = r1 - r0
    span = slice(r0 * cols, r1 * cols)
    x = work.x[span].reshape(t, cols)
    y = work.y[span].reshape(t, cols)
    prefix = work.prefix[span].reshape(t, cols)
    tmp = scratch.tmp[: t * cols].reshape(t, cols)
    y_squared = scratch.lags[: t * cols].reshape(t, cols)
    np.multiply(prefix, work.entry_x[r0:r1, None], out=tmp)
    x += tmp
    np.multiply(prefix, work.entry_y[r0:r1, None], out=tmp)
    y += tmp
    intensity = tmp
    np.multiply(x, x, out=intensity)
    np.multiply(y, y, out=y_squared)
    intensity += y_squared
    intensity *= 0.5
    u = work.u[span].reshape(t, cols)
    u *= cap
    np.less(u, intensity, out=work.keep[span].reshape(t, cols))


def _gauss_markov_scan_pair(work: _BlockWork, n: int, carry_x: float, carry_y: float, cap: float):
    """Sample two stationary unit-variance Gauss-Markov chains at shared lags.

    On entry ``work.lags[:n]`` holds the lags, ``work.x[:n]``/``work.y[:n]``
    standard normal noise and ``work.u[:n]`` uniforms (n >= 1, reserved).
    ``lags[i]`` is the time since sample i-1 in units of the correlation time;
    ``lags[0]`` is measured from the carried-in state (pass ``np.inf`` to start
    from the stationary distribution). Each step applies the exact update
    x_i = a*x_{i-1} + sqrt(1-a^2)*noise_i with a = exp(-lags[i]). On return
    ``work.x[:n]``/``work.y[:n]`` hold the chains and ``work.keep[:n]`` the
    thinning verdicts u*cap < (x^2 + y^2)/2; the returned views are
    overwritten by the next call.

    Vectorized as a blocked scan over rows of 64 consecutive samples, so
    total work is ~4 multiply-adds per sample. The rows are cut into tiles of
    ``_TILE_ROWS``. Pass 1 runs per tile: a sequential sweep across the 64
    columns of a transposed copy of the tile solves every row from a zero
    entry state, and the tile records each row's end state and its decay
    product. The affine scan then stitches the row-end states of the whole
    block into each row's entry state, and pass 2 runs per tile again,
    adding prefix*entry and thinning. The tiles of each pass are split
    between this thread and the helper; they write disjoint rows, and every
    element goes through the same operations in the same order whichever
    thread or tile computes it, so the output does not depend on the
    scheduling or the thread count. The transcendental ufuncs (exp, expm1,
    sqrt) see only C-contiguous arrays, as in the full-block scan this
    replaced, so each element takes the same vector loop as before.
    """
    cols = _SCAN_COLUMNS
    rows = -(-n // cols)
    pad = slice(n, rows * cols)
    work.lags[pad] = np.inf
    work.x[pad] = 0.0
    work.y[pad] = 0.0
    work.u[pad] = 0.0
    work.each_tile(rows, _scan_tile_rows)
    # stitch rows: entry state of row r is the composed map of rows 0..r-1
    # applied to the carry
    gain, end_x, end_y = work.gain[:rows], work.end_x[:rows], work.end_y[:rows]
    _affine_scan(gain, end_x, end_y)
    entry_x, entry_y = work.entry_x[:rows], work.entry_y[:rows]
    entry_x[0] = carry_x
    entry_y[0] = carry_y
    entry_x[1:] = gain[:-1] * carry_x + end_x[:-1]
    entry_y[1:] = gain[:-1] * carry_y + end_y[:-1]
    work.each_tile(rows, _finish_tile_rows, cap)
    return work.x[:n], work.y[:n]


def dead_time_filter(times: np.ndarray, dead_ticks: int) -> np.ndarray:
    """Non-paralyzable dead time: drop events within dead_ticks of the last kept one.

    ``times`` are sorted non-negative ticks. The kept events are the orbit of
    event 0 under next(i), the first event at least dead_ticks after event i
    (Mueller, NIM 112, 47 (1973)). The orbit is found by pointer doubling
    (Wyllie list ranking): after k rounds the kept set holds the first 2^k
    orbit steps and the jump table maps each event 2^k steps ahead. As
    next(i) > i, the orbit is complete within log2(n) + 1 rounds: one binary
    search per event plus one table gather per round: O(n log n) time for
    any sorted input, O(n) memory.
    """
    n = times.size
    if dead_ticks <= 0 or n == 0:
        return times
    # t + dead_ticks passes the top of int64 only for events with no event
    # that far after them, so that tail jumps straight to n
    tail = int(np.searchsorted(times, _TICK_MAX - dead_ticks, side="right"))
    jump = np.empty(n + 1, dtype=np.intp)
    jump[:tail] = np.searchsorted(times, times[:tail] + dead_ticks, side="left")
    jump[tail:] = n
    orbit = np.zeros(1, dtype=np.intp)
    while jump[0] != n:
        orbit = np.concatenate((orbit, jump[orbit]))
        jump = jump[jump]
    return times[orbit[orbit < n]]


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


def _draw_field_noise(work: _BlockWork, n: int, rng_field) -> None:
    """Fill a block's field noise (the same draws as two size=n calls)."""
    rng_field.standard_normal(out=work.x[:n])
    rng_field.standard_normal(out=work.y[:n])


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
    with _BlockWork() as work:
        for lo in range(0, duration_ticks, block_ticks):
            hi = min(lo + block_ticks, duration_ticks)
            n = rng_candidates.poisson(cap * total_rate * (hi - lo) / TICKS_PER_SECOND)
            if n == 0:
                continue
            work.reserve(n)
            # the helper draws the field noise meanwhile
            noise = work.helper.submit(_draw_field_noise, work, n, rng_field)
            times = rng_candidates.integers(lo, hi, size=n, dtype=np.int64)
            times.sort()
            lags = work.lags[:n]
            lags[0] = np.inf if carry_time is None else (times[0] - carry_time) / tau_c_ticks
            np.subtract(times[1:], times[:-1], out=lags[1:])
            lags[1:] /= tau_c_ticks
            rng_accept.random(out=work.u[:n])
            noise.result()
            x, y = _gauss_markov_scan_pair(work, n, carry_x, carry_y, cap)
            carry_x, carry_y, carry_time = x[-1], y[-1], int(times[-1])
            kept = times[work.keep[:n]]
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
