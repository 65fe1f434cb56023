"""Synthetic photon-detection timestamp streams for thermal-light ranging.

The latent source model is a single-mode chaotic field: two independent
stationary Gauss-Markov quadratures x, y with autocorrelation exp(-|tau|/tau_c),
giving a normalized intensity I = (x^2 + y^2)/2 with unit mean and intensity
autocorrelation 1 + exp(-2|tau|/tau_c). Detection is doubly stochastic Poisson
sampling of that intensity, followed by a detector imperfection pipeline
(background, dead time, jitter).

`simulate_ranging_scenario` is the one sampling path. It never materializes
the intensity trace: it draws one time-ordered stream of rate-capped
candidate events for both arms (the beamsplitter, path and efficiency
losses are folded into each arm's rate), propagates the quadratures
exactly from one candidate time to the next, keeps each candidate with
probability I/cap at its own time, and routes each kept event to the
reference or, delayed by the round-trip time, to the probe by rate share. The
field is sampled only where candidates fall, so second-scale acquisitions
with nanosecond (or picosecond) coherence times stay practical. The sampler
runs on this thread and one helper; the streams returned do not depend on
that schedule (see `_BlockWork`).
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .quantities import (
    DomainError,
    Medium,
    SourceSpec,
    TICKS_PER_SECOND,
    VACUUM,
    _TICK_MAX,
    delay_from_range,
    nonnegative,
    seconds_to_ticks,
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
# A block spans at least one tick, so a brighter source would break that bound.
_MAX_SOURCE_RATE_HZ = _CANDIDATE_BLOCK * TICKS_PER_SECOND / DEFAULT_INTENSITY_CAP
_POISSON_MAX = 9.2e18  # numpy refuses Poisson means above ~9.22e18


def _field_ticks(name: str, seconds: float) -> int:
    """A non-negative time field in picosecond ticks; each refusal names the field."""
    if seconds < 0:
        raise DomainError(f"{name} must be non-negative, got {seconds}")
    try:
        return seconds_to_ticks(seconds)
    except DomainError as exc:
        raise DomainError(f"{name} = {exc}") from None


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
        times = np.asarray(self.times)
        if times.size and not np.issubdtype(times.dtype, np.integer):
            raise DomainError(f"event times must be integer ticks, got dtype {times.dtype}")
        times = np.ascontiguousarray(times, dtype=np.int64).view()
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        if self.duration_s is None:
            duration_ticks = int(times[-1]) if times.size else 0
            object.__setattr__(self, "duration_s", duration_ticks / TICKS_PER_SECOND)
        else:
            duration_ticks = _field_ticks("duration_s", self.duration_s)
        object.__setattr__(self, "duration_ticks", duration_ticks)
        if times.size:
            if np.any(times[1:] < times[:-1]):
                raise DomainError("event times must be nondecreasing")
            if times[0] < 0 or times[-1] > duration_ticks:
                raise DomainError("event times must lie within [0, duration]")

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class DetectorSpec:
    """Detection-chain imperfections for a single-photon detector (plus the derived
    ``dead_time_ticks``, set at construction and not a field)."""

    efficiency: float = 0.5
    jitter_fwhm_s: float = 40e-12
    dead_time_s: float = 50e-9
    dark_rate_hz: float = 100.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise DomainError(f"efficiency must be in [0,1], got {self.efficiency}")
        _field_ticks("jitter_fwhm_s", self.jitter_fwhm_s)
        object.__setattr__(self, "dead_time_ticks", _field_ticks("dead_time_s", self.dead_time_s))
        nonnegative("dark_rate_hz", self.dark_rate_hz)


IDEAL_DETECTOR = DetectorSpec(efficiency=1.0, jitter_fwhm_s=0.0, dead_time_s=0.0, dark_rate_hz=0.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full two-detector ranging scenario.

    ``split_probe``/``split_ref`` are the beamsplitter routing fractions; the
    probe arm is additionally attenuated by ``probe_round_trip_transmission``
    and delayed by the round-trip time 2*d*n/c. Ambient rates are homogeneous
    Poisson backgrounds per channel, uncorrelated with the source field.
    Construction sets the derived ``duration_ticks`` and ``delay_ticks``,
    whose sum must fit 64-bit ticks.
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

    def __post_init__(self):
        for name in ("split_probe", "split_ref", "probe_round_trip_transmission"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must be in [0,1], got {value}")
        if self.split_probe + self.split_ref > 1.0 + 1e-12:
            raise DomainError("split fractions must sum to at most 1")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "duration_ticks", _field_ticks("duration_s", self.duration_s))
        delay_s = delay_from_range(self.distance_m, self.medium)
        object.__setattr__(self, "delay_ticks", _field_ticks("distance_m's round trip", delay_s))
        if self.duration_ticks + self.delay_ticks > _TICK_MAX:  # the delayed probe's last tick
            raise DomainError("duration_s plus distance_m's round trip does not fit "
                              "in 64-bit picosecond ticks")
        nonnegative("photon_rate_hz", self.source.photon_rate_hz, _MAX_SOURCE_RATE_HZ)
        for side in ("ref", "probe"):
            ambient = nonnegative(f"ambient_rate_{side}_hz", getattr(self, f"ambient_rate_{side}_hz"))
            mean = (ambient + getattr(self, f"detector_{side}").dark_rate_hz) * self.duration_s
            nonnegative(f"(ambient_rate_{side}_hz + dark_rate_hz) * duration_s", mean, _POISSON_MAX)


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
    """One thread's cache-sized scan tile scratch (pass 2: ``xy`` the decay prefixes, ``a`` u)."""

    def __init__(self, tile_rows: int):
        size = tile_rows * _SCAN_COLUMNS
        self.lags = np.empty(size)
        self.a = np.empty(size)
        self.tmp = np.empty(size)
        self.mask = np.empty(size, dtype=bool)
        self.xy = np.empty(2 * size)
        self.step = np.empty(2 * tile_rows)


class _BlockWork:
    """Work buffers of one candidate block, and the sampler's thread schedule.

    A sampler call sizes one of these once, for its blocks' Poisson mean
    plus a fixed headroom, and reuses the buffers for every block; a block
    beyond it grows them to exactly its size, dropping the old ones first.
    ``ticks`` takes the block's sorted candidate times, ``x``/``y`` the
    noise in and the chains out, ``keep`` the thinning verdicts (25 B per
    candidate); a scan adds a view of the block's ``times`` (each pass forms
    a tile's lags from it), its first lag, ticks per coherence time and
    accept-stream state at the block's start.

    The schedule: this thread and one helper, which runs one job at a time
    and so never waits. Its first job is a block's noise fill
    (``draw_noise``), started as soon as the block's count is drawn, so the
    next block's noise is drawn while this thread splits this one by
    channel. Its second is its share of each scan pass's tiles (``run_pass``,
    once the pass's other inputs are written): both threads take tiles from
    one cursor, and only this thread waits, for tiles whose noise is not
    drawn yet. The cursor lock guards only the cursor, the noise frontier
    and the stop flag: no random draw runs under it. A fault on either
    thread stops the pass and surfaces on this thread once both have
    stopped; leaving the ``with`` block joins the helper and drops the buffers.

    Two conditions keep the output independent of the schedule, one core
    included: the threads write disjoint rows, and every element goes
    through the same operations in the same order whichever thread or tile
    computes it; and the transcendental ufuncs (exp, expm1, sqrt) see only
    C-contiguous arrays, so each element takes the same vector loop.
    """

    def __init__(self):
        self.capacity = 0
        self._scratch = (_TileScratch(_TILE_ROWS), _TileScratch(_TILE_ROWS))
        self.helper = ThreadPoolExecutor(max_workers=1)
        self._turn = threading.Condition()
        self._stopped = False
        self._pending = []  # helper jobs not yet waited for

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.helper.shutdown(wait=True)
        self.release()

    def release(self) -> None:
        """Drop the block-sized buffers and the block's candidate times."""
        self.capacity = 0
        self.ticks = self.x = self.y = self.keep = self.times = None
        self.gain = self.end_x = self.end_y = self.entry_x = self.entry_y = None

    def reserve(self, n: int) -> None:
        """Make room for a block of ``n`` samples padded to whole rows."""
        size = -(-n // _SCAN_COLUMNS) * _SCAN_COLUMNS
        if size <= self.capacity:
            return
        self.release()  # the old buffers are gone before the new ones exist
        rows = size // _SCAN_COLUMNS
        self.ticks = np.empty(size, dtype=np.int64)
        self.x, self.y = np.empty(size), np.empty(size)
        self.keep = np.empty(size, dtype=bool)
        self.gain, self.end_x, self.end_y, self.entry_x, self.entry_y = np.empty((5, rows))
        self.capacity = size

    def draw_noise(self, n: int, rng_field) -> None:
        """Start the helper on an n-sample block's noise: x in one fill, then
        y a tile at a time (the same draws as two size=n fills)."""
        self._drawn = 0  # before the submit: the fill may publish tiles before it returns
        self._pending.append(self.helper.submit(self._guarded, self._fill, n, rng_field))

    def _fill(self, n: int, rng_field) -> None:
        rng_field.standard_normal(out=self.x[:n])
        step = _TILE_ROWS * _SCAN_COLUMNS
        for tile, lo in enumerate(range(0, n, step), 1):
            rng_field.standard_normal(out=self.y[lo : min(lo + step, n)])
            with self._turn:
                self._drawn = tile
                self._turn.notify_all()

    def run_pass(self, fn, n: int) -> None:
        """Run a pass of ``fn(self, scratch, r0, r1)`` over the tiles of an
        n-sample block whose inputs other than the noise are written: this
        thread and the helper take tiles from one cursor, each with its own
        scratch. Returns once the helper's jobs are done; raises their fault."""
        self._fn, self._rows = fn, -(-n // _SCAN_COLUMNS)
        self._tiles, self._next = -(-self._rows // _TILE_ROWS), 0
        if not self._pending:
            self._drawn = self._tiles  # no fill pending: the noise is in
        self._pending.append(self.helper.submit(self._guarded, self._run, self._scratch[1]))
        self._guarded(self._run, self._scratch[0])
        while self._pending:
            self._pending.pop(0).result()

    def _guarded(self, job, *args) -> None:
        try:
            job(*args)
        except BaseException:
            with self._turn:  # a fault stops the pass and wakes a waiting thread
                self._stopped = True
                self._turn.notify_all()
            raise

    def _run(self, scratch: _TileScratch) -> None:
        """Take tiles from the cursor as their noise is drawn, until none is left or a stop."""
        while True:
            with self._turn:
                while not self._stopped and self._drawn <= self._next < self._tiles:
                    self._turn.wait()
                if self._stopped or self._next == self._tiles:
                    return
                r0 = self._next * _TILE_ROWS
                r1 = min(r0 + _TILE_ROWS, self._rows)
                self._next += 1
            self._fn(self, scratch, r0, r1)


def _tile_lags(work: _BlockWork, out: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Rows r0..r1's lags as a (rows, columns) view of ``out``; the padded tail's are inf."""
    start, stop = r0 * _SCAN_COLUMNS, r1 * _SCAN_COLUMNS
    lo, hi = max(start, 1), min(stop, work.times.size)
    lags = out[: stop - start]
    np.subtract(work.times[lo:hi], work.times[lo - 1 : hi - 1], out=lags[lo - start : hi - start])
    lags[lo - start : hi - start] /= work.tau_c_ticks
    lags[: lo - start] = work.first_lag
    lags[hi - start :] = np.inf
    return lags.reshape(r1 - r0, _SCAN_COLUMNS)


def _scan_tile_rows(work: _BlockWork, scratch: _TileScratch, r0: int, r1: int) -> None:
    """Pass 1 on rows r0..r1: the lags, row-local chains, row decay products, row-end states."""
    cols = _SCAN_COLUMNS
    t = r1 - r0
    span = slice(r0 * cols, r1 * cols)
    lags = _tile_lags(work, scratch.tmp, r0, r1)
    # transposed (cols, t) copies keep each column's step contiguous (tmp then
    # takes the scale); x and y are interleaved so one multiply-add serves both
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
    # each row's lags summed in column order, as pass 2's cumsum sums them,
    # then its decay product, flushed to zero past the restart threshold
    gain = work.gain[r0:r1]
    np.copyto(gain, lags_t[0])
    step = scratch.step[: 2 * t].reshape(2, t)
    for k in range(1, cols):
        np.multiply(a[k], xy[k - 1], out=step)
        xy[k] += step
        gain += lags_t[k]
    np.copyto(noise_x, xy[:, 0].T)
    np.copyto(noise_y, xy[:, 1].T)
    work.end_x[r0:r1] = xy[-1, 0]
    work.end_y[r0:r1] = xy[-1, 1]
    np.greater(gain, _RESTART_LAG, out=scratch.mask[:t])
    np.negative(gain, out=gain)
    np.exp(gain, out=gain)
    gain[scratch.mask[:t]] = 0.0


def _finish_tile_rows(work: _BlockWork, scratch: _TileScratch, r0: int, r1: int) -> None:
    """Pass 2 on rows r0..r1: the lags' decay prefixes, entry states added, thinning at u*cap < I."""
    cols = _SCAN_COLUMNS
    t = r1 - r0
    span = slice(r0 * cols, r1 * cols)
    x = work.x[span].reshape(t, cols)
    y = work.y[span].reshape(t, cols)
    lags = _tile_lags(work, scratch.lags, r0, r1)
    # within-row decay products in log space, flushed to zero past the
    # restart threshold: never touches subnormal arithmetic
    decay = scratch.tmp[: t * cols].reshape(t, cols)
    mask = scratch.mask[: t * cols].reshape(t, cols)
    prefix = scratch.xy[: t * cols].reshape(t, cols)
    np.cumsum(lags, axis=1, out=decay)
    np.negative(decay, out=prefix)
    np.exp(prefix, out=prefix)
    np.greater(decay, _RESTART_LAG, out=mask)
    prefix[mask] = 0.0
    tmp, y_squared = decay, lags
    np.multiply(prefix, work.entry_x[r0:r1, None], out=tmp)
    x += tmp
    np.multiply(prefix, work.entry_y[r0:r1, None], out=tmp)
    y += tmp
    intensity = tmp
    np.multiply(x, x, out=intensity)
    np.multiply(y, y, out=y_squared)
    intensity += y_squared
    intensity *= 0.5
    # u drawn at the tile's own place in the accept stream (one PCG64 output
    # per double), whichever thread takes the tile; the padded tail keeps none
    bits = np.random.PCG64(0)
    bits.state = work.accept_state
    bits.advance(r0 * cols)
    u = np.random.Generator(bits).random(out=scratch.a[: t * cols]).reshape(t, cols)
    u *= DEFAULT_INTENSITY_CAP
    np.less(u, intensity, out=work.keep[span].reshape(t, cols))


def _gauss_markov_scan_pair(work: _BlockWork, times: np.ndarray, first_lag: float,
                            tau_c_ticks: float, rng_accept, carry_x: float, carry_y: float):
    """Sample two stationary unit-variance Gauss-Markov chains at shared lags.

    ``times`` are a block's n >= 1 sorted int64 candidate ticks (``work``
    reserved for n, its noise fill started). Sample i's lag is
    (times[i] - times[i-1]) / tau_c_ticks coherence times; sample 0's,
    ``first_lag``, is from the carried-in state (``np.inf`` starts from the
    stationary distribution). Each step applies the exact update
    x_i = a*x_{i-1} + sqrt(1-a^2)*noise_i with a = exp(-lag_i). Returns views
    of the chains in ``work.x``/``work.y``, overwritten by the next call,
    with the verdicts u*DEFAULT_INTENSITY_CAP < (x^2 + y^2)/2 in
    ``work.keep[:n]``, u the next n doubles of ``rng_accept`` (a PCG64
    generator) in sample order; ``rng_accept`` is left past them.

    A blocked scan over rows of 64 consecutive samples (~4 multiply-adds per
    sample), cut into tiles of ``_TILE_ROWS`` rows. Pass 1, per tile: the
    tile's lags, a sequential sweep across the 64 columns of a transposed
    copy that solves every row from a zero entry state, and each row's end
    state and decay product. The affine scan stitches the row-end states
    into each row's entry state. Pass 2, per tile: the lags again, their
    decay prefixes, prefix*entry added, then thinning by u drawn from the
    block's start state advanced to the tile's first sample. The passes'
    tiles run on the threads of `_BlockWork`.
    """
    n = times.size
    cols = _SCAN_COLUMNS
    rows = -(-n // cols)
    work.x[n : rows * cols] = work.y[n : rows * cols] = 0.0
    work.times, work.first_lag, work.tau_c_ticks = times, first_lag, tau_c_ticks
    work.run_pass(_scan_tile_rows, n)
    # stitch rows: entry state of row r is the composed map of rows 0..r-1
    # applied to the carry
    gain, end_x, end_y = work.gain[:rows], work.end_x[:rows], work.end_y[:rows]
    _affine_scan(gain, end_x, end_y)
    entry_x, entry_y = work.entry_x[:rows], work.entry_y[:rows]
    entry_x[0], entry_y[0] = carry_x, carry_y
    entry_x[1:] = gain[:-1] * carry_x + end_x[:-1]
    entry_y[1:] = gain[:-1] * carry_y + end_y[:-1]
    work.accept_state = rng_accept.bit_generator.state
    work.run_pass(_finish_tile_rows, n)
    rng_accept.bit_generator.advance(n)  # as n sequential draws would leave it
    work.times = None  # the block's candidate times end with the block
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
    background_mean: float,
    duration_ticks: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Background merge, dead time, jitter, and clipping (everything after thinning);
    ``background_mean`` is the expected count of ambient plus dark events. Jitter
    shifts a copy in place, its offsets drawn a tile at a time (the same draws)."""
    if background_mean > 0 and duration_ticks > 0:
        n_background = rng.poisson(background_mean)
        background = rng.integers(0, duration_ticks, size=n_background, dtype=np.int64)
        times = np.concatenate([times, background])
        times.sort(kind="stable")
    times = dead_time_filter(times, spec.dead_time_ticks)
    if spec.jitter_fwhm_s > 0 and times.size:
        sigma_ticks = spec.jitter_fwhm_s * TICKS_PER_SECOND / _FWHM_PER_SIGMA
        times = times.copy()
        step = _TILE_ROWS * _SCAN_COLUMNS
        for lo in range(0, times.size, step):
            offsets = np.rint(sigma_ticks * rng.standard_normal(min(step, times.size - lo)))
            # an offset of 2**63 ticks or more moves any event out; so does -2**63, which fits int64
            offsets[np.abs(offsets) >= 2.0**63] = -(2.0**63)
            # times are >= 0, so a sum wraps at most once, to below 0: sorted
            # as int64, the events in [0, duration] are one slice
            times[lo : lo + step] += offsets.astype(np.int64)
        times.sort(kind="stable")
    return times[np.searchsorted(times, 0) : np.searchsorted(times, duration_ticks, side="right")]


def _sample_cox_channels(
    rate_ref: float,
    rate_probe: float,
    delay_ticks: int,
    coherence_time_s: float,
    duration_ticks: int,
    rng_candidates: np.random.Generator,
    rng_field: np.random.Generator,
    rng_accept: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the reference and probe streams, sharing one latent field.

    Conditioned on the intensity path, the two arms are independent Poisson
    processes at their rates, i.e. one Poisson process at the summed rate
    whose events go to the probe with probability rate_probe/(rate_ref +
    rate_probe). That merged stream is sampled by thinning (Lewis &
    Shedler): candidates arrive homogeneously at cap*(rate_ref + rate_probe)
    on integer ticks (cap = ``DEFAULT_INTENSITY_CAP``), drawn and sorted per
    block, the quadratures are propagated with the exact Gauss-Markov update
    to each candidate's own time (Gillespie), and a candidate is kept with
    probability I(t)/cap, which is exact for intensities below the cap. A
    kept event whose routing uniform u has u >= rate_ref/(rate_ref +
    rate_probe) goes to the probe, shifted by ``delay_ticks`` (the caller
    makes sure that duration_ticks + delay_ticks fits int64).

    The working set is one block's: a workspace of 25 B per candidate (8 B
    of them its time), sized once per call for the block's Poisson mean plus
    a headroom of 10 standard deviations (a block beyond it grows it to
    exactly its size). The times are drawn into it a tile's worth at a time
    (the same draws as one call) and sorted in place, so no block-sized
    array is made per block. The workspace is dropped before the per-arm
    join. Per block, ``rng_candidates`` gives poisson, integers, routing;
    ``rng_field`` the noise (schedule: `_BlockWork`); ``rng_accept`` one
    uniform per candidate in time order, drawn by the scan's pass-2 tiles.
    """
    total_rate = rate_ref + rate_probe
    if duration_ticks <= 0 or total_rate <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    tau_c_ticks = coherence_time_s * TICKS_PER_SECOND
    ref_share = rate_ref / total_rate
    candidate_rate = DEFAULT_INTENSITY_CAP * total_rate
    expected = candidate_rate * duration_ticks / TICKS_PER_SECOND
    n_blocks = max(1, math.ceil(expected / _CANDIDATE_BLOCK))
    block_ticks = -(-duration_ticks // n_blocks)  # ceil division
    block_mean = candidate_rate * block_ticks / TICKS_PER_SECOND
    reference, probe = [], []
    carry_x = carry_y = 0.0
    carry_time = None

    def started_blocks(work):
        """The nonempty blocks, each with its noise started in ``work``."""
        for lo in range(0, duration_ticks, block_ticks):
            hi = min(lo + block_ticks, duration_ticks)
            n = rng_candidates.poisson(candidate_rate * (hi - lo) / TICKS_PER_SECOND)
            if n:
                work.reserve(n)
                work.draw_noise(n, rng_field)
                yield lo, hi, n

    with _BlockWork() as work:
        work.reserve(math.ceil(block_mean + 10 * math.sqrt(block_mean)))
        blocks = started_blocks(work)
        block = next(blocks, None)
        while block is not None:
            lo, hi, n = block
            times = work.ticks[:n]
            step = _TILE_ROWS * _SCAN_COLUMNS
            for start in range(0, n, step):
                times[start : start + step] = rng_candidates.integers(
                    lo, hi, size=min(step, n - start), dtype=np.int64)
            times.sort()
            first_lag = np.inf if carry_time is None else (times[0] - carry_time) / tau_c_ticks
            x, y = _gauss_markov_scan_pair(work, times, first_lag, tau_c_ticks, rng_accept,
                                           carry_x, carry_y)
            carry_x, carry_y, carry_time = x[-1], y[-1], int(times[-1])
            # gather kept before drawing the routing uniforms: the other
            # order left glibc's heap ~29 MB larger at 5e9 photons/s, with
            # the same live data
            kept = times[work.keep[:n]]
            to_probe = rng_candidates.random(kept.size) >= ref_share
            del x, y, times  # views of the workspace, which the next block may grow
            block = next(blocks, None)
            reference.append(kept[~to_probe])
            probe.append(kept[to_probe])
            probe[-1] += delay_ticks  # a fresh array: delayed in place
            del kept, to_probe  # the block's arrays end with it
    # the workspace is dropped; block-local sorted segments concatenate
    # into globally sorted streams
    return tuple(np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
                 for parts in (reference, probe))


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
    delay_s = delay_from_range(config.distance_m, config.medium)

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
        rate_ref,
        rate_probe,
        config.delay_ticks,
        src.coherence_time_s,
        config.duration_ticks,
        rng_candidates=np.random.default_rng(seeds[0]),
        rng_field=np.random.default_rng(seeds[1]),
        rng_accept=np.random.default_rng(seeds[2]),
    )

    bg_ref = config.ambient_rate_ref_hz + config.detector_ref.dark_rate_hz
    bg_probe = config.ambient_rate_probe_hz + config.detector_probe.dark_rate_hz
    ref_times = _detector_noise(signal_ref, config.detector_ref, bg_ref * config.duration_s,
                                config.duration_ticks, np.random.default_rng(seeds[3]))
    probe_times = _detector_noise(signal_probe, config.detector_probe, bg_probe * config.duration_s,
                                  config.duration_ticks, np.random.default_rng(seeds[4]))
    reference = EventStream(channel=0, times=ref_times, duration_s=config.duration_s)
    probe = EventStream(channel=1, times=probe_times, duration_s=config.duration_s)

    frac_ref = rate_ref / (rate_ref + bg_ref) if rate_ref + bg_ref > 0 else 0.0
    frac_probe = rate_probe / (rate_probe + bg_probe) if rate_probe + bg_probe > 0 else 0.0
    truth = {
        "seed": config.seed,
        "duration_s": config.duration_s,
        "coherence_time_s": src.coherence_time_s,
        "intensity_cap": DEFAULT_INTENSITY_CAP,
        "distance_m": config.distance_m,
        "refractive_index": config.medium.refractive_index,
        "delay_s": delay_s,
        "delay_ticks": config.delay_ticks,
        "signal_rate_reference_hz": rate_ref,
        "signal_rate_probe_hz": rate_probe,
        "background_rate_reference_hz": bg_ref,
        "background_rate_probe_hz": bg_probe,
        "reference_signal_fraction": frac_ref,
        "probe_signal_fraction": frac_probe,
        "expected_amplitude": frac_ref * frac_probe,
    }
    return reference, probe, truth
