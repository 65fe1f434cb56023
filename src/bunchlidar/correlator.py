"""Coincidence histograms of timestamp differences between two detector streams.

Semantics: counts[k] is the number of ordered pairs (i, j) with
tau_min + k*w <= t_b[j] - t_a[i] < tau_min + (k+1)*w, over all pairs (not
nearest-neighbor). The production path is an offset-major sweep over the
sorted streams: two binary searches give each event of a its run of partners
in b, then pass d gathers the d-th partner of every run still live. It takes
O(N_a log N_b + P) time in the number of in-window pairs P, and O(N_a) memory
plus a fixed lag buffer, whatever P. The brute-force O(N_a * N_b)
implementation in this module is the defining reference and the sweep must
match it bin for bin, exactly.

All arithmetic is on integer picosecond ticks, so results are exact and
chunked or merged accumulation is bit-identical to a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .photonsim import EventStream
from .quantities import _TICK_MAX

_MAX_BINS = 2**24
_PAIR_CHUNK = 8_000_000  # max in-flight pairs per brute-force block
# Below this many live rows the sweep may copy each remaining run as a slice.
_SWEEP_MIN_ROWS = 4096
# Lags binned per bincount call, at least (the buffer also holds n_bins and one pass).
_SWEEP_BUFFER = 1 << 19


class CorrelationError(ValueError):
    """Invalid correlation configuration or input."""


@dataclass(frozen=True)
class CorrelationConfig:
    """Histogram geometry: bin width and half-open lag window, in ticks."""

    bin_width_ticks: int
    tau_min_ticks: int
    tau_max_ticks: int

    def __post_init__(self):
        if self.bin_width_ticks <= 0:
            raise CorrelationError(f"bin width must be positive, got {self.bin_width_ticks}")
        span = self.tau_max_ticks - self.tau_min_ticks
        if span <= 0 or span % self.bin_width_ticks != 0:
            raise CorrelationError(
                f"window [{self.tau_min_ticks}, {self.tau_max_ticks}) must be a "
                f"positive exact multiple of the bin width {self.bin_width_ticks}"
            )
        if span // self.bin_width_ticks > _MAX_BINS:
            raise CorrelationError(f"more than {_MAX_BINS} bins requested")
        if max(-self.tau_min_ticks, self.tau_max_ticks, span) > _TICK_MAX:  # lags are int64
            raise CorrelationError("window bounds and span must fit 64-bit picosecond ticks")

    @property
    def n_bins(self) -> int:
        return (self.tau_max_ticks - self.tau_min_ticks) // self.bin_width_ticks

    def bin_centers_ps(self) -> np.ndarray:
        k = np.arange(self.n_bins, dtype=np.float64)
        return self.tau_min_ticks + (k + 0.5) * self.bin_width_ticks


@dataclass(frozen=True)
class CorrelationHistogram:
    """Binned coincidence counts plus the totals needed for normalization."""

    config: CorrelationConfig
    counts: np.ndarray  # int64 per bin
    n_a: int
    n_b: int
    duration_ticks: int

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.size != self.config.n_bins:
            raise CorrelationError("counts length does not match configured bin count")

    @property
    def duration_s(self) -> float:
        return self.duration_ticks / 1e12


@dataclass(frozen=True)
class G2Curve:
    """Normalized correlation estimate per bin: (tau center, g2, shot-noise sigma)."""

    tau_ps: np.ndarray
    g2: np.ndarray
    sigma: np.ndarray
    bin_width_ps: int

    def __len__(self) -> int:
        return int(self.tau_ps.size)


def _search_shifted(b: np.ndarray, a: np.ndarray, delta: int) -> np.ndarray:
    """``searchsorted(b, a + delta)``; times are >= 0, so unsigned keys order alike and never wrap."""
    if delta > 0:
        return np.searchsorted(b.view(np.uint64), a.view(np.uint64) + np.uint64(delta))
    return np.searchsorted(b, a + delta)


def _count_below(times: np.ndarray, limit: int) -> int:
    """``searchsorted(times, limit)`` for any Python int; limits saturate at the tick range."""
    if limit > _TICK_MAX:
        return times.size
    return int(np.searchsorted(times, max(limit, 0)))


def _sweep_counts(
    a: np.ndarray,
    b: np.ndarray,
    config: CorrelationConfig,
) -> np.ndarray:
    """Offset-major sweep; exact integer binning of in-window pairs.

    Row i (an event of a with pairs) owns the run b[j_i:stop_i]. Pass d takes
    the d-th element of every live row with one gather, in time order, and
    drops the rows whose run has ended. Once fewer than ``_SWEEP_MIN_ROWS``
    rows are live and some run is longer than the live row count, each
    remaining run is copied as one slice. Lags (minus tau_min) collect in one
    int64 buffer that is binned only when full.
    """
    n_bins, width = config.n_bins, config.bin_width_ticks
    counts = np.zeros(n_bins, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return counts
    lo = _search_shifted(b, a, config.tau_min_ticks)
    hi = _search_shifted(b, a, config.tau_max_ticks)
    rows = np.flatnonzero(hi > lo)
    # b[j] >= a + tau_min on every live row, so base cannot wrap
    j, stop, base = lo[rows], hi[rows], a[rows] + config.tau_min_ticks
    del lo, hi, rows
    pairs = int((stop - j).sum())
    buf = np.empty(min(pairs, max(_SWEEP_BUFFER, n_bins, j.size)), dtype=np.int64)
    fill = 0

    def flush():
        nonlocal counts, fill
        lags = buf[:fill]
        lags //= width
        counts += np.bincount(lags, minlength=n_bins)
        fill = 0

    def put(n, write):
        """Append n lags in pieces; ``write(out, s, e)`` fills lags [s, e) into out."""
        nonlocal fill
        done = 0
        while done < n:
            m = min(n - done, buf.size - fill)
            write(buf[fill : fill + m], done, done + m)
            fill += m
            done += m
            if fill == buf.size:
                flush()

    def gather(out, s, e):
        np.take(b, j[s:e], out=out)
        np.subtract(out, base[s:e], out=out)

    # a pass is one Python step for all live rows, a slice one step per row:
    # below _SWEEP_MIN_ROWS rows, pass on only while no run outlasts the rows
    while j.size >= _SWEEP_MIN_ROWS or 0 < (stop - j).max(initial=0) <= j.size:
        put(j.size, gather)
        j += 1
        live = j < stop
        if not live.all():
            j, stop, base = j[live], stop[live], base[live]
    for first, last, origin in zip(j.tolist(), stop.tolist(), base.tolist()):
        run = b[first:last]
        put(run.size, lambda out, s, e: np.subtract(run[s:e], origin, out=out))
    if fill:
        flush()
    return counts


def cross_correlate(
    a: EventStream,
    b: EventStream,
    config: CorrelationConfig,
    chunk_ticks: int | None = None,
) -> CorrelationHistogram:
    """Histogram t_b - t_a over all ordered pairs inside the window.

    ``chunk_ticks`` partitions stream a by time and accumulates per-partition
    histograms; the result is bit-identical for any chunk size because each
    pair belongs to exactly one partition of its a event. Without it, all of
    a is one partition.
    """
    if chunk_ticks is None:
        chunk_ticks = _TICK_MAX + 1  # one partition: every tick lies below it
    elif chunk_ticks <= 0:
        raise CorrelationError(f"chunk size must be positive, got {chunk_ticks}")
    counts = np.zeros(config.n_bins, dtype=np.int64)
    start = 0
    while start < a.times.size:
        # jump straight to the chunk holding the next unprocessed a event
        edge = (int(a.times[start]) // chunk_ticks) * chunk_ticks
        stop = _count_below(a.times, edge + chunk_ticks)
        b_lo = _count_below(b.times, edge + config.tau_min_ticks)
        b_hi = _count_below(b.times, edge + chunk_ticks + config.tau_max_ticks)
        counts += _sweep_counts(a.times[start:stop], b.times[b_lo:b_hi], config)
        start = stop
    duration = max(a.duration_ticks, b.duration_ticks)
    return CorrelationHistogram(
        config=config, counts=counts, n_a=len(a), n_b=len(b), duration_ticks=duration
    )


def cross_correlate_bruteforce(
    a_times: np.ndarray,
    b_times: np.ndarray,
    config: CorrelationConfig,
) -> np.ndarray:
    """Defining O(N_a * N_b) reference: every pair checked against the window."""
    counts = np.zeros(config.n_bins, dtype=np.int64)
    a_times = np.asarray(a_times, dtype=np.int64)
    b_times = np.asarray(b_times, dtype=np.int64)
    if a_times.size == 0 or b_times.size == 0:
        return counts
    rows_per_chunk = max(1, _PAIR_CHUNK // b_times.size)
    for start in range(0, a_times.size, rows_per_chunk):
        chunk = a_times[start : start + rows_per_chunk]
        diffs = b_times[None, :] - chunk[:, None]
        mask = (diffs >= config.tau_min_ticks) & (diffs < config.tau_max_ticks)
        k = (diffs[mask] - config.tau_min_ticks) // config.bin_width_ticks
        counts += np.bincount(k, minlength=config.n_bins)
    return counts


def merge_histograms(h1: CorrelationHistogram, h2: CorrelationHistogram) -> CorrelationHistogram:
    """Element-wise accumulation of two histograms with identical configuration."""
    if h1.config != h2.config:
        raise CorrelationError("cannot merge histograms with different configurations")
    return CorrelationHistogram(
        config=h1.config,
        counts=h1.counts + h2.counts,
        n_a=h1.n_a + h2.n_a,
        n_b=h1.n_b + h2.n_b,
        duration_ticks=h1.duration_ticks + h2.duration_ticks,
    )


def normalize_g2(h: CorrelationHistogram) -> G2Curve:
    """Shot-noise-weighted g2 estimate: g2_k = counts_k * T / (n_a * n_b * w).

    Zero-count bins get the single-count sigma so weighted fits stay defined.
    The finite-acquisition edge factor T/(T - |tau|) is ignored; for every
    scenario here |tau| <= 10 us and T >= 1 ms, a bias below 0.1%.
    """
    if h.n_a <= 0 or h.n_b <= 0:
        raise CorrelationError("cannot normalize a histogram with empty input streams")
    if h.duration_ticks <= 0:
        raise CorrelationError("cannot normalize a histogram with zero duration")
    scale = h.duration_ticks / (float(h.n_a) * float(h.n_b) * h.config.bin_width_ticks)
    g2 = h.counts * scale
    sigma = np.sqrt(np.maximum(h.counts, 1)) * scale
    return G2Curve(
        tau_ps=h.config.bin_centers_ps(),
        g2=g2,
        sigma=sigma,
        bin_width_ps=h.config.bin_width_ticks,
    )


def write_histogram_csv(h: CorrelationHistogram, path) -> None:
    """CSV export: header ``tau_ps,counts,g2,sigma``, one row per bin, LF endings."""
    curve = normalize_g2(h)
    with open(path, "w", newline="\n") as f:
        f.write("tau_ps,counts,g2,sigma\n")
        for tau, count, g2, sigma in zip(
            curve.tau_ps.tolist(), h.counts.tolist(), curve.g2.tolist(), curve.sigma.tolist()
        ):
            f.write(f"{tau:.1f},{count},{g2!r},{sigma!r}\n")


def read_histogram_csv(path):
    """Read a histogram CSV back as (tau_ps, counts, g2, sigma) arrays."""
    rows = []
    with open(path, "r", newline="") as f:
        header = f.readline().strip()
        if header != "tau_ps,counts,g2,sigma":
            raise CorrelationError(f"unexpected CSV header: {header!r}")
        for line_no, line in enumerate(f, start=2):
            fields = line.split(",")
            if len(fields) != 4:
                if not line.strip():
                    continue
                raise CorrelationError(
                    f"histogram CSV line {line_no}: expected 4 fields, got {len(fields)}"
                )
            try:
                rows.append((float(fields[0]), int(fields[1]), float(fields[2]), float(fields[3])))
            except ValueError as exc:
                raise CorrelationError(f"histogram CSV line {line_no}: {exc}") from None
    if not rows:
        raise CorrelationError("histogram CSV contains no bins")
    tau, counts, g2, sigma = zip(*rows)
    return np.array(tau), np.array(counts, dtype=np.int64), np.array(g2), np.array(sigma)
