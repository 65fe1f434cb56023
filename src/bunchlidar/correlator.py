"""Coincidence histograms of timestamp differences between two detector streams.

Semantics: counts[k] is the number of ordered pairs (i, j) with
tau_min + k*w <= t_b[j] - t_a[i] < tau_min + (k+1)*w, over all pairs (not
nearest-neighbor). The production path is a two-cursor sweep over the sorted
streams, O(N_a + N_b + P) in the number of in-window pairs P; the brute-force
O(N_a * N_b) implementation in this module is the defining reference and the
sweep must match it bin for bin, exactly.

All arithmetic is on integer picosecond ticks, so results are exact and
chunked or merged accumulation is bit-identical to a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .photonsim import EventStream

_MAX_BINS = 2**24
_PAIR_CHUNK = 8_000_000  # max in-flight pair rows per vectorized block


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


def _sweep_counts(
    a: np.ndarray,
    b: np.ndarray,
    config: CorrelationConfig,
) -> np.ndarray:
    """Vectorized two-cursor sweep; exact integer binning of in-window pairs."""
    counts = np.zeros(config.n_bins, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return counts
    lo = _search_shifted(b, a, config.tau_min_ticks)
    hi = _search_shifted(b, a, config.tau_max_ticks)
    per_event = hi - lo
    boundaries = np.cumsum(per_event)
    total = int(boundaries[-1])
    start = 0
    while start < total:
        stop = min(start + _PAIR_CHUNK, total)
        first = int(np.searchsorted(boundaries, start, side="right"))
        last = int(np.searchsorted(boundaries, stop, side="left"))
        rows = slice(first, last + 1)
        row_lo = lo[rows].copy()
        row_hi = hi[rows].copy()
        # clip the partially covered first/last rows to the [start, stop) pair range
        row_start = boundaries[rows] - per_event[rows]
        np.maximum(row_lo, row_lo + (start - row_start), out=row_lo)
        np.minimum(row_hi, row_lo + (stop - np.maximum(row_start, start)), out=row_hi)
        m = row_hi - row_lo
        offsets = np.cumsum(m) - m
        flat = np.arange(int(m.sum()), dtype=np.int64) - np.repeat(offsets, m) + np.repeat(row_lo, m)
        diffs = b[flat] - np.repeat(a[rows], m)
        k = (diffs - config.tau_min_ticks) // config.bin_width_ticks
        counts += np.bincount(k, minlength=config.n_bins)
        start = stop
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
    pair belongs to exactly one partition of its a event.
    """
    duration = max(a.duration_ticks, b.duration_ticks)
    counts = np.zeros(config.n_bins, dtype=np.int64)
    if chunk_ticks is None:
        counts = _sweep_counts(a.times, b.times, config)
    else:
        if chunk_ticks <= 0:
            raise CorrelationError(f"chunk size must be positive, got {chunk_ticks}")
        start = 0
        while start < a.times.size:
            # jump straight to the chunk holding the next unprocessed a event
            edge = (int(a.times[start]) // chunk_ticks) * chunk_ticks
            stop = np.searchsorted(a.times, edge + chunk_ticks)
            a_slice = a.times[start:stop]
            b_lo = np.searchsorted(b.times, edge + config.tau_min_ticks)
            b_hi = np.searchsorted(b.times, edge + chunk_ticks + config.tau_max_ticks)
            counts += _sweep_counts(a_slice, b.times[b_lo:b_hi], config)
            start = int(stop)
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
