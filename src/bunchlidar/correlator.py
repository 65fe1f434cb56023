"""Coincidence histograms of timestamp differences between two detector streams.

Semantics: counts[k] is the number of ordered pairs (i, j) with
tau_min + k*w <= t_b[j] - t_a[i] < tau_min + (k+1)*w, over all pairs (not
nearest-neighbor). The production path is an offset-major sweep over the
sorted streams: two binary searches give each event of a its run of partners
in b, the events are sorted once by run length (a radix sort on a 16-bit
key), and pass d gathers the d-th partner of every run longer than d. Stream
a is swept in partitions of at most ``_PARTITION_EVENTS`` events, which
alternate between the calling thread and one helper thread; each thread
sweeps all its partitions into one histogram through one lag buffer. It
takes O(N_a log N_b + P + n_bins) time in the number of in-window pairs P,
and per thread O(partition + n_bins) memory, whatever N_a and P. The brute-force
O(N_a * N_b) implementation in this module is the defining reference and
the sweep must match it bin for bin, exactly, at any thread count.

All arithmetic is on integer picosecond ticks, so results are exact and
chunked accumulation is bit-identical to a single pass.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .photonsim import EventStream
from .quantities import TICKS_PER_SECOND, UserError, _TICK_MAX

_MAX_BINS = 2**24
_PAIR_CHUNK = 8_000_000  # max in-flight pairs per brute-force block
# Below this many live rows the sweep may copy each remaining run as a slice.
_SWEEP_MIN_ROWS = 4096
# Events of stream a per partition; partitions alternate between two threads.
_PARTITION_EVENTS = 1 << 15


class CorrelationError(UserError, ValueError):
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
        return self.duration_ticks / TICKS_PER_SECOND


@dataclass(frozen=True)
class G2Curve:
    """Normalized correlation estimate per bin: (tau center, g2, shot-noise sigma)."""

    tau_ps: np.ndarray
    g2: np.ndarray
    sigma: np.ndarray


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
    parts: list[tuple[int, int]],
    config: CorrelationConfig,
) -> np.ndarray:
    """Offset-major sweep of the partitions ``a[start:stop]`` into one histogram.

    Each partition meets only the b events its first and last a time reach.
    Row i (an event of the partition) owns the run b[j_i:j_i+n_i]. The rows
    are sorted once by n_i, clipped to a uint16 key (a stable radix sort),
    and the live rows (n_i > 0) gather j, n and base once; pass d then
    gathers the d-th lag of the suffix of rows with n_i > d, and bincount
    ignores the order of lags. Passes stop before d reaches the key's clip,
    once fewer than ``_SWEEP_MIN_ROWS`` rows are live and some run outlasts
    the live row count, or when no row is live; each remaining run is then
    copied as one slice. Lags (minus tau_min) of all partitions collect in
    one int64 buffer of the largest partition's size (n_bins, if more), so
    any pass fits it; it is binned when the next pass or run does not fit,
    and only a run longer than the buffer is cut. Besides the buffer, a
    partition holds at most four 8-byte values per event at once. So memory
    is O(partition + n_bins), and binning costs O(P + n_bins): two
    consecutive flushes bin more than one buffer's worth of lags.
    """
    n_bins, width = config.n_bins, config.bin_width_ticks
    counts = np.zeros(n_bins, dtype=np.int64)
    buf = np.empty(max([n_bins] + [stop - start for start, stop in parts]), dtype=np.int64)
    fill = 0
    clip = np.iinfo(np.uint16).max

    def flush():
        nonlocal counts, fill
        lags = buf[:fill]
        lags //= width
        counts += np.bincount(lags, minlength=n_bins)
        fill = 0

    def room(n):
        """The buffer's next n slots, flushing first if they do not fit."""
        nonlocal fill
        if fill + n > buf.size:
            flush()
        fill += n
        return buf[fill - n : fill]

    for start, stop in parts:
        part = a[start:stop]
        reach = b[_count_below(b, int(part[0]) + config.tau_min_ticks)
                  : _count_below(b, int(part[-1]) + config.tau_max_ticks)]
        lo = _search_shifted(reach, part, config.tau_min_ticks)
        hi = _search_shifted(reach, part, config.tau_max_ticks)
        hi -= lo  # run lengths
        key = np.minimum(hi, clip, out=np.empty(hi.size, np.uint16), casting="unsafe")
        rows = np.argsort(key, kind="stable")
        rows = rows[rows.size - np.count_nonzero(key) :]  # the live rows, by run length
        del key
        # one new array at a time: the partition's peak is four 8-byte values per event
        j = lo[rows]
        del lo
        n = hi[rows]
        del hi
        base = part[rows]
        base += config.tau_min_ticks  # reach[j] >= a + tau_min on live rows: no wrap
        del rows
        # n is sorted below the clip (rows at it keep a's order), so pass d's
        # live rows are the suffix k: while d < clip. A pass is one Python step
        # for all live rows, a slice one step per row: below _SWEEP_MIN_ROWS
        # rows, pass on only while no run outlasts the rows
        d, k, longest = 0, 0, int(n.max(initial=0))
        while d < clip - 1 and (n.size - k >= _SWEEP_MIN_ROWS or 0 < longest - d <= n.size - k):
            out = np.take(reach[d:], j[k:], out=room(n.size - k), mode="clip")  # "raise" copies out
            np.subtract(out, base[k:], out=out)
            d += 1
            k = int(np.searchsorted(n, d, side="right"))
        tail = zip((j[k:] + d).tolist(), (j[k:] + n[k:]).tolist(), base[k:].tolist())
        del j, n, base
        for first, last, origin in tail:
            for run_start in range(first, last, buf.size):
                run = reach[run_start : min(run_start + buf.size, last)]
                np.subtract(run, origin, out=room(run.size))
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

    Stream a is cut into partitions of at most ``_PARTITION_EVENTS`` events,
    also cut at multiples of ``chunk_ticks`` when it is given. This thread
    sweeps the even partitions and one helper thread the odd ones, each into
    one histogram through one lag buffer; a single partition runs here, with
    no thread. Per thread, memory is O(partition + n_bins) whatever the
    stream length, and binning its P pairs costs O(P + n_bins). The result
    is bit-identical for any chunk size and either thread count, because
    each pair belongs to exactly one partition of its a event.
    """
    if chunk_ticks is None:
        chunk_ticks = _TICK_MAX + 1  # no time cut: every tick lies below it
    elif chunk_ticks <= 0:
        raise CorrelationError(f"chunk size must be positive, got {chunk_ticks}")
    t_a, t_b = a.times, b.times
    parts, start = [], 0
    while start < t_a.size:
        # jump straight to the chunk holding the next unprocessed a event
        edge = (int(t_a[start]) // chunk_ticks) * chunk_ticks
        stop = min(_count_below(t_a, edge + chunk_ticks), start + _PARTITION_EVENTS)
        parts.append((start, stop))
        start = stop
    if len(parts) < 2:
        counts = _sweep_counts(t_a, t_b, parts, config)
    else:
        with ThreadPoolExecutor(max_workers=1) as helper:
            helped = helper.submit(_sweep_counts, t_a, t_b, parts[1::2], config)
            counts = _sweep_counts(t_a, t_b, parts[0::2], config)
            counts += helped.result()
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


def normalize_g2(h: CorrelationHistogram) -> G2Curve:
    """Shot-noise-weighted g2 estimate: g2_k = counts_k * T / (n_a * n_b * w).

    Zero-count bins get the single-count sigma so weighted fits stay defined.
    The edge factor T/(T - |tau|) is ignored: a bias of at most 1.2e-5 on the
    presets and benchmark workloads (replay-wide; long-range-2km 8.0e-6,
    bright-deadtime 2.0e-6), but 4.0e-3 in a [0, 20 us) window at T = 5 ms.
    """
    if h.n_a <= 0 or h.n_b <= 0:
        raise CorrelationError("no events in one or both streams: cannot normalize")
    if h.duration_ticks <= 0:
        raise CorrelationError("cannot normalize a histogram with zero duration")
    scale = h.duration_ticks / (float(h.n_a) * float(h.n_b) * h.config.bin_width_ticks)
    g2 = h.counts * scale
    sigma = np.sqrt(np.maximum(h.counts, 1)) * scale
    return G2Curve(
        tau_ps=h.config.bin_centers_ps(),
        g2=g2,
        sigma=sigma,
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
    with open(path, "rb") as f:
        data = f.read()
    try:
        header, *lines = data.decode("utf-8").splitlines() or [""]
    except UnicodeDecodeError as exc:
        raise CorrelationError(f"{path}: not UTF-8 text at offset {exc.start}") from None
    if header.strip() != "tau_ps,counts,g2,sigma":
        raise CorrelationError(f"unexpected CSV header: {header.strip()!r}")
    rows = []
    for line_no, line in enumerate(lines, start=2):
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
