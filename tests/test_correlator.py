import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bunchlidar import correlator as co
from bunchlidar.photonsim import EventStream
from bunchlidar.quantities import DomainError


def stream(times, duration_s=None, channel=0):
    times = np.asarray(sorted(times), dtype=np.int64)
    if duration_s is None:
        duration_s = (float(times[-1]) if times.size else 0.0) / 1e12 + 1e-9
    return EventStream(channel, times, duration_s)


def random_pair(rng, max_events=2000, span=100_000):
    n_a, n_b = (int(10 ** rng.uniform(0, math.log10(max_events))) for _ in range(2))
    a = rng.integers(0, span, n_a)
    b = rng.integers(0, span, n_b)
    # force ties and exact window-edge differences
    if n_a and n_b:
        b[: n_b // 10] = a[rng.integers(0, n_a, n_b // 10)]
    return np.sort(a), np.sort(b)


def run_child(code, timeout=60):
    """The JSON printed by ``code`` in a child process, so a hung call is
    killed after ``timeout`` seconds instead of hanging the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(co.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=timeout, check=True)
    return json.loads(done.stdout)


def random_config(rng):
    width = int(rng.integers(1, 64))
    n_bins = int(rng.integers(1, 64))
    tau_min = int(rng.integers(-2000, 2000))
    return co.CorrelationConfig(width, tau_min, tau_min + width * n_bins)


class TestConfigValidation:
    def test_window_must_be_multiple_of_width(self):
        with pytest.raises(co.CorrelationError):
            co.CorrelationConfig(40, 0, 100)

    def test_width_positive(self):
        with pytest.raises(co.CorrelationError):
            co.CorrelationConfig(0, 0, 100)

    def test_empty_window_rejected(self):
        with pytest.raises(co.CorrelationError):
            co.CorrelationConfig(10, 50, 50)

    def test_bin_cap(self):
        with pytest.raises(co.CorrelationError):
            co.CorrelationConfig(1, 0, 2**24 + 1)

    @pytest.mark.parametrize("width, tau_min, tau_max", [
        (10**13, -10**20, 0),
        (2**40, -(2**63), 0),
        (2**40, 0, 2**63),
        # each bound fits, but a lag past tau_min would not
        (2**40, -(2**62), 2**62 + 2**61),
    ])
    def test_window_beyond_tick_range_rejected(self, width, tau_min, tau_max):
        with pytest.raises(co.CorrelationError, match="64-bit"):
            co.CorrelationConfig(width, tau_min, tau_max)

    def test_window_at_tick_range_accepted(self):
        tick_max = 2**63 - 1
        assert co.CorrelationConfig(1, -tick_max, -tick_max + 2**20).n_bins == 2**20
        assert co.CorrelationConfig(1, tick_max - 1, tick_max).n_bins == 1


class TestCrossCorrelate:
    def test_hand_enumerated(self):
        a = stream([0, 10_000])
        b = stream([2_000])
        config = co.CorrelationConfig(1_000, -5_000, 5_000)
        hist = co.cross_correlate(a, b, config)
        expected = np.zeros(10, dtype=np.int64)
        expected[7] = 1  # 2 ns - 0 lands in [2,3) ns
        assert np.array_equal(hist.counts, expected)

    def test_unsorted_rejected(self):
        # the stream owns the order invariant; the correlator relies on it
        with pytest.raises(DomainError):
            EventStream(0, np.array([5, 1], dtype=np.int64), 1e-9)

    @pytest.mark.parametrize("last", [2**62 + 1, 2**63 - 2, 2**63 - 1])
    def test_window_past_tick_max_matches_bruteforce(self, last):
        # a + tau_max passes 2^63 - 1 here; the search must not wrap
        a = np.array([0, last - 3, last - 1, last], dtype=np.int64)
        b = np.array([1, last - 2, last - 1, last], dtype=np.int64)
        config = co.CorrelationConfig(1, -4, 4)
        hist = co.cross_correlate(EventStream(0, a), EventStream(1, b), config)
        assert np.array_equal(hist.counts, co.cross_correlate_bruteforce(a, b, config))
        assert hist.duration_ticks == last

    def test_poisson_coincidence_rate(self):
        rng = np.random.default_rng(8)
        duration = 1e-3
        r1, r2 = 2e6, 3e6
        a = stream(rng.integers(0, int(duration * 1e12), int(r1 * duration)), duration)
        b = stream(rng.integers(0, int(duration * 1e12), int(r2 * duration)), duration)
        config = co.CorrelationConfig(10_000, -100_000, 100_000)
        hist = co.cross_correlate(a, b, config)
        expected = r1 * r2 * 10e-9 * duration
        assert np.all(np.abs(hist.counts - expected) < 5 * math.sqrt(expected))

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equality(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_pair(rng)
        config = random_config(rng)
        got = co.cross_correlate(stream(a), stream(b), config).counts
        want = co.cross_correlate_bruteforce(a, b, config)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("partition", [3, co._PARTITION_EVENTS])
    @pytest.mark.parametrize("min_rows", [1, 2, 7])
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_oracle_equality_offset_passes(self, min_rows, partition, seed):
        # a tiny row threshold and a buffer of the larger of n_bins and one
        # partition force the offset passes over rows sorted by run length,
        # mid-sweep flushes and tail runs split across flushes on inputs this
        # small; 3-event partitions leave one buffer holding lags of several
        # partitions at a flush
        rng = np.random.default_rng(seed)
        a, b = random_pair(rng)
        config = random_config(rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(co, "_SWEEP_MIN_ROWS", min_rows)
            mp.setattr(co, "_PARTITION_EVENTS", partition)
            got = co.cross_correlate(stream(a), stream(b), config).counts
        assert np.array_equal(got, co.cross_correlate_bruteforce(a, b, config))

    def test_tail_runs_split_across_flushes(self):
        # two rows with 70-pair runs go to the slice tail, and a 7-lag buffer
        # (n_bins) splits each run over ten flushes
        a, b = np.array([0, 3]), np.arange(200)
        config = co.CorrelationConfig(10, 0, 70)
        got = co.cross_correlate(EventStream(0, a), EventStream(1, b), config).counts
        assert np.array_equal(got, co.cross_correlate_bruteforce(a, b, config))

    @pytest.mark.parametrize("min_rows", [1, co._SWEEP_MIN_ROWS])
    def test_sorted_passes_every_run_length(self, min_rows, monkeypatch):
        # one partition whose rows have every run length from 0 to 40, each
        # length on 10-30 rows with tied a times and tied b times, plus two
        # rows with 200-pair runs; at the default threshold passes 0-31 run,
        # then the two long runs outlast the 156 live rows, which go to the tail
        monkeypatch.setattr(co, "_SWEEP_MIN_ROWS", min_rows)
        config = co.CorrelationConfig(8, -5, 251)
        a, b, origin = [], [], 0
        for length in [*range(41)] * 10 + [200, 200]:
            a += [origin] * (1 + length % 3)
            b += [origin + i // 2 for i in range(length)]
            origin += 1_000
        a, b = np.array(a), np.array(b)
        runs = (np.searchsorted(b, a + config.tau_max_ticks)
                - np.searchsorted(b, a + config.tau_min_ticks))
        assert set(runs.tolist()) == {*range(41), 200}
        got = co.cross_correlate(EventStream(0, a), EventStream(1, b), config).counts
        assert np.array_equal(got, co.cross_correlate_bruteforce(a, b, config))

    @pytest.mark.parametrize("min_rows", [1, co._SWEEP_MIN_ROWS])
    def test_runs_past_the_sort_key_clip(self, min_rows, monkeypatch):
        # runs of 65,534 to 70,000 partners, at and past the uint16 sort key's
        # clip of 65,535, beside tied short runs of 0-3 partners in one
        # partition; with one live row enough, passes run up to the clip and
        # the runs left go to the slice tail. The clipped rows keep a's order,
        # so twenty 65,535-partner rows after the longer ones leave run
        # lengths unsorted past the clip
        monkeypatch.setattr(co, "_SWEEP_MIN_ROWS", min_rows)
        b = np.arange(80_000)
        long_times = [0, 0, 10_000, 14_464] + [14_465] * 20 + [14_466]
        short_times = [79_997, 79_997, 79_998, 79_999, 80_000, 80_000]
        a = np.array(long_times + short_times)
        config = co.CorrelationConfig(1_000, 0, 70_000)
        runs = np.searchsorted(b, a + config.tau_max_ticks) - np.searchsorted(b, a)
        assert runs.tolist() == ([70_000] * 3 + [65_536] + [65_535] * 20 + [65_534]
                                 + [3, 3, 2, 1, 0, 0])
        got = co.cross_correlate(EventStream(0, a), EventStream(1, b), config).counts
        assert np.array_equal(got, co.cross_correlate_bruteforce(a, b, config))

    def test_sweep_peak_memory_bounded(self):
        # two replay-shaped partitions (~12 partners per event) in one call,
        # so arrays one partition leaves behind count against the next.
        # Bound: the int64 lag buffer (one partition's lags, or n_bins if
        # more), one bincount result, and 33 B per partition event. Four
        # int64 arrays (lo, hi and the sort order, then j, run length and
        # base in turn) are 32 B, so the uint16 sort key kept beside them
        # fails, and so does a fifth int64 array
        rng = np.random.default_rng(29)
        part = co._PARTITION_EVENTS
        span = 2 * part * 100_000  # 1e7 events/s per stream
        a = np.sort(rng.integers(0, span, 2 * part))
        b = np.sort(rng.integers(0, span, 2 * part))
        config = co.CorrelationConfig(12_000, -600_000, 600_000)
        slots = max(part, config.n_bins)
        tracemalloc.start()
        try:
            counts = co._sweep_counts(a, b, [(0, part), (part, 2 * part)], config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 11 < counts.sum() / a.size < 13
        assert peak <= 8 * slots + 33 * part + 8 * config.n_bins

    def test_burst_is_fast(self):
        # one reference event against 1M probe events in a 2^24-bin window:
        # one row whose run goes to the slice tail
        rng = np.random.default_rng(6)
        config = co.CorrelationConfig(1, 0, 2**24)
        a = np.array([0], dtype=np.int64)
        b = np.sort(rng.integers(0, 2**24, 1_000_000)).astype(np.int64)
        start = time.perf_counter()
        got = co.cross_correlate(EventStream(0, a), EventStream(1, b), config).counts
        elapsed = time.perf_counter() - start
        assert np.array_equal(got, co.cross_correlate_bruteforce(a, b, config))
        assert elapsed < 2.0

    def test_chunk_edge_past_tick_max_returns(self):
        # edge + chunk_ticks passes 2^63 - 1 here; run in a child process so a
        # chunk loop that never advances is killed instead of hanging the suite
        code = (
            "import json, time\n"
            "from bunchlidar.correlator import CorrelationConfig, cross_correlate\n"
            "from bunchlidar.photonsim import EventStream\n"
            "start = time.perf_counter()\n"
            "h = cross_correlate(EventStream(0, [2**63 - 10]), EventStream(1, [2**63 - 5]),\n"
            "                    CorrelationConfig(1, -8, 8), chunk_ticks=2**62)\n"
            "print(json.dumps([time.perf_counter() - start, h.counts.tolist()]))\n"
        )
        elapsed, counts = run_child(code, timeout=30)
        want = co.cross_correlate_bruteforce(
            np.array([2**63 - 10]), np.array([2**63 - 5]), co.CorrelationConfig(1, -8, 8)
        )
        assert counts == want.tolist()
        assert elapsed < 2.0

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=200_000))
    @settings(max_examples=40, deadline=None)
    def test_chunked_bit_identical(self, seed, chunk):
        rng = np.random.default_rng(seed)
        a, b = random_pair(rng)
        config = random_config(rng)
        whole = co.cross_correlate(stream(a), stream(b), config).counts
        chunked = co.cross_correlate(stream(a), stream(b), config, chunk_ticks=chunk).counts
        assert np.array_equal(whole, chunked)

    def test_segmented_equals_whole_via_chunking(self):
        rng = np.random.default_rng(123)
        n = 100_000
        span = 10**8
        a = stream(rng.integers(0, span, n), 1e-4)
        b = stream(rng.integers(0, span, n), 1e-4)
        config = co.CorrelationConfig(40, -4_000, 4_000)
        whole = co.cross_correlate(a, b, config).counts
        for chunk in (1_000, 77_777, 10**7):
            assert np.array_equal(
                co.cross_correlate(a, b, config, chunk_ticks=chunk).counts, whole
            )

    @pytest.mark.parametrize("partition", [1, 2, 7])
    @pytest.mark.parametrize("chunked", [False, True])
    @given(seed=st.integers(min_value=0, max_value=2**31),
           chunk=st.integers(min_value=1, max_value=200_000))
    @settings(max_examples=30, deadline=None)
    def test_oracle_equality_across_partitions(self, partition, chunked, seed, chunk):
        # partitions of 1, 2 and 7 events split runs of tied a times and put
        # neighbouring partitions on different threads
        rng = np.random.default_rng(seed)
        a, b = random_pair(rng)
        config = random_config(rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(co, "_PARTITION_EVENTS", partition)
            got = co.cross_correlate(
                stream(a), stream(b), config, chunk_ticks=chunk if chunked else None
            ).counts
        assert np.array_equal(got, co.cross_correlate_bruteforce(a, b, config))

    def test_partition_cuts_through_ties_keep_every_pair(self, monkeypatch):
        # a run of six equal a times straddles each partition cut, and b holds
        # that time, the window's edges from it and one tick past the upper edge
        rng = np.random.default_rng(41)
        cut = co._PARTITION_EVENTS
        n = 3 * cut + cut // 2
        config = co.CorrelationConfig(40, -4_000, 4_000)
        a = np.sort(rng.integers(0, 1_000 * n, n))
        edges = np.arange(cut, n, cut)
        assert edges.size == 3
        for edge in edges:
            a[edge - 3 : edge + 3] = a[edge]
        ties = a[edges]
        b = np.sort(np.concatenate([
            rng.integers(0, 1_000 * n, n),
            ties, ties, ties + config.tau_min_ticks, ties + config.tau_max_ticks - 1,
            ties + config.tau_max_ticks,
        ]))
        split = co.cross_correlate(EventStream(0, a), EventStream(1, b), config).counts
        monkeypatch.setattr(co, "_PARTITION_EVENTS", n + 1)
        whole = co.cross_correlate(EventStream(0, a), EventStream(1, b), config).counts
        assert whole.sum() > n and np.array_equal(split, whole)

    @staticmethod
    def _bincount_sizes(monkeypatch):
        """The sizes of the lag arrays np.bincount is called on, from now on."""
        calls, bincount = [], np.bincount

        def counted(*args, **kwargs):
            calls.append(args[0].size)
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted)
        return calls

    def test_bins_once_per_thread(self, monkeypatch):
        # twenty 1,000-event partitions whose lags fit one buffer of n_bins
        # (~20,000 lags per thread in 100,000 bins): each thread bins all its
        # partitions with one bincount call
        rng = np.random.default_rng(17)
        a = np.sort(rng.integers(0, 10**10, 20_000))
        b = np.sort(rng.integers(0, 10**10, 20_000))
        pair = EventStream(0, a), EventStream(1, b)
        config = co.CorrelationConfig(10, -500_000, 500_000)
        whole = co.cross_correlate(*pair, config).counts
        monkeypatch.setattr(co, "_PARTITION_EVENTS", 1_000)
        calls = self._bincount_sizes(monkeypatch)
        split = co.cross_correlate(*pair, config).counts
        assert whole.sum() > 20_000 and np.array_equal(split, whole)
        assert 1 <= len(calls) <= 2 and sum(calls) == whole.sum()

    def test_consecutive_flushes_bin_a_buffer(self, monkeypatch):
        # ten 1,000-event partitions of ~800 lags each on one thread, through
        # a buffer of one partition (n_bins is 200): any two flushes in a row
        # bin more than 1,000 lags, so binning costs O(P + n_bins)
        rng = np.random.default_rng(17)
        a = np.sort(rng.integers(0, 10**8, 10_000))
        b = np.sort(rng.integers(0, 10**8, 20_000))
        config = co.CorrelationConfig(40, -4_000, 4_000)
        parts = [(lo, lo + 1_000) for lo in range(0, a.size, 1_000)]
        want = co.cross_correlate_bruteforce(a, b, config)
        calls = self._bincount_sizes(monkeypatch)
        counts = co._sweep_counts(a, b, parts, config)
        assert np.array_equal(counts, want)
        assert len(calls) > 2 and sum(calls) == counts.sum()
        assert all(x + y > 1_000 for x, y in zip(calls, calls[1:]))

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_time_reversal(self, seed):
        # discrete form of the reversal symmetry: half-open bins map exactly
        # onto the one-tick-shifted reversed window
        rng = np.random.default_rng(seed)
        a, b = random_pair(rng, max_events=400)
        width = int(rng.integers(1, 40))
        half_bins = int(rng.integers(1, 30))
        window = width * half_bins
        forward = co.cross_correlate(
            stream(a), stream(b), co.CorrelationConfig(width, -window, window)
        ).counts
        backward = co.cross_correlate(
            stream(b), stream(a), co.CorrelationConfig(width, -window + 1, window + 1)
        ).counts
        assert np.array_equal(forward, backward[::-1])


# Child-process preamble of the thread tests: a tie-rich pair, a window and
# the brute-force counts.
_THREAD_SETUP = """
import json, sys, threading
import numpy as np
from bunchlidar import correlator as co
from bunchlidar.photonsim import EventStream
rng = np.random.default_rng(5)
a = np.sort(rng.integers(0, 10**6, 10_000))
b = rng.integers(0, 10**6, 10_000)
b[:1_000] = a[rng.integers(0, a.size, 1_000)]
b.sort()
config = co.CorrelationConfig(7, -700, 700)
want = co.cross_correlate_bruteforce(a, b, config)
pair = EventStream(0, a), EventStream(1, b)
"""


class TestThreads:
    def test_stress_switching_matches_oracle(self):
        # three concurrent callers, each with its helper, switching every
        # microsecond over 3,334 three-event partitions: six threads, two cores
        code = _THREAD_SETUP + (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "co._PARTITION_EVENTS = 3\n"
            "interval = sys.getswitchinterval()\n"
            "sys.setswitchinterval(1e-6)\n"
            "try:\n"
            "    with ThreadPoolExecutor(max_workers=3) as callers:\n"
            "        calls = [callers.submit(co.cross_correlate, *pair, config) for _ in range(3)]\n"
            "        got = [call.result().counts for call in calls]\n"
            "finally:\n"
            "    sys.setswitchinterval(interval)\n"
            "print(json.dumps([bool(np.array_equal(g, want)) for g in got] + [int(want.sum())]))\n"
        )
        *equal, pairs = run_child(code)
        assert equal == [True, True, True] and pairs > 0

    def test_helper_thread_is_gone_after_the_call(self):
        code = _THREAD_SETUP + (
            "co._PARTITION_EVENTS = 1_000\n"
            "sweep, seen = co._sweep_counts, set()\n"
            "def watched(*args):\n"
            "    seen.add(threading.get_ident())\n"
            "    return sweep(*args)\n"
            "co._sweep_counts = watched\n"
            "before = threading.active_count()\n"
            "got = co.cross_correlate(*pair, config).counts\n"
            "print(json.dumps([len(seen), before, threading.active_count(),\n"
            "                  bool(np.array_equal(got, want))]))\n"
        )
        threads, before, after, equal = run_child(code)
        assert threads == 2 and after == before and equal

    def test_helper_failure_surfaces_and_joins(self):
        code = _THREAD_SETUP + (
            "co._PARTITION_EVENTS = 1_000\n"
            "sweep = co._sweep_counts\n"
            "def failing(*args):\n"
            "    if threading.current_thread() is not threading.main_thread():\n"
            "        raise RuntimeError('helper partition failed')\n"
            "    return sweep(*args)\n"
            "co._sweep_counts = failing\n"
            "before = threading.active_count()\n"
            "try:\n"
            "    co.cross_correlate(*pair, config)\n"
            "    error = None\n"
            "except RuntimeError as exc:\n"
            "    error = str(exc)\n"
            "print(json.dumps([error, before, threading.active_count()]))\n"
        )
        error, before, after = run_child(code)
        assert error == "helper partition failed" and after == before


class TestNormalize:
    def test_independent_poisson_is_flat_unity(self):
        rng = np.random.default_rng(21)
        duration = 1e-2
        n = int(1e6 * duration * 1e3)  # 1e6/s for 10 ms -> 1e4 events... keep rates high
        a = stream(rng.integers(0, int(duration * 1e12), 200_000), duration)
        b = stream(rng.integers(0, int(duration * 1e12), 200_000), duration)
        hist = co.cross_correlate(a, b, co.CorrelationConfig(100_000, -2_000_000, 2_000_000))
        curve = co.normalize_g2(hist)
        assert curve.g2.mean() == pytest.approx(1.0, abs=0.02)

    def test_zero_count_bins_get_unit_sigma(self):
        config = co.CorrelationConfig(10, 0, 30)
        hist = co.CorrelationHistogram(config, np.array([0, 4, 0]), 100, 100, 10**6)
        curve = co.normalize_g2(hist)
        scale = 10**6 / (100 * 100 * 10)
        assert curve.sigma[0] == pytest.approx(scale)
        assert curve.sigma[1] == pytest.approx(2 * scale)

    def test_empty_totals_rejected(self):
        config = co.CorrelationConfig(10, 0, 30)
        hist = co.CorrelationHistogram(config, np.zeros(3, dtype=np.int64), 0, 5, 10**6)
        with pytest.raises(co.CorrelationError):
            co.normalize_g2(hist)


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        a = stream(rng.integers(0, 10**9, 5_000), 1e-3)
        b = stream(rng.integers(0, 10**9, 5_000), 1e-3)
        hist = co.cross_correlate(a, b, co.CorrelationConfig(1_000, -50_000, 50_000))
        path = tmp_path / "hist.csv"
        co.write_histogram_csv(hist, path)
        first = path.read_bytes()
        assert first.startswith(b"tau_ps,counts,g2,sigma\n")
        assert b"\r" not in first
        tau, counts, g2, sigma = co.read_histogram_csv(path)
        curve = co.normalize_g2(hist)
        assert np.array_equal(counts, hist.counts)
        assert np.array_equal(g2, curve.g2)
        assert np.array_equal(sigma, curve.sigma)
        assert np.array_equal(tau, curve.tau_ps)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tau,count\n1,2\n")
        with pytest.raises(co.CorrelationError):
            co.read_histogram_csv(path)
