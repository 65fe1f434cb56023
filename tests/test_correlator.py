import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bunchlidar import correlator as co
from bunchlidar.photonsim import ConfigurationError, EventStream


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
        with pytest.raises(ConfigurationError):
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

    @pytest.mark.parametrize("min_rows", [1, 2, 7])
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_oracle_equality_offset_passes(self, min_rows, seed):
        # a tiny row threshold and a buffer floor of 1 force the offset passes,
        # compaction, mid-sweep flushes and tail runs split across flushes
        # on inputs this small
        rng = np.random.default_rng(seed)
        a, b = random_pair(rng)
        config = random_config(rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(co, "_SWEEP_MIN_ROWS", min_rows)
            mp.setattr(co, "_SWEEP_BUFFER", 1)
            got = co.cross_correlate(stream(a), stream(b), config).counts
        assert np.array_equal(got, co.cross_correlate_bruteforce(a, b, config))

    def test_tail_runs_split_across_flushes(self, monkeypatch):
        # two rows with 70-pair runs go to the slice tail, and a 7-lag buffer
        # (n_bins) splits each run over ten flushes
        monkeypatch.setattr(co, "_SWEEP_BUFFER", 1)
        a, b = np.array([0, 3]), np.arange(200)
        config = co.CorrelationConfig(10, 0, 70)
        got = co.cross_correlate(EventStream(0, a), EventStream(1, b), config).counts
        assert np.array_equal(got, co.cross_correlate_bruteforce(a, b, config))

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
        env = dict(os.environ, PYTHONPATH=str(Path(co.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=30, check=True)
        elapsed, counts = json.loads(done.stdout)
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


class TestMerge:
    def _hist(self, counts, n_a=10, n_b=20, duration=10**9):
        config = co.CorrelationConfig(10, 0, 10 * len(counts))
        return co.CorrelationHistogram(
            config, np.asarray(counts, dtype=np.int64), n_a, n_b, duration
        )

    def test_zero_is_identity(self):
        h = self._hist([1, 2, 3])
        z = self._hist([0, 0, 0], n_a=0, n_b=0, duration=0)
        merged = co.merge_histograms(h, z)
        assert np.array_equal(merged.counts, h.counts)
        assert merged.n_a == h.n_a and merged.duration_ticks == h.duration_ticks

    def test_commutative(self):
        h1, h2 = self._hist([1, 2, 3]), self._hist([4, 0, 1], n_a=3, n_b=7)
        m12, m21 = co.merge_histograms(h1, h2), co.merge_histograms(h2, h1)
        assert np.array_equal(m12.counts, m21.counts)
        assert (m12.n_a, m12.n_b, m12.duration_ticks) == (m21.n_a, m21.n_b, m21.duration_ticks)

    def test_config_mismatch_rejected(self):
        h1 = self._hist([1, 2, 3])
        h2 = co.CorrelationHistogram(
            co.CorrelationConfig(10, 10, 40), np.zeros(3, dtype=np.int64), 1, 1, 10
        )
        with pytest.raises(co.CorrelationError):
            co.merge_histograms(h1, h2)

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
