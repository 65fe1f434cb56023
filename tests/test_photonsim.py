import hashlib
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bunchlidar import photonsim as ps
from bunchlidar.correlator import CorrelationConfig, cross_correlate, normalize_g2
from bunchlidar.estimator import fit_g2
from bunchlidar.quantities import DomainError, SourceSpec, TickOverflowError

TAU_C = 23.2e-9


def scan_block(work, lags, noise_x, noise_y, carry_x, carry_y, uniforms=None):
    """Run the block kernel on one block in ``work``; returns views of x, y, keep."""
    n = lags.size
    work.reserve(n)
    work.lags[:n] = lags
    work.x[:n] = noise_x
    work.y[:n] = noise_y
    work.u[:n] = 0.0 if uniforms is None else uniforms
    x, y = ps._gauss_markov_scan_pair(work, n, carry_x, carry_y, ps.DEFAULT_INTENSITY_CAP)
    return x, y, work.keep[:n]


def field_intensity(tau_c_steps, n_steps, seed, chunk=1_000_000):
    """Normalized intensity of the scenario path's field on a uniform step grid.

    Chains the block kernel over chunks through its carried-in state,
    starting from the stationary distribution.
    """
    rng = np.random.default_rng(seed)
    intensity = np.empty(n_steps)
    x = y = 0.0
    with ps._BlockWork() as work:
        for lo in range(0, n_steps, chunk):
            n = min(chunk, n_steps - lo)
            lags = np.full(n, 1.0 / tau_c_steps)
            if lo == 0:
                lags[0] = np.inf
            xs, ys, _ = scan_block(work, lags, rng.standard_normal(n), rng.standard_normal(n), x, y)
            intensity[lo : lo + n] = 0.5 * (xs * xs + ys * ys)
            x, y = xs[-1], ys[-1]
    return intensity


@pytest.fixture(scope="module")
def long_field():
    return field_intensity(100, 10_000_000, seed=20)


class TestFieldIntensity:
    def test_mean_is_one(self, long_field):
        assert abs(long_field.mean() - 1.0) < 0.01

    def test_variance_is_one(self, long_field):
        # complex Gaussian field: <I^2>/<I>^2 = 2, so Var(I) = 1
        assert abs(long_field.var() - 1.0) < 0.02

    def test_autocorrelation_at_coherence_time(self, long_field):
        lag = 100  # one coherence time at dt = tau_c/100
        corr = np.mean(long_field[:-lag] * long_field[lag:]) / long_field.mean() ** 2
        assert abs(corr - (1.0 + math.exp(-2.0))) < 0.02

    def test_samples_non_negative(self, long_field):
        assert long_field.min() >= 0.0

    def test_short_coherence_time_simulates(self):
        # the field is sampled at candidate times, so no grid bounds tau_c from below
        config = ps.ScenarioConfig(
            source=SourceSpec(wavelength_m=518e-9, photon_rate_hz=2e10, coherence_time_s=10e-12),
            duration_s=1e-6, seed=0, split_probe=0.5, split_ref=0.5,
        )
        for stream in ps.simulate_ranging_scenario(config)[:2]:
            assert len(stream) > 0
            assert np.all(np.diff(stream.times) >= 0)
            assert stream.times[0] >= 0 and stream.times[-1] <= stream.duration_ticks

    def test_deterministic(self):
        assert np.array_equal(field_intensity(100, 1000, seed=3), field_intensity(100, 1000, seed=3))


class TestGaussMarkovScan:
    @staticmethod
    def _sequential(lags, noise, carry):
        out = np.empty(lags.size)
        state = carry
        for i in range(lags.size):
            gain = math.exp(-lags[i]) if lags[i] < 37.0 else 0.0
            state = gain * state + math.sqrt(-math.expm1(-2.0 * lags[i])) * noise[i]
            out[i] = state
        return out

    @staticmethod
    def _random_block(n, seed):
        rng = np.random.default_rng(seed)
        lags = rng.exponential(rng.uniform(0.05, 30.0), n)
        # candidates that share a tick give zero lags
        lags[rng.random(n) < 0.2] = 0.0
        if rng.random() < 0.5:
            lags[0] = np.inf
        return lags, rng.standard_normal(n), rng.standard_normal(n), rng.random(n)

    def _check(self, work, n, seed):
        lags, nx, ny, u = self._random_block(n, seed)
        x, y, keep = scan_block(work, lags, nx, ny, 0.4, -1.1, uniforms=u)
        assert np.allclose(x, self._sequential(lags, nx, 0.4), atol=1e-9)
        assert np.allclose(y, self._sequential(lags, ny, -1.1), atol=1e-9)
        assert np.array_equal(keep, u * ps.DEFAULT_INTENSITY_CAP < 0.5 * (x * x + y * y))

    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_matches_sequential_recursion(self, n, seed):
        with ps._BlockWork() as work:
            self._check(work, n, seed)

    @pytest.mark.parametrize("tile_rows", [1, 2, 3])
    def test_tiles_and_thread_split(self, monkeypatch, tile_rows):
        # tiny tiles: blocks of up to 16 rows cross many tile boundaries and
        # the split between the two threads, with partial last rows; one
        # workspace serves blocks larger and smaller than those before
        monkeypatch.setattr(ps, "_TILE_ROWS", tile_rows)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two threads finely
        try:
            with ps._BlockWork() as work:
                for seed, n in enumerate([1, 64, 65, 130, 1000, 200, 577, 999, 3]):
                    self._check(work, n, seed)
        finally:
            sys.setswitchinterval(interval)

    def test_golden_field_bytes(self, monkeypatch):
        # the chains bit for bit, so a change to the kernel's arithmetic shows
        # even where it flips no thinning verdict; the digest is that of the
        # full-block scan this kernel replaced
        monkeypatch.setattr(ps, "_TILE_ROWS", 2)
        digest = hashlib.sha256()
        with ps._BlockWork() as work:
            for n, seed, mean_lag in [(1000, 31, 0.003), (777, 32, 2.0)]:
                rng = np.random.default_rng(seed)
                lags = rng.exponential(mean_lag, n)
                lags[rng.random(n) < 0.2] = 0.0
                lags[0] = np.inf
                nx, ny = rng.standard_normal(n), rng.standard_normal(n)
                x, y, _ = scan_block(work, lags, nx, ny, 0.4, -1.1)
                digest.update(x.tobytes())
                digest.update(y.tobytes())
        assert digest.hexdigest() == (
            "c816d478aac549fecd8fae51b5b665462e37e6ceec9614fe9a158bc000d8870d"
        )


def cox_arrivals(rates_hz, coherence_time_s, duration_s, seed):
    """Per-channel signal streams from the scenario path's sampler."""
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    return ps._sample_cox_channels(
        rates_hz, coherence_time_s, round(duration_s * 1e12), ps.DEFAULT_INTENSITY_CAP, *rngs
    )


class TestGenerateArrivals:
    def test_zero_rate_empty(self):
        (times,) = cox_arrivals([0.0], 1e-9, 1e-6, seed=2)
        assert times.size == 0

    def test_homogeneous_counts(self):
        # Cox counts: Poisson variance plus the thermal excess rate*tau_c
        rate, duration = 5e6, 0.01
        (times,) = cox_arrivals([rate], 1e-9, duration, seed=7)
        expected = rate * duration
        assert abs(times.size - expected) < 5 * math.sqrt(expected * (1 + rate * 1e-9))

    def test_times_sorted_within_duration(self, monkeypatch):
        # small blocks: block-local sorted segments must still concatenate sorted
        monkeypatch.setattr(ps, "_CANDIDATE_BLOCK", 1_000)
        for times in cox_arrivals([1e8, 3e8], 1e-9, 1e-4, seed=5):
            assert times.size > 0
            assert np.all(np.diff(times) >= 0)
            assert times[0] >= 0
            assert times[-1] < round(1e-4 * 1e12)

    def test_exact_ticks_at_full_tick_range(self, monkeypatch):
        # blocks spanning far more than 2**53 ticks still give exact integer times
        monkeypatch.setattr(ps, "_CANDIDATE_BLOCK", 1_000)
        duration_ticks = 2**63 - 1
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(8).spawn(3)]
        streams = ps._sample_cox_channels(
            [4e-5, 8e-5], 1e-9, duration_ticks, ps.DEFAULT_INTENSITY_CAP, *rngs
        )
        for times in streams:
            assert times.dtype == np.int64 and times.size > 50
            assert np.all(np.diff(times) >= 0)
            assert times[0] >= 0 and times[-1] < duration_ticks
            # a float draw at this span would land on multiples of 2**10
            assert np.any(times % 1024 != 0)

    def test_golden_bytes(self, monkeypatch):
        # several blocks, a buffer growth and many tiles per block; the
        # digests are those of the full-block scan this kernel replaced, so
        # a change that alters the random stream must update them on purpose
        monkeypatch.setattr(ps, "_CANDIDATE_BLOCK", 5_000)
        monkeypatch.setattr(ps, "_TILE_ROWS", 2)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(2024).spawn(3)]
        streams = ps._sample_cox_channels(
            [3e6, 6e7], 5e-9, 50_000_000, ps.DEFAULT_INTENSITY_CAP, *rngs
        )
        assert [s.size for s in streams] == [144, 2965]
        assert [hashlib.sha256(s.tobytes()).hexdigest() for s in streams] == [
            "ac1f409b3037bf6a98b7aeaee95b377907b273c67480c1706487538ddb35dca5",
            "3a5625d5615ca82ef357bffbc1764e59b1169d09d681835be8ce12fd828fbfcf",
        ]

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            SourceSpec(wavelength_m=518e-9, photon_rate_hz=-1.0, coherence_time_s=1e-9)


class TestSplitEvents:
    """Beam splitting: the scenario routes fixed fractions of the source rate."""

    def _counts(self, split_probe, split_ref, seed):
        source = SourceSpec(wavelength_m=518e-9, photon_rate_hz=5e6, coherence_time_s=1e-9)
        config = ps.ScenarioConfig(
            source=source, duration_s=0.04, seed=seed,
            split_probe=split_probe, split_ref=split_ref,
        )
        ref, probe, truth = ps.simulate_ranging_scenario(config)
        return len(ref), len(probe), truth

    def test_full_fraction_identity(self):
        n_ref, n_probe, truth = self._counts(1.0, 0.0, seed=1)
        assert n_ref == 0
        assert truth["signal_rate_probe_hz"] == 5e6
        assert n_probe > 0

    def test_asymmetric_92_4(self):
        n_ref, n_probe, _ = self._counts(0.92, 0.04, seed=2)
        for fraction, count in ((0.92, n_probe), (0.04, n_ref)):
            rate = 5e6 * fraction
            expected = rate * 0.04
            # Cox counts: Poisson variance plus the thermal excess rate*tau_c
            sigma = math.sqrt(expected * (1 + rate * 1e-9))
            assert abs(count - expected) < 5 * sigma

    def test_oversubscribed_fractions_rejected(self):
        with pytest.raises(ps.ConfigurationError):
            self._counts(1.5, 0.0, seed=0)

    def test_bunching_survives_balanced_split(self):
        # Bernoulli routing preserves thermal statistics: each arm of a 50:50
        # split still shows g2(0) = 2 against the other.
        source = SourceSpec(wavelength_m=518e-9, photon_rate_hz=2.4e6, coherence_time_s=TAU_C)
        config = ps.ScenarioConfig(
            source=source, distance_m=0.0, duration_s=0.35, seed=77,
            split_probe=0.5, split_ref=0.5,
        )
        arm_a, arm_b, _ = ps.simulate_ranging_scenario(config)
        hist = cross_correlate(arm_a, arm_b, CorrelationConfig(2_000, -150_000, 150_000))
        curve = normalize_g2(hist)
        fit = fit_g2(curve.tau_ps * 1e-12, curve.g2, curve.sigma, 2e-9)
        assert fit.baseline + fit.amplitude == pytest.approx(2.0, abs=0.05)


class TestDelayEvents:
    """Propagation delay: the probe arm is the zero-distance probe shifted by 2*d*n/c."""

    DURATION_S = 2e-5

    def _probe(self, distance_m):
        source = SourceSpec(wavelength_m=518e-9, photon_rate_hz=1e8, coherence_time_s=1e-9)
        config = ps.ScenarioConfig(
            source=source, duration_s=self.DURATION_S, seed=4, distance_m=distance_m,
            split_probe=0.5, split_ref=0.5,
        )
        _, probe, truth = ps.simulate_ranging_scenario(config)
        return probe.times, truth["delay_ticks"]

    def _assert_shifted(self, distance_m, delay_ticks):
        undelayed, _ = self._probe(0.0)
        delayed, ticks = self._probe(distance_m)
        assert ticks == delay_ticks
        shifted = undelayed + delay_ticks
        assert np.array_equal(delayed, shifted[shifted <= round(self.DURATION_S * 1e12)])
        assert delayed.size > 0

    def test_zero_delay_identity(self):
        # a round trip under half a tick rounds to no shift at all
        self._assert_shifted(0.4e-12 * 299792458.0 / 2, 0)

    def test_nanosecond_shift(self):
        self._assert_shifted(5e-9 * 299792458.0 / 2, 5_000)

    def test_long_range_shift(self):
        self._assert_shifted(6439.7e-9 * 299792458.0 / 2, 6_439_700)

    def test_negative_delay_rejected(self):
        with pytest.raises(ps.ConfigurationError):
            self._probe(-1e-3)

    def test_overflow_raises(self):
        # a round trip beyond the 64-bit tick range raises instead of wrapping
        with pytest.raises(TickOverflowError):
            self._probe(2e15)


def dead_time_filter_sequential(times, dead_ticks):
    """Event-by-event dead-time scan on Python ints: the oracle for dead_time_filter."""
    if dead_ticks <= 0 or times.size == 0:
        return times
    out = []
    last = None
    for t in times.tolist():
        if last is None or t - last >= dead_ticks:
            out.append(t)
            last = t
    return np.asarray(out, dtype=np.int64)


class TestDeadTime:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=3_000),
        st.integers(min_value=0, max_value=60),
        st.sampled_from([1, 2, 7, 50, 200, "span"]),
        st.booleans(),
    )
    @example(seed=1, n=3_000, mean_gap=10, dead="span", at_top=True)
    @example(seed=2, n=2_000, mean_gap=0, dead=1, at_top=False)
    @example(seed=3, n=3_000, mean_gap=20, dead=200, at_top=True)
    @settings(max_examples=150, deadline=None)
    def test_doubling_matches_sequential(self, seed, n, mean_gap, dead, at_top):
        # gaps of 0 give duplicate ticks; with 2 * mean_gap < dead the whole
        # stream is one close run; at_top puts the last tick within dead of
        # the top of int64, where t + dead would wrap
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.integers(0, 2 * mean_gap + 1, n), dtype=np.int64)
        if dead == "span":
            span = int(times[-1] - times[0]) if n else 0
            dead = max(1, span + int(rng.integers(0, 2)))
        if at_top and n:
            times += (2**63 - 1) - times[-1] - int(rng.integers(0, dead))
        got = ps.dead_time_filter(times, dead)
        want = dead_time_filter_sequential(times, dead)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_burst_is_fast(self):
        # 200k events at 1e9/s into 50 ns: one close run the length of the
        # stream, where a filter quadratic in the run length takes minutes
        rng = np.random.default_rng(5)
        times = np.sort(rng.integers(0, 200_000_000, 200_000)).astype(np.int64)
        dead = 50_000
        assert int(np.diff(times).max()) < dead
        start = time.perf_counter()
        got = ps.dead_time_filter(times, dead)
        elapsed = time.perf_counter() - start
        assert np.array_equal(got, dead_time_filter_sequential(times, dead))
        assert elapsed < 2.0

    def test_known_chain(self):
        # c recovers because b was dropped, d then falls inside c's dead time
        times = np.array([0, 30, 60, 80], dtype=np.int64)
        assert ps.dead_time_filter(times, 50).tolist() == [0, 60]

    def test_saturation_rate(self):
        # non-paralyzable throughput: r_out = r_in / (1 + r_in * dead)
        rate_in = 1e8
        duration = 0.01
        rng = np.random.default_rng(11)
        n = rng.poisson(rate_in * duration)
        times = np.sort(rng.integers(0, int(duration * 1e12), n, dtype=np.int64))
        kept = ps.dead_time_filter(times, 50_000)
        expected = rate_in / (1 + rate_in * 50e-9) * duration
        assert kept.size == pytest.approx(expected, rel=0.03)


class TestApplyDetector:
    """The detector chain after thinning: background, dead time, jitter, clip."""

    def _times(self, n=100_000, duration=1e-3, seed=0):
        return np.sort(np.random.default_rng(seed).integers(0, int(duration * 1e12), n))

    def _detect(self, times, spec, ambient_rate_hz, duration, seed):
        return ps._detector_noise(
            times, spec, ambient_rate_hz, duration, np.random.default_rng(seed)
        )

    def test_ideal_detector_is_identity(self):
        times = self._times()
        out = self._detect(times, ps.IDEAL_DETECTOR, 0.0, 1e-3, seed=1)
        assert np.array_equal(out, times)

    def test_background_rate_added(self):
        spec = ps.DetectorSpec(efficiency=1.0, jitter_fwhm_s=0.0, dead_time_s=0.0, dark_rate_hz=100.0)
        out = self._detect(np.empty(0, dtype=np.int64), spec, 1e6, 1e-2, seed=3)
        expected = (1e6 + 100.0) * 0.01
        assert abs(out.size - expected) < 5 * math.sqrt(expected)

    def test_jitter_keeps_times_in_bounds(self):
        times = self._times(n=20_000, duration=1e-6, seed=4)
        spec = ps.DetectorSpec(efficiency=1.0, jitter_fwhm_s=40e-12, dead_time_s=0.0, dark_rate_hz=0.0)
        out = self._detect(times, spec, 0.0, 1e-6, seed=5)
        assert np.all(np.diff(out) >= 0)
        assert out[0] >= 0 and out[-1] <= round(1e-6 * 1e12)

    def test_jitter_spread_matches_fwhm(self):
        times = np.full(200_000, 500_000, dtype=np.int64)
        spec = ps.DetectorSpec(efficiency=1.0, jitter_fwhm_s=40e-12, dead_time_s=0.0, dark_rate_hz=0.0)
        out = self._detect(times, spec, 0.0, 1e-6, seed=6)
        sigma_ps = np.std(out.astype(np.float64) - 500_000)
        assert sigma_ps == pytest.approx(40.0 / (2 * math.sqrt(2 * math.log(2))), rel=0.02)


class TestScenario:
    def _config(self, **overrides):
        base = dict(
            source=SourceSpec(wavelength_m=518e-9, photon_rate_hz=4e5, coherence_time_s=TAU_C),
            distance_m=0.0,
            duration_s=0.2,
            seed=55,
            split_probe=0.5,
            split_ref=0.5,
        )
        base.update(overrides)
        return ps.ScenarioConfig(**base)

    def test_deterministic_streams(self):
        ref1, probe1, truth1 = ps.simulate_ranging_scenario(self._config())
        ref2, probe2, truth2 = ps.simulate_ranging_scenario(self._config())
        assert np.array_equal(ref1.times, ref2.times)
        assert np.array_equal(probe1.times, probe2.times)
        assert truth1 == truth2

    def test_no_helper_thread_left_running(self):
        before = threading.active_count()
        ps.simulate_ranging_scenario(self._config(duration_s=0.01))
        assert threading.active_count() == before

    def test_zero_duration(self):
        ref, probe, _ = ps.simulate_ranging_scenario(self._config(duration_s=0.0))
        assert len(ref) == 0 and len(probe) == 0

    def test_zero_distance_peak_at_origin(self):
        ref, probe, _ = ps.simulate_ranging_scenario(self._config(duration_s=1.0, seed=66))
        hist = cross_correlate(ref, probe, CorrelationConfig(1_000, -150_000, 150_000))
        curve = normalize_g2(hist)
        fit = fit_g2(curve.tau_ps * 1e-12, curve.g2, curve.sigma, 1e-9)
        assert abs(fit.delay_s) < 3 * fit.delay_err_s
        assert fit.baseline + fit.amplitude == pytest.approx(2.0, abs=0.12)

    def test_stationary_rate(self):
        ref, _, _ = ps.simulate_ranging_scenario(self._config(duration_s=1.0, seed=67))
        # rate constant over windows >> 100 tau_c within 5 sigma Poisson
        edges = np.linspace(0, ref.duration_ticks, 21)
        counts, _ = np.histogram(ref.times, bins=edges)
        expected = len(ref) / 20
        assert np.all(np.abs(counts - expected) < 5 * math.sqrt(expected))

    def test_thinning_invariance(self):
        # halving efficiency halves the rate but neither g2(0) nor tau_c moves
        fits = []
        for efficiency, seed in ((1.0, 31), (0.5, 32)):
            det = ps.DetectorSpec(
                efficiency=efficiency, jitter_fwhm_s=0.0, dead_time_s=0.0, dark_rate_hz=0.0
            )
            config = self._config(
                source=SourceSpec(wavelength_m=518e-9, photon_rate_hz=3.2e6, coherence_time_s=TAU_C),
                duration_s=0.5, seed=seed, detector_ref=det, detector_probe=det,
            )
            ref, probe, truth = ps.simulate_ranging_scenario(config)
            assert len(ref) == pytest.approx(
                truth["signal_rate_reference_hz"] * 0.5, rel=0.02
            )
            hist = cross_correlate(ref, probe, CorrelationConfig(2_000, -150_000, 150_000))
            curve = normalize_g2(hist)
            fits.append(fit_g2(curve.tau_ps * 1e-12, curve.g2, curve.sigma, 2e-9))
        for fit in fits:
            assert fit.baseline + fit.amplitude == pytest.approx(2.0, abs=0.06)
            assert fit.coherence_time_s == pytest.approx(TAU_C, rel=0.1)

    def test_truth_record_contents(self):
        _, _, truth = ps.simulate_ranging_scenario(self._config(distance_m=1.5))
        assert truth["delay_ticks"] == round(2 * 1.5 / 299792458.0 * 1e12)
        assert truth["probe_signal_fraction"] == 1.0
        assert truth["signal_rate_probe_hz"] == pytest.approx(2e5)

    def test_bunching_ground_truth_1ns(self):
        # fine bins (w <= tau_c/20): g2(0) = 2.00 +/- 0.05 and tau_c within 5%
        # (the 23.2 ns twin runs at full scale in the acceptance suite)
        config = self._config(
            source=SourceSpec(wavelength_m=518e-9, photon_rate_hz=4.4e7, coherence_time_s=1e-9),
            duration_s=0.012, seed=91,
        )
        ref, probe, _ = ps.simulate_ranging_scenario(config)
        hist = cross_correlate(ref, probe, CorrelationConfig(40, -8_000, 8_000))
        curve = normalize_g2(hist)
        fit = fit_g2(curve.tau_ps * 1e-12, curve.g2, curve.sigma, 40e-12)
        assert fit.baseline + fit.amplitude == pytest.approx(2.0, abs=0.05)
        assert fit.coherence_time_s == pytest.approx(1e-9, rel=0.05)

    def test_multi_seed_mean_matches_truth(self):
        # one fixed seed passes a ~1 s.e. band only by luck; the mean over K
        # seeds of a short 1 ns run must sit within 3 s.e. of the truth
        truth = np.array([2.0, 1e-9])  # g2(0), tau_c
        samples = []
        for seed in range(12):
            config = self._config(
                source=SourceSpec(wavelength_m=518e-9, photon_rate_hz=4.4e7, coherence_time_s=1e-9),
                duration_s=0.004, seed=seed,
            )
            ref, probe, _ = ps.simulate_ranging_scenario(config)
            curve = normalize_g2(cross_correlate(ref, probe, CorrelationConfig(40, -8_000, 8_000)))
            fit = fit_g2(curve.tau_ps * 1e-12, curve.g2, curve.sigma, 40e-12)
            samples.append((fit.baseline + fit.amplitude, fit.coherence_time_s))
        samples = np.array(samples)
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
        assert np.all(stderr < 0.05 * truth), stderr  # resolves a 15% bias
        assert np.all(np.abs(mean - truth) <= 3 * stderr), (mean, stderr)

    def test_split_sum_enforced(self):
        with pytest.raises(ps.ConfigurationError):
            self._config(split_probe=0.7, split_ref=0.4)

    def test_negative_seed_rejected(self):
        with pytest.raises(ps.ConfigurationError, match="seed"):
            self._config(seed=-1)


class TestEventStream:
    def test_times_read_only_caller_array_writable(self):
        caller = np.array([1, 5, 9], dtype=np.int64)
        stream = ps.EventStream(0, caller, 1e-9)
        with pytest.raises(ValueError):
            stream.times[0] = 7
        caller[0] = 2  # the caller's own array is not frozen
        assert caller.flags.writeable

    @pytest.mark.parametrize("last", [0, 2**53 + 1, 2**63 - 1])
    def test_omitted_duration_is_last_tick_exactly(self, last):
        stream = ps.EventStream(1, np.array([0, last], dtype=np.int64))
        assert stream.duration_ticks == last
        assert stream.duration_s == last / 10**12
        empty = ps.EventStream(1, np.empty(0, dtype=np.int64))
        assert (empty.duration_ticks, empty.duration_s) == (0, 0.0)

    def test_positional_duration_in_seconds(self):
        stream = ps.EventStream(0, np.array([3, 340_000_000_000]), 0.34)
        assert (stream.duration_s, stream.duration_ticks) == (0.34, 340_000_000_000)

    @pytest.mark.parametrize("times, duration_s", [
        ([-1, 3], None),
        ([1, 2_000], 1e-9),
        ([1], -1.0),
    ])
    def test_range_invariants_rejected(self, times, duration_s):
        # order is covered by test_correlator's test_unsorted_rejected
        with pytest.raises(ps.ConfigurationError):
            ps.EventStream(0, np.array(times, dtype=np.int64), duration_s)
