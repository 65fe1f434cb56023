import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bunchlidar import estimator as est
from bunchlidar.quantities import DomainError, Medium


def model_curve(n_bins=240, width=0.25e-9, baseline=1.0, amplitude=1.0,
                delay=5e-9, coherence=10e-9, center=0.0):
    tau = center + (np.arange(n_bins) - n_bins // 2 + 0.5) * width
    g2 = est.binned_model(tau, width, (baseline, amplitude, delay, coherence))
    return tau, g2


class TestBinAttenuation:
    def test_narrow_bin_limit(self):
        assert est.bin_attenuation(1e-15, 23.2e-9) == pytest.approx(1.0, abs=1e-6)

    def test_two_ns_bins_on_23ns_coherence(self):
        assert est.bin_attenuation(2e-9, 23.2e-9) == pytest.approx(0.958, abs=5e-4)

    def test_bin_equal_to_coherence(self):
        assert est.bin_attenuation(1e-9, 1e-9) == pytest.approx(1 - math.exp(-1), rel=1e-12)

    def test_monotone_in_ratio(self):
        widths = np.linspace(1e-12, 100e-9, 50)
        values = [est.bin_attenuation(w, 23.2e-9) for w in widths]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSnrPredict:
    def test_saturation_rate_example(self):
        value = est.snr_predict(1e7, 0.6, 23e-9, 1e-3)
        assert value == 1e7 * 0.6 * math.sqrt(23e-9 * 1e-3)
        assert round(value, 1) == 28.8

    def test_zero_integration(self):
        assert est.snr_predict(1e7, 0.6, 23e-9, 0.0) == 0.0

    def test_sqrt_time_scaling(self):
        one = est.snr_predict(1e7, 0.6, 23e-9, 1e-3)
        four = est.snr_predict(1e7, 0.6, 23e-9, 4e-3)
        assert four == pytest.approx(2 * one, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            est.snr_predict(-1.0, 0.6, 23e-9, 1e-3)


class TestInitialGuess:
    def test_recovers_exact_model_roughly(self):
        tau, g2 = model_curve()
        guess = est.initial_guess(tau, g2, 0.25e-9)
        assert guess.baseline == pytest.approx(1.0, abs=0.2)
        assert guess.amplitude == pytest.approx(1.0, rel=0.2)
        assert guess.delay_s == pytest.approx(5e-9, abs=2 * 0.25e-9)
        assert guess.coherence_time_s == pytest.approx(10e-9, rel=0.2)

    def test_flat_input_floors(self):
        tau = np.arange(32) * 1e-9
        guess = est.initial_guess(tau, np.ones(32), 1e-9)
        assert guess.amplitude == 0.01
        assert guess.coherence_time_s >= 1e-9

    def test_desk_scale_noisy_peak_location(self):
        # 40 ps bins, tau_c ~ 1 ns, peak at 0.606 ns with shot noise:
        # the guessed delay lands within two bins of the truth
        rng = np.random.default_rng(12)
        width = 40e-12
        tau = (np.arange(500) - 250 + 0.5) * width
        counts = rng.poisson(est.binned_model(tau, width, (1.0, 1.0, 0.606e-9, 1.03e-9)) * 1200)
        guess = est.initial_guess(tau, counts / 1200.0, width)
        assert abs(guess.delay_s - 0.606e-9) <= 2 * width

    def test_too_few_points(self):
        with pytest.raises(est.FitError):
            est.initial_guess(np.arange(7) * 1e-9, np.ones(7), 1e-9)


class TestFit:
    def test_noiseless_exact_recovery(self):
        tau, g2 = model_curve()
        sigma = np.full_like(g2, 0.01)
        fit = est.fit_g2(tau, g2, sigma, 0.25e-9)
        assert fit.converged
        assert fit.baseline == pytest.approx(1.0, rel=1e-6)
        assert fit.amplitude == pytest.approx(1.0, rel=1e-6)
        assert fit.delay_s == pytest.approx(5e-9, rel=1e-6)
        assert fit.coherence_time_s == pytest.approx(10e-9, rel=1e-6)

    def test_poisson_noise_recovery_chi2(self):
        rng = np.random.default_rng(17)
        width = 40e-12
        tau = (np.arange(500) - 250 + 0.5) * width
        counts_scale = 1200.0
        truth = est.binned_model(tau, width, (1.0, 1.0, 0.606e-9, 1.03e-9))
        counts = rng.poisson(truth * counts_scale)
        g2 = counts / counts_scale
        sigma = np.sqrt(np.maximum(counts, 1)) / counts_scale
        fit = est.fit_g2(tau, g2, sigma, width)
        assert fit.converged
        assert fit.coherence_time_s == pytest.approx(1.03e-9, rel=0.1)
        assert fit.delay_s == pytest.approx(0.606e-9, abs=0.03e-9)
        assert 0.8 < fit.reduced_chi2 < 1.3

    def test_wide_bins_unbiased(self):
        # 2 ns bins with tau_c 23.2 ns: the bin-averaged model recovers the
        # unbinned amplitude even though the raw peak is attenuated by 0.958
        tau, g2 = model_curve(n_bins=400, width=2e-9, delay=0.0, coherence=23.2e-9)
        sigma = np.full_like(g2, 0.005)
        fit = est.fit_g2(tau, g2, sigma, 2e-9)
        assert fit.amplitude == pytest.approx(1.0, rel=1e-6)
        assert fit.binned_peak_g2() == pytest.approx(1.958, abs=2e-3)

    def test_translation_invariance(self):
        tau, g2 = model_curve()
        sigma = np.full_like(g2, 0.01)
        base = est.fit_g2(tau, g2, sigma, 0.25e-9)
        offset = 3.2e-9
        shifted = est.fit_g2(tau + offset, g2, sigma, 0.25e-9)
        assert shifted.delay_s - base.delay_s == pytest.approx(offset, rel=1e-9)
        assert shifted.amplitude == pytest.approx(base.amplitude, rel=1e-9)
        assert shifted.coherence_time_s == pytest.approx(base.coherence_time_s, rel=1e-9)

    def test_amplitude_scale_invariance(self):
        tau, g2 = model_curve(amplitude=0.5)
        sigma = np.full_like(g2, 0.01)
        base = est.fit_g2(tau, g2, sigma, 0.25e-9)
        scaled = est.fit_g2(tau, 1.0 + 3.0 * (g2 - 1.0), sigma, 0.25e-9)
        assert scaled.amplitude == pytest.approx(3 * base.amplitude, rel=1e-6)
        assert scaled.delay_s == pytest.approx(base.delay_s, abs=1e-15)
        assert scaled.coherence_time_s == pytest.approx(base.coherence_time_s, rel=1e-6)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        width = 0.5e-9
        tau = (np.arange(64) - 32 + 0.5) * width
        for _ in range(100):
            params = np.array([
                rng.uniform(0.5, 2.0),
                rng.uniform(0.05, 2.0),
                rng.uniform(-8e-9, 8e-9),
                rng.uniform(1e-9, 40e-9),
            ])
            # compare on bins farther than one bin from the kink, where the
            # model is smooth enough for 1e-6 central differences
            away = np.abs(tau - params[2]) > width
            jac = est.binned_model_jacobian(tau, width, params)
            coherence = params[3]
            steps = (1e-7, 1e-7 * max(params[1], 0.1), 1e-6 * coherence, 1e-6 * coherence)
            for k, h in enumerate(steps):
                step = np.zeros(4)
                step[k] = h
                up = est.binned_model(tau, width, params + step)
                down = est.binned_model(tau, width, params - step)
                numeric = (up - down) / (2 * h)
                scale = np.abs(jac[away, k]).max() + 1e-12
                assert np.allclose(
                    jac[away, k], numeric[away], rtol=1e-6, atol=1e-6 * scale
                ), f"param {k}"

    def test_sigma_must_be_positive(self):
        tau, g2 = model_curve()
        with pytest.raises(est.FitError):
            est.fit_g2(tau, g2, np.zeros_like(g2), 0.25e-9)

    def test_flat_input_fits_without_crash(self):
        tau = (np.arange(64) + 0.5) * 1e-9
        fit = est.fit_g2(tau, np.ones(64), np.full(64, 0.01), 1e-9)
        assert fit.converged
        assert fit.baseline == pytest.approx(1.0, abs=1e-6)

    def test_single_bin_spike_degenerates(self):
        # a delta-like spike drives tau_c below the bin-width floor
        tau = (np.arange(64) + 0.5) * 1e-9
        g2 = np.ones(64)
        g2[32] = 6.0
        with pytest.raises(est.DegenerateFitError):
            est.fit_g2(tau, g2, np.full(64, 0.01), 1e-9)


def edge_case_curve(n_bins, ratio, amplitude, where, sigma, seed, width=40e-12):
    """Noisy bin-averaged curve with tau_c = ratio * width and the peak at ``where``."""
    tau = (np.arange(n_bins) + 0.5) * width
    delay = {"left": tau[0], "right": tau[-1], "inside": tau[n_bins // 3],
             "out-left": tau[0] - 5 * width, "out-right": tau[-1] + 5 * width}[where]
    g2 = est.binned_model(tau, width, (1.0, amplitude, delay, ratio * width))
    g2 = g2 + sigma * np.random.default_rng(seed).standard_normal(n_bins)
    return tau, g2, np.full(n_bins, sigma), width


class TestFitContract:
    """fit_g2 returns a converged fit with finite uncertainties, or raises FitError."""

    @settings(max_examples=50, deadline=None)
    @given(
        n_bins=st.integers(8, 400),
        ratio=st.floats(0.3, 50.0),
        amplitude=st.sampled_from([0.0, 1e-4, 1e-2, 0.5]),
        where=st.sampled_from(["left", "right", "inside", "out-left", "out-right"]),
        log_sigma=st.floats(-4.0, -1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # 8-bin peaks at the window edge: the iteration limit, and a singular or
    # non-finite curvature at the minimum
    @example(n_bins=8, ratio=0.5, amplitude=0.5, where="left", log_sigma=-3.0, seed=4)
    @example(n_bins=8, ratio=2.0, amplitude=0.5, where="right", log_sigma=math.log10(0.03), seed=3)
    @example(n_bins=8, ratio=0.5, amplitude=0.01, where="right", log_sigma=-3.0, seed=2)
    def test_converged_and_finite_or_raises(self, n_bins, ratio, amplitude, where, log_sigma, seed):
        tau, g2, sigma, width = edge_case_curve(n_bins, ratio, amplitude, where, 10.0**log_sigma, seed)
        try:
            fit = est.fit_g2(tau, g2, sigma, width)
        except est.FitError:
            return
        assert fit.converged
        errors = (fit.baseline_err, fit.amplitude_err, fit.delay_err_s, fit.coherence_time_err_s)
        assert all(math.isfinite(e) for e in errors)

    # 500 bins of 40 ps at ~5 counts per bin, fitted as normalize_g2 builds
    # its input: these draws once "converged" to a delay of -13.3 ns with
    # delay_err_s = 0 (1380), or to a tau_c of 30 ns (1406)
    @pytest.mark.parametrize("seed, message", [
        (1380, "delay .* outside the binned span"),
        (1406, "coherence time .* wider than the binned span"),
    ], ids=["delay", "coherence-time"])
    def test_answer_outside_the_data_raises(self, seed, message):
        width = 40e-12
        tau = -10e-9 + (np.arange(500) + 0.5) * width
        shape = est.binned_model(tau, width, (1.0, 0.8, 0.6e-9, 1.03e-9))
        counts = np.random.default_rng(seed).poisson(5 * shape)
        with pytest.raises(est.FitNotConvergedError, match=message):
            est.fit_g2(tau, counts / 5, np.sqrt(np.maximum(counts, 1)) / 5, width)

    def test_iteration_limit_raises_with_count(self):
        tau, g2 = model_curve()
        with pytest.raises(est.FitNotConvergedError, match="after 1 iterations"):
            est.fit_g2(tau, g2 + 0.01, np.full_like(g2, 0.01), 0.25e-9, max_iterations=1)

    @pytest.mark.parametrize("which", ["tau", "g2", "sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, which, value):
        tau, g2 = model_curve()
        arrays = {"tau": tau, "g2": g2, "sigma": np.full_like(g2, 0.01)}
        arrays[which][7] = value
        with pytest.raises(est.FitError, match="finite"):
            est.fit_g2(arrays["tau"], arrays["g2"], arrays["sigma"], 0.25e-9)


class TestEstimateRange:
    def _fit(self, delay, delay_err, converged=True):
        return est.FitResult(
            baseline=1.0, amplitude=1.0, delay_s=delay, coherence_time_s=1e-9,
            delay_err_s=delay_err, converged=converged, n_points=100, bin_width_s=40e-12,
        )

    def test_desk_scale_delay(self):
        d, sigma = est.estimate_range(self._fit(0.606e-9, 0.008e-9))
        assert abs(d - 0.0910) < 1.2e-3
        assert sigma == pytest.approx(1.2e-3, abs=0.1e-3)

    def test_zero_delay(self):
        d, _ = est.estimate_range(self._fit(0.0, 1e-12))
        assert d == 0.0

    def test_long_range(self):
        d, sigma = est.estimate_range(self._fit(6439.73e-9, 0.13e-9))
        assert d == pytest.approx(965.29, abs=0.01)
        assert sigma == pytest.approx(0.0195, abs=0.001)

    def test_error_linear_in_delay_error(self):
        _, s1 = est.estimate_range(self._fit(1e-9, 1e-12))
        _, s3 = est.estimate_range(self._fit(1e-9, 3e-12))
        assert s3 == pytest.approx(3 * s1, rel=1e-12)

    def test_medium_scaling(self):
        d1, _ = est.estimate_range(self._fit(1e-9, 1e-12), Medium(1.0))
        d2, _ = est.estimate_range(self._fit(1e-9, 1e-12), Medium(2.0))
        assert d1 == pytest.approx(2 * d2, rel=1e-12)

    def test_unconverged_rejected(self):
        with pytest.raises(est.FitNotConvergedError):
            est.estimate_range(self._fit(1e-9, 1e-12, converged=False))


class TestSnrMeasure:
    def test_noiseless_reports_infinite(self):
        tau, g2 = model_curve(n_bins=400, width=1e-9, delay=0.0, coherence=5e-9)
        sigma = np.full_like(g2, 0.01)
        fit = est.fit_g2(tau, g2, sigma, 1e-9)
        report = est.snr_measure(tau, g2, fit, 1e7, 1e-3)
        assert math.isinf(report.measured_snr)

    def test_requires_off_peak_bins(self):
        tau, g2 = model_curve(n_bins=64, width=0.25e-9, delay=0.0, coherence=10e-9)
        sigma = np.full_like(g2, 0.01)
        fit = est.fit_g2(tau, g2, sigma, 0.25e-9)
        with pytest.raises(est.FitError):
            est.snr_measure(tau, g2, fit, 1e7, 1e-3)

    def test_measured_tracks_noise_level(self):
        rng = np.random.default_rng(31)
        tau, clean = model_curve(n_bins=600, width=1e-9, delay=0.0, coherence=5e-9)
        noise = 0.02
        g2 = clean + noise * rng.standard_normal(clean.size)
        sigma = np.full_like(g2, noise)
        fit = est.fit_g2(tau, g2, sigma, 1e-9)
        report = est.snr_measure(tau, g2, fit, 1e7, 1e-3)
        assert report.measured_snr == pytest.approx(fit.amplitude / noise, rel=0.2)


class TestExports:
    def test_fit_dict_and_table(self):
        fit = est.FitResult(
            baseline=1.0, amplitude=0.6, delay_s=1e-9, coherence_time_s=23.2e-9,
            reduced_chi2=1.1, n_points=100, converged=True, bin_width_s=2e-9,
        )
        record = est.fit_to_dict(fit)
        assert record["amplitude"] == 0.6
        assert record["binned_peak_g2"] == pytest.approx(1.0 + 0.6 * 0.958, abs=1e-3)
        table = est.format_record(record)
        assert "amplitude" in table and "=" in table
        assert list(record) == [
            "baseline", "baseline_err", "amplitude", "amplitude_err", "delay_s", "delay_err_s",
            "coherence_time_s", "coherence_time_err_s", "reduced_chi2", "n_points",
            "n_free_params", "converged", "n_iterations", "bin_width_s", "binned_peak_g2",
        ]

    def test_fit_result_is_keyword_only(self):
        with pytest.raises(TypeError):
            est.FitResult(1.0, 0.6, 1e-9, 23.2e-9)

    def test_json_dump_stable(self, tmp_path):
        record = {"b": 1, "a": 2}
        path = tmp_path / "out.json"
        est.dump_json(record, path)
        assert path.read_text().index('"a"') < path.read_text().index('"b"')
