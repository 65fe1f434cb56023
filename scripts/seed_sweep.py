#!/usr/bin/env python3
"""Rerun the statistics the acceptance criteria gate over many seeds.

For each scenario, simulates seeds SEED0 .. SEED0+N-1, fits the bunching
peak exactly as the acceptance suite does, and prints each statistic's mean,
standard error of the mean and pass rate against the acceptance band, and
the band's half-width in per-seed standard deviations (band/sd: for an
unbiased, normal statistic a band of 1 sd fails ~1 correct seed in 3, one of
3 sd ~1 in 370). A seed whose fit raises ``FitError`` counts as outside
every band of its scenario and is left out of the means; each scenario
reports how many failed. A sampler change that keeps the distribution keeps
these numbers within their standard errors; one lucky fixed seed shows
nothing of the kind.

For the distance (the three ranging scenarios) and for tau_c (ideal-thermal,
bunching-1ns) it also prints the mean, its standard error and the standard
deviation of the pull, (fit - truth) / sigma_fit: 0 and 1 when the fit is
unbiased and its sigma is right. For the ranging scenarios it prints, for
each fit parameter (baseline, amplitude, delay, tau_c), the scatter over
seeds divided by the median sigma_fit: 1 when the fit's sigma is right.

Scenarios (all by default, or name a subset):
  ideal-thermal   criterion 1: g2(0) and tau_c
  short-range     criterion 2: distance error and reduced chi2
  long-range-1km  criterion 3: distance error and washed-out peak
  long-range-2km  criterion 3 at 1851 m, the paper's headline range
  washout         criterion 4: raw peak-bin amplitude ratio at 2 ns bins
  bunching-1ns    the 1 ns fine-bin ground-truth scenario of the unit tests

Usage: PYTHONPATH=src python scripts/seed_sweep.py SEED0 N [SCENARIO ...]
"""

import collections
import dataclasses
import functools
import math
import sys
import time

import numpy as np

from bunchlidar import presets
from bunchlidar.correlator import CorrelationConfig, cross_correlate, normalize_g2
from bunchlidar.estimator import FitError, bin_attenuation, estimate_range, fit_g2
from bunchlidar.photonsim import IDEAL_DETECTOR, ScenarioConfig, simulate_ranging_scenario
from bunchlidar.quantities import SourceSpec


def _fit(scenario, bin_width_ps, window_ps):
    reference, probe, truth = simulate_ranging_scenario(scenario)
    config = CorrelationConfig(bin_width_ps, window_ps[0], window_ps[1])
    curve = normalize_g2(cross_correlate(reference, probe, config))
    fit = fit_g2(curve.tau_ps * 1e-12, curve.g2, curve.sigma, bin_width_ps * 1e-12)
    return fit, truth, curve


def _preset_fit(name, seed):
    doc = presets.load_preset(name)
    scenario = dataclasses.replace(presets.scenario_from_document(doc), seed=seed)
    settings = presets.correlation_from_document(doc)
    return _fit(scenario, settings.bin_width_ps, settings.window_ps)


def _tau_c_pull(fit, truth):
    return (fit.coherence_time_s - truth["coherence_time_s"]) / fit.coherence_time_err_s


def ideal_thermal(seed):
    fit, truth, _ = _preset_fit("ideal-thermal", seed)
    return {"g2(0)": fit.baseline + fit.amplitude, "tau_c_ns": fit.coherence_time_s * 1e9,
            "tau_c_pull": _tau_c_pull(fit, truth)}


def short_range(seed):
    fit, truth, _ = _preset_fit("short-range", seed)
    distance, sigma = estimate_range(fit)
    error = distance - truth["distance_m"]
    return {"d_error_mm": error * 1e3, "reduced_chi2": fit.reduced_chi2, "d_pull": error / sigma,
            "fit": fit}


def long_range(name, seed):
    fit, truth, _ = _preset_fit(name, seed)
    distance, sigma = estimate_range(fit)
    error = distance - truth["distance_m"]
    peak = fit.baseline + fit.amplitude * bin_attenuation(2e-9, fit.coherence_time_s)
    return {"d_error_m": error, "peak_g2": peak, "d_pull": error / sigma, "fit": fit}


def washout(seed):
    scenario = ScenarioConfig(
        source=SourceSpec(wavelength_m=518e-9, photon_rate_hz=4e6, coherence_time_s=23.2e-9),
        distance_m=0.0, duration_s=1.2, seed=seed,
        split_probe=0.5, split_ref=0.5, detector_ref=IDEAL_DETECTOR, detector_probe=IDEAL_DETECTOR,
    )
    _, _, curve = _fit(scenario, 2_000, (-101_000, 101_000))
    return {"peak_bin_ratio": float(curve.g2[50] - 1.0)}


def bunching_1ns(seed):
    scenario = ScenarioConfig(
        source=SourceSpec(wavelength_m=518e-9, photon_rate_hz=4.4e7, coherence_time_s=1e-9),
        distance_m=0.0, duration_s=0.08, seed=seed, split_probe=0.5, split_ref=0.5,
    )
    fit, truth, _ = _fit(scenario, 40, (-8_000, 8_000))
    return {"g2(0)_1ns": fit.baseline + fit.amplitude, "tau_c_1ns_ns": fit.coherence_time_s * 1e9,
            "tau_c_pull": _tau_c_pull(fit, truth)}


# FitResult value and sigma fields whose seed scatter is compared with the sigma
_FIT_PARAMETERS = {
    "baseline": ("baseline", "baseline_err"),
    "amplitude": ("amplitude", "amplitude_err"),
    "delay": ("delay_s", "delay_err_s"),
    "tau_c": ("coherence_time_s", "coherence_time_err_s"),
}
_LONG_RANGE_BANDS = {"d_error_m": (0.0, 0.05), "peak_g2": (1.59, 0.03)}

# scenario -> (function, {statistic: acceptance band as (centre, half-width)});
# a statistic without a band is a pull, and "fit" holds the FitResult
SCENARIOS = {
    "ideal-thermal": (ideal_thermal, {"g2(0)": (2.0, 0.05), "tau_c_ns": (23.2, 0.05 * 23.2)}),
    "short-range": (short_range, {"d_error_mm": (0.0, 1.5), "reduced_chi2": (1.05, 0.25)}),
    "long-range-1km": (functools.partial(long_range, "long-range-1km"), _LONG_RANGE_BANDS),
    "long-range-2km": (functools.partial(long_range, "long-range-2km"), _LONG_RANGE_BANDS),
    "washout": (washout, {"peak_bin_ratio": (0.958, 0.03)}),
    "bunching-1ns": (bunching_1ns, {"g2(0)_1ns": (2.0, 0.05), "tau_c_1ns_ns": (1.0, 0.05)}),
}


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    seed0, n = int(argv[0]), int(argv[1])
    names = argv[2:] or list(SCENARIOS)
    unknown = set(names) - set(SCENARIOS)
    if unknown:
        print(f"unknown scenarios {sorted(unknown)}; available: {list(SCENARIOS)}", file=sys.stderr)
        return 1
    print(f"{'statistic':<16} {'mean':>12} {'std err':>10} {'pass':>7} {'band/sd':>8}   band")
    for name in names:
        run, bands = SCENARIOS[name]
        start = time.perf_counter()
        samples = collections.defaultdict(list)
        failed = 0
        for seed in range(seed0, seed0 + n):
            try:
                statistics = run(seed)
            except FitError as exc:
                failed += 1
                print(f"# {name} seed {seed}: {type(exc).__name__}: {exc}", flush=True)
                continue
            for key, value in statistics.items():
                samples[key].append(value)
        elapsed = time.perf_counter() - start
        fits = samples.pop("fit", [])
        for key, (centre, half_width) in bands.items():
            values = np.asarray(samples[key])
            mean = values.mean() if values.size else float("nan")
            std = values.std(ddof=1) if values.size > 1 else float("nan")
            stderr = std / math.sqrt(values.size) if values.size > 1 else float("nan")
            passed = int(np.sum(np.abs(values - centre) <= half_width))
            print(f"{key:<16} {mean:>12.5f} {stderr:>10.5f} {passed:>3}/{n:<3} "
                  f"{half_width / std:>8.2f}   {centre:g} +/- {half_width:g}")
        for key in [key for key in samples if key not in bands]:
            values = np.asarray(samples[key])
            std = values.std(ddof=1) if values.size > 1 else float("nan")
            print(f"{key:<16} {values.mean():>12.5f} {std / math.sqrt(values.size):>10.5f}"
                  f"   std dev {std:.3f}; a pull is 0 +/- 1 if unbiased with the right sigma")
        if len(fits) > 1:  # the standard error of a standard deviation is ~ sd / sqrt(2 (n - 1))
            for label, (value, error) in _FIT_PARAMETERS.items():
                ratio = (np.std([getattr(fit, value) for fit in fits], ddof=1)
                         / np.median([getattr(fit, error) for fit in fits]))
                print(f"{'sd/sig ' + label:<16} {ratio:>12.5f} "
                      f"{ratio / math.sqrt(2 * (len(fits) - 1)):>10.5f}"
                      "   seed scatter over median sigma_fit; 1 if the sigma is right")
        print(f"# {name}: seeds {seed0}..{seed0 + n - 1}, {failed} failed fits, {elapsed:.1f} s",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
