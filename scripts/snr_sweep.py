#!/usr/bin/env python3
"""Sweep integration time and compare measured peak SNR against the shot-noise bound.

Simulates a bunching scenario (amplitude 0.6, tau_c 23.2 ns, 1e7 events/s per
channel) for a range of integration times, measures SNR as fitted amplitude
over off-peak residual scatter, and prints measured vs predicted with the
log-log slope. Emits a plot-ready CSV if an output path is given.

Usage: python scripts/snr_sweep.py [out.csv]
"""

import math
import sys

import numpy as np

from bunchlidar.correlator import CorrelationConfig, cross_correlate, normalize_g2
from bunchlidar.estimator import fit_g2, snr_measure
from bunchlidar.photonsim import IDEAL_DETECTOR, ScenarioConfig, simulate_ranging_scenario
from bunchlidar.quantities import SourceSpec

RATE_HZ = 1e7
AMPLITUDE = 0.6


def scenario(duration_s: float, seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        source=SourceSpec(wavelength_m=518e-9, photon_rate_hz=2e7, coherence_time_s=23.2e-9),
        distance_m=0.0,
        duration_s=duration_s,
        seed=seed,
        split_probe=0.5,
        split_ref=0.5,
        probe_round_trip_transmission=AMPLITUDE,
        ambient_rate_probe_hz=(1.0 - AMPLITUDE) * RATE_HZ,
        detector_ref=IDEAL_DETECTOR,
        detector_probe=IDEAL_DETECTOR,
    )


def main() -> int:
    config = CorrelationConfig(12_000, -600_000, 600_000)
    rows = []
    for i, dt_ms in enumerate(np.geomspace(1.0, 100.0, 7)):
        ref, probe, _ = simulate_ranging_scenario(scenario(dt_ms * 1e-3, seed=900 + i))
        curve = normalize_g2(cross_correlate(ref, probe, config))
        fit = fit_g2(curve.tau_ps * 1e-12, curve.g2, curve.sigma, 12e-9)
        report = snr_measure(curve.tau_ps * 1e-12, curve.g2, fit, RATE_HZ, dt_ms * 1e-3)
        rows.append((dt_ms, report.measured_snr, report.predicted_snr))
        print(f"dT = {dt_ms:7.2f} ms  measured = {report.measured_snr:7.2f}  "
              f"predicted <= {report.predicted_snr:7.2f}")

    dts = np.array([r[0] for r in rows])
    measured = np.array([r[1] for r in rows])
    slope = np.polyfit(np.log(dts), np.log(measured), 1)[0]
    print(f"\nlog-log slope of measured SNR vs dT: {slope:.3f} (shot-noise scaling: 0.5)")

    if len(sys.argv) > 1:
        with open(sys.argv[1], "w", newline="\n") as f:
            f.write("dt_ms,measured_snr,predicted_snr\n")
            for dt_ms, m, p in rows:
                f.write(f"{dt_ms!r},{m!r},{p!r}\n")
        print(f"wrote {sys.argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
