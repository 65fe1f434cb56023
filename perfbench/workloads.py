"""Benchmark workloads: the CLI argv of one op, and why each workload exists.

An op is the README quick-start run through ``bunchlidar.cli.main`` in one
process: ``simulate`` -> ``correlate`` -> ``range`` for the simulating
workloads, and ``correlate`` -> ``range`` on a tag file made during set-up for
``replay-wide``. Every scenario seed comes from the benchmark's ``--seed``.
"""

from __future__ import annotations

# Both detectors left at the DetectorSpec defaults: 50 ns dead time, 100 Hz dark.
_DEFAULT_DETECTORS = "scenario.detectors=[{},{}]"

# scripts/snr_sweep.py working point: tau_c 23.2 ns, ~1e7 events/s per channel,
# bunching amplitude 0.6 with the rest of the probe rate as ambient light.
_IDEAL_DETECTOR = {"efficiency": 1.0, "jitter_fwhm_ps": 0.0, "dead_time_ps": 0.0,
                   "dark_rate_hz": 0.0}
_SNR_SWEEP_SCENARIO = {
    "wavelength_nm": 518.0,
    "coherence_time_ns": 23.2,
    "source_rate_hz": 2.0e7,
    "distance_m": 0.0,
    "split_probe": 0.5,
    "split_ref": 0.5,
    "probe_round_trip_transmission": 0.6,
    "ambient_rate_probe_hz": 4.0e6,
    "ambient_rate_ref_hz": 0.0,
    "detectors": [_IDEAL_DETECTOR, _IDEAL_DETECTOR],
}

WORKLOADS = {
    "short-range": {
        "why": "the short-range preset unchanged: the simulator's 10 ps field grid "
               "takes ~90% of an op and the detector chain does no work",
        "kind": "simulate",
        "preset": "short-range",
        "overrides": [],
        "duration_s": None,
    },
    "bright-deadtime": {
        "why": "short-range geometry at 5e9 photons/s with default detectors, so "
               "the dead-time filter does real work that short-range bypasses",
        "kind": "simulate",
        "preset": "short-range",
        "overrides": [_DEFAULT_DETECTORS, "scenario.source_rate_hz=5e9"],
        "duration_s": 0.005,
    },
    "replay-wide": {
        "why": "one tag file made in set-up and correlated in every op over a "
               "+-600 ns window, so tag reading and the pair sweep do the work",
        "kind": "replay",
        "scenario": dict(_SNR_SWEEP_SCENARIO, duration_s=0.05),
        "bin_width_ps": 12_000,
        "window_ps": [-600_000, 600_000],
    },
}

# An op fails when its fitted distance is further than this from the truth,
# in units of the fit's own one-sigma distance error.
DISTANCE_SIGMAS = 5.0


def scenario_seed(spec: dict, seed: int, op: int) -> int:
    """Scenario seed of op ``op`` in a run with benchmark seed ``seed``.

    Each simulated op draws its own inputs, so a run's median spans several
    inputs: the dead-time filter's cost follows the longest burst of close
    events, which varies from input to input. Replay ops share one input.
    """
    return seed if spec["kind"] == "replay" else seed * 1000 + op


def input_config(spec: dict, seed: int) -> dict:
    """Run-configuration document for the tag file a replay workload reads."""
    return {"scenario": dict(spec["scenario"], seed=seed)}


def simulate_argv(spec: dict, seed: int, tags: str, config: str | None = None) -> list[str]:
    if spec["kind"] == "replay":
        return ["simulate", "--config", config, "--seed", str(seed), "--out", tags]
    argv = ["simulate", "--preset", spec["preset"]]
    for assignment in spec["overrides"]:
        argv += ["--set", assignment]
    if spec["duration_s"] is not None:
        argv += ["--duration-s", repr(spec["duration_s"])]
    return argv + ["--seed", str(seed), "--out", tags]


def correlate_argv(spec: dict, tags: str, csv: str) -> list[str]:
    if spec["kind"] == "replay":
        lo, hi = spec["window_ps"]
        return ["correlate", "--bin-width-ps", str(spec["bin_width_ps"]),
                f"--window-ps={lo}:{hi}", "--in", tags, "--out", csv]
    return ["correlate", "--preset", spec["preset"], "--in", tags, "--out", csv]


def range_argv(csv: str, out: str) -> list[str]:
    return ["range", "--in", csv, "--out", out]
