#!/usr/bin/env python3
"""Print SHA-256 digests of the pipeline's deterministic outputs.

For each preset at its own seed, and for the scenario of each benchmark
workload (the argv of perfbench/workloads.py replicated here, benchmark seed
1, first op), runs simulate -> correlate -> range through ``cli.main`` and
prints the digest of the tag file, the histogram CSV and the ``range --out``
JSON. Two more rows write the replay-wide scenario at 25 ps and as text, so
the tag writer's rounding path and the text writer are pinned too. A change
meant to keep the bytes prints the same table before and after; run it
against another checkout by pointing PYTHONPATH at its src.

Usage: PYTHONPATH=src python scripts/digests.py [NAME ...]
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile
import time

from bunchlidar import cli, presets

_SNR_SWEEP_DETECTOR = {"efficiency": 1.0, "jitter_fwhm_ps": 0.0, "dead_time_ps": 0.0,
                       "dark_rate_hz": 0.0}
_REPLAY_SCENARIO = {
    "wavelength_nm": 518.0,
    "coherence_time_ns": 23.2,
    "source_rate_hz": 2.0e7,
    "distance_m": 0.0,
    "split_probe": 0.5,
    "split_ref": 0.5,
    "probe_round_trip_transmission": 0.6,
    "ambient_rate_probe_hz": 4.0e6,
    "ambient_rate_ref_hz": 0.0,
    "detectors": [_SNR_SWEEP_DETECTOR, _SNR_SWEEP_DETECTOR],
    "duration_s": 0.05,
    "seed": 1,
}


def _preset_runs():
    for name in sorted(presets.PRESET_FILES):
        yield name, ["--preset", name], ["--preset", name]


def _workload_runs(directory):
    # a simulated workload's op k at benchmark seed s uses scenario seed 1000*s + k
    yield "wl-short-range", ["--preset", "short-range", "--seed", "1000"], ["--preset", "short-range"]
    bright = ["--preset", "short-range", "--set", "scenario.detectors=[{},{}]",
              "--set", "scenario.source_rate_hz=5e9", "--duration-s", "0.005", "--seed", "1000"]
    yield "wl-bright-deadtime", bright, ["--preset", "short-range"]
    config = os.path.join(directory, "replay.json")
    with open(config, "w") as f:
        json.dump({"scenario": _REPLAY_SCENARIO}, f)
    replay = ["--bin-width-ps", "12000", "--window-ps=-600000:600000"]
    yield "wl-replay-wide", ["--config", config, "--seed", "1"], replay
    # every other row writes at 1 ps; this one rounds and sets the rounded flag
    yield "wl-replay-wide-25ps", ["--config", config, "--seed", "1", "--resolution-ps", "25"], replay
    # the same file through the text writer
    yield "wl-replay-wide-text", ["--config", config, "--seed", "1", "--text"], replay


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _run(argv):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"bunchlidar {' '.join(argv)} exited {code}")


def main(names):
    with tempfile.TemporaryDirectory() as directory:
        runs = list(_preset_runs()) + list(_workload_runs(directory))
        unknown = set(names) - {name for name, _, _ in runs}
        if unknown:
            print(f"unknown names {sorted(unknown)}", file=sys.stderr)
            return 1
        print(f"{'name':<20} {'tags':<64} {'csv':<64} {'range':<64}")
        for name, simulate, correlate in runs:
            if names and name not in names:
                continue
            start = time.perf_counter()
            tags, csv, fit = (os.path.join(directory, f"{name}.{ext}") for ext in ("bin", "csv", "json"))
            _run(["simulate", *simulate, "--out", tags])
            _run(["correlate", *correlate, "--in", tags, "--out", csv])
            _run(["range", "--in", csv, "--out", fit])
            print(f"{name:<20} {_sha256(tags)} {_sha256(csv)} {_sha256(fit)}"
                  f"  # {time.perf_counter() - start:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
