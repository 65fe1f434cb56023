#!/usr/bin/env python3
"""Print SHA-256 digests of the pipeline's deterministic outputs.

For each preset at its own seed, and for each benchmark workload (built from
perfbench/workloads.py itself: benchmark seed 1, first op), runs simulate ->
correlate -> range through ``cli.main`` and prints the digest of the tag
file, the histogram CSV and the ``range --out`` JSON. Two more rows write the
replay-wide scenario at 25 ps, and as binary then ``convert --to text``, so
the tag writer's rounding path and the text writer are pinned too. A third
correlates the replay-wide tags in 262,144 bins of 4 ps, where every other
row has at most 500 bins, so the many-bins regime is pinned as well. The
short-range-convert row reads the short-range tags and writes them again
(``convert --to binary``, exact mode): ~6.8 M records, ~100 chunks through the
chunked tag reader and writer, so its tag digest equals the short-range row's.
A change meant to keep the bytes prints the same table before and after; run
it against another checkout by pointing PYTHONPATH at its src.

Usage: PYTHONPATH=src python scripts/digests.py [NAME ...]
"""

import contextlib
import hashlib
import importlib.util
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from bunchlidar import cli, presets

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
BENCHMARK_SEED = 1


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _paths(directory, name):
    return tuple(os.path.join(directory, f"{name}.{ext}") for ext in ("bin", "csv", "json"))


def _preset_runs(directory):
    for name in sorted(presets.PRESET_FILES):
        tags, csv, _ = _paths(directory, name)
        yield name, [["simulate", "--preset", name, "--out", tags],
                     ["correlate", "--preset", name, "--in", tags, "--out", csv]]


def _round_trip_runs(directory):
    tags, csv, _ = _paths(directory, "short-range-convert")
    yield "short-range-convert", [
        ["simulate", "--preset", "short-range", "--out", tags + ".original"],
        ["convert", "--in", tags + ".original", "--out", tags, "--to", "binary"],
        ["correlate", "--preset", "short-range", "--in", tags, "--out", csv]]


def _workload_runs(directory):
    workloads = load_workloads()
    for workload, spec in workloads.WORKLOADS.items():
        seed = workloads.scenario_seed(spec, BENCHMARK_SEED, 0)
        config = None
        if spec["kind"] == "replay":
            config = os.path.join(directory, f"{workload}.config.json")
            with open(config, "w") as f:
                json.dump(workloads.input_config(spec, seed), f)

        name = f"wl-{workload}"
        tags, csv, _ = _paths(directory, name)
        yield name, [workloads.simulate_argv(spec, seed, tags, config),
                     workloads.correlate_argv(spec, tags, csv)]
        if spec["kind"] == "replay":
            # every other row writes at 1 ps; this one rounds and sets the rounded flag
            tags, csv, _ = _paths(directory, f"{name}-25ps")
            yield f"{name}-25ps", [workloads.simulate_argv(spec, seed, tags, config)
                                   + ["--resolution-ps", "25"],
                                   workloads.correlate_argv(spec, tags, csv)]
            # the first row's tags written as binary, then converted to text
            tags, csv, _ = _paths(directory, f"{name}-text")
            yield f"{name}-text", [workloads.simulate_argv(spec, seed, tags + ".binary", config),
                                   ["convert", "--in", tags + ".binary", "--out", tags,
                                    "--to", "text"],
                                   workloads.correlate_argv(spec, tags, csv)]
            # the first row's tags in 262,144 bins of 4 ps over +-524 ns
            tags, csv, _ = _paths(directory, f"{name}-fine")
            yield f"{name}-fine", [workloads.simulate_argv(spec, seed, tags, config),
                                   ["correlate", "--bin-width-ps", "4",
                                    "--window-ps=-524288:524288", "--in", tags, "--out", csv]]


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run(argv):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"bunchlidar {' '.join(argv)} exited {code}")


def main(names):
    with tempfile.TemporaryDirectory() as directory:
        runs = (list(_preset_runs(directory)) + list(_round_trip_runs(directory))
                + list(_workload_runs(directory)))
        unknown = set(names) - {name for name, _ in runs}
        if unknown:
            print(f"unknown names {sorted(unknown)}", file=sys.stderr)
            return 1
        print(f"{'name':<20} {'tags':<64} {'csv':<64} {'range':<64}")
        for name, steps in runs:
            if names and name not in names:
                continue
            start = time.perf_counter()
            tags, csv, fit = _paths(directory, name)
            for argv in steps:
                run(argv)
            run(["range", "--in", csv, "--out", fit])
            print(f"{name:<20} {_sha256(tags)} {_sha256(csv)} {_sha256(fit)}"
                  f"  # {time.perf_counter() - start:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
