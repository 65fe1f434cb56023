"""Child process of the benchmark: one set-up, or one closed loop of ops.

    python3 perfbench/worker.py setup --dir WORKDIR [--trace]
    python3 perfbench/worker.py ops --dir WORKDIR --seconds S [--trace]

WORKDIR holds ``job.json`` (workload spec and seed) written by run.py. The
worker writes ``<mode>[-traced].json`` (results) and, when traced,
``<mode>-spans.json`` there. bunchlidar is imported from PYTHONPATH, which
run.py points at the checkout's ``src``. The set-up clock starts before any
import, so ``setup_s`` includes importing numpy, scipy and bunchlidar.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

# Events of stream a in the slice each op re-histograms with the brute-force
# oracle; small enough that the oracle's pair matrix (~1e6 int64) stays far
# below every workload's peak memory.
ORACLE_SLICE_EVENTS = 1000


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_truth(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)["truth"]


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in this process; returns (exit code, stderr text)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


class Paths:
    def __init__(self, workdir: Path, spec: dict):
        self.config = workdir / "input-config.json"
        self.input = workdir / "input.bin"
        self.tags = self.input if spec["kind"] == "replay" else workdir / "op.bin"
        self.truth = Path(f"{self.tags}.truth.json")
        self.csv = workdir / "op.csv"
        self.range = workdir / "range.json"

    def op_outputs(self, spec: dict) -> list[Path]:
        outputs = [self.csv, self.range]
        if spec["kind"] != "replay":
            outputs += [self.tags, self.truth]
        return outputs


class Checker:
    """Checks an op's outputs. Holds bunchlidar functions as they were before
    tracing was installed, so its own calls record no spans."""

    def __init__(self, spec: dict, seed: int, paths: Paths):
        from bunchlidar import correlator, presets, tagio
        from bunchlidar.photonsim import EventStream

        self.spec, self.seed, self.paths = spec, seed, paths
        self.read_tags = tagio.read_tags
        self.cross_correlate = correlator.cross_correlate
        self.oracle = correlator.cross_correlate_bruteforce
        self.EventStream = EventStream
        if spec["kind"] == "replay":
            bin_width, window = spec["bin_width_ps"], spec["window_ps"]
        else:
            settings = presets.correlation_from_document(presets.load_preset(spec["preset"]))
            bin_width, window = settings.bin_width_ps, settings.window_ps
        self.config = correlator.CorrelationConfig(bin_width, window[0], window[1])
        self._replay_streams = None

    def streams(self):
        if self.spec["kind"] != "replay":
            return self.read_tags(self.paths.tags)[0]
        if self._replay_streams is None:  # the input file is read-only for every op
            self._replay_streams = self.read_tags(self.paths.tags)[0]
        return self._replay_streams

    def oracle_mismatch(self, a, b, op: int) -> str | None:
        """Histogram a slice of the op's streams with the fast sweep and with
        the brute-force oracle; a different slice for every op."""
        n = min(ORACLE_SLICE_EVENTS, len(a))
        if n == 0 or len(b) == 0:
            return "empty stream"
        starts = len(a) - n + 1
        start = (op * 7919 + self.seed) % starts
        a_times = a.times[start:start + n]
        lo = int(a_times[0]) + self.config.tau_min_ticks
        hi = int(a_times[-1]) + self.config.tau_max_ticks
        b_times = b.times[b.times.searchsorted(lo):b.times.searchsorted(hi)]
        fast = self.cross_correlate(self.EventStream(0, a_times, a.duration_s),
                                    self.EventStream(1, b_times, b.duration_s),
                                    self.config).counts
        expected = self.oracle(a_times, b_times, self.config)
        if not (fast == expected).all():
            return f"slice histogram differs from the oracle at a[{start}:{start + n}]"
        if expected.sum() == 0:
            return f"slice a[{start}:{start + n}] has no pairs to compare"
        return None

    def check(self, op: int, exits: list[int], expected_commands: int) -> tuple[dict, dict | None]:
        """Returns (record of failures, digests and results; truth record)."""
        failures = []
        if len(exits) != expected_commands or any(code != 0 for code in exits):
            failures.append(f"CLI exit codes {exits}")
            return {"failures": failures}, None
        truth = read_truth(self.paths.truth)
        with open(self.paths.range) as f:
            fitted = json.load(f)
        distance, error = fitted["distance_m"], fitted["distance_err_m"]
        if not fitted["converged"]:
            failures.append("fit did not converge")
        if not (math.isfinite(error) and error > 0):
            failures.append(f"distance error {error} is not a positive number")
        elif abs(distance - truth["distance_m"]) > workloads.DISTANCE_SIGMAS * error:
            failures.append(f"distance {distance} m is more than {workloads.DISTANCE_SIGMAS} "
                            f"sigma ({error} m) from the truth {truth['distance_m']} m")
        a, b = self.streams()
        mismatch = self.oracle_mismatch(a, b, op)
        if mismatch:
            failures.append(mismatch)
        record = {
            "failures": failures,
            "events": len(a) + len(b),
            "distance_m": distance,
            "distance_err_m": error,
            "truth_distance_m": truth["distance_m"],
            "fit_iterations": fitted["n_iterations"],
            "tags_sha256": sha256(self.paths.tags),
            "csv_sha256": sha256(self.paths.csv),
        }
        return record, truth


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def setup(job: dict, workdir: Path, tracer: Tracer | None) -> dict:
    """Imports, preset resolution, and the replay workload's input file."""
    from bunchlidar import cli, presets

    spec, seed = job["spec"], job["seed"]
    paths = Paths(workdir, spec)
    span = nullcontext()
    if tracer is not None:
        tracer.install()
        tracemalloc.start()
        tracer.op = "setup"
        span = tracer.span("bench.setup")
    result = {}
    with span:
        if spec["kind"] == "replay":
            with open(paths.config, "w") as f:
                json.dump(workloads.input_config(spec, seed), f, indent=2)
            argv = workloads.simulate_argv(spec, seed, str(paths.input), str(paths.config))
            code, err = run_cli(cli, argv)
            if code != 0:
                raise RuntimeError(f"input simulation exited {code}: {err.strip()}")
            result["input_sha256"] = sha256(paths.input)
        else:
            doc = presets.load_preset(spec["preset"])
            for assignment in spec["overrides"]:
                presets.apply_dotted_override(doc, assignment)
            presets.validate_document(doc)
            presets.scenario_from_document(doc)
            presets.correlation_from_document(doc)
    result["setup_s"] = time.perf_counter() - _STARTED
    if tracer is not None:
        truth = read_truth(paths.truth) if spec["kind"] == "replay" else None
        result["layers"] = layer_metrics(tracer.spans, truth)
    return result


def ops(job: dict, workdir: Path, seconds: float, tracer: Tracer | None) -> dict:
    """Closed loop, one client: run ops back to back until the next one would
    end after ``seconds``; always at least one."""
    from bunchlidar import cli

    spec, seed = job["spec"], job["seed"]
    paths = Paths(workdir, spec)
    analysis = [workloads.correlate_argv(spec, str(paths.tags), str(paths.csv)),
                workloads.range_argv(str(paths.csv), str(paths.range))]
    checker = Checker(spec, seed, paths)
    if tracer is not None:
        tracer.install()
        tracemalloc.start()

    records = []
    cycle_s = []
    loop_start = time.perf_counter()
    while not records or (time.perf_counter() - loop_start
                          + statistics.median(cycle_s) <= seconds):
        cycle_start = time.perf_counter()
        op = len(records)
        scenario_seed = workloads.scenario_seed(spec, seed, op)
        argvs = analysis
        if spec["kind"] != "replay":
            argvs = [workloads.simulate_argv(spec, scenario_seed, str(paths.tags))] + analysis
        for path in paths.op_outputs(spec):
            path.unlink(missing_ok=True)
        exits, stderr = [], ""
        if tracer is not None:
            tracer.op = op
        span = tracer.span("bench.op") if tracer else nullcontext()
        t0, cpu0 = time.perf_counter(), time.process_time()
        wall = None
        try:
            with span:
                for argv in argvs:
                    code, stderr = run_cli(cli, argv)
                    exits.append(code)
                    if code != 0:
                        break
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            record, truth = checker.check(op, exits, len(argvs))
        except Exception:  # an op that crashes is a failed op, not a failed run
            record, truth = {"failures": [traceback.format_exc(limit=3)]}, None
        if wall is None:
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        if tracer is not None:
            tracer.op = None
        record.update(op=op, scenario_seed=scenario_seed, wall_s=wall, cpu_s=cpu, exits=exits)
        if stderr and record["failures"]:
            record["stderr"] = stderr.strip()[-500:]
        if tracer is not None:
            record["layers"] = layer_metrics(
                [s for s in tracer.spans if s["op"] == op], truth)
        records.append(record)
        cycle_s.append(time.perf_counter() - cycle_start)

    return {
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": versions(),
        "bunchlidar_file": sys.modules["bunchlidar"].__file__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "ops"))
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(args.dir / "job.json") as f:
        job = json.load(f)
    import bunchlidar

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(bunchlidar.__file__).resolve().parents:
        print(f"bunchlidar was imported from {bunchlidar.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = Tracer(track_memory=True) if args.trace else None
    if args.mode == "setup":
        result = setup(job, args.dir, tracer)
    else:
        result = ops(job, args.dir, args.seconds, tracer)
    stem = args.mode + ("-traced" if tracer else "")
    with open(args.dir / f"{stem}.json", "w") as f:
        json.dump(result, f)
    if tracer is not None:
        with open(args.dir / f"{stem}-spans.json", "w") as f:
            json.dump(tracer.spans, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
