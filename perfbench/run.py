#!/usr/bin/env python3
"""Ranging-pipeline benchmark: times and checks bunchlidar's CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout root is this file's parent directory, and
bunchlidar is imported from its ``src``. A closed loop with one client: one
worker process runs one op at a time (see workloads.py for what an op is) for
about S seconds, and every op's outputs are checked. With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` a traced worker
reports the per-layer metrics, and an untraced worker beside it gives the
tracing overhead. The last line of stdout is one JSON object; a human-readable
table with units and sample counts comes before it. Full results, run
metadata and (traced) spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import COMPUTED, self_seconds_by_module  # noqa: E402

# Set-ups per untraced run; setup_s is their median.
SETUPS = 3
# Every worker must end this long after the run starts (the run's limit is 180 s).
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics but left out of the JSON line: it is 0
# on a correct program, and the line's "failed"/"attempted" carry it.
FAILED_FRAC = "ops_failed_frac"
PRINTED = {**END_TO_END, FAILED_FRAC: "fraction"}

PER_LAYER = {
    "photonsim.simulate_s": "s",
    "photonsim.dead_time_s": "s",
    "photonsim.events_out": "count",
    "photonsim.events_per_s": "1/s",
    "photonsim.peak_alloc_mb": "MB",
    "photonsim.candidates": "count",
    "photonsim.candidates_per_s": "1/s",
    "photonsim.detector_loss_frac": "fraction",
    "tagio.write_s": "s",
    "tagio.read_s": "s",
    "tagio.file_mb": "MB",
    "tagio.read_mb_per_s": "MB/s",
    "tagio.read_peak_alloc_mb": "MB",
    "correlator.correlate_s": "s",
    "correlator.events_in": "count",
    "correlator.pairs": "count",
    "correlator.pairs_per_s": "1/s",
    "correlator.peak_alloc_mb": "MB",
    "correlator.csv_write_s": "s",
    "correlator.csv_read_s": "s",
    "estimator.fit_s": "s",
    "estimator.iterations": "count",
    "estimator.points": "count",
    "presets.resolve_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARIABLES:
        env[name] = str(nproc())
    return env


class Workers:
    """Starts worker processes one at a time, each bounded by the run's deadline."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.env = child_env()

    def __call__(self, mode: str, seconds: float = 0.0, trace: bool = False) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError(f"no time left to start the {mode} worker")
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--dir", str(self.workdir),
               "--seconds", repr(seconds)] + (["--trace"] if trace else [])
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker still running at the deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        stem = mode + ("-traced" if trace else "")
        with open(self.workdir / f"{stem}.json") as f:
            result = json.load(f)
        if trace:
            with open(self.workdir / f"{stem}-spans.json") as f:
                result["spans"] = json.load(f)
        return result


def src_summary() -> dict:
    """Line count and content hash of the program's sources (the checkout
    the benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
            if path.suffix == ".py":
                lines += data.count(b"\n")
    return {"src_py_lines": lines, "src_sha256": digest.hexdigest()}


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def check_digests(name: str, ops: list[dict], store_path: Path) -> None:
    """Ops of a workload with the same scenario seed must write the same tag
    and CSV bytes, in this run and in every earlier run recorded in the store."""
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    for op in ops:
        if "tags_sha256" not in op:
            continue
        key = f"{name}/scenario-seed{op['scenario_seed']}"
        reference = store.setdefault(key, {k: op[k] for k in ("tags_sha256", "csv_sha256")})
        for k, expected in reference.items():
            if op[k] != expected:
                op["failures"].append(f"{k} {op[k]} differs from {expected} "
                                      "recorded for this workload and scenario seed")
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def end_to_end(setups: list[dict], worker: dict) -> dict:
    ops = worker["ops"]
    rates = [op["events"] / op["wall_s"] for op in ops if op.get("events")]
    failed = sum(1 for op in ops if op["failures"])
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), len(setups)),
        "pipeline_s": (median_of(ops, "wall_s"), len(ops)),
        "events_per_s": (statistics.median(rates) if rates else 0.0, len(rates)),
        "peak_rss_mb": (worker["peak_rss_mb"], 1),
        FAILED_FRAC: (failed / len(ops), len(ops)),
    }


def per_layer(setup: dict, untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    """Median over traced ops of each layer metric; layers an op never enters
    (photonsim in replay-wide) come from the traced set-up."""
    problems = []
    out = {}
    op_layers = [op["layers"] for op in traced["ops"]]
    op_layers.append({"trace.overhead_frac": median_of(traced["ops"], "wall_s")
                      / median_of(untraced["ops"], "wall_s") - 1.0})
    for name in PER_LAYER:
        values = [layers[name] for layers in op_layers if name in layers]
        if not values and name in setup.get("layers", {}):
            values = [setup["layers"][name]]
        if not values:
            problems.append(f"no span gave {name}")
            values = [0.0]
        out[name] = (statistics.median(values), len(values))
    return out, problems


def run(name: str, spec: dict, seed: int, seconds: float, trace: bool,
        out_dir: Path = ROOT / ".perfbench_out") -> dict:
    started = time.monotonic()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=work_root))
    try:
        (workdir / "job.json").write_text(json.dumps({"name": name, "spec": spec, "seed": seed}))
        worker = Workers(workdir, started)
        if trace:
            setups = [worker("setup", trace=True)]
            untraced = worker("ops", seconds=seconds / 2)
            traced = worker("ops", seconds=seconds / 2, trace=True)
            runs = [untraced, traced]
        else:
            setups = [worker("setup") for _ in range(SETUPS)]
            runs = [worker("ops", seconds=seconds)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = []
    inputs = {s["input_sha256"] for s in setups if "input_sha256" in s}
    if len(inputs) > 1:
        problems.append(f"set-ups wrote different input files: {sorted(inputs)}")
    ops = [op for r in runs for op in r["ops"]]
    check_digests(name, ops, out_dir / "digests.json")
    if trace:
        metrics, missing = per_layer(setups[0], untraced, traced)
        problems += missing
    else:
        metrics = end_to_end(setups, runs[0])
    units = PER_LAYER if trace else PRINTED
    failed = sum(1 for op in ops if op["failures"])
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "problems": problems,
        "metadata": {
            "workload": name,
            "why": spec["why"],
            "parameters": {k: v for k, v in spec.items() if k != "why"},
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "loop": "closed, 1 client, 1 op at a time in one worker process",
            "git_rev": git_rev(),
            **src_summary(),
            "nproc": nproc(),
            "thread_caps": {v: str(nproc()) for v in THREAD_VARIABLES},
            **runs[0]["versions"],
            "bunchlidar_file": runs[0]["bunchlidar_file"],
            "computed_metrics": list(COMPUTED) if trace else [],
        },
        "setups": [{k: v for k, v in s.items() if k != "spans"} for s in setups],
        "ops": ops,
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        traced_spans = traced["spans"]
        by_op = {}
        for span in traced_spans:
            by_op.setdefault(span["op"], []).append(span)
        per_op = [self_seconds_by_module(by_op[op["op"]]) for op in traced["ops"]]
        modules = sorted({m for p in per_op for m in p})
        result["self_s_by_module"] = {
            m: statistics.median(p.get(m, 0.0) for p in per_op) for m in modules}
        spans = {"self_s_by_module": result["self_s_by_module"],
                 "trace_overhead_frac": metrics["trace.overhead_frac"][0],
                 "setup_spans": setups[0]["spans"],
                 "op_spans": traced_spans}
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    result["results_file"] = str((out_dir / f"{stem}.json").relative_to(ROOT))
    return result


def print_report(result: dict) -> None:
    meta = result["metadata"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  trace {int(meta['trace'])}  "
          f"({meta['loop']})")
    print(f"  why: {meta['why']}")
    print(f"  {'metric':40s} {'value':>16s}  {'unit':10s} samples")
    for name, m in result["metrics"].items():
        label = name + (" (computed)" if name in meta["computed_metrics"] else "")
        print(f"  {label:40s} {m['value']:16.6g}  {m['unit']:10s} {m['samples']}")
    if "self_s_by_module" in result:
        print("  self time per op by module (s): " + ", ".join(
            f"{m} {s:.4g}" for m, s in result["self_s_by_module"].items()))
    digests = {(op["tags_sha256"], op["csv_sha256"]) for op in result["ops"] if "csv_sha256" in op}
    for tags, csv in sorted(digests):
        print(f"  sha256 tags {tags}  csv {csv}")
    for op in result["ops"]:
        for failure in op["failures"]:
            print(f"  op {op['op']} FAILED: {failure}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"results in {result['results_file']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int, help="non-negative workload seed")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "bunchlidar" / "cli.py").is_file():
        print(f"error: no bunchlidar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, workloads.WORKLOADS[args.workload], args.seed,
                     args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(result)
    metrics = {k: {"value": m["value"], "unit": m["unit"]}
               for k, m in result["metrics"].items() if k != FAILED_FRAC}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
