#!/usr/bin/env python3
"""Self-test of the benchmark on tiny workloads (about half a minute).

    python3 perfbench/selftest.py

Checks that every metric is emitted with a unit and a sample count, that
BENCHMARK.json names the same workloads and metrics as the code, and that a
corrupted result is counted as a failed op: a wrong truth distance, a tag
digest that differs from the recorded one, and a CLI that exits nonzero.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "tiny-simulate": dict(workloads.WORKLOADS["short-range"], duration_s=0.005),
    "tiny-replay": dict(workloads.WORKLOADS["replay-wide"],
                        scenario=dict(workloads.WORKLOADS["replay-wide"]["scenario"],
                                      duration_s=0.005)),
}
SEED = 3


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(result: dict, expected: dict) -> None:
    metrics = result["metrics"]
    check(set(metrics) == set(expected), f"metrics {sorted(metrics)} != {sorted(expected)}")
    for name, m in metrics.items():
        check(m["unit"] == expected[name] and m["unit"], f"{name} has unit {m['unit']!r}")
        check(m["samples"] >= 1 and isinstance(m["value"], (int, float)), f"{name}: {m}")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "BENCHMARK.json per_layer differs from run.PER_LAYER")


def in_process_ops(spec: dict, workdir: Path) -> dict:
    """One op of ``spec`` through worker.ops in this process."""
    job = {"name": "tiny", "spec": spec, "seed": SEED}
    return worker.ops(job, workdir, seconds=0.0, tracer=None)


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    check_benchmark_json()
    work_root = run.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
    try:
        out_dir = scratch / "out"
        for name, spec in TINY.items():
            result = run.run(name, spec, SEED, 0.5, trace=False, out_dir=out_dir)
            check(result["correct"] and result["failed"] == 0, f"{name}: {result['ops']}")
            check_metrics(result, run.PRINTED)
            traced = run.run(name, spec, SEED, 0.5, trace=True, out_dir=out_dir)
            check(traced["correct"], f"{name} traced: {traced['problems']} {traced['ops']}")
            check_metrics(traced, run.PER_LAYER)
            check((out_dir / f"{name}-seed{SEED}-trace1-spans.json").is_file(), "no spans file")

        # a tag digest that differs from the recorded one fails every op
        store = out_dir / "digests.json"
        digests = json.loads(store.read_text())
        first_op = workloads.scenario_seed(TINY["tiny-simulate"], SEED, 0)
        digests[f"tiny-simulate/scenario-seed{first_op}"]["tags_sha256"] = "0" * 64
        store.write_text(json.dumps(digests))
        result = run.run("tiny-simulate", TINY["tiny-simulate"], SEED, 0.5, trace=False,
                         out_dir=out_dir)
        failed = result["failed"]
        check(failed >= 1 and result["ops"][0]["failures"], "digest mismatch not counted")
        check(result["metrics"]["ops_failed_frac"]["value"] == failed / result["attempted"],
              "ops_failed_frac is not failed over attempted")
        check(not result["correct"], "digest mismatch reported as correct")

        # a wrong truth distance fails the op
        real_read_truth = worker.read_truth

        def shifted_truth(path):
            truth = real_read_truth(path)
            return dict(truth, distance_m=truth["distance_m"] + 1.0)

        worker.read_truth = shifted_truth
        try:
            ops = in_process_ops(TINY["tiny-simulate"], scratch)["ops"]
        finally:
            worker.read_truth = real_read_truth
        check(len(ops) == 1 and any("sigma" in f for f in ops[0]["failures"]),
              f"wrong truth distance not counted: {ops}")

        # a CLI that exits nonzero fails the op
        broken = dict(TINY["tiny-simulate"], overrides=["scenario.source_rate_hz=-1"])
        ops = in_process_ops(broken, scratch)["ops"]
        check(ops[0]["failures"] and ops[0]["exits"] == [1], f"nonzero exit not counted: {ops}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
