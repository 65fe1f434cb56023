#!/usr/bin/env python3
"""Print the process's peak RSS after each command of a benchmark workload's ops.

Runs N_OPS ops (default 3) of the named perfbench workload through
``cli.main`` in this one process, as a perfbench ops worker does, and prints
``ru_maxrss`` after every command, beside the current ``VmRSS`` (``-`` where
``/proc/self/status`` has none): a peak far above the current RSS is heap
the command freed, not data still live. The argv of each op comes from
perfbench/workloads.py itself (benchmark seed ``--seed``, default 1), so the
scenario seeds are those of a benchmark run with that seed. A replay workload
first writes its input tag file in a child process, as perfbench's set-up
worker does, so the ops' peak is not the set-up's; that line, op ``setup``,
prints the child's own peak, and ``-`` for the exited child's current RSS.

Usage: PYTHONPATH=src python scripts/peak_rss.py WORKLOAD [N_OPS] [--seed S]
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile

from digests import BENCHMARK_SEED, load_workloads, run


def _peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def _current_rss_mb():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return f"{int(line.split()[1]) * 1024 / 1e6:.1f}"
    except OSError:
        pass
    return "-"


def _run_in_child(argv):
    subprocess.run([sys.executable, "-m", "bunchlidar.cli", *argv], check=True,
                   stdout=subprocess.DEVNULL)


def _ops(workloads, spec, seed, n_ops, directory):
    tags = os.path.join(directory, "op.bin")
    csv = os.path.join(directory, "op.csv")
    analysis = [workloads.correlate_argv(spec, tags, csv),
                workloads.range_argv(csv, os.path.join(directory, "range.json"))]
    if spec["kind"] == "replay":
        config = os.path.join(directory, "input-config.json")
        with open(config, "w") as f:
            json.dump(workloads.input_config(spec, seed), f)
        yield "setup", workloads.simulate_argv(spec, seed, tags, config)
    for op in range(n_ops):
        if spec["kind"] != "replay":
            scenario_seed = workloads.scenario_seed(spec, seed, op)
            yield op, workloads.simulate_argv(spec, scenario_seed, tags)
        for argv in analysis:
            yield op, argv


def main(argv):
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("n_ops", nargs="?", type=int, default=3)
    parser.add_argument("--seed", type=int, default=BENCHMARK_SEED)
    args = parser.parse_args(argv)
    spec = workloads.WORKLOADS[args.workload]
    print(f"{'op':<6} {'command':<10} {'ru_maxrss_mb':>12} {'vm_rss_mb':>10}")
    with tempfile.TemporaryDirectory() as directory:
        for op, command in _ops(workloads, spec, args.seed, args.n_ops, directory):
            if op == "setup":
                _run_in_child(command)
                peak, current = _peak_rss_mb(resource.RUSAGE_CHILDREN), "-"
            else:
                run(command)
                peak, current = _peak_rss_mb(), _current_rss_mb()
            print(f"{op!s:<6} {command[0]:<10} {peak:>12.1f} {current:>10}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
