#!/usr/bin/env python3
"""Run each workload over several seeds and summarise the spread.

    python3 perfbench/reference.py

Every workload runs once per seed 1..10 for ``run_seconds`` of
``BENCHMARK.json``.  For every end-to-end metric it prints the median and
the distance between the first and third quartile as a share of the median,
and the share of failed operations of every run.  It then makes one traced
run per workload (seed 1) and prints the tracing overhead: the untraced
operation rate of seed 1 over the traced one.  Results are also written to
``.perfbench/reference.json``.  Run it from the root of the checkout.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fuzz", "library", "contest")
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True, check=False, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    report = {}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        shares = sorted({str(Fraction(r["failed"], r["attempted"])) for r in runs})
        correct = all(r["correct"] for r in runs)
        wall = max(r["wall_s"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, all correct: {correct}, failed shares: {shares}, "
              f"longest run {wall:.0f}s wall")
        entry = {"correct": correct, "failed_shares": shares, "longest_wall_s": wall, "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med, rel = spread(values)
            entry["metrics"][name] = {"median": med, "spread": rel, "unit": unit, "values": values}
            print(f"  {name:26s} {med:14.4f} {unit:6s} spread {rel:6.3f}")
        traced = run_once(workload, SEEDS[0], seconds, 1)
        untraced_rate = runs[0]["metrics"]["ops_per_s"]["value"]
        overhead = untraced_rate / traced["metrics"]["trace.ops_per_s"]["value"]
        entry["trace_overhead"] = overhead
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"  tracing overhead (untraced / traced ops_per_s, seed {SEEDS[0]}): {overhead:.2f}x")
        report[workload] = entry
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", "reference.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
