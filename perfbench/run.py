#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload fuzz|library|contest --seed N \\
        --seconds S --trace 0|1

Run it from the root of a source checkout: the engine is imported from
``src/`` and the contest oracle from ``tests/``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the traced run with ``--trace 1``.  Dumps live under
``.perfbench/`` while a run needs them; the traced run also leaves its span
graph there as ``trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("fuzz", "library", "contest")


def _import_engine():
    """Put the checkout's engine and test oracle on the path; refuse to run
    outside a checkout rather than pick up an installed copy."""
    for needed in ("src/lakat/__init__.py", "tests/walk_oracle.py", "scenarios/fig5a.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} not found; run from the root of a lakat checkout")
    sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import lakat  # noqa: F401  (loads every engine module)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_engine()
    import importlib
    import statistics

    import checks
    from common import Meter, Outcome, metric
    from tracer import Tracer

    workload = importlib.import_module(args.workload)
    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer(enabled=bool(args.trace))
    tracer.install()
    outcome, meter = Outcome(), Meter(tracer)
    meter.start()
    try:
        result = workload.run(args.seed, args.seconds, meter, workdir, outcome)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": max(outcome.attempted, 1),
                          "failed": outcome.failed + 1, "metrics": {}}))
        return 1
    finally:
        meter.stop()
    facts = result["facts"]
    facts["speed_probes"] = len(meter.factors)
    facts["speed_factor_median"] = statistics.median(meter.factors)
    if args.trace:
        values = tracer.metrics()
        checks.trace_agrees(values, facts, outcome)
        metrics = {key: metric(value, unit) for key, (value, unit) in values.items()}
        metrics["trace.window_s"] = metric(facts["window_s"], "s")
        metrics["trace.ops_per_s"] = result["metrics"]["ops_per_s"]
        tracer.write(os.path.join(workdir, f"trace-{args.workload}-{args.seed}.json"))
    else:
        metrics = result["metrics"]
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"facts": facts}), file=sys.stderr)
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
