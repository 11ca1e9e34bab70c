#!/usr/bin/env python3
"""Regenerate the frozen golden transcript hashes and final-state digests
for the shipped scenarios and for two short finality-fuzz runs.

Run only after deliberately reviewing a behavior change:

    python3 scripts/freeze_golden.py
"""

import json
import os
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from fuzz_driver import FUZZ_GOLDEN_EVENTS, FUZZ_GOLDEN_SEEDS, FuzzRun, state_digest  # noqa: E402
from lakat.scenario import Runner, parse_scenario  # noqa: E402


def main():
    golden, states, fuzz = {}, {}, {}
    for name in ("fig5a", "fig5b"):
        with open(os.path.join(ROOT, "scenarios", f"{name}.json")) as fh:
            scenario = parse_scenario(fh.read())
        runner = Runner(scenario)
        report = runner.run()
        if not report.ok:
            print(f"{name}: expectations FAILED; refusing to freeze", file=sys.stderr)
            return 1
        golden[name] = report.transcript_hash
        states[name] = state_digest(runner.world, report.assertions)
        print(f"{name}: transcript {report.transcript_hash}  state {states[name]}")
    for seed in FUZZ_GOLDEN_SEEDS:
        run = FuzzRun(seed).run(FUZZ_GOLDEN_EVENTS)
        if run.violations:
            print(f"fuzz seed {seed}: prefix violations; refusing to freeze", file=sys.stderr)
            return 1
        fuzz[str(seed)] = {"transcript": run.world.transcript_hash(), "state": state_digest(run.world)}
        print(f"fuzz seed {seed}: transcript {fuzz[str(seed)]['transcript']}  state {fuzz[str(seed)]['state']}")
    out_dir = os.path.join(ROOT, "tests", "golden")
    os.makedirs(out_dir, exist_ok=True)
    for file_name, hashes in (("transcripts.json", golden), ("states.json", states), ("fuzz.json", fuzz)):
        with open(os.path.join(out_dir, file_name), "w") as fh:
            json.dump(hashes, fh, indent=1, sort_keys=True)
        print(f"frozen to tests/golden/{file_name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
