"""Command line scenario runner.

    lakat run <scenario.json> [--seed N] [--dump DIR] [--log-level L]
    lakat verify <dump-dir>

Exit codes: 0 all expectations pass, 1 assertion or integrity failure,
2 scenario/parse error, a scenario that cannot be read or a dump that
cannot be written.  `verify` reports a dump file it cannot read as one
problem line.  LAKAT_LOG overrides the log level.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from .scenario import Runner, ScenarioError, dump_state, parse_scenario, verify_dump
from .sim import NonQuiescent

log = logging.getLogger("lakat")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="lakat", description="scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scenario file")
    run_parser.add_argument("scenario")
    run_parser.add_argument("--seed", type=int, default=None, help="override the scenario rng seed")
    run_parser.add_argument("--dump", default=None, help="directory for the final state dump")
    run_parser.add_argument("--log-level", default=None)

    verify_parser = sub.add_parser("verify", help="re-check integrity of a state dump")
    verify_parser.add_argument("dump_dir")

    args = parser.parse_args(argv)
    level = args.log_level if getattr(args, "log_level", None) else os.environ.get("LAKAT_LOG", "WARNING")
    logging.basicConfig(level=getattr(logging, str(level).upper(), logging.WARNING))

    if args.command == "run":
        return _run(args)
    return _verify(args)


def _run(args) -> int:
    try:
        with open(args.scenario) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = parse_scenario(text)
        if args.seed is not None:
            scenario.sim = dataclasses.replace(scenario.sim, rng_seed=args.seed)
        runner = Runner(scenario)
        report = runner.run()
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except NonQuiescent as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    if args.dump:
        try:
            dump_state(runner.world, args.dump)
        except OSError as exc:
            print(f"cannot write dump: {exc}", file=sys.stderr)
            return 2
    print(json.dumps(report.to_json(), sort_keys=True, indent=1))
    for entry in report.assertions:
        status = "pass" if entry["ok"] else "FAIL"
        log.info("expect step %s %s: %s (%s)", entry["step"], entry["that"], status, entry["detail"])
    return 0 if report.ok else 1


def _verify(args) -> int:
    problems = verify_dump(args.dump_dir)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    print("dump verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
