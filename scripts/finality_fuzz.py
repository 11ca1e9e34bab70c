#!/usr/bin/env python3
"""Long random multi-peer run checking that lignified history prefixes are
never rewritten and that identical seeds reproduce identical transcripts.

    python3 scripts/finality_fuzz.py [--events 10000] [--seed 42] [--determinism]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from fuzz_driver import FuzzRun, state_digest  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--determinism", action="store_true",
                        help="run twice and compare transcript hashes")
    args = parser.parse_args()

    start = time.perf_counter()
    run = FuzzRun(args.seed).run(args.events)
    elapsed = time.perf_counter() - start
    heads = {name: peer.state.branches[run.core_id].stable_head.hex[:12]
             for name, peer in run.world.peers.items()
             if run.core_id in peer.state.branches}
    converged = len(set(heads.values())) == 1
    print(f"events: {len(run.world.transcript)}  time: {elapsed:.1f}s")
    print(f"prefix violations: {len(run.violations)}")
    print(f"peers converged: {converged}  heads: {heads}")
    print(f"lignification decisions: {len(run.world.decision_log)}")
    print(f"transcript hash: {run.world.transcript_hash()}")
    print(f"state digest: {state_digest(run.world)}")
    ok = not run.violations and converged
    if args.determinism:
        again = FuzzRun(args.seed).run(args.events)
        same = again.world.transcript_hash() == run.world.transcript_hash()
        print(f"identical rerun: {same}")
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
