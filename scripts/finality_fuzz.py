#!/usr/bin/env python3
"""Long random multi-peer run checking that lignified history prefixes are
never rewritten and that identical seeds reproduce identical transcripts.
It also prints the gossip payload bytes built per transcript event, and
the transcript events per CPU second in each quarter of the run.

    python3 scripts/finality_fuzz.py [--events 10000] [--seed 42] [--determinism]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

import lakat.sim as sim  # noqa: E402
from fuzz_driver import FuzzRun, state_digest  # noqa: E402


def count_payload_bytes() -> list:
    """Wrap sim.build_gossip_payload; the returned one-item list sums the bytes it builds."""
    total, build = [0], sim.build_gossip_payload

    def counted(*args):
        payload = build(*args)
        total[0] += len(payload)
        return payload

    sim.build_gossip_payload = counted
    return total


def run_by_quarters(seed: int, events: int) -> tuple:
    """FuzzRun(seed).run(events), stepped to each quarter of the events; also
    returns the transcript events per CPU second of each quarter (the last
    one includes the final drain)."""
    run, rates = FuzzRun(seed), []
    run.setup()
    for quarter in range(1, 5):
        begin, cpu = len(run.world.transcript), time.process_time()
        while len(run.world.transcript) < events * quarter // 4:
            run.step()
        if quarter == 4:
            run.world.run_until_quiescent()
            run._check_prefixes()
        rates.append((len(run.world.transcript) - begin) / max(time.process_time() - cpu, 1e-9))
    return run, rates


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--determinism", action="store_true",
                        help="run twice and compare transcript hashes")
    args = parser.parse_args()

    payload_bytes = count_payload_bytes()
    start = time.perf_counter()
    run, rates = run_by_quarters(args.seed, args.events)
    elapsed = time.perf_counter() - start
    gossip_bytes = payload_bytes[0]
    heads = {name: peer.state.branches[run.core_id].stable_head.hex[:12]
             for name, peer in run.world.peers.items()
             if run.core_id in peer.state.branches}
    converged = len(set(heads.values())) == 1
    print(f"events: {len(run.world.transcript)}  time: {elapsed:.1f}s")
    print(f"prefix violations: {len(run.violations)}")
    print(f"peers converged: {converged}  heads: {heads}")
    print(f"lignification decisions: {len(run.world.decision_log)}")
    print(f"gossip payload bytes per event: {gossip_bytes / len(run.world.transcript):.0f}")
    print("events per CPU second by quarter: " + " ".join(f"{rate:.0f}" for rate in rates))
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
