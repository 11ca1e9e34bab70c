#!/usr/bin/env python3
"""Long random multi-peer run checking that lignified history prefixes are
never rewritten and that identical seeds reproduce identical transcripts.
It also prints the gossip payload bytes built per transcript event, the
records shipped per unique record shipped, the header texts written, and
for each quarter of the run the transcript events per CPU second and the
proofs that contributor derivations checked.

    python3 scripts/finality_fuzz.py [--events 10000] [--seed 42] [--determinism]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

import lakat.sim as sim  # noqa: E402
import lakat.state as state  # noqa: E402
from lakat.branch import Branch  # noqa: E402
from lakat.codec import canonical_decode  # noqa: E402
from fuzz_driver import FuzzRun, state_digest  # noqa: E402


def tap_gossip() -> dict:
    """Wrap sim.build_gossip_payload and Branch.header_text: the returned dict
    keeps every payload built ("payloads", read after the run so that no
    quarter pays for decoding them) and counts the header texts written."""
    tap, build, write = {"payloads": [], "headers": 0}, sim.build_gossip_payload, Branch.header_text

    def built(*args):
        payload = build(*args)
        tap["payloads"].append(payload)
        return payload

    def written(branch):
        tap["headers"] += 1
        return write(branch)

    sim.build_gossip_payload, Branch.header_text = built, written
    return tap


def tap_derivations() -> dict:
    """Wrap state.derive_contributors: the returned dict counts the proofs
    that contributor derivations checked ("proofs")."""
    tap, derive = {"proofs": 0}, state.derive_contributors

    def counted(branch, proofs, store, evidence=None):
        proofs = list(proofs)
        tap["proofs"] += len(proofs)
        return derive(branch, proofs, store, evidence=evidence)

    state.derive_contributors = counted
    return tap


def run_by_quarters(seed: int, events: int, derivations: dict) -> tuple:
    """FuzzRun(seed).run(events), stepped to each quarter of the events; also
    returns, for each quarter, the transcript events per CPU second and the
    proofs checked as counted by the tap_derivations dict (the last quarter
    includes the final drain)."""
    run, rates, checked = FuzzRun(seed), [], []
    run.setup()
    for quarter in range(1, 5):
        begin, cpu, proofs = len(run.world.transcript), time.process_time(), derivations["proofs"]
        while len(run.world.transcript) < events * quarter // 4:
            run.step()
        if quarter == 4:
            run.world.run_until_quiescent()
            run._check_prefixes()
        rates.append((len(run.world.transcript) - begin) / max(time.process_time() - cpu, 1e-9))
        checked.append(derivations["proofs"] - proofs)
    return run, rates, checked


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--determinism", action="store_true",
                        help="run twice and compare transcript hashes")
    args = parser.parse_args()

    tap, derivations = tap_gossip(), tap_derivations()
    start = time.perf_counter()
    run, rates, checked = run_by_quarters(args.seed, args.events, derivations)
    elapsed = time.perf_counter() - start
    payloads, tap["payloads"], headers_written = tap["payloads"], [], tap["headers"]
    gossip_bytes, shipped, unique = sum(map(len, payloads)), 0, set()
    for payload in payloads:
        records = canonical_decode(payload)[4]
        shipped += len(records)
        unique.update(records)
    heads = {name: peer.state.branches[run.core_id].stable_head.hex[:12]
             for name, peer in run.world.peers.items()
             if run.core_id in peer.state.branches}
    converged = len(set(heads.values())) == 1
    print(f"events: {len(run.world.transcript)}  time: {elapsed:.1f}s")
    print(f"prefix violations: {len(run.violations)}")
    print(f"peers converged: {converged}  heads: {heads}")
    print(f"lignification decisions: {len(run.world.decision_log)}")
    print(f"gossip payload bytes per event: {gossip_bytes / len(run.world.transcript):.0f}  "
          f"records shipped per unique record: {shipped / max(len(unique), 1):.2f}  "
          f"header texts written: {headers_written}")
    print("events per CPU second by quarter: " + " ".join(f"{rate:.0f}" for rate in rates) + "  "
          "proofs checked by contributor derivations by quarter: " + " ".join(map(str, checked)))
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
