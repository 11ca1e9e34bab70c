#!/usr/bin/env python3
"""Show that each correctness check of the benchmark rejects a deliberately
wrong input, at small sizes and in a few seconds.

    python3 perfbench/selftest.py

Run it from the root of the checkout.  Each check first accepts the real
output, then must reject it after one deliberate fault: a flipped oracle
answer, a proof with one byte changed, a rewritten lignified prefix, a
bucket missing from the flat-set union, and a traced self time larger than
the traced window.  Exits 1 if any check lets a fault through.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import lakat  # noqa: E402,F401
from lakat.trie import TrieProof  # noqa: E402

import checks  # noqa: E402
from common import Meter, Outcome  # noqa: E402
import contest  # noqa: E402
import fuzz  # noqa: E402
import library  # noqa: E402
from tracer import Tracer  # noqa: E402


def contest_check() -> tuple[bool, bool]:
    bench = contest.Contest(seed=0, root=ROOT, meter=Meter())
    case = ((-1, -1), (1,), {0: 2}, 1, "late")
    run = bench.run_real(case)
    real = contest._real_summary(run["state"], run["core"], run["sprouts"], run["heads"])
    oracle = contest.oracle_summary(case, run)
    flipped = dict(oracle, head="h0" if oracle["head"] != "h0" else "head:t")
    return real == oracle, real == flipped


def proof_check() -> tuple[bool, bool]:
    lib = library.Library(seed=0, meter=Meter())
    lib.create_core()
    lib.write([3])
    lib.write([3])  # donates the first write to the core
    bucket_id = lib.readable[0]
    _, _, root, info, proof, _ = lib.read(bucket_id)
    first = bytearray(proof.path[0])
    first[len(first) // 2] ^= 0x01
    changed = TrieProof((bytes(first),) + proof.path[1:])
    return (checks.proof_holds(root, bucket_id, info, proof, 7),
            checks.proof_holds(root, bucket_id, info, changed, 7))


def prefix_check() -> tuple[bool, bool]:
    run = fuzz.FuzzWorld(seed=0, meter=Meter())
    run.base()
    run.round()
    run.settle()
    clean = not run.violations
    # rewrite p2's lignified core history: point its head at the converted
    # sprout's merge, which forks off an older core head
    p2 = run._state("p2")
    p2.branches[run.core_id].stable_head = p2.branches[run.converted[0]].stable_head
    run.check_prefixes()
    return clean, not run.violations


def union_check() -> tuple[bool, bool]:
    lib = library.Library(seed=0, meter=Meter())
    lib.create_core()
    lib.write([2])
    lib.write([2])
    store = lib.state.store
    head = lib.state.branches[lib.core_id].stable_head
    buckets = lib.listing()
    extra = next(iter(lib.pending[2]))  # written, but not yet on the core
    return (checks.bucket_sets_agree(store, head, buckets),
            checks.bucket_sets_agree(store, head, buckets | {extra}))


def trace_check() -> tuple[bool, bool]:
    tracer = Tracer(enabled=True)
    tracer.install()
    meter = Meter(tracer)
    lib = library.Library(seed=0, meter=meter)
    lib.create_core()
    records_before = len(lib.state.store)
    tracer.arm()
    meter.time(lib.write, [3])
    meter.time(lib.write, [3])
    values = tracer.metrics()
    facts = {"window_s": tracer.window, "new_records": len(lib.state.store) - records_before}
    real, inflated = Outcome(), Outcome()
    checks.trace_agrees(values, facts, real)
    self_s, unit = values["trie.self_s"]
    checks.trace_agrees(dict(values, **{"trie.self_s": (self_s + tracer.window, unit)}), facts,
                        inflated)
    return real.correct, inflated.correct


def main() -> int:
    failures = 0
    for name, check in (("contest vs walk interpreter, flipped oracle answer", contest_check),
                        ("inclusion proof, one byte changed", proof_check),
                        ("lignified prefix, rewritten head", prefix_check),
                        ("flat-set union, bucket missing from the union", union_check),
                        ("traced self time, inflated past the traced window", trace_check)):
        accepts_real, accepts_fault = check()
        ok = accepts_real and not accepts_fault
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: real output accepted={accepts_real}, "
              f"fault accepted={accepts_fault}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
