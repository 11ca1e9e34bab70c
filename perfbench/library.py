"""``library`` workload: one peer holds a large bucket corpus on a proper
core and serves proved reads while contributions keep landing.

Set-up builds the corpus through large contribution cycles.  The timed phase
runs rounds of one write and ``READS_PER_ROUND`` reads.  A write is a full
contribution cycle: twig, two pushes of ``WRITE_PAYLOADS`` payloads in all,
pull request, review commitment, review, merge through a sprout, and
lignification.  A read
fetches a seeded random bucket, reads its info from the core's head trie,
and builds and checks an inclusion proof; every ``LIST_EVERY``-th read lists
the core's buckets instead.  Lignification windows are zero, so each merge
donates the previous pending sprout's head to the core.
"""

from __future__ import annotations

import hashlib
import random

from lakat import branch as branch_mod
from lakat import identity, ops, review, scenario, sim, state as state_mod
from lakat import trie as trie_mod

from common import (RSS_ROUNDS, CheckFailed, Meter, Outcome, TimedPhase, branch_config, core_buckets,
                    end_to_end, land_merge, peak_rss_mb, repeated, set_up, store_per_bucket)
import checks

PEER = "lib"
CORPUS_CYCLES, CORPUS_PUSHES, CORPUS_PAYLOADS = 8, 5, 25
WRITE_PAYLOADS = 8
READS_PER_ROUND = 100
LIST_EVERY = 10


CORE_CONFIG = branch_config("proper", False, 0, 0, 0)
TWIG_CONFIG = branch_config("twig", True, 0, 0, 0)


class Library:
    def __init__(self, seed: int, meter: Meter):
        self.rng = random.Random(seed)
        self.meter = meter
        self.world = sim.World(sim.SimConfig(seed), [PEER])
        peer = self.world.peers[PEER]
        self.state = peer.state
        self.owner = peer.identity
        self.author = identity.KeyIdentity.from_seed(b"library-author:%d" % seed)
        self.world.register_host(self.author.public_key, PEER)
        self.core_id = None
        self.pending = None  # (sprout id, buckets it adds, payloads it adds)
        self.core_buckets = 0  # the benchmark's own count of buckets on the core
        self.payloads: dict = {}  # bucket id -> payload bytes, for buckets on the core
        self.readable: list = []  # ids of self.payloads, in order of arrival
        self.merge_times: list[float] = []
        self.serial = 0

    def create_core(self):
        core = ops.create_genesis_branch(self.state, CORE_CONFIG, self.owner, self.world.now())
        self.core_id = core.branch_id

    def write(self, payload_counts: list[int]) -> None:
        """One contribution cycle, from twig to lignification, with one push
        per entry of ``payload_counts``."""
        state, author, owner, world = self.state, self.author, self.owner, self.world
        world.run_until(world.tick + 1)
        core = state.branches[self.core_id]
        twig = ops.create_rooted_branch(state, core.stable_head, self.core_id, author,
                                        world.now(), TWIG_CONFIG)
        twig_id = twig.branch_id
        added, written = 0, {}
        for count in payload_counts:
            batch = []
            for _ in range(count):
                self.serial += 1
                body = self.rng.randbytes(self.rng.randint(32, 512))
                batch.append(b"library-%d:" % self.serial + body)
            submit = state_mod.build_content_submit(state, state.branches[twig_id], author,
                                                    "library content", world.now(), batch)
            verdict, cid = review.twig_push(state, twig_id, submit, author.public_key)
            if not verdict.ok:
                raise CheckFailed(f"push rejected: {verdict.code}")
            state.add_proof(identity.make_contribution_proof(author, twig_id, "content", cid))
            written.update(zip(submit.submit_trace.new_buckets, batch))
            added += len(batch) + 1  # the payloads plus their molecular context
        pr, _ = review.create_pull_request(state, twig_id, twig_id, self.core_id, author,
                                           world.now())
        verdict = review.commit_review(state, pr, owner, world.now())
        if not verdict.ok:
            raise CheckFailed(f"review commitment rejected: {verdict.code}")
        verdict, _ = review.submit_review(state, pr, owner, "accept", b"reviewed", world.now())
        if not verdict.ok:
            raise CheckFailed(f"review rejected: {verdict.code}")
        added += 3  # review container, review bucket, new container version

        root_at = self.pending[0] if self.pending else self.core_id
        (sprout, cid, lines), seconds = self.meter.time(
            land_merge, state, self.core_id, twig_id, pr, root_at, owner, world.now())
        self.merge_times.append(seconds)
        world.decision_log.extend(lines)
        world.action(PEER, f"library: merge {cid.hex[:10]}")

        decisions = [line.split()[-1] for line in lines]
        expected = ["donate-default", "stop-windows-open"] if self.pending else ["stop-windows-open"]
        if decisions != expected:
            raise CheckFailed(f"walk decided {decisions}, expected {expected}")
        if self.pending:
            _, pending_added, pending_written = self.pending
            self.core_buckets += pending_added
            self.payloads.update(pending_written)
            self.readable.extend(pending_written)
        self.pending = (sprout, added, written)

    def head_root(self):
        head = branch_mod.get_submit(self.state.store, self.state.branches[self.core_id].stable_head)
        return head.trie_root

    def read(self, bucket_id):
        store = self.state.store
        bucket = store.get_object(bucket_id)
        payload = store.get(bucket.data_root)
        root = self.head_root()
        trie = trie_mod.Trie(root, store)
        info = trie_mod.get(trie, bucket_id)
        proof = trie_mod.prove(trie, bucket_id)
        verified = trie_mod.verify_proof(root, bucket_id, info, proof)
        return bucket, payload, root, info, proof, verified

    def listing(self) -> set:
        return core_buckets(self.state, self.core_id)


def build(seed: int, meter: Meter) -> Library:
    library = Library(seed, meter)
    library.create_core()
    for _ in range(CORPUS_CYCLES):
        library.write([CORPUS_PAYLOADS] * CORPUS_PUSHES)
    return library


def _check_read(library: Library, bucket_id, result, outcome: Outcome):
    bucket, payload, root, info, proof, verified = result
    expected = library.payloads[bucket_id]
    outcome.check(payload == expected, f"read of {bucket_id.hex[:12]} returned other bytes")
    outcome.check(bucket.data_root.digest == hashlib.sha256(expected).digest(),
                  f"bucket {bucket_id.hex[:12]} does not address its payload")
    outcome.check(verified and checks.proof_holds(root, bucket_id, info, proof,
                                                  library.rng.randrange(1 << 30)),
                  f"inclusion proof of {bucket_id.hex[:12]} does not hold")


def _verify_corpus(library: Library, workdir: str, outcome: Outcome) -> float:
    path = workdir + "/library-dump"
    scenario.dump_state(library.world, path)
    problems, seconds = repeated(library.meter, scenario.verify_dump, path)
    checks.remove_tree(path)
    outcome.check(not problems, f"corpus dump fails verification: {problems[:3]}")
    return seconds


def run(seed: int, seconds: float, meter: Meter, workdir: str, outcome: Outcome) -> dict:
    library, setup_s = set_up(meter, build, seed, meter)
    per_bucket = store_per_bucket(library.state, library.core_id)
    outcome.check(len(library.listing()) == library.core_buckets, "corpus bucket count differs")
    verify_s = _verify_corpus(library, workdir, outcome)
    records_before = len(library.state.store)

    phase = TimedPhase(seconds, meter)
    rng = library.rng
    merges_before = len(library.merge_times)
    rounds = 0
    while not phase.expired(rounds):
        outcome.attempted += 1
        # two pushes of 8 payloads in all, split by the seed
        first = rng.randint(2, 6)
        _, elapsed = meter.time(library.write, [first, WRITE_PAYLOADS - first])
        phase.record(elapsed, 1)
        count = len(library.listing())
        outcome.check(count == library.core_buckets,
                      f"core holds {count} buckets, expected {library.core_buckets}")
        for index in range(READS_PER_ROUND):
            outcome.attempted += 1
            if index % LIST_EVERY == LIST_EVERY - 1:
                listed, elapsed = meter.time(library.listing)
                phase.record(elapsed, 1)
                outcome.check(len(listed) == library.core_buckets, "listing misses buckets")
                continue
            bucket_id = rng.choice(library.readable)
            result, elapsed = meter.time(library.read, bucket_id)
            phase.record(elapsed, 1)
            _check_read(library, bucket_id, result, outcome)
        rounds += 1
        if rounds == RSS_ROUNDS:
            rss = peak_rss_mb()
    return {
        "metrics": end_to_end(setup_s, rss, phase, library.merge_times[merges_before:], verify_s,
                              per_bucket),
        "facts": {
            "window_s": meter.tracer.window,
            "new_records": len(library.state.store) - records_before,
            "timed_s": phase.elapsed,
            "samples": len(phase.latencies),
            "core_buckets": library.core_buckets,
        },
    }
