"""``fuzz`` workload: three peers gossip a growing history of seeded random
contribution cycles whose merges reach a proper core through sprouts and
lignification.

A cycle is a twig, pushes of multi-payload content, a pull request, the
review commitment and review on the core owner's peer, one idle wait, and
the merge.  Every round is two cycles and always has the same shape on the
core:

* cycle A merges rooted at the core while the pending sprout P is past its
  window, so the walk converts A's sprout into a peripheral proper branch;
* cycle B merges rooted at P, so the walk donates P's head to the core and
  B's sprout becomes the next P.

Authors, which cycle pushes 1 and 4 payloads and which 2 and 3, the push
order, payload bytes, and the place and length of the idle waits come from
the seed; the volume of a round does not.  Every round adds the same operations: two cycles and, at
the end, four branches verified on each of the three peers, of which one
(the converted sprout) fails with ``branch-id-mismatch`` until
``verify_branch`` is mended.
"""

from __future__ import annotations

import random

from lakat import identity, ops, review, scenario, sim, state as state_mod

from common import (RSS_ROUNDS, CheckFailed, Meter, Outcome, TimedPhase, branch_config, core_buckets,
                    end_to_end, land_merge, peak_rss_mb, repeated, set_up, store_per_bucket)
import checks

SETUP_ROUNDS = 12
PEERS = ("p1", "p2", "p3")
OWNER = "p1"  # creates the core, reviews and merges
AUTHORS = ("p2", "p3")
LIGNIFICATION, ENGAGEMENT, BUFFER = 6, 6, 2
ROUND_VERIFICATIONS = 4 * len(PEERS)
CONVERT = ["convert-side-branch"]
DONATE = ["donate-default", "stop-windows-open"]


CORE_CONFIG = branch_config("proper", False, LIGNIFICATION, ENGAGEMENT, BUFFER)
TWIG_CONFIG = branch_config("twig", True, LIGNIFICATION, ENGAGEMENT, BUFFER)


class FuzzWorld:
    """One seeded history; ``phase`` receives every step while it is set."""

    def __init__(self, seed: int, meter: Meter):
        self.rng = random.Random(seed)
        self.meter = meter
        self.world = sim.World(sim.SimConfig(seed, ("fixed", 1)), list(PEERS))
        self.core_id = None
        self.pending = None  # (sprout id, creation tick) of the core's pending default
        self.converted: list = []  # sprout ids converted by the walk, in order
        self.round_branches: list = []  # branch ids created by rounds
        self.base_branches: list = []
        self.heads: dict = {}  # (peer, branch id) -> last seen head of a proper branch
        self.phase: TimedPhase | None = None
        self.merge_times: list[float] = []
        self.rounds = 0
        self.payloads = 0
        self.violations: list[str] = []

    # -- plumbing ----------------------------------------------------------

    def _state(self, peer):
        return self.world.peers[peer].state

    def _identity(self, peer):
        return self.world.peers[peer].identity

    def _step(self, action):
        """Run one fuzz action plus the deliveries it waits for; time it
        into the phase and check the prefix property afterwards."""
        before = len(self.world.transcript)
        _, duration = self.meter.time(action)
        if self.phase is not None:
            self.phase.record(duration, len(self.world.transcript) - before)
        self.check_prefixes()

    def _act(self, peer, summary, ticks=2):
        self.world.action(peer, summary)
        self.world.flush_gossip(peer)
        self.world.run_until(self.world.tick + ticks)

    def _wait(self, ticks):
        self._step(lambda: self.world.run_until(self.world.tick + ticks))

    # -- history -----------------------------------------------------------

    def create_core(self):
        def act():
            core = ops.create_genesis_branch(self._state(OWNER), CORE_CONFIG,
                                             self._identity(OWNER), self.world.now())
            self.core_id = core.branch_id
            self._act(OWNER, "fuzz: create core", ticks=3)

        self._step(act)
        self.base_branches.append(self.core_id)

    def cycle(self, root_at_pending: bool, expected: list[str], payload_counts: list[int]) -> tuple:
        """One contribution cycle merged into the core, one push per entry of
        ``payload_counts``; returns (twig, sprout)."""
        author = self.rng.choice(AUTHORS)
        author_state, author_id = self._state(author), self._identity(author)
        world = self.world
        cycle = {}

        def create_twig():
            core = author_state.branches[self.core_id]
            twig = ops.create_rooted_branch(author_state, core.stable_head, self.core_id,
                                            author_id, world.now(), TWIG_CONFIG)
            cycle["twig"] = twig.branch_id
            self._act(author, f"fuzz: twig {twig.branch_id.hex[:10]}")

        def push(count):
            twig = author_state.branches[cycle["twig"]]
            payloads = []
            for _ in range(count):
                self.payloads += 1
                body = self.rng.randbytes(self.rng.randint(16, 256))
                payloads.append(b"fuzz-%d:" % self.payloads + body)
            submit = state_mod.build_content_submit(author_state, twig, author_id, "fuzz content",
                                                    world.now(), payloads)
            verdict, cid = review.twig_push(author_state, cycle["twig"], submit, author_id.public_key)
            if not verdict.ok:
                raise CheckFailed(f"push rejected: {verdict.code}")
            author_state.add_proof(identity.make_contribution_proof(author_id, cycle["twig"],
                                                                    "content", cid))
            self._act(author, f"fuzz: push {cid.hex[:10]}")

        def pull_request():
            pr, _ = review.create_pull_request(author_state, cycle["twig"], cycle["twig"],
                                               self.core_id, author_id, world.now())
            cycle["pr"] = review.PullRequest(cycle["twig"], cycle["twig"], self.core_id,
                                             pr.review_container, pr.carrier_submit)
            self._act(author, "fuzz: pull request")

        def review_step():
            owner_state, owner_id = self._state(OWNER), self._identity(OWNER)
            verdict = review.commit_review(owner_state, cycle["pr"], owner_id, world.now())
            if not verdict.ok:
                raise CheckFailed(f"review commitment rejected: {verdict.code}")
            verdict, _ = review.submit_review(owner_state, cycle["pr"], owner_id, "accept", b"ok",
                                              world.now())
            if not verdict.ok:
                raise CheckFailed(f"review rejected: {verdict.code}")
            self._act(OWNER, "fuzz: review")

        def merge():
            owner_state, owner_id = self._state(OWNER), self._identity(OWNER)
            root_at = self.pending[0] if root_at_pending else self.core_id
            (sprout, cid, lines), seconds = self.meter.time(
                land_merge, owner_state, self.core_id, cycle["twig"], cycle["pr"], root_at,
                owner_id, world.now())
            self.merge_times.append(seconds)
            world.decision_log.extend(lines)
            cycle["sprout"] = sprout
            cycle["decisions"] = [line.split()[-1] for line in lines]
            self._act(OWNER, f"fuzz: merge {cid.hex[:10]}")

        stages = [create_twig] + [lambda c=c: push(c) for c in payload_counts]
        stages += [pull_request, review_step]
        idle_after = self.rng.randrange(len(stages))
        for index, stage in enumerate(stages):
            self._step(stage)
            if index == idle_after:
                self._wait(self.rng.randint(1, 4))
        if self.pending is not None:
            window_end = self.pending[1] + LIGNIFICATION + BUFFER
            if world.tick <= window_end:
                self._wait(window_end + 1 - world.tick)
        self._step(merge)
        if cycle["decisions"] != expected:
            raise CheckFailed(f"walk decided {cycle['decisions']}, expected {expected}")
        return cycle["twig"], cycle["sprout"]

    def base(self):
        """The core and its first pending sprout: built once, not a round."""
        self.create_core()
        twig, sprout = self.cycle(False, ["stop-windows-open"], [2, 3])
        self._set_pending(sprout)
        self.base_branches += [twig, sprout]

    def _set_pending(self, sprout):
        self.pending = (sprout, self._state(OWNER).branches[sprout].timestamp.tick)

    def round(self):
        # each cycle pushes twice, 5 payloads in all: (1, 4) or (2, 3) in a
        # seeded pairing and order, so rounds differ in content, not volume
        pairs = [[1, 4], [2, 3]]
        self.rng.shuffle(pairs)
        for pair in pairs:
            self.rng.shuffle(pair)
        twig_a, sprout_a = self.cycle(False, CONVERT, pairs[0])
        twig_b, sprout_b = self.cycle(True, DONATE, pairs[1])
        self._set_pending(sprout_b)
        self.converted.append(sprout_a)
        self.round_branches += [twig_a, sprout_a, twig_b, sprout_b]
        self.rounds += 1

    def settle(self):
        self._step(self.world.run_until_quiescent)

    # -- checks ------------------------------------------------------------

    def check_prefixes(self):
        """No peer's lignified prefix of a proper branch is ever rewritten:
        each new head of a proper branch must descend from the previous one."""
        for name, peer in self.world.peers.items():
            store = peer.state.store
            for branch_id, branch in peer.state.branches.items():
                if branch.branch_type != "proper":
                    continue
                key = (name, branch_id)
                previous = self.heads.get(key)
                head = branch.stable_head
                if previous == head:
                    continue
                if previous is not None and not checks.descends_from(store, head, previous):
                    self.violations.append(f"{name}: prefix of {branch_id.hex[:12]} rewritten")
                self.heads[key] = head


def build(seed: int, meter: Meter) -> FuzzWorld:
    fuzz = FuzzWorld(seed, meter)
    fuzz.base()
    for _ in range(SETUP_ROUNDS):
        fuzz.round()
    fuzz.settle()
    return fuzz


def _verify(fuzz: FuzzWorld, workdir: str, outcome: Outcome, counted: bool) -> float:
    """Dump every peer, run ``lakat verify`` on the dump, and account for
    each branch it checks once the run is over; the tracer covers that last
    dump and verify.  Verifying the set-up state is timed instead: returns
    the median seconds of ``VERIFY_REPEATS`` verifies."""
    path = workdir + f"/fuzz-dump-{fuzz.rounds}"
    fuzz.meter.time(scenario.dump_state, fuzz.world, path)
    if counted:
        problems, seconds = fuzz.meter.time(scenario.verify_dump, path)
    else:
        problems, seconds = repeated(fuzz.meter, scenario.verify_dump, path)
    checks.remove_tree(path)
    failing = checks.failing_branches(problems, outcome)
    known = {(peer, sprout.hex[:12]) for peer in PEERS for sprout in fuzz.converted}
    for peer_branch, codes in failing.items():
        outcome.check(peer_branch in known and codes == ["branch-id-mismatch"],
                      f"unexpected verify failure {peer_branch}: {codes}")
    outcome.check(set(failing) == known, "a converted sprout verified clean")
    base = {bid.hex[:12] for bid in fuzz.base_branches}
    rounds = {bid.hex[:12] for bid in fuzz.round_branches}
    for name, peer in fuzz.world.peers.items():
        held = {bid.hex[:12] for bid in peer.state.branches}
        outcome.check(held == base | rounds, f"{name} does not hold exactly the history's branches")
    if counted:
        outcome.attempted += ROUND_VERIFICATIONS * fuzz.rounds
        outcome.failed += len(failing)
    return seconds


def _final_checks(fuzz: FuzzWorld, outcome: Outcome):
    for message in fuzz.violations:
        outcome.check(False, message)
    heads = {}
    core_headers = set()
    for name, peer in fuzz.world.peers.items():
        heads[name] = {bid: b.stable_head for bid, b in peer.state.branches.items()}
        core_headers.add(peer.state.branches[fuzz.core_id].header_text())
    outcome.check(len(core_headers) == 1, "peers did not converge on the core header")
    reference = heads[OWNER]
    for name, branch_heads in heads.items():
        outcome.check(branch_heads == reference, f"{name} disagrees on branch heads")
    for name, peer in fuzz.world.peers.items():
        state = peer.state
        head = state.branches[fuzz.core_id].stable_head
        outcome.check(checks.bucket_sets_agree(state.store, head, core_buckets(state, fuzz.core_id)),
                      f"{name}: core trie bucket set differs from the flat union of new_buckets")


def _records(fuzz: FuzzWorld) -> int:
    return sum(len(peer.state.store) for peer in fuzz.world.peers.values())


def run(seed: int, seconds: float, meter: Meter, workdir: str, outcome: Outcome) -> dict:
    fuzz, setup_s = set_up(meter, build, seed, meter)
    per_bucket = store_per_bucket(fuzz._state(OWNER), fuzz.core_id)
    verify_s = _verify(fuzz, workdir, outcome, counted=False)
    outcome.attempted += 2 * fuzz.rounds  # set-up cycles; each cycle is one operation
    records_before, events_before = _records(fuzz), len(fuzz.world.transcript)

    phase = TimedPhase(seconds, meter)
    fuzz.phase = phase
    merges_before = len(fuzz.merge_times)
    rounds = 0
    while not phase.expired(rounds):
        outcome.attempted += 2
        fuzz.round()
        rounds += 1
        if rounds == RSS_ROUNDS:
            rss = peak_rss_mb()
    fuzz.settle()
    fuzz.phase = None
    _final_checks(fuzz, outcome)
    _verify(fuzz, workdir, outcome, counted=True)
    gossip_lines = sum(1 for line in fuzz.world.transcript[events_before:]
                       if line.split()[1] == sim.GOSSIP)
    return {
        "metrics": end_to_end(setup_s, rss, phase, fuzz.merge_times[merges_before:], verify_s,
                              per_bucket),
        "facts": {
            "window_s": meter.tracer.window,
            "gossip_lines": gossip_lines,
            "new_records": _records(fuzz) - records_before,
            "timed_s": phase.elapsed,
            "samples": len(phase.latencies),
            "rounds": fuzz.rounds,
            "events": len(fuzz.world.transcript),
        },
    }
