"""Randomized multi-peer protocol driver for finality fuzzing.

Generates a long random mix of twig pushes, review cycles, merges, vetoes,
and votes over a 3-peer world, checking after every quiescent point that no
proper branch ever loses a submit from its lignified history prefix.
`churn_schedule` draws join/leave windows that take peers offline during a
run.  `state_digest` fingerprints where any simulated run ended.
"""

import hashlib
import json
import random

from lakat.branch import ancestry
from lakat.identity import make_contribution_proof
from lakat.lignify import LignificationError, lignify, wrap_merge_in_sprout
from lakat.ops import BranchOpError, create_genesis_branch, create_rooted_branch, execute_merge, plan_merge
from lakat.review import AuthorizationError, commit_review, create_pull_request, submit_review, twig_push
from lakat.sim import SimConfig, World
from lakat.state import build_content_submit
from lakat.branch import AcceptanceRule, BranchConfig, Rational


def _config(branch_type, **overrides):
    defaults = dict(
        branch_type=branch_type,
        accept_conflicts=True,
        min_reviewers=1,
        acceptance_rule=AcceptanceRule("no_rejections"),
        min_review_rounds=1,
        twig_merge_fraction=Rational(1, 2),
        lignification_time=6,
        engagement_time=6,
        broadcasting_buffer=2,
        stale_after_merge=True,
    )
    defaults.update(overrides)
    return BranchConfig(**defaults)


# the short runs whose transcript hash and state digest tests/golden/fuzz.json freezes
FUZZ_GOLDEN_SEEDS = (1, 2)
FUZZ_GOLDEN_EVENTS = 800


def state_digest(world, assertions=()) -> str:
    """SHA-256 over the final state of a run: each peer's sorted header JSON
    and sorted record ids, the decision log, and the scenario assertions.
    Unlike the transcript hash it does not see the order events ran in."""
    peers = [[name,
              sorted(branch.header_text() for branch in peer.state.branches.values()),
              sorted(cid.hex for cid in peer.state.store.ids())]
             for name, peer in sorted(world.peers.items())]
    material = [peers, list(world.decision_log), list(assertions)]
    return hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()


def churn_schedule(seed: int, horizon: int = 300) -> tuple:
    """Leave/join windows for each of the three peers up to tick horizon: a
    leave 10-60 ticks after the last join, back 3-25 ticks later.  Every
    leave has its join, so the schedule ends with all peers online."""
    rng = random.Random(f"churn:{seed}")
    entries = []
    for peer in ("p1", "p2", "p3"):
        tick = 0
        while True:
            leave = tick + rng.randint(10, 60)
            tick = leave + rng.randint(3, 25)
            if tick > horizon:
                break
            entries += [(leave, peer, "leave"), (tick, peer, "join")]
    return tuple(sorted(entries))


class FuzzRun:
    def __init__(self, seed: int, schedule: tuple = ()):
        self.rng = random.Random(seed)
        self.world = World(SimConfig(seed, ("fixed", 1), schedule), ["p1", "p2", "p3"])
        self.actors = {}
        for index, (name, peer) in enumerate([("alice", "p1"), ("bob", "p2"), ("carol", "p3")]):
            identity = self.world.peers[peer].identity
            self.actors[name] = (identity, peer)
        self.core_id = None
        self.heads = {}  # (peer, branch hex) -> head of a proper branch at the last check
        self.violations = []
        self.twig_counter = 0
        self.active_cycle = None  # (twig_id, author_name, stage)

    # -- helpers -----------------------------------------------------------

    def _state(self, actor):
        return self.world.peers[self.actors[actor][1]].state

    def _idents(self, actor):
        return self.actors[actor][0]

    def _flush(self, actor):
        self.world.flush_gossip(self.actors[actor][1])

    def setup(self):
        alice, peer = self.actors["alice"]
        state = self._state("alice")
        core = create_genesis_branch(state, _config("proper", stale_after_merge=False),
                                     alice, self.world.now())
        self.core_id = core.branch_id
        self.world.action(peer, "fuzz: create core")
        self._flush("alice")
        self.world.run_until(self.world.tick + 3)

    # -- one random action ---------------------------------------------------

    def step(self):
        action = self.rng.random()
        if self.active_cycle is None:
            self._start_cycle()
        elif action < 0.75:
            self._advance_cycle()
        else:
            self.world.run_until(self.world.tick + self.rng.randint(1, 4))
        self._check_prefixes()

    def _start_cycle(self):
        author = self.rng.choice(["bob", "carol"])
        identity, peer = self.actors[author]
        state = self._state(author)
        if self.core_id not in state.branches:
            self.world.run_until(self.world.tick + 2)
            return
        core = state.branches[self.core_id]
        twig = create_rooted_branch(state, core.stable_head, self.core_id, identity,
                                    self.world.now(), _config("twig"))
        self.twig_counter += 1
        self.world.action(peer, f"fuzz: twig {self.twig_counter}")
        self._flush(author)
        self.active_cycle = {"twig": twig.branch_id, "author": author, "stage": "push",
                             "pushes": 0}
        self.world.run_until(self.world.tick + 2)

    def _advance_cycle(self):
        cycle = self.active_cycle
        author = cycle["author"]
        identity, peer = self.actors[author]
        state = self._state(author)
        stage = cycle["stage"]
        try:
            if stage == "push":
                twig = state.branches[cycle["twig"]]
                submit = build_content_submit(
                    state, twig, identity, "fuzz content", self.world.now(),
                    [b"payload-%d-%d" % (self.twig_counter, cycle["pushes"])])
                verdict, cid = twig_push(state, cycle["twig"], submit, identity.public_key)
                if verdict.ok:
                    state.add_proof(make_contribution_proof(identity, cycle["twig"],
                                                            "content", cid))
                    self.world.action(peer, f"fuzz: push {cid.hex[:8]}")
                    self._flush(author)
                cycle["pushes"] += 1
                if cycle["pushes"] >= self.rng.randint(1, 3):
                    cycle["stage"] = "pr"
                self.world.run_until(self.world.tick + 2)
            elif stage == "pr":
                pr, _ = create_pull_request(state, cycle["twig"], cycle["twig"],
                                            self.core_id, identity, self.world.now())
                cycle["pr"] = pr
                cycle["stage"] = "review"
                self.world.action(peer, "fuzz: pr")
                self._flush(author)
                self.world.run_until(self.world.tick + 2)
            elif stage == "review":
                reviewer, reviewer_peer = self.actors["alice"], "p1"
                alice_state = self._state("alice")
                from lakat.review import PullRequest

                pr = PullRequest(cycle["twig"], cycle["twig"], self.core_id,
                                 cycle["pr"].review_container, cycle["pr"].carrier_submit)
                verdict = commit_review(alice_state, pr, reviewer[0], self.world.now())
                if verdict.ok:
                    ok, _ = submit_review(alice_state, pr, reviewer[0], "accept", b"ok",
                                          self.world.now())
                    if ok.ok:
                        cycle["stage"] = "merge"
                        cycle["pr_on_p1"] = pr
                self.world.action("p1", "fuzz: review")
                self._flush("alice")
                self.world.run_until(self.world.tick + 2)
                if verdict.code == "immature-pull-request":
                    self.world.run_until(self.world.tick + 2)
            elif stage == "merge":
                alice = self.actors["alice"][0]
                alice_state = self._state("alice")
                core = alice_state.branches[self.core_id]
                root_at = self.core_id
                candidates = [self.core_id] + [
                    entry.sprout for entry in core.sprout_selection
                    if entry.sprout not in alice_state.spent
                ]
                root_at = self.rng.choice(candidates)
                plan = plan_merge(alice_state, self.core_id, cycle["twig"],
                                  cycle["pr_on_p1"], root_at)
                merge = execute_merge(alice_state, plan, alice, self.world.now())
                from lakat.branch import submit_id

                cid = submit_id(merge)
                wrap_merge_in_sprout(alice_state, cid, alice.public_key, cycle["twig"],
                                     root_at, self.world.now())
                lines = lignify(alice_state, self.core_id, cid, now=self.world.now())
                self.world.decision_log.extend(lines)
                self.world.action("p1", f"fuzz: merge {cid.hex[:8]}")
                self._flush("alice")
                self.active_cycle = None
                self.world.run_until(self.world.tick + self.rng.randint(2, 8))
        except (BranchOpError, LignificationError, AuthorizationError):
            # invalid move under current state; drop the cycle and continue
            self.active_cycle = None
            self.world.run_until(self.world.tick + 2)

    def _check_prefixes(self):
        """A proper branch's head must descend from its head at the last
        check.  Only the new suffix is walked: the walk stops at the old
        head, and one that ends at the singularity instead found a rewritten
        or shortened prefix."""
        for name, peer in self.world.peers.items():
            for branch_id, branch in peer.state.branches.items():
                if branch.branch_type != "proper":
                    continue
                key = (name, branch_id.hex)
                previous = self.heads.get(key)
                if previous == branch.stable_head:
                    continue  # head unchanged since the last check
                if previous is not None:
                    bottom = branch.stable_head
                    for _, submit in ancestry(peer.state.store, branch.stable_head, (previous,)):
                        bottom = submit.parent
                    if bottom != previous:
                        self.violations.append(key)
                self.heads[key] = branch.stable_head

    def run(self, min_events: int):
        self.setup()
        while len(self.world.transcript) < min_events:
            self.step()
        self.world.run_until_quiescent()
        self._check_prefixes()
        return self
