"""``contest`` workload: small lignification contests on fresh states,
compared case by case with the independent walk interpreter in
``tests/walk_oracle.py``, plus the two shipped contest scenarios.

A round is ``CASES_PER_ROUND`` contests taken in a seeded order from all
9,300 enumerated small contests, then one run of ``scenarios/fig5a.json``
and one of ``scenarios/fig5b.json`` with their dumps verified.  The
scenarios do not depend on the seed; fig5a's converted sprout fails
verification on each of its three peers until ``verify_branch`` is mended,
so every round fails the same three operations.
"""

from __future__ import annotations

import json
import os
import random
import statistics

from lakat import branch as branch_mod
from lakat import identity, lignify, ops, scenario
from lakat.codec import NULL_ID, LogicalTimestamp, canonical_encode, content_id
from lakat.state import ProtocolState
from lakat.store import MemoryStore

from contest_driver import (B, CREATION_TICKS, E, L, OWNER, VOTERS, _core_config, _oracle_summary,
                            _real_summary, enumerate_cases)
from walk_oracle import CORE, OracleState, oracle_lignify

from common import RSS_ROUNDS, Meter, Outcome, TimedPhase, end_to_end, peak_rss_mb, set_up, store_per_bucket
import checks

CASES_PER_ROUND = 100
SCENARIOS = ("fig5a", "fig5b")
CORE_CONFIG = _core_config()


class Contest:
    """Set-up: the case order, the scenario texts and golden hashes."""

    def __init__(self, seed: int, root: str, meter: Meter):
        self.meter = meter
        self.cases = list(enumerate_cases())
        random.Random(seed).shuffle(self.cases)
        self.next_case = 0
        self.scenarios = {}
        for name in SCENARIOS:
            with open(os.path.join(root, "scenarios", name + ".json")) as fh:
                self.scenarios[name] = fh.read()
        with open(os.path.join(root, "tests", "golden", "transcripts.json")) as fh:
            self.golden = json.load(fh)
        self.merge_times: list[float] = []

    def take_case(self):
        case = self.cases[self.next_case % len(self.cases)]
        self.next_case += 1
        return case

    def run_real(self, case) -> dict:
        """One contest on a fresh state of the real machinery: the timed half
        of ``contest_driver.run_case``, which keeps the walk interpreter out of
        the measured time."""
        rooting, veto_targets, tally, trigger_root, timing = case
        n = len(rooting)
        tick = LogicalTimestamp
        state = ProtocolState(MemoryStore())
        core = ops.create_genesis_branch(state, CORE_CONFIG, OWNER, tick(0))
        for voter in VOTERS:
            state.add_proof(identity.make_contribution_proof(voter, core.branch_id, "content",
                                                             core.initial_head))
        labels = [f"s{i}" for i in range(n)] + ["t"]
        sprouts, heads = {}, {}

        def wrap(label, index, at):
            rooted_id = core.branch_id if index == -1 else sprouts[labels[index]]
            rooting_branch = state.branches[rooted_id]
            merge = branch_mod.Submit(rooting_branch.stable_head, f"merge {label}", NULL_ID,
                                      branch_mod.SubmitTrace(merged_branch=content_id(label.encode()),
                                                             belt_tip=rooting_branch.stable_head),
                                      tick(at))
            cid = state.store.put_object(merge)
            sprouts[label] = lignify.wrap_merge_in_sprout(state, cid, OWNER.public_key,
                                                          content_id(b"req"), rooted_id, tick(at)).sprout
            heads[label] = cid
            return cid

        for i in range(n):
            wrap(labels[i], rooting[i], CREATION_TICKS[i])
        vetoes, votes = [], []
        veto_tick = None
        for target in veto_targets:
            sprout_id = sprouts[labels[target]]
            owner = lignify.selection_owner(state, core, sprout_id)
            open_tick = lignify.contest_open_tick(state, owner) if owner is not None else None
            at = (open_tick if open_tick is not None else CREATION_TICKS[-1]) + 1
            signer = VOTERS[0]
            veto = branch_mod.Veto(sprout_id, signer.public_key, at,
                                   signer.sign(canonical_encode([b"veto", sprout_id, signer.public_key, at])))
            if lignify.register_veto(state, core.branch_id, veto, tick(at)).ok:
                vetoes.append((labels[target], at))
                veto_tick = at if veto_tick is None else max(veto_tick, at)
        if veto_tick is not None:
            pool = list(VOTERS)
            at = veto_tick + 1
            for index in sorted(tally):
                for _ in range(tally[index]):
                    voter = pool.pop(0)
                    sprout_id = sprouts[labels[index]]
                    vote = branch_mod.Vote(sprout_id, voter.public_key, at,
                                           voter.sign(canonical_encode([b"vote", sprout_id, voter.public_key, at])))
                    if lignify.cast_vote(state, core.branch_id, vote, tick(at)).ok:
                        votes.append((labels[index], voter.public_key.hex(), at))
                    at += 1
        last_created = CREATION_TICKS[n - 1]
        trigger_at = {"early": last_created + 1, "mid": last_created + L + B + 1,
                      "late": last_created + L + E + B + 1}[timing]
        def land():
            trigger = wrap("t", trigger_root, trigger_at)
            lignify.lignify(state, core.branch_id, trigger, now=tick(trigger_at))

        self.merge_times.append(self.meter.time(land)[1])
        return {"state": state, "core": core, "sprouts": sprouts, "heads": heads,
                "vetoes": vetoes, "votes": votes, "trigger_at": trigger_at}


def oracle_summary(case, run: dict) -> dict:
    """The walk interpreter's answer for the same contest, fed the same
    accepted vetoes and votes."""
    rooting, _, _, trigger_root, _ = case
    labels = [f"s{i}" for i in range(len(rooting))]
    oracle = OracleState()
    for i, index in enumerate(rooting):
        oracle.add_sprout(labels[i], CORE if index == -1 else labels[index], CREATION_TICKS[i],
                          run["sprouts"][labels[i]].hex, f"head:{labels[i]}")
    for label, at in run["vetoes"]:
        oracle.vetoes.setdefault(label, []).append(at)
    for label, voter, at in run["votes"]:
        oracle.votes.setdefault(label, []).append((voter, at))
    trigger_at = run["trigger_at"]
    oracle.add_sprout("t", CORE if trigger_root == -1 else labels[trigger_root], trigger_at,
                      run["sprouts"]["t"].hex, "head:t")
    oracle_lignify(oracle, "t", trigger_at, L, E, B)
    return _oracle_summary(oracle, len(rooting))


def _scenario_op(contest: Contest, name: str, phase: TimedPhase, outcome: Outcome):
    outcome.attempted += 1

    def run_scenario():
        runner = scenario.Runner(scenario.parse_scenario(contest.scenarios[name]))
        return runner, runner.run()

    (runner, report), elapsed = contest.meter.time(run_scenario)
    phase.record(elapsed, 1)
    outcome.check(report.transcript_hash == contest.golden[name],
                  f"{name}: transcript hash differs from the golden one")
    outcome.check(report.ok, f"{name}: an in-run expectation failed")
    return runner


def _verify_scenario(runner, meter: Meter, path: str, outcome: Outcome) -> float:
    """Dump and ``lakat verify`` one scenario's world; each branch on each
    peer is one operation, and converted sprouts are the known failures."""
    meter.time(scenario.dump_state, runner.world, path)
    problems, seconds = meter.time(scenario.verify_dump, path)
    checks.remove_tree(path)
    failing = checks.failing_branches(problems, outcome)
    expected = set()
    for name, peer in runner.world.peers.items():
        outcome.attempted += len(peer.state.branches)
        for sprout, _ in runner.sprouts.values():
            if peer.state.branches[sprout].branch_type == "proper":
                expected.add((name, sprout.hex[:12]))
    outcome.failed += len(failing)
    outcome.check(set(failing) == expected, f"verify failures {sorted(failing)} != converted sprouts")
    for key, codes in failing.items():
        outcome.check(codes == ["branch-id-mismatch"], f"unexpected verify failure {key}: {codes}")
    return seconds


def run(seed: int, seconds: float, meter: Meter, workdir: str, outcome: Outcome) -> dict:
    root = os.path.dirname(workdir)
    contest, setup_s = set_up(meter, Contest, seed, root, meter)
    phase = TimedPhase(seconds, meter)
    verify_times, per_bucket = [], None
    while not phase.expired(len(verify_times)):
        for _ in range(CASES_PER_ROUND):
            case = contest.take_case()
            outcome.attempted += 1
            run_, elapsed = meter.time(contest.run_real, case)
            phase.record(elapsed, 1)
            real = _real_summary(run_["state"], run_["core"], run_["sprouts"], run_["heads"])
            outcome.check(real == oracle_summary(case, run_),
                          f"contest {case} disagrees with the walk interpreter")
        round_verify = 0.0
        for name in SCENARIOS:
            runner = _scenario_op(contest, name, phase, outcome)
            round_verify += _verify_scenario(runner, meter, f"{workdir}/{name}-dump", outcome)
            if per_bucket is None and name == "fig5a":
                per_bucket = store_per_bucket(runner.world.peers["p1"].state,
                                              runner.branches["main"][0])
        verify_times.append(round_verify)
        if len(verify_times) == RSS_ROUNDS:
            rss = peak_rss_mb()
    return {
        "metrics": end_to_end(setup_s, rss, phase, contest.merge_times,
                              statistics.median(verify_times), per_bucket),
        "facts": {
            "window_s": meter.tracer.window,
            "timed_s": phase.elapsed,
            "samples": len(phase.latencies),
            "rounds": len(verify_times),
        },
    }
