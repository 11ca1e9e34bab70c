"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

import itertools
import os
import random
import time
from dataclasses import replace

import pytest

from lakat.codec import NULL_ID, content_id, object_id
from lakat.identity import KeyIdentity, make_contribution_proof
from lakat.branch import AcceptanceRule, Rational, conflict_records, get_submit, included_submits, submit_id
from lakat.bucket import BucketInfo, InfoDelta, make_storage_attestation
from lakat.ops import bucket_set, create_genesis_branch, create_rooted_branch, execute_merge, plan_merge, submit_set
from lakat.review import PullRequest, commit_review, create_pull_request, merge_ready, submit_review, twig_push
from lakat.lignify import lignify, wrap_merge_in_sprout
from lakat.requests import CHANNELS, BranchRequests
from lakat.scenario import Runner, parse_scenario
from lakat.sim import SimConfig, World, route_request
from lakat.state import ProtocolState, build_content_submit
from lakat.store import MemoryStore
from lakat import trie as trie_mod

from conftest import proper_config, tick, twig_config
from contest_driver import enumerate_cases, run_case
from fuzz_driver import FuzzRun
from test_branch import _oracle_conflicts, _raw_submit

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def _report(line):
    print(line, flush=True)


# -- 1: contest scenario reproduction -----------------------------------------------


def test_c1_contest_scenarios_reproduce():
    """Shipped contest scenarios end exactly as specified, in under a second."""
    timings = {}
    with open(os.path.join(SCENARIO_DIR, "fig5a.json")) as fh:
        scenario_a = parse_scenario(fh.read())
    start = time.perf_counter()
    runner_a = Runner(scenario_a)
    report_a = runner_a.run()
    timings["fig5a"] = time.perf_counter() - start
    assert report_a.ok, report_a.assertions
    main_id = runner_a.branches["main"][0]
    state = runner_a.world.peers["p1"].state
    default_sprout, default_merge = runner_a.sprouts["sA"]
    rival_sprout, _ = runner_a.sprouts["sB"]
    assert state.branches[main_id].stable_head == default_merge
    rival = state.branches[rival_sprout]
    assert rival.branch_type == "proper"
    assert rival.parent_branch == main_id

    with open(os.path.join(SCENARIO_DIR, "fig5b.json")) as fh:
        scenario_b = parse_scenario(fh.read())
    start = time.perf_counter()
    runner_b = Runner(scenario_b)
    report_b = runner_b.run()
    timings["fig5b"] = time.perf_counter() - start
    assert report_b.ok, report_b.assertions
    main_id = runner_b.branches["main"][0]
    state = runner_b.world.peers["p1"].state
    _, rival_merge = runner_b.sprouts["sB"]
    assert state.branches[main_id].stable_head == rival_merge

    assert timings["fig5a"] < 1.0 and timings["fig5b"] < 1.0, timings
    # determinism: a second run reproduces the transcript byte for byte
    assert Runner(parse_scenario(open(os.path.join(SCENARIO_DIR, "fig5a.json")).read())).run().transcript_hash == report_a.transcript_hash
    _report(f"ACCEPTANCE 1: PASS - contest scenarios exact "
            f"({timings['fig5a']:.2f}s / {timings['fig5b']:.2f}s)")


# -- 2: exhaustive small-contest oracle -----------------------------------------------


def test_c2_walk_agrees_with_interpreter():
    """All contests with <=3 sprouts, <=2 vetoes, all tallies over 3 voters."""
    start = time.perf_counter()
    cases = list(enumerate_cases(max_sprouts=3, max_vetoes=2, voters=3))
    mismatches = 0
    first = None
    for case in cases:
        real, oracle = run_case(case)
        if real != oracle:
            mismatches += 1
            if first is None:
                first = (case, real, oracle)
    elapsed = time.perf_counter() - start
    assert mismatches == 0, f"{mismatches}/{len(cases)} disagree; first: {first}"
    assert elapsed < 30.0, f"enumeration took {elapsed:.1f}s"
    _report(f"ACCEPTANCE 2: PASS - {len(cases)} contests, 100% agreement ({elapsed:.1f}s)")


# -- 3: conflict detection oracle ------------------------------------------------------


def test_c3_conflict_oracle_500_dags():
    rng = random.Random(303)
    agreements = 0
    for trial in range(500):
        store = MemoryStore()
        submits = [_raw_submit(store, NULL_ID, f"root-{trial}")]
        for i in range(rng.randrange(2, 12)):
            parent = rng.choice(submits)
            if rng.random() < 0.35 and len(submits) > 2:
                tip = rng.choice(submits)
                cid = _raw_submit(store, parent, f"m{trial}-{i}", belt_tip=tip,
                                  merged=content_id(b"belt"))
            else:
                cid = _raw_submit(store, parent, f"s{trial}-{i}")
            submits.append(cid)
        head = rng.choice(submits)
        branch_id = content_id(b"branch-%d" % trial)
        found = conflict_records(store, included_submits(store, head), branch_id)
        expected = _oracle_conflicts(store, head, branch_id)
        assert found == expected, f"trial {trial}"
        agreements += 1
    _report(f"ACCEPTANCE 3: PASS - {agreements}/500 DAGs agree with triple enumeration")


# -- 4: trie properties ------------------------------------------------------------------


def test_c4_trie_properties():
    store = MemoryStore()
    rng = random.Random(404)
    # (a) permutation invariance: 200 keys, 50 random permutations
    ids = [content_id(rng.randbytes(16)) for _ in range(200)]
    values = {cid: BucketInfo(reviews=(content_id(bytes([i % 251])),))
              for i, cid in enumerate(ids)}
    baseline = trie_mod.empty_trie(store)
    for cid in sorted(ids, key=lambda c: c.hex):
        baseline = trie_mod.insert(baseline, cid, values[cid])
    for permutation in range(50):
        shuffled = ids[:]
        rng.shuffle(shuffled)
        root = trie_mod.empty_trie(store)
        for cid in shuffled:
            root = trie_mod.insert(root, cid, values[cid])
        assert root.root == baseline.root, f"permutation {permutation}"
    # (b) salted-leaf distinctness over 10^3 fresh empty-info buckets
    hashes = {trie_mod.insert(trie_mod.empty_trie(store),
                              content_id(b"fresh-%d" % i), BucketInfo()).root
              for i in range(1000)}
    assert len(hashes) == 1000
    # (c) proof verification rejects all single-node tamperings, 10^3 trials
    trie = trie_mod.empty_trie(store)
    proof_values = {}
    proof_ids = [content_id(rng.randbytes(16)) for _ in range(100)]
    for i, cid in enumerate(proof_ids):
        proof_values[cid] = BucketInfo(reviews=(content_id(bytes([i % 251])),))
        trie = trie_mod.insert(trie, cid, proof_values[cid])
    rejected = 0
    trials = 0
    while trials < 1000:
        cid = rng.choice(proof_ids)
        proof = trie_mod.prove(trie, cid)
        index = rng.randrange(len(proof.path))
        raw = bytearray(proof.path[index])
        raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        tampered = replace(proof, path=tuple(
            bytes(raw) if k == index else original for k, original in enumerate(proof.path)))
        if tampered.path == proof.path:
            continue
        trials += 1
        if not trie_mod.verify_proof(trie.root, cid, proof_values[cid], tampered):
            rejected += 1
    assert rejected == 1000
    _report("ACCEPTANCE 4: PASS - permutation invariance (200x50), "
            "1000 distinct salted leaves, 1000/1000 tamperings rejected")


# -- 5: review lifecycle ------------------------------------------------------------------


def _push(state, branch, author, payload, at):
    submit = build_content_submit(state, branch, author, "content", tick(at), [payload])
    verdict, cid = twig_push(state, branch.branch_id, submit, author.public_key)
    assert verdict.ok, verdict
    state.add_proof(make_contribution_proof(author, branch.branch_id, "content", cid))
    return cid


def test_c5_review_lifecycle_three_peers():
    """Steps 1-5 end to end across three peers, then the lignified merge."""
    world = World(SimConfig(55, ("fixed", 1)), ["p1", "p2", "p3"])
    alice = world.peers["p1"].identity
    bob = world.peers["p2"].identity
    carol = world.peers["p3"].identity
    p1 = world.peers["p1"].state

    core = create_genesis_branch(
        p1, proper_config(min_reviewers=2, min_review_rounds=1,
                          lignification_time=4, engagement_time=4, broadcasting_buffer=1),
        alice, world.now())
    # carol is also a standing content contributor of the core
    p1.add_proof(make_contribution_proof(carol, core.branch_id, "content", core.initial_head))
    world.flush_gossip("p1")
    world.run_until(world.tick + 3)

    # step 1: bob opens the pull request from his twig on his own peer
    p2 = world.peers["p2"].state
    twig = create_rooted_branch(p2, p2.branches[core.branch_id].stable_head,
                                core.branch_id, bob, world.now(), twig_config())
    _push(p2, twig, bob, b"the contribution", world.tick)
    world.flush_gossip("p2")
    world.run_until(world.tick + 2)
    pr, _ = create_pull_request(p2, twig.branch_id, twig.branch_id, core.branch_id,
                                bob, world.now())
    world.flush_gossip("p2")
    notified = route_request(world, "p2", core.branch_id, "pull_requests",
                             pr.review_container.hex.encode())
    assert notified == {"p1", "p3"}  # both core contributors hear about it
    world.run_until(world.tick + 2)

    # step 2: maturity is immediate for a twig requesting for itself
    p1_pr = PullRequest(twig.branch_id, twig.branch_id, core.branch_id,
                        pr.review_container, pr.carrier_submit)
    from lakat.review import check_maturity

    assert check_maturity(p1, p1_pr)

    # step 3: commitments on each reviewer's own peer
    assert commit_review(p1, p1_pr, alice, world.now()).ok
    world.flush_gossip("p1")
    world.run_until(world.tick + 2)
    p3 = world.peers["p3"].state
    p3_pr = PullRequest(twig.branch_id, twig.branch_id, core.branch_id,
                        pr.review_container, pr.carrier_submit)
    assert commit_review(p3, p3_pr, carol, world.now()).ok
    world.flush_gossip("p3")
    world.run_until(world.tick + 2)

    # step 4: reviews; readiness flips only when every requirement holds
    assert not merge_ready(p1, p1_pr, p1.branches[core.branch_id].config)
    assert submit_review(p1, p1_pr, alice, "accept", b"thorough", world.now())[0].ok
    world.flush_gossip("p1")
    world.run_until(world.tick + 2)
    assert not merge_ready(p1, p1_pr, p1.branches[core.branch_id].config)  # 1 of 2 reviewers
    assert submit_review(p3, p3_pr, carol, "accept", b"agreed", world.now())[0].ok
    world.flush_gossip("p3")
    world.run_until(world.tick + 2)

    # step 5: completion on every peer's view
    assert merge_ready(p1, p1_pr, p1.branches[core.branch_id].config)
    assert merge_ready(p3, p3_pr, p3.branches[core.branch_id].config)

    plan = plan_merge(p1, core.branch_id, twig.branch_id, p1_pr)
    merge = execute_merge(p1, plan, alice, world.now())
    cid = submit_id(merge)
    wrap_merge_in_sprout(p1, cid, alice.public_key, twig.branch_id, core.branch_id, world.now())
    world.flush_gossip("p1")
    world.run_until(world.tick + 8)
    poke = p1.store.put_object(
        get_submit(p1.store, cid).__class__(cid, "advance", merge.trie_root,
                                            merge.submit_trace.__class__(), world.now()))
    wrap_merge_in_sprout(p1, poke, alice.public_key, twig.branch_id,
                         [s for s in p1.wraps if p1.wraps[s].merge_submit == cid][0],
                         world.now())
    lignify(p1, core.branch_id, poke, now=world.now())
    world.flush_gossip("p1")
    world.run_until_quiescent()
    heads = {peer.state.branches[core.branch_id].stable_head.hex
             for peer in world.peers.values()}
    assert heads == {cid.hex}
    _report("ACCEPTANCE 5a: PASS - review lifecycle steps 1-5 across 3 peers")


@pytest.mark.parametrize("rule", [
    AcceptanceRule("no_rejections"),
    AcceptanceRule("fraction", Rational(1, 2)),
    AcceptanceRule("fraction", Rational(2, 3)),
])
@pytest.mark.parametrize("min_reviewers", [1, 2, 3])
def test_c5_merge_ready_exhaustive_three_reviewers(rule, min_reviewers):
    """Every verdict combination for three reviewers matches the rule oracle."""
    from fractions import Fraction

    owner = KeyIdentity.from_seed(b"owner")
    author = KeyIdentity.from_seed(b"author")
    reviewers = [KeyIdentity.from_seed(b"rev-%d" % i) for i in range(3)]
    config = proper_config(min_reviewers=min_reviewers, min_review_rounds=1,
                           acceptance_rule=rule)
    options = [None, "accept", "reject", "comment"]
    checked = 0
    for verdicts in itertools.product(options, repeat=3):
        state = ProtocolState(MemoryStore())
        target = create_genesis_branch(state, config, owner, tick(0))
        twig = create_rooted_branch(state, target.stable_head, target.branch_id,
                                    author, tick(1), twig_config())
        _push(state, twig, author, b"payload", 2)
        pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id,
                                    target.branch_id, author, tick(3))
        committed = []
        at = 4
        for reviewer, verdict in zip(reviewers, verdicts):
            if verdict is None:
                continue
            state.add_proof(make_contribution_proof(reviewer, target.branch_id,
                                                    "content", target.initial_head))
            assert commit_review(state, pr, reviewer, tick(at)).ok
            committed.append((reviewer, verdict))
            at += 1
        for reviewer, verdict in committed:
            ok, _ = submit_review(state, pr, reviewer, verdict, b"note", tick(at))
            assert ok.ok
            at += 1
        reviewer_count = len(committed)
        rejects = sum(1 for _, verdict in committed if verdict == "reject")
        if reviewer_count == 0 or reviewer_count < min_reviewers:
            expected = False
        elif rule.kind == "no_rejections":
            expected = rejects == 0
        else:
            expected = Fraction(rejects, reviewer_count) <= 1 - rule.fraction.value()
        assert merge_ready(state, pr, config) == expected, verdicts
        checked += 1
    assert checked == 64
    _report(f"ACCEPTANCE 5b: PASS - 64 verdict combinations, rule={rule.kind} "
            f"min_reviewers={min_reviewers}")


# -- 6: merge set semantics --------------------------------------------------------------


def test_c6_merge_set_semantics():
    """Disjoint submit sets with overlapping buckets merge to the exact union."""
    state = ProtocolState(MemoryStore())
    alice = KeyIdentity.from_seed(b"alice")
    bob = KeyIdentity.from_seed(b"bob")
    carol = KeyIdentity.from_seed(b"carol")
    common = create_genesis_branch(state, twig_config(stale_after_merge=False), carol, tick(0))
    _push(state, common, carol, b"shared result", 1)
    core = create_genesis_branch(state, twig_config(stale_after_merge=False), alice, tick(0))
    _push(state, core, alice, b"core flavored", 1)
    other = create_genesis_branch(state, twig_config(stale_after_merge=False), bob, tick(0))
    _push(state, other, bob, b"other flavored", 1)
    execute_merge(state, plan_merge(state, core.branch_id, common.branch_id), alice,
                  tick(2), approvals={alice.public_key})
    execute_merge(state, plan_merge(state, other.branch_id, common.branch_id), bob,
                  tick(2), approvals={bob.public_key})
    assert submit_set(state, core.branch_id) & submit_set(state, other.branch_id) == set()
    overlap = bucket_set(state, core.branch_id) & bucket_set(state, other.branch_id)
    assert overlap

    before = bucket_set(state, core.branch_id)
    before_submits = submit_set(state, core.branch_id)
    belt_buckets = bucket_set(state, other.branch_id)
    plan = plan_merge(state, core.branch_id, other.branch_id)
    merge = execute_merge(state, plan, alice, tick(3), approvals={alice.public_key})
    after = bucket_set(state, core.branch_id)
    assert after == before | belt_buckets  # flat-set union oracle, exactly
    assert set(merge.submit_trace.new_buckets) == belt_buckets - before  # dedupe
    assert len(submit_set(state, core.branch_id)) == len(before_submits) + 1
    _report(f"ACCEPTANCE 6: PASS - union oracle exact, {len(overlap)} shared buckets deduped")


# -- 7: contributor rules -----------------------------------------------------------------


def test_c7_contributor_rules():
    state = ProtocolState(MemoryStore())
    alice = KeyIdentity.from_seed(b"alice")
    bob = KeyIdentity.from_seed(b"bob")
    carol = KeyIdentity.from_seed(b"carol")
    dave = KeyIdentity.from_seed(b"dave")
    erin = KeyIdentity.from_seed(b"erin")

    core = create_genesis_branch(
        state, proper_config(lignification_time=2, engagement_time=2, broadcasting_buffer=1),
        alice, tick(0))
    belt = create_rooted_branch(state, core.stable_head, core.branch_id, bob,
                                tick(1), twig_config())
    bucket_cid = None
    submit = build_content_submit(state, belt, bob, "content", tick(2), [b"belt data"])
    bucket_cid = submit.submit_trace.new_buckets[0]
    verdict, cid = twig_push(state, belt.branch_id, submit, bob.public_key)
    assert verdict.ok
    state.add_proof(make_contribution_proof(bob, belt.branch_id, "content", cid))
    # review contributor on the belt via commitment
    pr, _ = create_pull_request(state, belt.branch_id, belt.branch_id, core.branch_id,
                                bob, tick(3))
    state.add_proof(make_contribution_proof(carol, core.branch_id, "content", core.initial_head))
    assert commit_review(state, pr, carol, tick(4)).ok
    assert submit_review(state, pr, carol, "accept", b"fine", tick(5))[0].ok
    # token contributor: attestation in the belt's token entry
    token_blob = b"token-transfer-attestation"
    state.branches[belt.branch_id].branch_token.append(token_blob)
    state.add_proof(make_contribution_proof(dave, belt.branch_id, "token", content_id(token_blob)))
    # storage contributor: attestation attached to the belt bucket's info
    attestation = make_storage_attestation(erin, bucket_cid, tick(6))
    attach = build_content_submit(state, state.branches[belt.branch_id], bob, "attach", tick(6),
                                  attachments=[(bucket_cid, InfoDelta(storage_proofs=(attestation,)))])
    verdict, cid = twig_push(state, belt.branch_id, attach, bob.public_key)
    assert verdict.ok
    state.add_proof(make_contribution_proof(bob, belt.branch_id, "content", cid))
    state.add_proof(make_contribution_proof(erin, belt.branch_id, "storage", object_id(attestation)))

    belt_set = state.contributors(belt.branch_id)
    assert bob.public_key in belt_set.content
    assert carol.public_key in belt_set.review
    assert dave.public_key in belt_set.token
    assert erin.public_key in belt_set.storage

    before = state.contributors(core.branch_id)
    assert before.all_keys() == {alice.public_key, carol.public_key}

    plan = plan_merge(state, core.branch_id, belt.branch_id, pr)
    merge = execute_merge(state, plan, alice, tick(7))
    cid = submit_id(merge)
    wrap_merge_in_sprout(state, cid, alice.public_key, belt.branch_id, core.branch_id, tick(7))
    poke = state.store.put_object(
        get_submit(state.store, cid).__class__(cid, "advance", merge.trie_root,
                                               merge.submit_trace.__class__(), tick(12)))
    wrap_merge_in_sprout(state, poke, alice.public_key, belt.branch_id,
                         [s for s in state.wraps if state.wraps[s].merge_submit == cid][0],
                         tick(12))
    lignify(state, core.branch_id, poke, now=tick(12))
    assert state.branches[core.branch_id].stable_head == cid

    after = state.contributors(core.branch_id)
    for kind, key in (("content", bob.public_key), ("review", carol.public_key),
                      ("token", dave.public_key), ("storage", erin.public_key)):
        assert key in after.kind(kind), f"union missing {kind} contributor"

    # no pull request: contributors unchanged
    quiet_core = create_genesis_branch(state, twig_config(stale_after_merge=False), alice,
                                       tick(0), message="quiet core")
    quiet_belt = create_rooted_branch(state, quiet_core.stable_head, quiet_core.branch_id,
                                      bob, tick(1), twig_config())
    _push(state, quiet_belt, bob, b"quiet work", 2)
    execute_merge(state, plan_merge(state, quiet_core.branch_id, quiet_belt.branch_id),
                  alice, tick(3), approvals={alice.public_key})
    unchanged = state.contributors(quiet_core.branch_id)
    assert unchanged.all_keys() == {alice.public_key}

    # randomized enforcement: 100 attempts each all rejected
    rng = random.Random(707)
    strangers = [KeyIdentity.from_seed(b"stranger-%d" % i) for i in range(10)]
    rejected_reviews = 0
    for i in range(100):
        reviewer = rng.choice(strangers)
        verdict, _ = submit_review(state, pr, reviewer, "accept", b"drive-by", tick(20 + i))
        if not verdict.ok and verdict.code == "no-commitment":
            rejected_reviews += 1
    assert rejected_reviews == 100
    rejected_commits = 0
    for i in range(100):
        # bob contributes to the requesting branch, so his commitment must fail;
        # strangers fail earlier for not being target contributors
        attacker = bob if rng.random() < 0.5 else rng.choice(strangers)
        result = commit_review(state, pr, attacker, tick(140 + i))
        if not result.ok and result.code in ("conflict-of-interest",
                                             "not-target-content-contributor"):
            rejected_commits += 1
    assert rejected_commits == 100
    _report("ACCEPTANCE 7: PASS - union on PR merge (4 kinds), unchanged without PR, "
            "200/200 invalid attempts rejected")


# -- 8: finality fuzz ------------------------------------------------------------------------


def test_c8_finality_fuzz_and_determinism():
    start = time.perf_counter()
    run = FuzzRun(42).run(10_000)
    elapsed = time.perf_counter() - start
    assert len(run.world.transcript) >= 10_000
    assert run.violations == [], run.violations
    heads = {name: peer.state.branches[run.core_id].stable_head.hex
             for name, peer in run.world.peers.items()
             if run.core_id in peer.state.branches}
    assert len(set(heads.values())) == 1
    # the identical-seed rerun at full size must reproduce the transcript
    rerun = FuzzRun(42).run(10_000)
    assert rerun.world.transcript_hash() == run.world.transcript_hash()
    assert rerun.violations == []
    _report(f"ACCEPTANCE 8: PASS - {len(run.world.transcript)} events, prefixes preserved, "
            f"identical 10k rerun ({elapsed:.0f}s per run)")


# -- 9: capacity and routing -------------------------------------------------------------------


def test_c9_capacity_and_routing():
    rng = random.Random(909)
    requests = BranchRequests(capacity=5)
    for _ in range(2000):
        channel = rng.choice(CHANNELS)
        if rng.random() < 0.6:
            requests.enqueue(channel, b"payload")
        else:
            requests.dequeue(channel)
        for name in CHANNELS:
            assert requests.size(name) <= requests.capacities[name]

    world = World(SimConfig(9, ("uniform", 1, 3), ((4, "p3", "leave"),)), ["p1", "p2", "p3"])
    p1 = world.peers["p1"]
    branch = create_genesis_branch(p1.state, twig_config(), p1.identity, world.now())
    for peer in world.peers.values():
        p1.state.add_proof(make_contribution_proof(peer.identity, branch.branch_id,
                                                   "content", branch.initial_head))
    world.flush_gossip("p1")
    world.run_until(5)  # p3 has left
    recipients = route_request(world, "p1", branch.branch_id, "submit_requests", b"body")
    assert recipients == {"p2"}  # exactly the online contributor set
    world.run_until_quiescent()
    assert world.peers["p2"].state.requests_for(branch.branch_id).size("submit_requests") == 1
    assert world.peers["p3"].state.requests_for(branch.branch_id).size("submit_requests") == 0
    _report("ACCEPTANCE 9: PASS - capacities hold under 2000 interleavings; "
            "requests reach exactly the online contributor set")
