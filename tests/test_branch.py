import random
from dataclasses import fields, replace

import pytest

from lakat.bucket import create_atomic_bucket, is_molecular
from lakat.codec import LogicalTimestamp, NULL_ID, canonical_encode, content_id
from lakat.identity import make_contribution_proof
from lakat.branch import (
    HEADER_FIELDS,
    AcceptanceRule,
    Branch,
    BranchConfig,
    ConflictRecord,
    ContributorSet,
    IntegrityError,
    Rational,
    SelectionEntry,
    Submit,
    SubmitTrace,
    Veto,
    Vote,
    branch_header_from_json,
    collect_evidence,
    compute_branch_id,
    conflict_records,
    derive_contributors,
    detect_conflicts,
    ancestry,
    get_submit,
    in_closure,
    included_submits,
    submit_history,
    submit_id,
    verify_branch,
)
from lakat.ops import create_genesis_branch, create_rooted_branch
from lakat.review import twig_push
from lakat.state import ProtocolState, build_content_submit
from lakat.store import MemoryStore, MissingRecord
from conftest import proper_config, tick, twig_config

import json
import os


def _push_payload(state, branch, author, payload, at):
    submit = build_content_submit(state, branch, author, "content", tick(at), [payload])
    verdict, cid = twig_push(state, branch.branch_id, submit, author.public_key)
    assert verdict.ok, verdict
    state.add_proof(make_contribution_proof(author, branch.branch_id, "content", cid))
    return cid


# -- branch id ----------------------------------------------------------------


def test_branch_id_deterministic():
    ts = tick(3)
    head = content_id(b"head")
    assert compute_branch_id(NULL_ID, ts, head) == compute_branch_id(NULL_ID, ts, head)


def test_branch_id_depends_on_initial_head():
    ts = tick(3)
    assert compute_branch_id(NULL_ID, ts, content_id(b"a")) != compute_branch_id(NULL_ID, ts, content_id(b"b"))


def test_branch_id_ignores_mutable_fields(state, alice):
    branch = create_genesis_branch(state, twig_config(), alice, tick(0))
    original = branch.branch_id
    _push_payload(state, branch, alice, b"more", 1)
    branch.branch_token.append(b"token")
    branch.sprouts.add(content_id(b"s"))
    assert compute_branch_id(branch.parent_branch, branch.timestamp, branch.initial_head) == original


# -- histories ------------------------------------------------------------------


def test_singularity_only_history(state, alice):
    branch = create_genesis_branch(state, twig_config(), alice, tick(0))
    history = submit_history(branch, state.store)
    assert len(history) == 1
    assert history[0].is_singularity()


def test_three_chain_history_order(state, alice):
    branch = create_genesis_branch(state, twig_config(), alice, tick(0))
    first = _push_payload(state, branch, alice, b"one", 1)
    second = _push_payload(state, branch, alice, b"two", 2)
    history = submit_history(branch, state.store)
    assert len(history) == 3
    assert [submit_id(s) for s in history[:2]] == [second, first]
    assert history[-1].is_singularity()


def test_null_head_has_empty_history_and_evidence(state, alice):
    branch = create_genesis_branch(state, twig_config(), alice, tick(0))
    headless = replace(branch, stable_head=NULL_ID)
    assert submit_history(headless, state.store) == []
    assert collect_evidence(headless, state.store) == set()
    state.branches[branch.branch_id] = headless
    assert not state.contributors(branch.branch_id).all_keys()


def test_derived_history_stops_at_root_then_follows_parent(state, alice, bob):
    parent = create_genesis_branch(state, twig_config(), alice, tick(0))
    _push_payload(state, parent, alice, b"p1", 1)
    root = _push_payload(state, parent, alice, b"p2", 2)
    derived = create_rooted_branch(state, root, parent.branch_id, bob, tick(3))
    _push_payload(state, derived, bob, b"d1", 4)
    own = submit_history(derived, state.store)
    # [d1, initial, root submit]
    assert len(own) == 3
    assert submit_id(own[-1]) == root
    full = [submit for _, submit in ancestry(state.store, derived.stable_head)]
    assert len(full) == 5
    assert full[-1].is_singularity()


def test_ancestry_stops_before_its_stop_id(store):
    root = _raw_submit(store, NULL_ID, "root")
    middle = _raw_submit(store, root, "middle")
    head = _raw_submit(store, middle, "head")
    assert [cid for cid, _ in ancestry(store, head)] == [head, middle, root]
    assert [cid for cid, _ in ancestry(store, head, stop={middle})] == [head]
    assert list(ancestry(store, head, stop={head})) == []


def test_ancestry_raises_on_a_broken_chain(store, alice):
    ghost = content_id(b"never stored")
    with pytest.raises(MissingRecord):
        list(ancestry(store, _raw_submit(store, ghost, "orphan")))
    _, bucket = create_atomic_bucket(store, store.put(alice.public_key), NULL_ID, b"x", [], tick(0))
    with pytest.raises(IntegrityError, match="is not a submit"):
        list(ancestry(store, _raw_submit(store, bucket, "on a bucket")))
    root = _raw_submit(store, NULL_ID, "root")
    head = _raw_submit(store, root, "head")
    store._records[root] = canonical_encode(Submit(head, "loop", NULL_ID, SubmitTrace(), tick(0)))
    with pytest.raises(IntegrityError, match="cycle"):
        list(ancestry(store, head))


# -- conflicts -----------------------------------------------------------------


def test_linear_chain_has_no_conflicts(state, alice):
    branch = create_genesis_branch(state, twig_config(), alice, tick(0))
    for i in range(4):
        _push_payload(state, branch, alice, b"c%d" % i, i + 1)
    assert detect_conflicts(branch, state.store) == set()


def _raw_submit(store, parent, message, belt_tip=None, merged=None):
    trace = SubmitTrace(merged_branch=merged, belt_tip=belt_tip)
    submit = Submit(parent, message, NULL_ID, trace, tick(0))
    return store.put_object(submit)


def _oracle_conflicts(store, head, branch_id):
    """Brute force: enumerate every submit triple over the naive inclusion
    fixpoint, apply the shared-parent rule, and drop merge-vs-own-belt pairs."""
    included = set()
    frontier = {head}
    while frontier:
        cid = frontier.pop()
        if cid in included or cid == NULL_ID:
            continue
        included.add(cid)
        submit = get_submit(store, cid)
        frontier.add(submit.parent)
        if submit.submit_trace.belt_tip is not None:
            frontier.add(submit.submit_trace.belt_tip)
    included.discard(NULL_ID)

    def closure(cid):
        out = set()
        stack = [cid]
        while stack:
            cursor = stack.pop()
            if cursor in out or cursor == NULL_ID:
                continue
            out.add(cursor)
            submit = get_submit(store, cursor)
            stack.append(submit.parent)
            if submit.submit_trace.belt_tip is not None:
                stack.append(submit.submit_trace.belt_tip)
        return out

    def excluded(a, b):
        submit = get_submit(store, a)
        tip = submit.submit_trace.belt_tip
        return tip is not None and b in closure(tip)

    conflicts = set()
    members = sorted(included, key=lambda c: c.hex)
    for parent in members:
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                sa, sb = get_submit(store, a), get_submit(store, b)
                if sa.parent != parent or sb.parent != parent:
                    continue
                if excluded(a, b) or excluded(b, a):
                    continue
                conflicts.add(ConflictRecord.normalized(branch_id, parent, a, b))
    return conflicts


def test_merge_sharing_ancestor_yields_one_conflict(store):
    """Core advanced past the fork point, belt rooted at the fork: exactly
    one conflict record, agreeing with the brute-force oracle."""
    root = _raw_submit(store, NULL_ID, "root")
    fork = _raw_submit(store, root, "fork")
    core_next = _raw_submit(store, fork, "core work")
    belt_first = _raw_submit(store, fork, "belt work")
    belt_tip = _raw_submit(store, belt_first, "belt more")
    merge = _raw_submit(store, core_next, "merge", belt_tip=belt_tip, merged=content_id(b"belt"))
    branch_id = content_id(b"core")
    included = included_submits(store, merge)
    found = conflict_records(store, included, branch_id)
    assert found == _oracle_conflicts(store, merge, branch_id)
    assert len(found) == 1
    record = next(iter(found))
    assert record.parent_submit == fork
    assert {record.left, record.right} == {core_next, belt_first}


def test_conflictless_merge_at_head(store):
    """Belt rooted at the core head merges cleanly: no conflicts."""
    root = _raw_submit(store, NULL_ID, "root")
    head = _raw_submit(store, root, "head")
    belt_first = _raw_submit(store, head, "belt")
    belt_tip = _raw_submit(store, belt_first, "belt 2")
    merge = _raw_submit(store, head, "merge", belt_tip=belt_tip, merged=content_id(b"belt"))
    branch_id = content_id(b"core")
    included = included_submits(store, merge)
    assert conflict_records(store, included, branch_id) == set()
    assert _oracle_conflicts(store, merge, branch_id) == set()


def test_conflicts_random_dags_agree_with_oracle(store, rng):
    """Randomized DAGs: implementation equals triple enumeration."""
    for trial in range(60):
        local = MemoryStore()
        submits = [_raw_submit(local, NULL_ID, f"root-{trial}")]
        for i in range(rng.randrange(2, 12)):
            parent = rng.choice(submits)
            if rng.random() < 0.3 and len(submits) > 2:
                tip = rng.choice(submits)
                cid = _raw_submit(local, parent, f"m{i}", belt_tip=tip, merged=content_id(b"b"))
            else:
                cid = _raw_submit(local, parent, f"s{i}")
            submits.append(cid)
        head = rng.choice(submits)
        branch_id = content_id(b"branch")
        included = included_submits(local, head)
        assert conflict_records(local, included, branch_id) == _oracle_conflicts(local, head, branch_id)


# -- contributors ---------------------------------------------------------------


def test_creator_is_content_contributor(state, alice):
    branch = create_genesis_branch(state, twig_config(), alice, tick(0))
    derived = derive_contributors(branch, state.proofs[branch.branch_id], state.store)
    assert alice.public_key in derived.content


def test_evidence_outside_root_head_excluded(state, alice, bob):
    parent = create_genesis_branch(state, twig_config(), alice, tick(0))
    early = _push_payload(state, parent, alice, b"early", 1)
    root = _push_payload(state, parent, alice, b"rootward", 2)
    derived = create_rooted_branch(state, root, parent.branch_id, bob, tick(3))
    # proof citing a parent-branch submit beyond the derived branch's root
    stray = make_contribution_proof(alice, derived.branch_id, "content", early)
    result = derive_contributors(derived, [stray], state.store)
    assert alice.public_key not in result.content
    # the root submit itself is in range
    rooted = make_contribution_proof(alice, derived.branch_id, "content", root)
    result = derive_contributors(derived, [rooted], state.store)
    assert alice.public_key in result.content


def test_storage_attestation_makes_storage_contributor(state, alice, bob):
    from lakat.bucket import InfoDelta, make_storage_attestation
    from lakat.codec import object_id

    branch = create_genesis_branch(state, twig_config(), alice, tick(0))
    bucket_cid = None
    submit = build_content_submit(state, branch, alice, "content", tick(1), [b"data"])
    bucket_cid = submit.submit_trace.new_buckets[0]
    verdict, cid = twig_push(state, branch.branch_id, submit, alice.public_key)
    assert verdict.ok
    attestation = make_storage_attestation(bob, bucket_cid, tick(2))
    follow = build_content_submit(
        state, branch, alice, "attach", tick(2),
        attachments=[(bucket_cid, InfoDelta(storage_proofs=(attestation,)))],
    )
    verdict, _ = twig_push(state, branch.branch_id, follow, alice.public_key)
    assert verdict.ok
    proof = make_contribution_proof(bob, branch.branch_id, "storage", object_id(attestation))
    result = derive_contributors(branch, [proof], state.store)
    assert bob.public_key in result.storage


def test_attestations_of_a_late_info_record_equal_a_cold_copy(state, alice, bob):
    """A leaf whose info record has not arrived holds no attestation yet;
    once the record arrives, the store's memo gives what a cold copy gives."""
    from lakat.bucket import InfoDelta, make_storage_attestation
    from lakat.codec import object_id
    from lakat import trie as trie_mod

    branch = create_genesis_branch(state, twig_config(), alice, tick(0))
    _push_payload(state, branch, alice, b"data", 1)
    bucket_cid = get_submit(state.store, branch.stable_head).submit_trace.new_buckets[0]
    attestation = make_storage_attestation(bob, bucket_cid, tick(2))
    follow = build_content_submit(state, branch, alice, "attach", tick(2),
                                  attachments=[(bucket_cid, InfoDelta(storage_proofs=(attestation,)))])
    assert twig_push(state, branch.branch_id, follow, alice.public_key)[0].ok
    info = trie_mod.get(trie_mod.Trie(follow.trie_root, state.store), bucket_cid)
    late = MemoryStore()
    for cid in state.store.ids():
        if cid != object_id(info):
            late.put(state.store.get(cid))
    before = collect_evidence(branch, late)
    assert object_id(attestation) not in before
    assert set(before) == set(collect_evidence(branch, _cold_copy(late)))
    late.put(state.store.get(object_id(info)))
    after = collect_evidence(branch, late)
    assert object_id(attestation) in after
    assert set(after) == set(collect_evidence(branch, _cold_copy(late)))


def test_a_fresh_twig_walks_its_root_belt_closure_only_on_a_miss(monkeypatch, state, alice, bob, carol):
    """A twig rooted at a merge head answers its creator's proof on its own
    push from root..head, reading no submit below its root.  A proof citing a
    belt submit, which only the root's belt tip reaches, and one citing a
    storage attestation still count.  Iterating the evidence, before or
    after the miss that walks the belt closure, gives a cold full build, also
    when the store lacks the info record that holds the attestation."""
    from lakat.bucket import InfoDelta, make_storage_attestation
    from lakat.codec import object_id
    from lakat.ops import execute_merge, plan_merge
    from lakat import trie as trie_mod

    core = create_genesis_branch(state, twig_config(stale_after_merge=False), alice, tick(0))
    _push_payload(state, core, alice, b"core", 1)
    belt = create_rooted_branch(state, core.stable_head, core.branch_id, bob, tick(2), twig_config())
    belt_work = _push_payload(state, belt, bob, b"belt", 3)
    bucket_cid = get_submit(state.store, belt_work).submit_trace.new_buckets[0]
    attestation = make_storage_attestation(carol, bucket_cid, tick(4))
    attach = build_content_submit(state, belt, bob, "attach", tick(4),
                                  attachments=[(bucket_cid, InfoDelta(storage_proofs=(attestation,)))])
    assert twig_push(state, belt.branch_id, attach, bob.public_key)[0].ok
    execute_merge(state, plan_merge(state, core.branch_id, belt.branch_id), alice, tick(5),
                  approvals={alice.public_key})
    root = core.stable_head
    state.contributors(core.branch_id)  # the merge index of the root is held, as after any merge
    below = set(included_submits(state.store, root)) - {root}
    assert belt_work in below
    twig = create_rooted_branch(state, root, core.branch_id, carol, tick(6), twig_config())

    read, get_object = [], state.store.get_object
    monkeypatch.setattr(state.store, "get_object", lambda cid: read.append(cid) or get_object(cid))
    _push_payload(state, twig, carol, b"twig", 7)
    monkeypatch.undo()
    assert read and not below & set(read)

    assert not state.is_contributor(twig.branch_id, bob.public_key)
    state.add_proof(make_contribution_proof(bob, twig.branch_id, "content", belt_work))
    assert state.is_contributor(twig.branch_id, bob.public_key, "content")
    state.add_proof(make_contribution_proof(alice, twig.branch_id, "storage", object_id(attestation)))
    assert state.is_contributor(twig.branch_id, alice.public_key, "storage")

    info = trie_mod.get(trie_mod.Trie(get_submit(state.store, root).trie_root, state.store), bucket_cid)
    late = MemoryStore()
    for cid in state.store.ids():
        if cid != object_id(info):
            late.put(state.store.get(cid))
    for store, attested in ((state.store, True), (late, False)):
        cold = set(collect_evidence(twig, _cold_copy(store)))
        assert belt_work in cold and (object_id(attestation) in cold) == attested
        unwalked = collect_evidence(twig, store)
        assert unwalked.tips and unwalked.attestations is None
        assert set(unwalked) == cold
        missed = collect_evidence(twig, store)
        assert missed.tips and belt_work in missed and not missed.tips
        assert set(missed) == cold

    # a submit missing below the root raises only when a miss walks to it,
    # and the walk, whole once the record arrives, misses nothing
    gap = MemoryStore()
    for cid in state.store.ids():
        if cid != belt_work:
            gap.put(state.store.get(cid))
    evidence = collect_evidence(twig, gap)
    assert twig.initial_head in evidence
    with pytest.raises(MissingRecord):
        content_id(b"cited by no one") in evidence
    gap.put(state.store.get(belt_work))
    assert belt_work in evidence and set(evidence) == set(collect_evidence(twig, _cold_copy(gap)))


def test_merge_union_with_and_without_pr(alice, bob):
    core = ContributorSet()
    core.add("content", alice.public_key)
    belt = ContributorSet()
    belt.add("content", bob.public_key)
    belt.add("review", bob.public_key)
    merged = core.copy()
    merged.update(belt)  # a pull request preceded the merge
    assert merged.keys("content") == {alice.public_key, bob.public_key}
    assert merged.keys("review") == {bob.public_key}
    # without one the core set stays as it was
    assert core.keys("content") == {alice.public_key}
    assert core.keys("review") == set()


def test_union_deduplicates(alice):
    left = ContributorSet()
    left.add("content", alice.public_key)
    right = ContributorSet()
    right.add("content", alice.public_key)
    left.update(right)
    assert len(left.content) == 1


# -- verify_branch ---------------------------------------------------------------


def test_fresh_branch_verifies(state, alice):
    branch = create_genesis_branch(state, twig_config(), alice, tick(0))
    _push_payload(state, branch, alice, b"x", 1)
    assert verify_branch(branch, state.store).ok


def test_tampered_upstream_submit_detected(state, alice):
    branch = create_genesis_branch(state, twig_config(), alice, tick(0))
    first = _push_payload(state, branch, alice, b"x", 1)
    _push_payload(state, branch, alice, b"y", 2)
    tampered = replace(get_submit(state.store, first), submit_message="evil")
    state.store._records[first] = canonical_encode(tampered)
    verdict = verify_branch(branch, state.store)
    assert not verdict.ok
    assert "submit-id-mismatch" in verdict.codes()


def test_missing_arrangement_record_is_a_verdict(state, alice):
    """A store copy without a molecular bucket's arrangement record fails the
    branch with a code; verify_branch raises nothing."""
    branch = create_genesis_branch(state, twig_config(), alice, tick(0))
    _push_payload(state, branch, alice, b"x", 1)
    head = get_submit(state.store, branch.stable_head)
    buckets = [state.store.get_object(cid) for cid in head.submit_trace.new_buckets]
    arrangement = next(b.data_root for b in buckets if is_molecular(b))
    copy = MemoryStore()
    for cid in state.store.ids():
        if cid != arrangement:
            copy.put(state.store.get(cid))
    verdict = verify_branch(branch, copy)
    assert ("missing-record", arrangement.hex) in verdict.failures


@pytest.mark.parametrize("make_record", [
    lambda store, alice: store.put_object(SubmitTrace()),  # decodes, but is not a bucket
    lambda store, alice: store.put(b"\xff garbage"),  # does not decode
], ids=["not-a-bucket", "undecodable"])
def test_non_bucket_in_new_buckets_fails_append_and_verify_alike(state, alice, make_record):
    """A submit whose new_buckets names a record that is not a bucket gets
    the same failure from append_submit and from verify_branch, and neither
    raises."""
    twig = create_genesis_branch(state, twig_config(), alice, tick(0))
    odd = make_record(state.store, alice)
    trie_root = get_submit(state.store, twig.stable_head).trie_root
    submit = Submit(twig.stable_head, "odd", trie_root, SubmitTrace(new_buckets=(odd,)), tick(1))
    verdict, cid = state.append_submit(twig.branch_id, submit)
    assert (verdict.ok, verdict.code, verdict.detail, cid) == (False, "not-a-bucket", odd.hex, None)
    pushed = replace(twig, stable_head=state.store.put_object(submit))
    assert verify_branch(pushed, state.store).failures == [("not-a-bucket", odd.hex)]


def _raw_branch(root, head):
    return Branch(
        branch_id=compute_branch_id(NULL_ID, tick(0), root),
        parent_branch=NULL_ID,
        timestamp=tick(0),
        initial_head=root,
        stable_head=head,
        config=twig_config(),
    )


def test_cycle_in_history_is_a_verdict(store):
    root = _raw_submit(store, NULL_ID, "root")
    head = _raw_submit(store, root, "head")
    store._records[root] = canonical_encode(Submit(head, "loop", NULL_ID, SubmitTrace(), tick(0)))
    verdict = verify_branch(_raw_branch(root, head), store)
    assert verdict.failures == [
        ("submit-id-mismatch", root.hex),
        ("history-integrity", "cycle in submit chain"),
    ]


def test_dangling_parent_is_a_verdict(store):
    ghost = content_id(b"never stored")
    head = _raw_submit(store, ghost, "orphan")
    verdict = verify_branch(_raw_branch(head, head), store)
    assert verdict.failures == [("history-integrity", f"dangling submit {ghost.hex}")]


def test_non_submit_in_history_is_a_verdict(store, alice):
    _, bucket = create_atomic_bucket(store, store.put(alice.public_key), NULL_ID, b"x", [], tick(0))
    head = _raw_submit(store, bucket, "on a bucket")
    verdict = verify_branch(_raw_branch(head, head), store)
    assert verdict.failures == [("history-integrity", f"{bucket.hex} is not a submit")]


def test_undecodable_record_in_history_is_a_verdict(store):
    garbage = store.put(b"\xff garbage")
    head = _raw_submit(store, garbage, "on garbage")
    verdict = verify_branch(_raw_branch(head, head), store)
    assert verdict.failures == [("history-integrity", f"{garbage.hex} is not a submit")]


def test_timestamp_regression_detected(state, alice):
    branch = create_genesis_branch(state, twig_config(), alice, tick(5))
    head = get_submit(state.store, branch.stable_head)
    bad = Submit(branch.stable_head, "back in time", head.trie_root, SubmitTrace(), tick(1))
    state.store.put_object(bad)
    branch.stable_head = submit_id(bad)
    verdict = verify_branch(branch, state.store)
    assert "timestamp-regression" in verdict.codes()


def test_conflict_policy_verdict(store, alice):
    """A branch whose state holds a conflict fails under accept_conflicts=False."""
    root = _raw_submit(store, NULL_ID, "root")
    fork = _raw_submit(store, root, "fork")
    core_next = _raw_submit(store, fork, "core")
    belt_first = _raw_submit(store, fork, "belt")
    merge = _raw_submit(store, core_next, "merge", belt_tip=belt_first, merged=content_id(b"belt"))
    config = twig_config(accept_conflicts=False)
    branch = Branch(
        branch_id=compute_branch_id(NULL_ID, tick(0), root),
        parent_branch=NULL_ID,
        timestamp=tick(0),
        initial_head=root,
        stable_head=merge,
        config=config,
    )
    verdict = verify_branch(branch, store)
    assert "conflict-policy" in verdict.codes()
    relaxed = replace(config, accept_conflicts=True)
    branch.config = relaxed
    assert verify_branch(branch, store).ok


@pytest.mark.parametrize("accept_conflicts", [False, True])
def test_undecodable_belt_tip_is_a_verdict_under_either_conflict_policy(store, accept_conflicts):
    """The conflict check walks belt tips, which the chain walk does not:
    a belt tip that does not decode fails the branch, it does not raise."""
    root = _raw_submit(store, NULL_ID, "root")
    garbage = store.put(b"\xff garbage")
    merge = _raw_submit(store, root, "merge", belt_tip=garbage, merged=content_id(b"belt"))
    branch = _raw_branch(root, merge)
    branch.config = twig_config(accept_conflicts=accept_conflicts)
    expected = [] if accept_conflicts else ["history-integrity"]
    assert verify_branch(branch, store).codes() == expected


# -- one verified set per store ------------------------------------------------------


def _cold_copy(store):
    """The same records under their stored ids, with no memo, so a tampered
    record stays tampered."""
    copy = MemoryStore()
    copy._records, copy._order = dict(store._records), list(store._order)
    return copy


def _shared_history(state, alice, bob):
    """A core and two branches rooted at its head: (core, left, right, the
    core submit all three hold)."""
    core = create_genesis_branch(state, twig_config(), alice, tick(0))
    shared = _push_payload(state, core, alice, b"shared", 1)
    _push_payload(state, core, alice, b"core tip", 2)
    left = create_rooted_branch(state, state.branches[core.branch_id].stable_head, core.branch_id, bob, tick(3))
    right = create_rooted_branch(state, state.branches[core.branch_id].stable_head, core.branch_id, alice, tick(3))
    _push_payload(state, left, bob, b"left", 4)
    _push_payload(state, right, alice, b"right", 4)
    return core, left, right, shared


def test_bad_shared_submit_is_reported_for_every_branch(state, alice, bob):
    core, left, right, shared = _shared_history(state, alice, bob)
    tampered = replace(get_submit(state.store, shared), submit_message="evil")
    state.store._records[shared] = canonical_encode(tampered)
    for branch in (core, left, right):
        verdict = verify_branch(branch, state.store)
        assert ("submit-id-mismatch", shared.hex) in verdict.failures
        assert verdict.failures == verify_branch(branch, _cold_copy(state.store)).failures
    assert shared not in state.store.verified  # failures are never remembered


def test_missing_shared_record_is_reported_for_every_branch(state, alice, bob):
    core, left, right, shared = _shared_history(state, alice, bob)
    buckets = [state.store.get_object(cid) for cid in get_submit(state.store, shared).submit_trace.new_buckets]
    arrangement = next(b.data_root for b in buckets if is_molecular(b))
    copy = MemoryStore()
    for cid in state.store.ids():
        if cid != arrangement:
            copy.put(state.store.get(cid))
    for branch in (left, core, right):
        verdict = verify_branch(branch, copy)
        assert verdict.failures == [("missing-record", arrangement.hex)]
    # once the record arrives the same store passes the branches
    copy.put(state.store.get(arrangement))
    assert all(verify_branch(branch, copy).ok for branch in (core, left, right))


def test_verifier_walks_only_what_it_has_not_passed(state, alice, bob):
    core, left, right, shared = _shared_history(state, alice, bob)
    assert verify_branch(core, state.store).ok
    passed = set(state.store.verified)
    assert shared in passed and len(passed) == 3  # the singularity and the two pushes
    assert verify_branch(left, state.store).ok
    assert state.store.verified - passed == {left.initial_head, left.stable_head}


def test_timestamp_regression_at_the_verified_boundary(state, alice):
    branch = create_genesis_branch(state, twig_config(), alice, tick(5))
    assert verify_branch(branch, state.store).ok
    head = get_submit(state.store, branch.stable_head)
    bad = Submit(branch.stable_head, "back in time", head.trie_root, SubmitTrace(), tick(1))
    state.store.put_object(bad)
    branch.stable_head = submit_id(bad)
    verdict = verify_branch(branch, state.store)
    assert verdict.failures == [("timestamp-regression", submit_id(bad).hex)]
    assert verdict.failures == verify_branch(branch, _cold_copy(state.store)).failures


def _finished_world(kind):
    from lakat.scenario import Runner, parse_scenario

    if kind == "fuzz":
        from fuzz_driver import FuzzRun

        return FuzzRun(7).run(1500).world
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", f"{kind}.json")
    with open(path) as fh:
        runner = Runner(parse_scenario(fh.read()))
    runner.run()
    return runner.world


def test_verifying_twice_gives_identical_verdicts_and_sprouts_still_mismatch():
    """fig5a converts a sprout, whose id was hashed with the null parent, so
    it fails with branch-id-mismatch; a second pass over the same store, and
    a pass over a cold copy of it, give the same verdicts for every branch."""
    mismatched = 0
    for peer in _finished_world("fig5a").peers.values():
        state = peer.state
        first = {bid: verify_branch(branch, state.store).failures for bid, branch in state.branches.items()}
        second = {bid: verify_branch(branch, state.store).failures for bid, branch in state.branches.items()}
        cold = _cold_copy(state.store)
        fresh = {bid: verify_branch(branch, cold).failures for bid, branch in state.branches.items()}
        assert first == second == fresh
        for bid, failures in first.items():
            assert failures in ([], [("branch-id-mismatch", bid.hex)])
            mismatched += bool(failures)
    assert mismatched == 3  # the converted sprout, on each of the three peers


@pytest.mark.parametrize("kind", ["fuzz", "fig5a", "fig5b"])
def test_live_store_verdicts_equal_a_cold_copy(kind):
    """Every memo a run leaves in a peer's store gives the verdicts a store
    with no memo gives, for every branch of every peer."""
    checked = 0
    for peer in _finished_world(kind).peers.values():
        store = peer.state.store
        cold = _cold_copy(store)
        for branch in peer.state.branches.values():
            assert verify_branch(branch, store).failures == verify_branch(branch, cold).failures
            checked += 1
    assert checked >= 6


def test_early_exit_membership_agrees_with_closure_through_fuzz_run():
    from fuzz_driver import FuzzRun

    run = FuzzRun(11).run(800)
    checked = 0
    for peer in run.world.peers.values():
        store = peer.state.store
        heads = {branch.stable_head for branch in peer.state.branches.values()}
        submits = set().union(*(included_submits(store, head) for head in heads))
        for head in heads:
            closure = included_submits(store, head)
            for target in submits:
                assert in_closure(store, head, target) == (target in closure)
                checked += 1
    assert checked > 1000


# -- header export ----------------------------------------------------------------


def test_header_json_roundtrip(state, alice):
    """A genesis header and one that fills every header field read back to
    the same text and the same branch; the JSON table lists every field."""
    genesis = create_genesis_branch(state, proper_config(), alice, tick(0), token_attestation=b"tok")
    sprout, rival = content_id(b"sprout"), content_id(b"rival")
    entry = SelectionEntry(sprout, (Veto(sprout, b"vetoer", 3, b"veto sig"),), (Vote(sprout, b"voter", 4, b"vote sig"),))
    full = replace(genesis, timestamp=LogicalTimestamp(7, b"anchor"), sprouts={sprout, rival},
                   config=proper_config(acceptance_rule=AcceptanceRule("fraction", Rational(2, 3))),
                   sprout_selection=[entry], branch_token=[b"tok", b"tok 2"], stale=True)
    for branch in (genesis, full):
        text = branch.header_text()
        data = json.loads(text)
        for key in ("branch_id", "parent_branch", "branch_config", "stable_head",
                    "sprouts", "sprout_selection", "branch_token", "timestamp"):
            assert key in data
        rebuilt = branch_header_from_json(data)
        assert rebuilt.header_text() == text and rebuilt == branch
    for cls in (Branch, BranchConfig, AcceptanceRule, SelectionEntry, Veto, Vote):
        assert {spec.rstrip("?") for spec in HEADER_FIELDS[cls]} == {f.name for f in fields(cls)}


# -- graph shape -------------------------------------------------------------------


def test_submit_graph_is_dag_and_maps_to_branch_graph(state, alice, bob):
    """Submit-to-branch assignment is a graph homomorphism: every submit edge
    stays inside one branch or follows a branch edge (parent-of / merged-into)."""
    main = create_genesis_branch(state, twig_config(), alice, tick(0))
    _push_payload(state, main, alice, b"m1", 1)
    root = main.stable_head
    feature = create_rooted_branch(state, root, main.branch_id, bob, tick(2))
    _push_payload(state, feature, bob, b"f1", 3)

    owner = {}
    for branch in (main, feature):
        for submit in submit_history(branch, state.store):
            owner.setdefault(submit_id(submit), branch.branch_id)

    branch_edges = {(feature.branch_id, main.branch_id)}  # parent-of
    for cid, branch_id in owner.items():
        submit = get_submit(state.store, cid)
        if submit.parent == NULL_ID:
            continue
        parent_owner = owner[submit.parent]
        assert parent_owner == branch_id or (branch_id, parent_owner) in branch_edges

    # submit graph is acyclic: walking parents terminates
    for cid in owner:
        seen = set()
        cursor = cid
        while cursor != NULL_ID:
            assert cursor not in seen
            seen.add(cursor)
            cursor = get_submit(state.store, cursor).parent


def test_proper_head_only_moves_through_lignification(state, alice):
    from lakat.branch import Submit, SubmitTrace

    core = create_genesis_branch(state, proper_config(), alice, tick(0))
    head = get_submit(state.store, core.stable_head)
    direct = Submit(core.stable_head, "direct push", head.trie_root, SubmitTrace(), tick(1))
    verdict, _ = state.append_submit(core.branch_id, direct)
    assert not verdict.ok
    assert verdict.code == "proper-head-lignification-only"
