"""Differential test of ProtocolState.contributors against a from-scratch
reference: the recursive union that recomputes every direct set, evidence
closure and pull-request scan on each call.  Both must agree on the keys of
each kind, their order, and every proof list, after every action; and the
queries that stop early (is_contributor, content_entry) must answer what the
reference union answers."""

from lakat.branch import ContributorSet, collect_evidence, get_submit, submit_history, submit_id
from lakat.bucket import InfoDelta, make_storage_attestation
from lakat.codec import NULL_ID, content_id, object_id
from lakat.identity import KeyIdentity, make_contribution_proof
from lakat.lignify import lignify, wrap_merge_in_sprout
from lakat.ops import create_genesis_branch, create_rooted_branch, execute_merge, plan_merge
from lakat.review import commit_review, create_pull_request, submit_review, twig_push
from lakat.state import ProtocolState, build_content_submit
from lakat.store import MemoryStore
from lakat import trie as trie_mod

from conftest import proper_config, tick, twig_config
from fuzz_driver import FuzzRun, churn_schedule

KINDS = ("content", "review", "token", "storage")


def _closure(store, head) -> dict:
    included, frontier = {}, [head]
    while frontier:
        cursor = frontier.pop()
        while cursor != NULL_ID and cursor not in included:
            submit = get_submit(store, cursor)
            included[cursor] = submit
            if submit.submit_trace.belt_tip is not None:
                frontier.append(submit.submit_trace.belt_tip)
            cursor = submit.parent
    return included


def _reference_evidence(branch, store) -> set:
    history = submit_history(branch, store)
    reachable = {submit_id(s): s for s in history}
    for submit in history:
        tip = submit.submit_trace.belt_tip
        if tip is not None:
            reachable.update(_closure(store, tip))
    evidence = set()
    for cid, submit in reachable.items():
        trace = submit.submit_trace
        evidence.add(cid)
        evidence.update(trace.new_buckets)
        evidence.update(trace.reviews_trace)
        evidence.update(pr.review_container for pr in trace.pull_requests)
    if history:
        for _, value_hash in trie_mod.items(trie_mod.Trie(history[0].trie_root, store)):
            info = store.get_object(value_hash)
            evidence.update(object_id(a) for a in info.storage_proofs)
    evidence.update(content_id(token) for token in branch.branch_token)
    return evidence


def _union(into: ContributorSet, other: ContributorSet):
    for kind in KINDS:
        mine = into.kind(kind)
        for key, proofs in other.kind(kind).items():
            held = mine.setdefault(key, [])
            held.extend(p for p in proofs if p not in held)


def _had_pull_request(state, core_id, belt_id) -> bool:
    belt = state.branches[belt_id]
    return any(pr.target_branch == core_id and pr.requesting_branch == belt_id
               for submit in _closure(state.store, belt.stable_head).values()
               for pr in submit.submit_trace.pull_requests)


def reference_contributors(state, branch_id, visited=None) -> ContributorSet:
    visited = set() if visited is None else visited
    result = ContributorSet()
    if branch_id in visited or branch_id not in state.branches:
        return result
    visited.add(branch_id)
    branch = state.branches[branch_id]
    evidence = _reference_evidence(branch, state.store)
    for proof in state.proofs.get(branch_id, []):
        if (proof.branch_id == branch_id and proof.kind in KINDS
                and proof.kind in branch.config.accepted_proofs
                and proof.verify() and proof.evidence in evidence):
            proofs = result.kind(proof.kind).setdefault(proof.contributor, [])
            if proof not in proofs:
                proofs.append(proof)
    wrap = state.wraps.get(branch_id)
    if wrap is not None:
        result.add("content", wrap.creator)
        _union(result, reference_contributors(state, wrap.requesting_branch, visited))
    for submit in _closure(state.store, branch.stable_head).values():
        belt_id = submit.submit_trace.merged_branch
        if belt_id is None or belt_id not in state.branches:
            continue
        if _had_pull_request(state, branch_id, belt_id):
            _union(result, reference_contributors(state, belt_id, visited))
    return result


def _ordered(contributors: ContributorSet) -> tuple:
    return tuple(list(contributors.kind(kind).items()) for kind in KINDS)


STRANGER = KeyIdentity.from_seed(b"stranger").public_key


def assert_matches_reference(state: ProtocolState) -> int:
    for branch_id in list(state.branches):
        reference = reference_contributors(state, branch_id)
        got = _ordered(state.contributors(branch_id))
        assert got == _ordered(reference), f"contributors of {branch_id.hex[:10]} diverge from the reference"
        for key in reference.all_keys() | {STRANGER}:
            for kind in (None,) + KINDS:
                assert state.is_contributor(branch_id, key, kind) == reference.has(key, kind), (branch_id, kind)
            # what commit_review cites: the first proof, or no proof (a key
            # without one), or not a contributor (None)
            entry = reference.content.get(key)
            assert state.content_entry(branch_id, key) == (None if entry is None else entry[:1]), branch_id
    return len(state.branches)


def _check_run(run: FuzzRun, events: int) -> int:
    run.setup()
    checked = 0
    while len(run.world.transcript) < events:
        run.step()
        for peer in run.world.peers.values():
            checked += assert_matches_reference(peer.state)
    run.world.run_until_quiescent()
    for peer in run.world.peers.values():
        checked += assert_matches_reference(peer.state)
    return checked


def test_contributors_match_reference_through_fuzz_run():
    run = FuzzRun(7)
    checked = _check_run(run, 400)
    core_union = run.world.peers["p1"].state.contributors(run.core_id)
    assert len(core_union.all_keys()) == 3  # every author reached the core
    assert checked > 1000


def test_contributors_match_reference_through_churn_run():
    """Peers leave and rejoin, so heads jump by whole gossip batches."""
    run = FuzzRun(3, churn_schedule(3))
    assert _check_run(run, 600) > 1000
    assert any(" schedule " in line for line in run.world.transcript)


def _push(state, branch, author, payload, at):
    submit = build_content_submit(state, branch, author, "content", tick(at), [payload])
    verdict, cid = twig_push(state, branch.branch_id, submit, author.public_key)
    assert verdict.ok, verdict
    state.add_proof(make_contribution_proof(author, branch.branch_id, "content", cid))
    return cid


def test_contributors_match_reference_through_c7_flow():
    state = ProtocolState(MemoryStore())
    alice, bob, carol, dave, erin, fred = (
        KeyIdentity.from_seed(name) for name in (b"alice", b"bob", b"carol", b"dave", b"erin", b"fred"))
    check = lambda: assert_matches_reference(state)  # noqa: E731

    core = create_genesis_branch(
        state, proper_config(lignification_time=2, engagement_time=2, broadcasting_buffer=1),
        alice, tick(0))
    check()
    belt = create_rooted_branch(state, core.stable_head, core.branch_id, bob, tick(1), twig_config())
    check()
    submit = build_content_submit(state, belt, bob, "content", tick(2), [b"belt data"])
    bucket_cid = submit.submit_trace.new_buckets[0]
    verdict, cid = twig_push(state, belt.branch_id, submit, bob.public_key)
    assert verdict.ok
    check()
    state.add_proof(make_contribution_proof(bob, belt.branch_id, "content", cid))
    check()
    pr, _ = create_pull_request(state, belt.branch_id, belt.branch_id, core.branch_id, bob, tick(3))
    check()
    state.add_proof(make_contribution_proof(carol, core.branch_id, "content", core.initial_head))
    check()
    assert commit_review(state, pr, carol, tick(4)).ok
    check()
    assert submit_review(state, pr, carol, "accept", b"fine", tick(5))[0].ok
    check()
    token_blob = b"token-transfer-attestation"
    state.branches[belt.branch_id].branch_token.append(token_blob)
    check()
    state.add_proof(make_contribution_proof(dave, belt.branch_id, "token", content_id(token_blob)))
    check()
    attestation = make_storage_attestation(erin, bucket_cid, tick(6))
    attach = build_content_submit(state, state.branches[belt.branch_id], bob, "attach", tick(6),
                                  attachments=[(bucket_cid, InfoDelta(storage_proofs=(attestation,)))])
    verdict, attach_cid = twig_push(state, belt.branch_id, attach, bob.public_key)
    assert verdict.ok
    check()
    state.add_proof(make_contribution_proof(bob, belt.branch_id, "content", attach_cid))
    state.add_proof(make_contribution_proof(erin, belt.branch_id, "storage", object_id(attestation)))
    check()
    # a head moved back to an ancestor drops the evidence above it, and back again
    state.branches[belt.branch_id].stable_head = cid
    assert erin.public_key not in state.contributors(belt.branch_id).storage
    check()
    state.branches[belt.branch_id].stable_head = attach_cid
    assert erin.public_key in state.contributors(belt.branch_id).storage
    check()

    plan = plan_merge(state, core.branch_id, belt.branch_id, pr)
    merge = execute_merge(state, plan, alice, tick(7))
    check()
    cid = submit_id(merge)
    wrap_merge_in_sprout(state, cid, alice.public_key, belt.branch_id, core.branch_id, tick(7))
    check()
    poke = state.store.put_object(
        get_submit(state.store, cid).__class__(cid, "advance", merge.trie_root,
                                               merge.submit_trace.__class__(), tick(12)))
    wrap_merge_in_sprout(state, poke, alice.public_key, belt.branch_id,
                         [s for s in state.wraps if state.wraps[s].merge_submit == cid][0], tick(12))
    check()
    lignify(state, core.branch_id, poke, now=tick(12))
    assert state.branches[core.branch_id].stable_head == cid
    check()
    after = state.contributors(core.branch_id)
    assert erin.public_key in after.storage and dave.public_key in after.token
    # a core proof citing a belt submit is found only in the merged belt closure
    assert attach_cid in collect_evidence(state.branches[core.branch_id], state.store)
    belt_work = make_contribution_proof(bob, core.branch_id, "content", attach_cid)
    state.add_proof(belt_work)
    assert state.contributors(core.branch_id).content[bob.public_key][0] == belt_work
    check()

    # a later proof, then the token it cites, on the merged belt reach the core's set
    late_token = b"late-token-attestation"
    late_proof = make_contribution_proof(fred, belt.branch_id, "token", content_id(late_token))
    state.add_proof(late_proof)
    assert fred.public_key not in state.contributors(core.branch_id).token
    check()
    state.branches[belt.branch_id].branch_token.append(late_token)
    assert state.contributors(core.branch_id).token[fred.public_key] == [late_proof]
    check()
    late_content = make_contribution_proof(fred, belt.branch_id, "content", attach_cid)
    state.add_proof(late_content)
    assert state.contributors(core.branch_id).content[fred.public_key] == [late_content]
    check()

    # a merge without a pull request unites nothing until the belt's head
    # carries one; a later pull request to another target keeps it
    quiet_core = create_genesis_branch(state, twig_config(stale_after_merge=False), alice,
                                       tick(0), message="quiet core")
    quiet_belt = create_rooted_branch(state, quiet_core.stable_head, quiet_core.branch_id,
                                      bob, tick(1), twig_config(stale_after_merge=False))
    quiet_work = _push(state, quiet_belt, bob, b"quiet work", 2)
    check()
    execute_merge(state, plan_merge(state, quiet_core.branch_id, quiet_belt.branch_id),
                  alice, tick(3), approvals={alice.public_key})
    check()
    assert state.contributors(quiet_core.branch_id).all_keys() == {alice.public_key}
    create_pull_request(state, quiet_belt.branch_id, quiet_belt.branch_id, quiet_core.branch_id,
                        bob, tick(4))
    check()
    assert bob.public_key in state.contributors(quiet_core.branch_id).content
    create_pull_request(state, quiet_belt.branch_id, quiet_belt.branch_id, core.branch_id,
                        bob, tick(5))
    check()
    assert bob.public_key in state.contributors(quiet_core.branch_id).content
    # a belt head moved below its pull-request carriers by direct assignment,
    # with no touch: the closure of the new head carries no pull request, so
    # the belt leaves the core's reach
    state.branches[quiet_belt.branch_id].stable_head = quiet_work
    assert bob.public_key not in state.contributors(quiet_core.branch_id).content
    check()
