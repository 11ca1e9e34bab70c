import pytest

from lakat.bucket import create_molecular_bucket, fresh_info, is_molecular
from lakat.codec import NULL_ID, content_id
from lakat.identity import make_contribution_proof
from lakat.branch import Submit, SubmitTrace, detect_conflicts, get_submit, submit_id, verify_branch
from lakat.lignify import lignify, wrap_merge_in_sprout
from lakat.ops import (
    InvalidBranchType,
    InvalidMerge,
    InvalidRoot,
    StaleBranch,
    bucket_set,
    create_genesis_branch,
    create_rooted_branch,
    execute_merge,
    mark_stale,
    plan_merge,
    submit_set,
)
from lakat.review import commit_review, create_pull_request, submit_review, twig_push
from lakat.state import build_content_submit
from lakat.ops import apply_config_change
from lakat import trie as trie_mod
from lakat.trie import added_ids
from conftest import proper_config, tick, twig_config


def _push(state, branch, author, payload, at):
    submit = build_content_submit(state, branch, author, "content", tick(at), [payload])
    verdict, cid = twig_push(state, branch.branch_id, submit, author.public_key)
    assert verdict.ok, verdict
    state.add_proof(make_contribution_proof(author, branch.branch_id, "content", cid))
    return cid


def _reviewed_pr(state, target, twig, twig_author, reviewer, at):
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id,
                                twig_author, tick(at))
    assert commit_review(state, pr, reviewer, tick(at + 1)).ok
    verdict, _ = submit_review(state, pr, reviewer, "accept", b"fine", tick(at + 2))
    assert verdict.ok
    return pr


# -- creation -------------------------------------------------------------------


def test_genesis_twig_defaults(state, alice):
    twig = create_genesis_branch(state, twig_config(), alice, tick(0))
    assert twig.parent_branch == NULL_ID
    assert get_submit(state.store, twig.stable_head).is_singularity()


def test_multiple_genesis_branches_coexist(state, alice, bob):
    one = create_genesis_branch(state, twig_config(), alice, tick(0))
    two = create_genesis_branch(state, proper_config(), bob, tick(0))
    assert one.branch_id != two.branch_id
    assert len(state.branches) == 2


def test_genesis_token_attestation_stored(state, alice):
    branch = create_genesis_branch(state, proper_config(), alice, tick(0),
                                   token_attestation=b"stake-proof")
    assert branch.branch_token == [b"stake-proof"]


def test_genesis_sprout_type_rejected(state, alice):
    from lakat.branch import BranchConfig

    with pytest.raises(InvalidBranchType):
        create_genesis_branch(state, BranchConfig(branch_type="sprout"), alice, tick(0))


def test_rooted_at_head_shares_history(state, alice, bob):
    parent = create_genesis_branch(state, twig_config(), alice, tick(0))
    _push(state, parent, alice, b"work", 1)
    derived = create_rooted_branch(state, parent.stable_head, parent.branch_id, bob, tick(2))
    assert derived.parent_branch == parent.branch_id
    assert submit_set(state, derived.branch_id) > submit_set(state, parent.branch_id)


def test_rooted_three_back_diverges_at_root(state, alice, bob):
    parent = create_genesis_branch(state, twig_config(), alice, tick(0))
    marks = [_push(state, parent, alice, b"c%d" % i, i + 1) for i in range(4)]
    root = marks[0]  # three submits back from head
    derived = create_rooted_branch(state, root, parent.branch_id, bob, tick(5))
    _push(state, derived, bob, b"d", 6)
    parent_chain = submit_set(state, parent.branch_id)
    derived_chain = submit_set(state, derived.branch_id)
    shared = parent_chain & derived_chain
    # shared prefix = singularity + first push; nothing after the root
    assert root in shared
    assert marks[1] not in derived_chain


def test_rooted_by_non_contributor_allowed(state, alice, carol):
    parent = create_genesis_branch(state, twig_config(), alice, tick(0))
    derived = create_rooted_branch(state, parent.stable_head, parent.branch_id, carol, tick(1))
    assert state.contributors(derived.branch_id).has(carol.public_key, "content")


def test_rooted_outside_history_rejected(state, alice, bob):
    parent = create_genesis_branch(state, twig_config(), alice, tick(0))
    with pytest.raises(InvalidRoot):
        create_rooted_branch(state, content_id(b"alien"), parent.branch_id, bob, tick(1))


# -- merges ----------------------------------------------------------------------


def test_twig_merge_into_proper_via_lignification(state, alice, bob):
    """Two new buckets arrive; submit count grows by one; union oracle holds."""
    core = create_genesis_branch(state, proper_config(lignification_time=5,
                                                      engagement_time=5,
                                                      broadcasting_buffer=1), alice, tick(0))
    twig = create_rooted_branch(state, core.stable_head, core.branch_id, bob, tick(1), twig_config())
    _push(state, twig, bob, b"bucket one", 2)
    pr = _reviewed_pr(state, core, twig, bob, alice, 3)
    before_buckets = bucket_set(state, core.branch_id)
    before_submits = submit_set(state, core.branch_id)
    belt_buckets = bucket_set(state, twig.branch_id)

    plan = plan_merge(state, core.branch_id, twig.branch_id, pr)
    assert plan.bucket_delta == belt_buckets - before_buckets
    merge = execute_merge(state, plan, alice, tick(6))
    cid = submit_id(merge)
    wrap_merge_in_sprout(state, cid, alice.public_key, twig.branch_id, core.branch_id, tick(6))
    # next trigger after the window advances the head
    head = state.branches[core.branch_id].stable_head
    assert head == core.initial_head  # not yet lignified
    next_submit = state.store.put_object(
        get_submit(state.store, cid).__class__(cid, "poke", merge.trie_root,
                                               merge.submit_trace.__class__(), tick(13))
    )
    wrap_merge_in_sprout(state, next_submit, alice.public_key, twig.branch_id,
                         sorted(state.wraps)[0] if False else list(state.wraps)[0], tick(13))
    lignify(state, core.branch_id, next_submit, now=tick(13))
    assert state.branches[core.branch_id].stable_head == cid
    after_buckets = bucket_set(state, core.branch_id)
    assert after_buckets == before_buckets | belt_buckets  # flat-set union oracle
    assert len(submit_set(state, core.branch_id)) == len(before_submits) + 1
    # merge directionality: belt unchanged apart from staleness
    assert state.branches[twig.branch_id].stable_head == plan.belt_tip
    assert state.branches[twig.branch_id].stale  # twig default
    assert verify_branch(state.branches[core.branch_id], state.store).ok


def test_merge_into_twig_applies_directly(state, alice, carol):
    core = create_genesis_branch(state, twig_config(stale_after_merge=False), alice, tick(0))
    _push(state, core, alice, b"core work", 1)
    belt = create_rooted_branch(state, core.stable_head, core.branch_id, carol, tick(2))
    _push(state, belt, carol, b"belt work", 3)
    plan = plan_merge(state, core.branch_id, belt.branch_id)
    merge = execute_merge(state, plan, alice, tick(4), approvals={alice.public_key})
    assert state.branches[core.branch_id].stable_head == submit_id(merge)
    assert bucket_set(state, core.branch_id) >= bucket_set(state, belt.branch_id)
    assert verify_branch(state.branches[core.branch_id], state.store).ok


def test_merge_registers_incoming_container_on_held_members(state, alice, carol):
    """A belt's new molecular bucket that arranges a bucket the core already
    holds adds itself to the core's info of that bucket on merge."""
    core = create_genesis_branch(state, twig_config(stale_after_merge=False), alice, tick(0))
    _push(state, core, alice, b"core work", 1)
    held = next(cid for cid in bucket_set(state, core.branch_id)
                if not is_molecular(state.store.get_object(cid)))
    belt = create_rooted_branch(state, core.stable_head, core.branch_id, carol, tick(2))
    _, box = create_molecular_bucket(state.store, state.store.put(carol.public_key), NULL_ID, [held], tick(3))
    belt_trie = trie_mod.Trie(get_submit(state.store, belt.stable_head).trie_root, state.store)
    belt_trie = trie_mod.add_container(trie_mod.insert(belt_trie, box, fresh_info([held])), box, [held])
    submit = Submit(belt.stable_head, "rearrange", belt_trie.root, SubmitTrace(new_buckets=(box,)), tick(3))
    assert twig_push(state, belt.branch_id, submit, carol.public_key)[0].ok
    before = trie_mod.get(trie_mod.Trie(get_submit(state.store, core.stable_head).trie_root, state.store), held)
    merge = execute_merge(state, plan_merge(state, core.branch_id, belt.branch_id), alice, tick(4))
    after = trie_mod.get(trie_mod.Trie(merge.trie_root, state.store), held)
    assert after.bucket_refs_in == before.bucket_refs_in + (box,)


def test_shared_ancestor_dedupe(state, alice, bob, carol):
    """Submit sets disjoint, bucket sets overlapping: the merge dedupes."""
    common = create_genesis_branch(state, twig_config(stale_after_merge=False), carol, tick(0))
    _push(state, common, carol, b"shared knowledge", 1)

    core = create_genesis_branch(state, twig_config(stale_after_merge=False), alice, tick(0))
    _push(state, core, alice, b"core only", 1)
    other = create_genesis_branch(state, twig_config(stale_after_merge=False), bob, tick(0))
    _push(state, other, bob, b"other only", 1)

    plan = plan_merge(state, core.branch_id, common.branch_id)
    execute_merge(state, plan, alice, tick(2), approvals={alice.public_key})
    plan = plan_merge(state, other.branch_id, common.branch_id)
    execute_merge(state, plan, bob, tick(2), approvals={bob.public_key})

    assert submit_set(state, core.branch_id) & submit_set(state, other.branch_id) == set()
    shared_buckets = bucket_set(state, core.branch_id) & bucket_set(state, other.branch_id)
    assert shared_buckets  # both pulled the common branch

    before = bucket_set(state, core.branch_id)
    other_buckets = bucket_set(state, other.branch_id)
    plan = plan_merge(state, core.branch_id, other.branch_id)
    assert plan.bucket_delta == other_buckets - before
    merge = execute_merge(state, plan, alice, tick(3), approvals={alice.public_key})
    after = bucket_set(state, core.branch_id)
    assert after == before | other_buckets  # exact flat-set union, duplicates collapsed
    assert set(merge.submit_trace.new_buckets) == other_buckets - before


def test_conflicted_merge_rejected_when_not_accepted(state, alice, bob):
    core = create_genesis_branch(state, twig_config(accept_conflicts=False,
                                                    stale_after_merge=False), alice, tick(0))
    _push(state, core, alice, b"base", 1)
    fork_point = state.branches[core.branch_id].stable_head
    belt = create_rooted_branch(state, fork_point, core.branch_id, bob, tick(2))
    _push(state, belt, bob, b"belt side", 3)
    _push(state, core, alice, b"core side", 3)  # core advances past the fork
    plan = plan_merge(state, core.branch_id, belt.branch_id)
    assert plan.conflicts
    with pytest.raises(InvalidMerge):
        execute_merge(state, plan, alice, tick(4), approvals={alice.public_key})
    # same merge under accept_conflicts=True goes through
    relaxed = create_genesis_branch(state, twig_config(accept_conflicts=True,
                                                       stale_after_merge=False), alice, tick(0),
                                    message="relaxed root")
    _push(state, relaxed, alice, b"base2", 1)
    fork2 = state.branches[relaxed.branch_id].stable_head
    belt2 = create_rooted_branch(state, fork2, relaxed.branch_id, bob, tick(2))
    _push(state, belt2, bob, b"belt2", 3)
    _push(state, relaxed, alice, b"core2", 3)
    plan2 = plan_merge(state, relaxed.branch_id, belt2.branch_id)
    assert plan2.conflicts
    merge = execute_merge(state, plan2, alice, tick(4), approvals={alice.public_key})
    assert detect_conflicts(state.branches[relaxed.branch_id], state.store)


def test_merge_requires_pr_for_proper_core(state, alice, bob):
    core = create_genesis_branch(state, proper_config(), alice, tick(0))
    twig = create_rooted_branch(state, core.stable_head, core.branch_id, bob, tick(1), twig_config())
    _push(state, twig, bob, b"x", 2)
    plan = plan_merge(state, core.branch_id, twig.branch_id, pr=None)
    with pytest.raises(InvalidMerge):
        execute_merge(state, plan, alice, tick(3))


def test_merge_author_must_be_core_content_contributor(state, alice, bob, carol):
    core = create_genesis_branch(state, proper_config(), alice, tick(0))
    twig = create_rooted_branch(state, core.stable_head, core.branch_id, bob, tick(1), twig_config())
    _push(state, twig, bob, b"x", 2)
    pr = _reviewed_pr(state, core, twig, bob, alice, 3)
    plan = plan_merge(state, core.branch_id, twig.branch_id, pr)
    with pytest.raises(InvalidMerge):
        execute_merge(state, plan, carol, tick(6))


def test_belt_failing_validation_rejected(state, alice, bob):
    from lakat.codec import canonical_encode
    from dataclasses import replace

    core = create_genesis_branch(state, twig_config(stale_after_merge=False), alice, tick(0))
    belt = create_rooted_branch(state, core.stable_head, core.branch_id, bob, tick(1))
    first = _push(state, belt, bob, b"honest", 2)
    _push(state, belt, bob, b"second", 3)
    tampered = replace(get_submit(state.store, first), submit_message="tampered")
    state.store._records[first] = canonical_encode(tampered)
    state.store._decoded.pop(first, None)
    plan = plan_merge(state, core.branch_id, belt.branch_id)
    with pytest.raises(InvalidMerge):
        execute_merge(state, plan, alice, tick(4), approvals={alice.public_key})


@pytest.mark.parametrize("moved", ["core", "belt"])
def test_a_plan_whose_core_or_belt_moved_is_refused_before_any_write(state, alice, carol, moved):
    """The plan's delta and conflicts were taken at the planned heads, so a
    push to either side in between refuses the plan; nothing is written."""
    core = create_genesis_branch(state, twig_config(stale_after_merge=False), alice, tick(0))
    _push(state, core, alice, b"core work", 1)
    belt = create_rooted_branch(state, core.stable_head, core.branch_id, carol, tick(2))
    _push(state, belt, carol, b"belt work", 3)
    plan = plan_merge(state, core.branch_id, belt.branch_id)
    if moved == "core":
        _push(state, core, alice, b"core again", 4)
    else:
        _push(state, belt, carol, b"belt again", 4)
    records, proofs = len(state.store), list(state.proofs[core.branch_id])
    with pytest.raises(InvalidMerge, match="moved since the merge was planned"):
        execute_merge(state, plan, alice, tick(5), approvals={alice.public_key})
    assert len(state.store) == records
    assert list(state.proofs[core.branch_id]) == proofs


def test_a_twig_merge_rooted_at_another_branch_is_refused_before_any_write(state, alice, carol):
    """A twig core takes merges on its own head only, so a plan rooted at
    another branch is refused before the merge trie is built."""
    core = create_genesis_branch(state, twig_config(stale_after_merge=False), alice, tick(0))
    belt = create_rooted_branch(state, core.stable_head, core.branch_id, carol, tick(1))
    _push(state, belt, carol, b"belt work", 2)
    other = create_rooted_branch(state, core.stable_head, core.branch_id, alice, tick(3))
    plan = plan_merge(state, core.branch_id, belt.branch_id, root_at=other.branch_id)
    records, proofs = len(state.store), list(state.proofs[core.branch_id])
    with pytest.raises(InvalidMerge, match="twig head directly"):
        execute_merge(state, plan, alice, tick(4), approvals={alice.public_key})
    assert len(state.store) == records
    assert list(state.proofs[core.branch_id]) == proofs


def test_a_merge_rooted_at_a_live_sprout_takes_its_delta_against_the_sprout_head(monkeypatch, state, alice, bob):
    """The plan diffs the belt against the head the merge extends, once: the
    merge submit introduces exactly the plan's delta, which leaves out what
    the sprout already holds beyond the core."""
    core = create_genesis_branch(state, proper_config(lignification_time=50), alice, tick(0))
    first = create_rooted_branch(state, core.stable_head, core.branch_id, bob, tick(1), twig_config())
    _push(state, first, bob, b"first twig work", 2)
    pr = _reviewed_pr(state, core, first, bob, alice, 3)
    head = submit_id(execute_merge(state, plan_merge(state, core.branch_id, first.branch_id, pr), alice, tick(6)))
    sprout = wrap_merge_in_sprout(state, head, alice.public_key, first.branch_id, core.branch_id, tick(6)).sprout
    second = create_rooted_branch(state, head, sprout, bob, tick(7), twig_config())
    _push(state, second, bob, b"second twig work", 8)
    pr = _reviewed_pr(state, core, second, bob, alice, 9)
    diffs = []
    monkeypatch.setattr(trie_mod, "added_ids", lambda *args: diffs.append(args) or added_ids(*args))
    plan = plan_merge(state, core.branch_id, second.branch_id, pr, root_at=sprout)
    merge = execute_merge(state, plan, alice, tick(12))
    assert len(diffs) == 1
    assert merge.parent == head
    assert plan.bucket_delta == set(merge.submit_trace.new_buckets)
    assert plan.bucket_delta == bucket_set(state, second.branch_id) - bucket_set(state, sprout)
    assert bucket_set(state, first.branch_id) - bucket_set(state, core.branch_id) - plan.bucket_delta


# -- staleness -------------------------------------------------------------------


def test_stale_twig_rejects_push(state, alice):
    twig = create_genesis_branch(state, twig_config(), alice, tick(0))
    mark_stale(state, twig.branch_id)
    submit = build_content_submit(state, twig, alice, "late", tick(1), [b"x"])
    verdict, _ = twig_push(state, twig.branch_id, submit, alice.public_key)
    assert not verdict.ok
    assert verdict.code == "submit-to-stale"


def test_staleness_follows_belt_config(state, alice, bob):
    core = create_genesis_branch(state, twig_config(stale_after_merge=False), alice, tick(0))
    keep = create_rooted_branch(state, core.stable_head, core.branch_id, bob, tick(1),
                                twig_config(stale_after_merge=False))
    _push(state, keep, bob, b"a", 2)
    plan = plan_merge(state, core.branch_id, keep.branch_id)
    execute_merge(state, plan, alice, tick(3), approvals={alice.public_key})
    assert not state.branches[keep.branch_id].stale
    _push(state, keep, bob, b"still alive", 4)


def test_stale_branch_still_readable(state, alice):
    twig = create_genesis_branch(state, twig_config(), alice, tick(0))
    cid = _push(state, twig, alice, b"data", 1)
    mark_stale(state, twig.branch_id)
    assert cid in submit_set(state, twig.branch_id)
    assert bucket_set(state, twig.branch_id)


# -- config changes ----------------------------------------------------------------


def test_config_change_via_approved_merge(state, alice, bob):
    from dataclasses import replace as dc_replace

    twig = create_genesis_branch(state, twig_config(stale_after_merge=False), alice, tick(0))
    carrier = create_rooted_branch(state, twig.stable_head, twig.branch_id, bob, tick(1))
    _push(state, carrier, bob, b"raise the bar", 2)
    plan = plan_merge(state, twig.branch_id, carrier.branch_id)
    merge = execute_merge(state, plan, alice, tick(3), approvals={alice.public_key})
    new_config = dc_replace(twig.config, min_reviewers=3)
    updated = apply_config_change(state, twig.branch_id, new_config, merge)
    assert updated.config.min_reviewers == 3


def test_plain_commit_config_change_rejected(state, alice):
    from lakat.ops import BranchOpError

    twig = create_genesis_branch(state, twig_config(), alice, tick(0))
    with pytest.raises(BranchOpError):
        apply_config_change(state, twig.branch_id, twig.config, via_merge=None)


def test_proper_branch_type_change_rejected(state, alice, bob):
    from dataclasses import replace as dc_replace

    core = create_genesis_branch(state, proper_config(lignification_time=2, engagement_time=2,
                                                      broadcasting_buffer=1), alice, tick(0))
    twig = create_rooted_branch(state, core.stable_head, core.branch_id, bob, tick(1), twig_config())
    _push(state, twig, bob, b"x", 2)
    pr = _reviewed_pr(state, core, twig, bob, alice, 3)
    plan = plan_merge(state, core.branch_id, twig.branch_id, pr)
    merge = execute_merge(state, plan, alice, tick(6))
    cid = submit_id(merge)
    wrap_merge_in_sprout(state, cid, alice.public_key, twig.branch_id, core.branch_id, tick(6))
    poke = state.store.put_object(
        get_submit(state.store, cid).__class__(cid, "poke", merge.trie_root,
                                               merge.submit_trace.__class__(), tick(10))
    )
    wrap_merge_in_sprout(state, poke, alice.public_key, twig.branch_id,
                         list(state.wraps)[0], tick(10))
    lignify(state, core.branch_id, poke, now=tick(10))
    assert state.branches[core.branch_id].stable_head == cid
    from lakat.ops import BranchOpError

    with pytest.raises(BranchOpError):
        apply_config_change(state, core.branch_id,
                            dc_replace(core.config, branch_type="twig"), merge)


def test_append_enforces_context_membership(state, alice):
    """A hand-built submit introducing a lone atomic bucket is rejected."""
    from lakat.bucket import create_atomic_bucket, fresh_info
    from lakat.branch import Submit, SubmitTrace
    from lakat import trie as trie_mod

    twig = create_genesis_branch(state, twig_config(), alice, tick(0))
    creator_root = state.store.put(alice.public_key)
    _, lonely = create_atomic_bucket(state.store, creator_root, NULL_ID, b"orphan", [], tick(1))
    base = trie_mod.Trie(get_submit(state.store, twig.stable_head).trie_root, state.store)
    new_trie = trie_mod.insert(base, lonely, fresh_info([]))
    submit = Submit(twig.stable_head, "sneaky", new_trie.root,
                    SubmitTrace(new_buckets=(lonely,)), tick(1))
    from lakat.review import twig_push

    verdict, _ = twig_push(state, twig.branch_id, submit, alice.public_key)
    assert not verdict.ok
    assert verdict.code == "context-membership"
