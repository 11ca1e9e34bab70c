import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from lakat.codec import content_id, object_id
from lakat.identity import KeyIdentity, make_contribution_proof
from lakat.branch import AcceptanceRule, Rational, get_submit
from lakat.ops import create_genesis_branch, create_rooted_branch, execute_merge, plan_merge
from lakat.review import (
    ReviewLedger,
    check_maturity,
    commit_review,
    create_pull_request,
    merge_ready,
    submit_review,
    twig_merge_vote,
    twig_push,
)
from lakat.state import ProtocolState, build_content_submit
from lakat.store import MemoryStore, MissingRecord
from conftest import proper_config, tick, twig_config


def _push(state, branch, author, payload, at, message="content"):
    submit = build_content_submit(state, branch, author, message, tick(at), [payload])
    verdict, cid = twig_push(state, branch.branch_id, submit, author.public_key)
    assert verdict.ok, verdict
    state.add_proof(make_contribution_proof(author, branch.branch_id, "content", cid))
    return cid


def _lacking(state, *missing):
    """The state's branches over a copy of its store without the given records."""
    copy = ProtocolState(MemoryStore())
    for cid in state.store.ids():
        if cid not in missing:
            copy.store.put(state.store.get(cid))
    for branch in state.branches.values():
        copy.add_branch(branch)
    return copy


@pytest.fixture
def por_world(state, alice, bob):
    """Proper target owned by alice; twig by bob carrying one content bucket."""
    target = create_genesis_branch(state, proper_config(min_reviewers=1), alice, tick(0))
    twig = create_rooted_branch(state, target.stable_head, target.branch_id, bob,
                                tick(1), twig_config())
    _push(state, twig, bob, b"the contribution", 2)
    return state, target, twig


def test_twig_pr_is_immediately_mature(por_world, bob):
    state, target, twig = por_world
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, bob, tick(3))
    assert check_maturity(state, pr)


def test_pull_request_trace_recorded(por_world, bob):
    state, target, twig = por_world
    pr, submit = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, bob, tick(3))
    trace = submit.submit_trace.pull_requests[0]
    assert trace.review_container == pr.review_container
    assert trace.target_branch == target.branch_id
    assert trace.requesting_branch == twig.branch_id
    assert pr.carrier_submit in {cid for cid in [twig.stable_head]}


def test_non_contributor_cannot_open_pr(por_world, carol):
    state, target, twig = por_world
    from lakat.review import AuthorizationError

    with pytest.raises(AuthorizationError):
        create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, carol, tick(3))


def test_proxy_pr_matures_after_merge(state, alice, bob, carol):
    """Proper requesting branch: the carrier twig must merge into it first."""
    target = create_genesis_branch(state, proper_config(), alice, tick(0))
    requesting = create_genesis_branch(state, twig_config(), carol, tick(0))
    carrier_twig = create_rooted_branch(state, requesting.stable_head, requesting.branch_id,
                                        bob, tick(1), twig_config(stale_after_merge=True))
    _push(state, carrier_twig, bob, b"proxy payload", 2)
    pr, _ = create_pull_request(state, carrier_twig.branch_id, requesting.branch_id,
                                target.branch_id, bob, tick(3))
    assert not check_maturity(state, pr)
    plan = plan_merge(state, requesting.branch_id, carrier_twig.branch_id)
    execute_merge(state, plan, carol, tick(4), approvals={carol.public_key})
    assert check_maturity(state, pr)


def test_commit_review_lifecycle(por_world, alice, bob):
    state, target, twig = por_world
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, bob, tick(3))
    verdict = commit_review(state, pr, alice, tick(4))
    assert verdict.ok
    assert alice.public_key in ReviewLedger(state, pr).committed
    # commitment made alice a review contributor of the requesting twig
    assert state.contributors(twig.branch_id).has(alice.public_key, "review")


def test_conflict_of_interest_rejected(por_world, bob):
    state, target, twig = por_world
    # bob authored the twig and is also (say) a contributor of target? No:
    # make bob a target contributor first, then he still cannot review his own twig.
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, bob, tick(3))
    verdict = commit_review(state, pr, bob, tick(4))
    assert not verdict.ok
    assert verdict.code in ("conflict-of-interest", "not-target-content-contributor")


def test_conflict_of_interest_for_target_contributor_on_own_twig(state, alice, bob):
    target = create_genesis_branch(state, proper_config(), alice, tick(0))
    twig = create_rooted_branch(state, target.stable_head, target.branch_id, alice, tick(1), twig_config())
    _push(state, twig, alice, b"self service", 2)
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, alice, tick(3))
    verdict = commit_review(state, pr, alice, tick(4))
    assert not verdict.ok
    assert verdict.code == "conflict-of-interest"


def test_immature_pr_cannot_take_commitment(state, alice, bob, carol):
    target = create_genesis_branch(state, proper_config(), alice, tick(0))
    requesting = create_genesis_branch(state, twig_config(), carol, tick(0))
    carrier = create_rooted_branch(state, requesting.stable_head, requesting.branch_id, bob, tick(1))
    _push(state, carrier, bob, b"x", 2)
    pr, _ = create_pull_request(state, carrier.branch_id, requesting.branch_id, target.branch_id, bob, tick(3))
    verdict = commit_review(state, pr, alice, tick(4))
    assert not verdict.ok
    assert verdict.code == "immature-pull-request"


def test_review_without_commitment_rejected(por_world, alice, bob):
    state, target, twig = por_world
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, bob, tick(3))
    verdict, _ = submit_review(state, pr, alice, "accept", b"fine", tick(4))
    assert not verdict.ok
    assert verdict.code == "no-commitment"
    # the commitment check comes first: it reads no container record
    verdict, _ = submit_review(_lacking(state, pr.review_container), pr, alice, "accept", b"fine", tick(4))
    assert verdict.code == "no-commitment"


def test_review_flow_and_container_reference(por_world, alice, bob):
    state, target, twig = por_world
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, bob, tick(3))
    assert commit_review(state, pr, alice, tick(4)).ok
    verdict, item = submit_review(state, pr, alice, "accept", b"looks right", tick(5))
    assert verdict.ok
    pairs = ReviewLedger(state, pr).items
    assert [(who, it.verdict) for who, it in pairs] == [(alice.public_key, "accept")]
    # the reviewed bucket's info now references the review bucket
    from lakat import trie as trie_mod
    from lakat.branch import get_submit

    head = get_submit(state.store, state.branches[twig.branch_id].stable_head)
    trie = trie_mod.Trie(head.trie_root, state.store)
    reviewed_info = trie_mod.get(trie, item.reviewed_buckets[0])
    assert item.bucket in reviewed_info.reviews


def test_review_update_points_to_old_item(por_world, alice, bob):
    state, target, twig = por_world
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, bob, tick(3))
    assert commit_review(state, pr, alice, tick(4)).ok
    _, first = submit_review(state, pr, alice, "reject", b"needs work", tick(5))
    verdict, second = submit_review(state, pr, alice, "accept", b"fixed now", tick(6),
                                    update_of=first.bucket)
    assert verdict.ok
    new_bucket = state.store.get_object(second.bucket)
    assert new_bucket.parent == first.bucket
    assert second.round == 2


def test_default_scope_over_two_rounds_leaves_out_the_review_machinery(por_world, alice, bob):
    state, target, twig = por_world
    contribution = get_submit(state.store, twig.stable_head).submit_trace.new_buckets
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, bob, tick(3))
    assert commit_review(state, pr, alice, tick(4)).ok
    _, first = submit_review(state, pr, alice, "reject", b"needs work", tick(5))
    _, second = submit_review(state, pr, alice, "accept", b"fixed now", tick(6))
    ledger = ReviewLedger(state, pr)
    assert len(ledger.chain) == 3 and ledger.chain[0] == pr.review_container
    assert ledger.items == [(alice.public_key, first), (alice.public_key, second)]
    scope = ledger.default_scope()
    assert scope == list(contribution) == list(second.reviewed_buckets)
    assert not set(scope) & (set(ledger.chain) | {first.bucket, second.bucket})


def test_ledger_skips_a_missing_trace_record_or_container_bucket(por_world, alice, bob):
    state, target, twig = por_world
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, bob, tick(3))
    assert commit_review(state, pr, alice, tick(4)).ok
    _, first = submit_review(state, pr, alice, "reject", b"needs work", tick(5))
    _, second = submit_review(state, pr, alice, "accept", b"fixed now", tick(6))
    chain = ReviewLedger(state, pr).chain
    without_item = ReviewLedger(_lacking(state, object_id(first)), pr)
    assert without_item.committed == {alice.public_key}
    assert without_item.items == [(alice.public_key, second)]
    without_head = ReviewLedger(_lacking(state, chain[-1]), pr)
    assert without_head.chain == chain[:-1]
    assert without_head.items == [(alice.public_key, first)]


def test_dangling_reviewed_bucket_rejected(por_world, alice, bob):
    state, target, twig = por_world
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, bob, tick(3))
    assert commit_review(state, pr, alice, tick(4)).ok
    verdict, _ = submit_review(state, pr, alice, "accept", b"x", tick(5),
                               reviewed_buckets=[content_id(b"ghost")])
    assert not verdict.ok
    assert verdict.code == "dangling-reviewed-bucket"


def test_review_without_its_container_record_raises_before_any_write(por_world, alice, bob):
    state, target, twig = por_world
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, bob, tick(3))
    assert commit_review(state, pr, alice, tick(4)).ok
    lacking = _lacking(state, pr.review_container)
    records = len(lacking.store)
    with pytest.raises(MissingRecord):
        submit_review(lacking, pr, alice, "accept", b"fine", tick(5))
    assert len(lacking.store) == records


# -- merge_ready against exhaustive enumeration ------------------------------


def _ready_oracle(config, committed, items_by_reviewer):
    """Independent restatement of the readiness rule."""
    with_items = {r for r, items in items_by_reviewer.items() if items}
    if not committed:
        return False
    if len(with_items) < config.min_reviewers:
        return False
    if any(not items_by_reviewer.get(r) for r in committed):
        rounds = 0
    else:
        rounds = min(len(items_by_reviewer[r]) for r in committed)
    if rounds < config.min_review_rounds:
        return False
    rejects = sum(1 for r in with_items if items_by_reviewer[r][-1] == "reject")
    if config.acceptance_rule.kind == "no_rejections":
        return rejects == 0
    f = config.acceptance_rule.fraction.value()
    return Fraction(rejects, len(with_items)) <= 1 - f


@pytest.mark.parametrize("rule", [
    AcceptanceRule("no_rejections"),
    AcceptanceRule("fraction", Rational(1, 2)),
    AcceptanceRule("fraction", Rational(2, 3)),
])
@pytest.mark.parametrize("min_reviewers,min_rounds", [(1, 1), (2, 1), (2, 2)])
def test_merge_ready_matches_enumeration(state, rule, min_reviewers, min_rounds):
    """All verdict combinations for up to 2 reviewers and 2 items each."""
    owner = KeyIdentity.from_seed(b"owner")
    author = KeyIdentity.from_seed(b"twig-author")
    reviewers = [KeyIdentity.from_seed(b"r1"), KeyIdentity.from_seed(b"r2")]
    config = proper_config(min_reviewers=min_reviewers, min_review_rounds=min_rounds,
                           acceptance_rule=rule)
    verdict_options = [None, "accept", "reject", "comment"]
    case = 0
    for seq1 in itertools.product(verdict_options, repeat=2):
        for seq2 in itertools.product(verdict_options, repeat=2):
            case += 1
            from lakat.state import ProtocolState
            from lakat.store import MemoryStore

            local = ProtocolState(MemoryStore())
            target = create_genesis_branch(local, config, owner, tick(0))
            twig = create_rooted_branch(local, target.stable_head, target.branch_id,
                                        author, tick(1), twig_config())
            _push(local, twig, author, b"payload-%d" % case, 2)
            pr, _ = create_pull_request(local, twig.branch_id, twig.branch_id,
                                        target.branch_id, author, tick(3))
            # both reviewers need to be target content contributors
            local.add_proof(make_contribution_proof(reviewers[0], target.branch_id, "content",
                                                    target.initial_head))
            local.add_proof(make_contribution_proof(reviewers[1], target.branch_id, "content",
                                                    target.initial_head))
            committed = set()
            items = {r.public_key: [] for r in reviewers}
            at = 4
            for reviewer, seq in zip(reviewers, (seq1, seq2)):
                if all(v is None for v in seq):
                    continue
                assert commit_review(local, pr, reviewer, tick(at)).ok
                committed.add(reviewer.public_key)
                at += 1
            for reviewer, seq in zip(reviewers, (seq1, seq2)):
                for verdict in seq:
                    if verdict is None or reviewer.public_key not in committed:
                        continue
                    ok, _ = submit_review(local, pr, reviewer, verdict, b"note", tick(at))
                    assert ok.ok
                    items[reviewer.public_key].append(verdict)
                    at += 1
            expected = _ready_oracle(config, committed, items)
            assert merge_ready(local, pr, config) == expected, (
                f"rule={rule} committed={len(committed)} seq1={seq1} seq2={seq2}"
            )


def test_two_accepts_two_reviewers_ready():
    """min_reviewers=2, one round, both accept: ready."""
    from lakat.state import ProtocolState
    from lakat.store import MemoryStore

    owner = KeyIdentity.from_seed(b"o")
    author = KeyIdentity.from_seed(b"a")
    r1, r2 = KeyIdentity.from_seed(b"x"), KeyIdentity.from_seed(b"y")
    config = proper_config(min_reviewers=2)
    state = ProtocolState(MemoryStore())
    target = create_genesis_branch(state, config, owner, tick(0))
    twig = create_rooted_branch(state, target.stable_head, target.branch_id, author, tick(1), twig_config())
    _push(state, twig, author, b"p", 2)
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, author, tick(3))
    for reviewer in (r1, r2):
        state.add_proof(make_contribution_proof(reviewer, target.branch_id, "content", target.initial_head))
        assert commit_review(state, pr, reviewer, tick(4)).ok
    assert not merge_ready(state, pr, config)  # one reviewer only -> not yet
    assert submit_review(state, pr, r1, "accept", b"", tick(5))[0].ok
    assert not merge_ready(state, pr, config)
    assert submit_review(state, pr, r2, "accept", b"", tick(6))[0].ok
    assert merge_ready(state, pr, config)


def test_no_rejections_monotone_under_accepts(por_world, alice, bob, rng):
    """Adding accepting reviews never flips ready back to False."""
    state, target, twig = por_world
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, bob, tick(3))
    assert commit_review(state, pr, alice, tick(4)).ok
    was_ready = False
    for i in range(5):
        verdict, _ = submit_review(state, pr, alice, "accept", b"+1", tick(5 + i))
        assert verdict.ok
        ready = merge_ready(state, pr, target.config)
        if was_ready:
            assert ready
        was_ready = ready
    assert was_ready


# -- twig consensus ------------------------------------------------------------


def test_single_author_twig_pushes_freely(state, alice):
    twig = create_genesis_branch(state, twig_config(), alice, tick(0))
    for i in range(3):
        _push(state, twig, alice, b"c%d" % i, i + 1)
    assert len(state.proofs[twig.branch_id]) == 4
    # an equal proof added again, by gossip or by the author, is held once, in its first place
    held = list(state.proofs[twig.branch_id])
    for proof in reversed(held):
        state.add_proof(dataclasses.replace(proof))
    assert list(state.proofs[twig.branch_id]) == held


def test_non_contributor_push_rejected(state, alice, carol):
    twig = create_genesis_branch(state, twig_config(), alice, tick(0))
    submit = build_content_submit(state, twig, carol, "sneak", tick(1), [b"x"])
    verdict, _ = twig_push(state, twig.branch_id, submit, carol.public_key)
    assert not verdict.ok
    assert verdict.code == "not-a-contributor"


def test_review_contributor_can_push(por_world, alice, bob):
    state, target, twig = por_world
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, bob, tick(3))
    assert commit_review(state, pr, alice, tick(4)).ok
    submit = build_content_submit(state, state.branches[twig.branch_id], alice, "note", tick(5), [b"note"])
    verdict, _ = twig_push(state, twig.branch_id, submit, alice.public_key)
    assert verdict.ok


def test_twig_merge_fraction_boundary(state, alice, bob, carol):
    """Fraction 1/2 with 1 of 2 approvals applies; 0 of 2 does not."""
    twig = create_genesis_branch(state, twig_config(twig_merge_fraction=Rational(1, 2)), alice, tick(0))
    _push(state, twig, alice, b"a", 1)
    # bob becomes a second content contributor
    state.add_proof(make_contribution_proof(bob, twig.branch_id, "content", twig.initial_head))
    belt = create_rooted_branch(state, twig.stable_head, twig.branch_id, carol, tick(2))
    _push(state, belt, carol, b"belt work", 3)
    plan = plan_merge(state, twig.branch_id, belt.branch_id)
    merge = execute_merge(state, plan, alice, tick(4), approvals={alice.public_key})
    assert merge.submit_trace.merged_branch == belt.branch_id

    belt2 = create_rooted_branch(state, twig.stable_head, twig.branch_id, carol, tick(5))
    _push(state, belt2, carol, b"more", 6)
    plan2 = plan_merge(state, twig.branch_id, belt2.branch_id)
    from lakat.ops import InvalidMerge

    with pytest.raises(InvalidMerge):
        execute_merge(state, plan2, alice, tick(7), approvals=set())


def test_commitments_survive_completion(por_world, alice, bob):
    """Review contributorship earned by commitment persists even if no merge happens."""
    state, target, twig = por_world
    pr, _ = create_pull_request(state, twig.branch_id, twig.branch_id, target.branch_id, bob, tick(3))
    assert commit_review(state, pr, alice, tick(4)).ok
    assert submit_review(state, pr, alice, "accept", b"", tick(5))[0].ok
    assert merge_ready(state, pr, target.config)
    assert state.contributors(twig.branch_id).has(alice.public_key, "review")
