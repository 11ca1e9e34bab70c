"""Branch operations: genesis and rooted creation, the directed core-belt
merge with set semantics, staleness, and merge-gated config changes.

A merge never rebases: the merge submit's parent stays in the core lineage,
the belt's buckets enter the core trie, and one belt-tip pointer in the
trace keeps the belt's submits reachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .codec import ContentId, LakatError, LogicalTimestamp, NULL_ID
from .identity import KeyIdentity, make_contribution_proof
from .bucket import arrangement_of, is_molecular
from .branch import (
    Branch,
    BranchConfig,
    PROPER,
    SPROUT,
    TWIG,
    Submit,
    SubmitTrace,
    ancestry,
    closure,
    compute_branch_id,
    conflict_records,
    get_submit,
    in_closure,
    submit_id,
    verify_branch,
)
from .review import PullRequest, check_maturity, merge_ready, twig_merge_vote
from .state import ProtocolState
from .store import Store
from . import trie as trie_mod


class BranchOpError(LakatError):
    pass


class InvalidBranchType(BranchOpError):
    pass


class InvalidRoot(BranchOpError):
    pass


class StaleBranch(BranchOpError):
    pass


class InvalidMerge(BranchOpError):
    pass


def create_genesis_branch(
    state: ProtocolState,
    config: BranchConfig,
    creator: KeyIdentity,
    now: LogicalTimestamp,
    token_attestation: bytes | None = None,
    message: str | None = None,
) -> Branch:
    """A branch with a fresh singularity submit; twig or proper only.

    The default genesis message carries the creator key so that two creators
    founding branches in the same tick do not collapse onto one identifier.
    """
    if config.branch_type not in (TWIG, PROPER):
        raise InvalidBranchType("genesis creations are either twigs or proper branches")
    store = state.store
    if message is None:
        message = f"genesis:{creator.public_key.hex()[:16]}"
    empty = trie_mod.empty_trie(store)
    singularity = Submit(NULL_ID, message, empty.root, SubmitTrace(), now)
    head = store.put_object(singularity)
    branch_id = compute_branch_id(NULL_ID, now, head)
    branch = Branch(
        branch_id=branch_id,
        parent_branch=NULL_ID,
        timestamp=now,
        initial_head=head,
        stable_head=head,
        config=config,
    )
    if token_attestation is not None:
        branch.branch_token.append(token_attestation)
    state.add_branch(branch)
    state.add_proof(make_contribution_proof(creator, branch_id, "content", head))
    return branch


def create_rooted_branch(
    state: ProtocolState,
    root_submit: ContentId,
    parent_branch: ContentId,
    creator: KeyIdentity,
    now: LogicalTimestamp,
    config: BranchConfig | None = None,
    message: str | None = None,
) -> Branch:
    """Derive a branch from a submit in the parent's history.  Anyone may do
    this; the config is inherited unless replaced."""
    parent = state.branches.get(parent_branch)
    if parent is None:
        raise InvalidRoot(f"unknown parent branch {parent_branch.hex}")
    if message is None:
        message = f"rooted:{creator.public_key.hex()[:16]}"
    if not in_closure(state.store, parent.stable_head, root_submit):
        raise InvalidRoot("root submit is not in the parent branch history")
    branch_config = config if config is not None else parent.config
    if branch_config.branch_type == SPROUT:
        raise InvalidBranchType("rooted creations are twigs or proper branches")
    store = state.store
    root = get_submit(store, root_submit)
    initial = Submit(root_submit, message, root.trie_root, SubmitTrace(), now)
    head = store.put_object(initial)
    branch_id = compute_branch_id(parent_branch, now, head)
    branch = Branch(
        branch_id=branch_id,
        parent_branch=parent_branch,
        timestamp=now,
        initial_head=head,
        stable_head=head,
        config=branch_config,
    )
    state.add_branch(branch)
    state.add_proof(make_contribution_proof(creator, branch_id, "content", head))
    return branch


@dataclass
class MergePlan:
    """A merge as planned: bucket_delta holds the belt tip's buckets that
    base_head, the head of root_at that the merge extends, lacks."""
    core: ContentId
    belt: ContentId
    pr: PullRequest | None
    bucket_delta: set
    belt_tip: ContentId
    root_at: ContentId
    base_head: ContentId
    store: Store = field(repr=False, compare=False)

    @cached_property
    def conflicts(self) -> set:
        """Conflicts the merged state would hold, derived on first read: only
        a core that refuses conflicts needs them."""
        merged_view = closure(self.store, [self.base_head, self.belt_tip])
        return conflict_records(self.store, merged_view, self.core)


def plan_merge(
    state: ProtocolState,
    core_id: ContentId,
    belt_id: ContentId,
    pr: PullRequest | None = None,
    root_at: ContentId | None = None,
) -> MergePlan:
    """Compute the bucket delta: the belt's buckets that the head the merge
    extends lacks, found by a structural diff of the two tries.  The plan's
    conflicts are derived only when read.

    root_at names the branch whose head the merge submit will extend: the
    core itself, or one of its live sprouts when the core advances through
    lignification.
    """
    belt_tip = state.branches[belt_id].stable_head
    root_id = root_at if root_at is not None else core_id
    base_head = state.branches[root_id].stable_head
    store = state.store
    delta = trie_mod.added_ids(store, get_submit(store, base_head).trie_root, get_submit(store, belt_tip).trie_root)
    return MergePlan(core_id, belt_id, pr, delta, belt_tip, root_id, base_head, store)


def execute_merge(
    state: ProtocolState,
    plan: MergePlan,
    author: KeyIdentity,
    now: LogicalTimestamp,
    approvals: set[bytes] | None = None,
    message: str = "merge",
) -> Submit:
    """Build and apply the merge submit from the plan's heads and delta.

    Twig cores apply directly under the approval fraction; proper cores get
    the submit back for sprout wrapping and lignification.  The belt is left
    untouched apart from the configured staleness flag.
    """
    core = state.branches[plan.core]
    belt = state.branches[plan.belt]
    store = state.store
    if (state.branches[plan.root_at].stable_head, belt.stable_head) != (plan.base_head, plan.belt_tip):
        raise InvalidMerge("the rooting or belt head moved since the merge was planned")
    if core.stale:
        raise StaleBranch("core is stale")
    if belt.stale:
        raise StaleBranch("belt is stale")
    belt_verdict = verify_branch(belt, store)
    if not belt_verdict.ok:
        raise InvalidMerge(f"belt failed validation: {belt_verdict.codes()}")
    if not core.config.accept_conflicts and plan.conflicts:
        raise InvalidMerge("core accepts only conflictless submits")
    if not state.is_contributor(plan.core, author.public_key, "content"):
        raise InvalidMerge("merge author must be a content contributor of the core")
    if core.branch_type == PROPER:
        if plan.pr is None:
            raise InvalidMerge("merging into a proper branch requires a pull request")
        if plan.pr.target_branch != plan.core or plan.pr.requesting_branch != plan.belt:
            raise InvalidMerge("pull request does not cover this merge")
        if not check_maturity(state, plan.pr):
            raise InvalidMerge("pull request is not mature")
        if not merge_ready(state, plan.pr, core.config):
            raise InvalidMerge("review requirements not met")
    elif core.branch_type == TWIG and plan.root_at != plan.core:
        raise InvalidMerge("twig merges apply to the twig head directly")

    new_trie = trie_mod.Trie(get_submit(store, plan.base_head).trie_root, store)
    belt_trie = trie_mod.Trie(get_submit(store, plan.belt_tip).trie_root, store)
    incoming = sorted(plan.bucket_delta)
    for cid in incoming:
        new_trie = trie_mod.insert(new_trie, cid, trie_mod.get(belt_trie, cid))
    # reverse containment for arrangements that mention buckets the core already holds
    for cid in incoming:
        bucket = store.get_object(cid)
        if is_molecular(bucket):
            new_trie = trie_mod.add_container(new_trie, cid, arrangement_of(store, bucket))
    trace = SubmitTrace(
        merged_branch=plan.belt,
        belt_tip=plan.belt_tip,
        new_buckets=tuple(incoming),
    )
    merge_submit = Submit(plan.base_head, message, new_trie.root, trace, now)

    if core.branch_type == TWIG:
        counted = approvals if approvals is not None else {author.public_key}
        verdict, cid = twig_merge_vote(state, plan.core, merge_submit, counted)
        if not verdict.ok:
            raise InvalidMerge(f"twig merge rejected: {verdict.code}")
        state.add_proof(make_contribution_proof(author, plan.core, "content", cid))
    else:
        cid = store.put_object(merge_submit)
        state.add_proof(make_contribution_proof(author, plan.core, "content", cid))
    if belt.config.stale_after_merge:
        mark_stale(state, plan.belt)
    return merge_submit


def mark_stale(state: ProtocolState, branch_id: ContentId):
    state.branches[branch_id].stale = True
    state.touch(branch_id)


def apply_config_change(
    state: ProtocolState,
    branch_id: ContentId,
    new_config: BranchConfig,
    via_merge: Submit | None,
) -> Branch:
    """Swap the branch config; only a merge that already entered the branch's
    included state may carry the change, and a proper branch keeps its type."""
    branch = state.branches[branch_id]
    if via_merge is None:
        raise BranchOpError("config changes require a merge rather than a plain commit")
    if not via_merge.is_merge() or not in_closure(state.store, branch.stable_head, submit_id(via_merge)):
        raise BranchOpError("carrying merge has not been accepted by the branch")
    if branch.config.branch_type == PROPER and new_config.branch_type != PROPER:
        raise BranchOpError("proper branches cannot change their branch type")
    branch.config = new_config
    state.touch(branch_id)
    return branch


def bucket_set(state: ProtocolState, branch_id: ContentId) -> frozenset[ContentId]:
    """All bucket ids in the branch's current data state."""
    branch = state.branches[branch_id]
    head = get_submit(state.store, branch.stable_head)
    return trie_mod.bucket_ids(trie_mod.Trie(head.trie_root, state.store))


def submit_set(state: ProtocolState, branch_id: ContentId) -> set[ContentId]:
    """The branch's own submit chain (full ancestry, no belt closures)."""
    return {cid for cid, _ in ancestry(state.store, state.branches[branch_id].stable_head)}
