"""Proof-of-Review lifecycle: pull requests, commitments, review submits,
and the merge-readiness rule, plus direct twig consensus.

Everything the lifecycle needs is recoverable from branch data: the pull
request rides in a submit trace, commitments and review items ride in the
reviews trace, and reviewer identity hangs off each review bucket's creator
root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .codec import ContentId, LakatError, LogicalTimestamp, NULL_ID, protocol_struct
from .identity import ContributionProof, KeyIdentity, make_contribution_proof
from .bucket import InfoDelta, attach_info, arrangement_of, create_atomic_bucket, create_molecular_bucket, fresh_info
from .branch import PullRequestTrace, Submit, SubmitTrace, TWIG, get_submit, in_closure, own_submits
from .state import OK, ProtocolState, Verdict
from .store import MissingRecord
from . import trie as trie_mod


@protocol_struct(15)
@dataclass(frozen=True)
class ReviewCommitment:
    """A target-branch content contributor's signed intent to review."""

    commitment_proof: ContributionProof
    requesting_branch: ContentId
    timestamp: LogicalTimestamp


@protocol_struct(16)
@dataclass(frozen=True)
class ReviewItem:
    """One review: the review-text bucket, what it reviewed, and a verdict."""

    bucket: ContentId
    reviewed_buckets: tuple[ContentId, ...]
    verdict: str  # "accept" | "reject" | "comment"
    round: int

    def __post_init__(self):
        if isinstance(self.reviewed_buckets, list):
            object.__setattr__(self, "reviewed_buckets", tuple(self.reviewed_buckets))


@dataclass
class PullRequest:
    issuing_branch: ContentId
    requesting_branch: ContentId
    target_branch: ContentId
    review_container: ContentId
    carrier_submit: ContentId


class AuthorizationError(LakatError):
    pass


def twig_push(state: ProtocolState, twig_id: ContentId, submit: Submit, author: bytes) -> tuple[Verdict, ContentId | None]:
    """Direct push: content and review contributors only, with one exception:
    a submit whose reviews trace consists of valid commitments by the author
    may enter on the strength of those commitments alone."""
    branch = state.branches.get(twig_id)
    if branch is None:
        return Verdict.fail("unknown-branch"), None
    if branch.branch_type != TWIG:
        return Verdict.fail("not-a-twig", branch.branch_type), None
    allowed = state.is_contributor(twig_id, author, ("content", "review"))
    if not allowed and _is_commitment_carrier(state, submit, author):
        allowed = True
    if not allowed:
        return Verdict.fail("not-a-contributor"), None
    return state.append_submit(twig_id, submit)


def _is_commitment_carrier(state: ProtocolState, submit: Submit, author: bytes) -> bool:
    trace = submit.submit_trace
    if not trace.reviews_trace or trace.new_buckets:
        return False
    for cid in trace.reviews_trace:
        try:
            record = state.store.get_object(cid)
        except MissingRecord:
            return False
        if not isinstance(record, ReviewCommitment):
            return False
        if record.commitment_proof.contributor != author:
            return False
        if not record.commitment_proof.verify():
            return False
    return True


def twig_merge_vote(
    state: ProtocolState,
    twig_id: ContentId,
    merge_submit: Submit,
    approvals: set[bytes],
) -> tuple[Verdict, ContentId | None]:
    """Apply a merge submit to a twig when enough content contributors agree."""
    branch = state.branches.get(twig_id)
    if branch is None:
        return Verdict.fail("unknown-branch"), None
    if branch.branch_type != TWIG:
        return Verdict.fail("not-a-twig"), None
    content_keys = state.contributors(twig_id).keys("content")
    if not content_keys:
        return Verdict.fail("no-content-contributors"), None
    counted = approvals & content_keys
    needed = branch.config.twig_merge_fraction.value()
    if Fraction(len(counted), len(content_keys)) < needed:
        return Verdict.fail("insufficient-approvals", f"{len(counted)}/{len(content_keys)}"), None
    return state.append_submit(twig_id, merge_submit)


def create_pull_request(
    state: ProtocolState,
    issuing_id: ContentId,
    requesting_id: ContentId,
    target_id: ContentId,
    author: KeyIdentity,
    now: LogicalTimestamp,
) -> tuple[PullRequest, Submit]:
    """Open the review process: a submit on the issuing branch carrying a
    fresh review container and the pull-request trace."""
    issuing = state.branches[issuing_id]
    if not state.is_contributor(issuing_id, author.public_key, "content"):
        raise AuthorizationError("pull request author must be a content contributor of the issuing branch")
    store = state.store
    creator_root = store.put(author.public_key)
    _, container_id = create_molecular_bucket(store, creator_root, NULL_ID, [], now)
    base_trie = trie_mod.Trie(get_submit(store, issuing.stable_head).trie_root, store)
    new_trie = trie_mod.insert(base_trie, container_id, fresh_info([]))
    trace = SubmitTrace(
        pull_requests=(PullRequestTrace(container_id, target_id, requesting_id),),
        new_buckets=(container_id,),
    )
    submit = Submit(issuing.stable_head, "pull request", new_trie.root, trace, now)
    verdict, carrier = twig_push(state, issuing_id, submit, author.public_key)
    if not verdict.ok:
        raise AuthorizationError(f"pull request push rejected: {verdict.code}")
    state.add_proof(make_contribution_proof(author, issuing_id, "content", carrier))
    return PullRequest(issuing_id, requesting_id, target_id, container_id, carrier), submit


def check_maturity(state: ProtocolState, pr: PullRequest) -> bool:
    """A pull request matures once its carrier submit is included in the
    requesting branch (directly or through a merge's belt closure)."""
    requesting = state.branches.get(pr.requesting_branch)
    if requesting is None:
        return False
    return in_closure(state.store, requesting.stable_head, pr.carrier_submit)


def commit_review(
    state: ProtocolState,
    pr: PullRequest,
    committer: KeyIdentity,
    now: LogicalTimestamp,
) -> Verdict:
    """Record a review commitment, making the committer a review contributor
    of the requesting branch."""
    if not check_maturity(state, pr):
        return Verdict.fail("immature-pull-request")
    entry = state.content_entry(pr.target_branch, committer.public_key)
    if entry is None:
        return Verdict.fail("not-target-content-contributor")
    if state.is_contributor(pr.requesting_branch, committer.public_key):
        return Verdict.fail("conflict-of-interest")
    if not entry:
        # union-derived contributor without a direct proof cannot re-attest
        return Verdict.fail("no-citable-evidence")
    proof = make_contribution_proof(committer, pr.target_branch, "content", entry[0].evidence)
    commitment = ReviewCommitment(proof, pr.requesting_branch, now)
    commitment_id = state.store.put_object(commitment)
    requesting = state.branches[pr.requesting_branch]
    trace = SubmitTrace(reviews_trace=(commitment_id,))
    submit = Submit(requesting.stable_head, "review commitment", get_submit(state.store, requesting.stable_head).trie_root, trace, now)
    verdict, _ = twig_push(state, pr.requesting_branch, submit, committer.public_key)
    if not verdict.ok:
        return verdict
    state.add_proof(make_contribution_proof(committer, pr.requesting_branch, "review", commitment_id))
    return OK


class ReviewLedger:
    """A pull request's review state from one oldest-first walk of the
    requesting branch's own submits, which decodes only the reviews-trace
    records (skipping a missing one).  The container chain, the referenced
    items and the default scope read further records: each is derived on
    first use."""

    def __init__(self, state: ProtocolState, pr: PullRequest):
        self.pr = pr
        self.store = state.store
        self.submits = [submit for _, submit in reversed(own_submits(state.branches[pr.requesting_branch], self.store))]
        self.committed: set[bytes] = set()  # committed reviewer keys
        self._items: list[ReviewItem] = []  # in submission order
        for submit in self.submits:
            for cid in submit.submit_trace.reviews_trace:
                try:
                    record = self.store.get_object(cid)
                except MissingRecord:
                    continue
                if isinstance(record, ReviewItem):
                    self._items.append(record)
                elif (isinstance(record, ReviewCommitment) and record.requesting_branch == pr.requesting_branch
                      and record.commitment_proof.branch_id == pr.target_branch):
                    self.committed.add(record.commitment_proof.contributor)

    @cached_property
    def chain(self) -> list[ContentId]:
        """Versions of the review container, oldest first, following bucket
        parent links from the original container (read newest first, so a
        parent named twice leads to its earliest child)."""
        by_parent: dict[ContentId, ContentId] = {}
        for submit in reversed(self.submits):
            for cid in submit.submit_trace.new_buckets:
                try:
                    bucket = self.store.get_object(cid)
                except MissingRecord:
                    continue
                if getattr(bucket, "parent", None) is not None and bucket.parent != NULL_ID:
                    by_parent[bucket.parent] = cid
        chain = [self.pr.review_container]
        while chain[-1] in by_parent:
            chain.append(by_parent[chain[-1]])
        return chain

    @cached_property
    def items(self) -> list[tuple[bytes, ReviewItem]]:
        """(reviewer, item) pairs referenced from the latest container
        version, in submission order."""
        store = self.store
        referenced = set(arrangement_of(store, store.get_object(self.chain[-1])))
        return [(bytes(store.get(store.get_object(item.bucket).creator_root)), item)
                for item in self._items if item.bucket in referenced]

    def default_scope(self) -> list[ContentId]:
        """Content buckets the requesting branch itself introduced, excluding
        review machinery (container versions and review buckets)."""
        skip = set(self.chain)
        return list(dict.fromkeys(cid for submit in self.submits if not submit.submit_trace.reviews_trace
                                  for cid in submit.submit_trace.new_buckets if cid not in skip))


def submit_review(
    state: ProtocolState,
    pr: PullRequest,
    reviewer: KeyIdentity,
    verdict: str,
    text: bytes,
    now: LogicalTimestamp,
    reviewed_buckets: list[ContentId] | None = None,
    update_of: ContentId | None = None,
) -> tuple[Verdict, ReviewItem | None]:
    """Push a review submit: a review bucket, a new container version holding
    it, the reviewed buckets' info gaining the review reference."""
    ledger = ReviewLedger(state, pr)
    if reviewer.public_key not in ledger.committed:
        return Verdict.fail("no-commitment"), None
    if verdict not in ("accept", "reject", "comment"):
        return Verdict.fail("bad-verdict", verdict), None
    store = state.store
    requesting = state.branches[pr.requesting_branch]
    if reviewed_buckets is None:
        reviewed_buckets = ledger.default_scope()
    for cid in reviewed_buckets:
        if not store.has(cid):
            return Verdict.fail("dangling-reviewed-bucket", cid.hex), None
    prior_items = [item for who, item in ledger.items if who == reviewer.public_key]
    creator_root = store.put(reviewer.public_key)
    parent_bucket = update_of if update_of is not None else NULL_ID
    _, review_bucket_id = create_atomic_bucket(store, creator_root, parent_bucket, text, [], now)
    item = ReviewItem(review_bucket_id, tuple(reviewed_buckets), verdict, len(prior_items) + 1)
    item_id = store.put_object(item)

    container_head = ledger.chain[-1]
    arrangement = arrangement_of(store, store.get_object(container_head)) + [review_bucket_id]
    _, new_container_id = create_molecular_bucket(store, creator_root, container_head, arrangement, now)

    base_trie = trie_mod.Trie(get_submit(store, requesting.stable_head).trie_root, store)
    new_trie = trie_mod.insert(base_trie, review_bucket_id, fresh_info([]))
    new_trie = trie_mod.insert(new_trie, new_container_id, fresh_info(arrangement))
    new_trie = trie_mod.add_container(new_trie, new_container_id, arrangement)
    for reviewed in reviewed_buckets:
        info = trie_mod.get(new_trie, reviewed)
        if info is None:
            continue
        if review_bucket_id not in info.reviews:
            info = attach_info(info, InfoDelta(reviews=(review_bucket_id,)))
            new_trie = trie_mod.insert(new_trie, reviewed, info)
    trace = SubmitTrace(reviews_trace=(item_id,), new_buckets=(review_bucket_id, new_container_id))
    submit = Submit(requesting.stable_head, f"review: {verdict}", new_trie.root, trace, now)
    push_verdict, carrier = twig_push(state, pr.requesting_branch, submit, reviewer.public_key)
    if not push_verdict.ok:
        return push_verdict, None
    state.add_proof(make_contribution_proof(reviewer, pr.requesting_branch, "review", item_id))
    return OK, item


def merge_ready(state: ProtocolState, pr: PullRequest, target_config) -> bool:
    """True once reviewer count, completed rounds, and the acceptance rule
    are all simultaneously satisfied."""
    ledger = ReviewLedger(state, pr)
    if not ledger.committed:
        return False
    per_reviewer: dict[bytes, list[ReviewItem]] = {key: [] for key in ledger.committed}
    for reviewer, item in ledger.items:
        if reviewer in per_reviewer:
            per_reviewer[reviewer].append(item)
    with_items = {key for key, lst in per_reviewer.items() if lst}
    if len(with_items) < target_config.min_reviewers:
        return False
    completed_rounds = min(len(lst) for lst in per_reviewer.values())
    if completed_rounds < target_config.min_review_rounds:
        return False
    rejects = sum(1 for key in with_items if per_reviewer[key][-1].verdict == "reject")
    return target_config.acceptance_rule.satisfied(len(with_items), rejects)
