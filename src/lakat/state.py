"""Per-peer protocol state: stores, branch map, proofs, and submit building.

One ProtocolState is one peer's view of the world.  Every direct push
funnels through append_submit so the append-side invariants (staleness,
parent match, tick monotonicity, context membership) hold on every path;
proper branch heads move only through the lignification walk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .codec import ContentId, LogicalTimestamp, NULL_ID
from .identity import ContributionProof, KeyIdentity
from .bucket import (
    InfoDelta,
    attach_info,
    check_new_buckets,
    create_atomic_bucket,
    create_molecular_bucket,
    extract_refs,
    fresh_info,
)
from .branch import (
    Branch,
    ContributorSet,
    Submit,
    SubmitTrace,
    _merge_index,
    collect_evidence,
    derive_contributors,
    get_submit,
)
from .requests import BranchRequests
from .store import MemoryStore, Store
from . import trie as trie_mod


@dataclass(frozen=True)
class Verdict:
    ok: bool
    code: str = "ok"
    detail: str = ""

    @classmethod
    def fail(cls, code: str, detail: str = "") -> "Verdict":
        return cls(False, code, detail)


OK = Verdict(True)


class ProtocolState:
    """A peer's stores, branches, proofs, wraps, and staging channels."""

    def __init__(self, store: Store | None = None):
        self.store: Store = store if store is not None else MemoryStore()
        self.branches: dict[ContentId, Branch] = {}
        self.proofs: dict[ContentId, dict[ContributionProof, None]] = {}  # branch -> proofs, in arrival order
        self.wraps: dict[ContentId, "object"] = {}  # sprout id -> SproutWrap
        self.ousted: dict[ContentId, ContentId] = {}  # sprout id -> reference branch
        self.spent: set[ContentId] = set()  # sprouts absorbed by donation
        self.requests: dict[ContentId, BranchRequests] = {}
        self.touched: set[ContentId] = set()  # branches changed since the last gossip flush
        # derived state of contributors() keyed by branch and revalidated by
        # key; what is keyed by content id is memoised in the store
        self._direct: dict[ContentId, tuple] = {}  # branch -> (key, direct set, evidence)
        self._requesters: dict[ContentId, set] = {}  # target -> belts asking it, see _asking
        self._indexed: dict[ContentId, ContentId] = {}  # belt -> head its requests were indexed at

    # -- registration ------------------------------------------------------

    def add_branch(self, branch: Branch):
        self.branches[branch.branch_id] = branch
        self.requests.setdefault(branch.branch_id, BranchRequests())
        self.touch(branch.branch_id)

    def touch(self, *branch_ids: ContentId):
        """Mark branches whose headers may have changed; the next gossip flush
        compares their fingerprints.  Every mutation of a Branch calls this."""
        self.touched.update(branch_ids)

    def requests_for(self, branch_id: ContentId) -> BranchRequests:
        return self.requests.setdefault(branch_id, BranchRequests())

    def add_proof(self, proof: ContributionProof):
        self.proofs.setdefault(proof.branch_id, {}).setdefault(proof)

    # -- contributors ------------------------------------------------------

    def contributors(self, branch_id: ContentId) -> ContributorSet:
        """Operational contributor set: the ordered union of the direct sets
        of every branch reachable from this one.

        A branch reaches the requesting branch of its sprout wrap, and every
        belt that a submit in its inclusion closure merged, when the belt's
        own closure carries a pull request from the belt to the branch.  The
        walk is depth-first pre-order and visits each branch once: the wrap's
        requesting branch first, then the belts in closure order.  A direct
        set is the branch's verified proofs whose evidence lies in root..head
        (derive_contributors), plus the wrap creator as a content key.

        Derived state follows what changed: the direct set per branch, keyed
        on (stable head, token list, accepted proof kinds, proof count); the
        evidence per branch, extended while its head descends; the belts
        asking each target; and, in the store, the merge index per head and
        the attestation ids per trie node.  The result is a fresh set the
        caller may change."""
        branches, asking = self.branches, None
        result = ContributorSet()
        visited = set()
        stack = [branch_id]
        while stack:
            current = stack.pop()
            branch = branches.get(current)
            if branch is None or current in visited:
                continue
            visited.add(current)
            result.update(self._direct_set(branch))
            reached = []
            wrap = self.wraps.get(current)
            if wrap is not None:
                result.add("content", wrap.creator)
                reached.append(wrap.requesting_branch)
            belts = _merge_index(self.store, branch.stable_head)[0]
            if belts:
                asking = self._asking() if asking is None else asking
                requesting = asking.get(current)
                if requesting:
                    reached.extend(b for b in belts if b in requesting)
            stack.extend(reversed(reached))
        return result

    def _direct_set(self, branch: Branch) -> ContributorSet:
        branch_id = branch.branch_id
        proofs = self.proofs.get(branch_id, ())
        key = (branch.stable_head, tuple(branch.branch_token), branch.config.accepted_proofs, len(proofs))
        held = self._direct.get(branch_id)
        if held is not None and held[0] == key:
            return held[1]
        evidence = collect_evidence(branch, self.store, held and held[2])
        direct = derive_contributors(branch, proofs, self.store, evidence=evidence)
        self._direct[branch_id] = (key, direct, evidence)
        return direct

    def _asking(self) -> dict[ContentId, set]:
        """target -> belts whose current head's closure carries a pull request
        from the belt to the target; a belt whose head moved is re-indexed
        from the difference of the two heads' pull-request pairs."""
        index, indexed, store = self._requesters, self._indexed, self.store
        for belt_id, branch in self.branches.items():
            old, new = indexed.get(belt_id, NULL_ID), branch.stable_head
            if old == new:
                continue
            old_pairs, new_pairs = _merge_index(store, old)[1], _merge_index(store, new)[1]
            indexed[belt_id] = new
            if old_pairs is new_pairs:  # a submit without pull requests shares its parent's
                continue
            for target, requesting in old_pairs - new_pairs:
                if requesting == belt_id:
                    index[target].discard(belt_id)
            for target, requesting in new_pairs - old_pairs:
                if requesting == belt_id:
                    index.setdefault(target, set()).add(belt_id)
        return index

    # -- submit appending --------------------------------------------------

    def append_submit(self, branch_id: ContentId, submit: Submit) -> tuple[Verdict, ContentId | None]:
        """Validate and append a submit to a directly-pushable branch head.

        Only twigs move their head this way: sprout heads are immutable and
        proper branches advance exclusively through lignification.
        """
        branch = self.branches.get(branch_id)
        if branch is None:
            return Verdict.fail("unknown-branch", branch_id.hex), None
        if branch.stale:
            return Verdict.fail("submit-to-stale", branch_id.hex), None
        if branch.branch_type == "sprout":
            return Verdict.fail("sprout-immutable"), None
        if branch.branch_type == "proper":
            return Verdict.fail("proper-head-lignification-only"), None
        if submit.parent != branch.stable_head:
            return Verdict.fail("stale-parent", submit.parent.hex), None
        head = get_submit(self.store, branch.stable_head)
        if submit.timestamp.tick < head.timestamp.tick:
            return Verdict.fail("timestamp-regression"), None
        failure = check_new_buckets(self.store, submit.submit_trace.new_buckets)
        if failure is not None:
            return Verdict.fail(*failure), None
        cid = self.store.put_object(submit)
        branch.stable_head = cid
        self.touch(branch_id)
        return OK, cid


def build_content_submit(
    state: ProtocolState,
    branch: Branch,
    author: KeyIdentity,
    message: str,
    now: LogicalTimestamp,
    payloads: list[bytes] = (),
    attachments: list[tuple[ContentId, InfoDelta]] = (),
    trace: SubmitTrace | None = None,
) -> Submit:
    """Assemble a submit: create buckets for each payload, wrap them in a
    fresh molecular context bucket, apply info attachments, and maintain the
    reverse containment registry inside the trie."""
    store = state.store
    parent = branch.stable_head
    trie = trie_mod.Trie(get_submit(store, parent).trie_root, store)
    creator_root = store.put(author.public_key)
    new_buckets: list[ContentId] = []
    atomic_ids: list[ContentId] = []
    for payload in payloads:
        refs = extract_refs(payload)
        _, bucket_id = create_atomic_bucket(store, creator_root, NULL_ID, payload, refs, now)
        atomic_ids.append(bucket_id)
        new_buckets.append(bucket_id)
        trie = trie_mod.insert(trie, bucket_id, fresh_info(refs))
    if atomic_ids:
        _, molecular_id = create_molecular_bucket(store, creator_root, NULL_ID, atomic_ids, now)
        new_buckets.append(molecular_id)
        trie = trie_mod.insert(trie, molecular_id, fresh_info(atomic_ids))
        trie = trie_mod.add_container(trie, molecular_id, atomic_ids)
    for bucket_id, delta in attachments:
        info = trie_mod.get(trie, bucket_id)
        if info is None:
            info = fresh_info([])
        info = attach_info(info, delta)
        trie = trie_mod.insert(trie, bucket_id, info)
    base_trace = trace if trace is not None else SubmitTrace()
    full_trace = replace(base_trace, new_buckets=tuple(new_buckets) + tuple(base_trace.new_buckets))
    return Submit(parent, message, trie.root, full_trace, now)
