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
    Bucket,
    InfoDelta,
    attach_info,
    check_context_membership,
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
    Verifier,
    collect_evidence,
    derive_contributors,
    get_submit,
    included_submits,
)
from .requests import BranchRequests
from .store import MemoryStore, MissingRecord, Store
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
        self.verifier = Verifier(self.store)  # remembers the submits it checked
        self.branches: dict[ContentId, Branch] = {}
        self.proofs: dict[ContentId, list[ContributionProof]] = {}
        self.wraps: dict[ContentId, "object"] = {}  # sprout id -> SproutWrap
        self.ousted: dict[ContentId, ContentId] = {}  # sprout id -> reference branch
        self.spent: set[ContentId] = set()  # sprouts absorbed by donation
        self.requests: dict[ContentId, BranchRequests] = {}
        # memos of contributors(); every entry is a function of its key
        self._direct: dict[ContentId, tuple] = {}  # branch -> (key, direct set, evidence set)
        self._merges: dict[ContentId, tuple[tuple, frozenset]] = {}  # head -> (belts, PR pairs)
        self._node_attestations: dict[ContentId, frozenset] = {}  # trie node -> attestation ids

    # -- registration ------------------------------------------------------

    def add_branch(self, branch: Branch):
        self.branches[branch.branch_id] = branch
        self.requests.setdefault(branch.branch_id, BranchRequests())

    def requests_for(self, branch_id: ContentId) -> BranchRequests:
        return self.requests.setdefault(branch_id, BranchRequests())

    def add_proof(self, proof: ContributionProof):
        proofs = self.proofs.setdefault(proof.branch_id, [])
        if proof not in proofs:
            proofs.append(proof)

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

        Memos: the direct set per branch, keyed on (stable head, token list,
        accepted proof kinds, proof-list length), held with the branch's
        evidence set, which a new proof reuses while head and tokens stay;
        the merged belts and pull-request pairs per head; the
        storage-attestation ids per trie node.  The result is a fresh set
        the caller may change.
        """
        branches, merges, merge_index = self.branches, self._merges, self._merge_index
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
            # the hot loop of the walk: one pair lookup per merge in the closure
            for belt_id in (merges.get(branch.stable_head) or merge_index(branch.stable_head))[0]:
                belt = branches.get(belt_id)
                if belt is not None:
                    pairs = (merges.get(belt.stable_head) or merge_index(belt.stable_head))[1]
                    if (current, belt_id) in pairs:
                        reached.append(belt_id)
            stack.extend(reversed(reached))
        return result

    def _direct_set(self, branch: Branch) -> ContributorSet:
        proofs = self.proofs.get(branch.branch_id, ())
        key = (branch.stable_head, tuple(branch.branch_token), branch.config.accepted_proofs, len(proofs))
        held = self._direct.get(branch.branch_id)
        if held is not None and held[0] == key:
            return held[1]
        # the evidence is a function of (head, tokens): a new proof reuses it
        if held is not None and held[0][:2] == key[:2]:
            evidence = held[2]
        else:
            evidence = collect_evidence(branch, self.store, self._node_attestations)
        direct = derive_contributors(branch, proofs, self.store, evidence=evidence)
        self._direct[branch.branch_id] = (key, direct, evidence)
        return direct

    def _merge_index(self, head: ContentId) -> tuple[tuple, frozenset]:
        """Belts merged in the closure of head, in closure order, and the
        (target, requesting) pairs of its pull-request traces.  A closure never
        changes, and a submit without a belt tip only puts itself in front of
        its parent's closure, so such a head extends its parent's entry."""
        index = self._merges.get(head)
        if index is not None:
            return index
        if head == NULL_ID:
            return (), frozenset()
        submit = get_submit(self.store, head)
        trace = submit.submit_trace
        parent = self._merges.get(submit.parent)
        if trace.belt_tip is None and (parent is not None or submit.parent == NULL_ID):
            belts, pairs = parent if parent is not None else ((), frozenset())
            if trace.merged_branch is not None:
                belts = (trace.merged_branch,) + belts
            if trace.pull_requests:
                pairs = pairs | {(pr.target_branch, pr.requesting_branch) for pr in trace.pull_requests}
        else:
            included = included_submits(self.store, head).values()
            belts = tuple(s.submit_trace.merged_branch for s in included
                          if s.submit_trace.merged_branch is not None)
            pairs = frozenset((pr.target_branch, pr.requesting_branch)
                              for s in included for pr in s.submit_trace.pull_requests)
        index = self._merges[head] = (belts, pairs)
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
        new_ids = set(submit.submit_trace.new_buckets)
        submit_buckets = {}
        for cid in new_ids:
            try:
                obj = self.store.get_object(cid)
            except MissingRecord:
                return Verdict.fail("missing-bucket", cid.hex), None
            if isinstance(obj, Bucket):
                submit_buckets[cid] = obj
        if not check_context_membership(new_ids, submit_buckets, self.store):
            return Verdict.fail("context-membership"), None
        cid = self.store.put_object(submit)
        branch.stable_head = cid
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
        for member in atomic_ids:
            info = trie_mod.get(trie, member)
            info = attach_info(info, InfoDelta(bucket_refs_in=(molecular_id,)))
            trie = trie_mod.insert(trie, member, info)
    for bucket_id, delta in attachments:
        info = trie_mod.get(trie, bucket_id)
        if info is None:
            info = fresh_info([])
        info = attach_info(info, delta)
        trie = trie_mod.insert(trie, bucket_id, info)
    base_trace = trace if trace is not None else SubmitTrace()
    full_trace = replace(base_trace, new_buckets=tuple(new_buckets) + tuple(base_trace.new_buckets))
    return Submit(parent, message, trie.root, full_trace, now)
