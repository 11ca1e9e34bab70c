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
        of every branch reachable from this one, with each wrap creator as a
        content key (_reach).  The result is a fresh set the caller may
        change; a caller that asks about one key uses is_contributor."""
        result = ContributorSet()
        for direct, creator in self._reach(branch_id):
            result.update(direct)
            if creator is not None:
                result.add("content", creator)
        return result

    def is_contributor(self, branch_id: ContentId, key: bytes, kind: str | None = None) -> bool:
        """contributors(branch_id).has(key, kind), walking only as far as the
        first reachable branch that names the key."""
        wraps = kind in (None, "content")
        return any(direct.has(key, kind) or (wraps and creator == key) for direct, creator in self._reach(branch_id))

    def content_entry(self, branch_id: ContentId, key: bytes) -> list | None:
        """contributors(branch_id).content.get(key) cut after its first proof,
        walking only as far as that proof (None: no content contributor)."""
        named = False
        for direct, creator in self._reach(branch_id):
            proofs = direct.content.get(key)
            if proofs:
                return proofs[:1]
            named = named or proofs is not None or creator == key
        return [] if named else None

    def _reach(self, branch_id: ContentId):
        """Yield (direct set, wrap creator or None) for every branch reachable
        from this one, in the order contributors() unites them.

        A branch reaches the requesting branch of its sprout wrap, and every
        belt that a submit in its inclusion closure merged, when the belt's
        own closure carries a pull request from the belt to the branch.  The
        walk is depth-first pre-order and visits each branch once: the wrap's
        requesting branch first, then the belts in the order of the merge
        index.  A direct set is the branch's verified proofs whose evidence
        lies in root..head (derive_contributors); it is derived when the walk
        reaches it, so a caller that stops early derives no more.

        Derived state follows what changed: the direct set per branch, keyed
        on (stable head, token list, accepted proof kinds, proof count); the
        evidence per branch, extended while its head descends, its belt
        closures walked only when a proof misses root..head; and, in the
        store, the merge index per head, which names both the merged belts
        and the pull-request pairs, and the attestation ids per trie node."""
        branches, store = self.branches, self.store
        visited = set()
        stack = [branch_id]
        while stack:
            current = stack.pop()
            branch = branches.get(current)
            if branch is None or current in visited:
                continue
            visited.add(current)
            wrap = self.wraps.get(current)
            yield self._direct_set(branch), None if wrap is None else wrap.creator
            reached = [] if wrap is None else [wrap.requesting_branch]
            for belt_id in _merge_index(store, branch.stable_head)[0]:
                belt = branches.get(belt_id)
                if belt is not None and (current, belt_id) in _merge_index(store, belt.stable_head)[1]:
                    reached.append(belt_id)
            stack.extend(reversed(reached))

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
