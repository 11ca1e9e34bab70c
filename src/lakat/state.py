"""Per-peer protocol state: stores, branch map, proofs, and submit building.

One ProtocolState is one peer's view of the world.  Every direct push
funnels through append_submit so the append-side invariants (staleness,
parent match, tick monotonicity, context membership) hold on every path;
proper branch heads move only through the lignification walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

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
    BranchConfig,
    ContributorSet,
    Evidence,
    Submit,
    SubmitTrace,
    _merge_index,
    collect_evidence,
    compute_branch_id,
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


@dataclass
class _Direct:
    """A branch's direct set, the token list, accepted kinds, head, proof
    count and evidence it was derived at, and what extends it: back, the
    (arrival index, proof) pairs refused only for their evidence; last, the
    arrival index of the last accepted proof; attested, whether an accepted
    proof rests on a storage attestation, which a later trie can drop."""

    tokens: tuple
    kinds: tuple
    head: ContentId = NULL_ID
    count: int = 0
    evidence: Evidence | None = None
    direct: ContributorSet | None = None  # set by the first _admit
    back: list = field(default_factory=list)
    last: int = -1
    attested: bool = False


class ProtocolState:
    """A peer's stores, branches, proofs, wraps, and request channels, built
    per branch on first use."""

    def __init__(self, store: Store | None = None):
        self.store: Store = store if store is not None else MemoryStore()
        self.branches: dict[ContentId, Branch] = {}
        self.proofs: dict[ContentId, dict[ContributionProof, None]] = {}  # branch -> proofs, in arrival order
        self.wraps: dict[ContentId, "object"] = {}  # sprout id -> SproutWrap
        self.ousted: dict[ContentId, ContentId] = {}  # sprout id -> reference branch
        self.spent: set[ContentId] = set()  # sprouts absorbed by donation
        self.requests: dict[ContentId, BranchRequests] = {}  # built by requests_for on first use
        self.touched: set[ContentId] = set()  # branches changed since the last gossip flush
        # derived state of contributors() per branch (_direct_set); what is
        # keyed by content id is memoised in the store
        self._direct: dict[ContentId, _Direct] = {}

    # -- registration ------------------------------------------------------

    def found(self, parent: ContentId, now: LogicalTimestamp, head: ContentId, config: BranchConfig) -> Branch:
        """Register the branch named by (parent, now, head), its initial submit."""
        branch = Branch(compute_branch_id(parent, now, head), parent, now, head, head, config)
        self.add_branch(branch)
        return branch

    def add_branch(self, branch: Branch):
        self.branches[branch.branch_id] = branch
        self.touch(branch.branch_id)

    def touch(self, *branch_ids: ContentId):
        """Mark branches whose headers may have changed; the next gossip flush
        compares their fingerprints.  Every mutation of a Branch calls this."""
        self.touched.update(branch_ids)

    def requests_for(self, branch_id: ContentId) -> BranchRequests:
        requests = self.requests.get(branch_id)
        if requests is None:
            requests = self.requests[branch_id] = BranchRequests()
        return requests

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

    def is_contributor(self, branch_id: ContentId, key: bytes, kind: str | tuple | None = None) -> bool:
        """contributors(branch_id).has(key, kind), walking only as far as the
        first reachable branch that names the key; a wrap creator counts as
        a content contributor."""
        wraps = kind is None or "content" in ((kind,) if isinstance(kind, str) else kind)
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

        Derived state follows what changed: the direct set per branch, grown
        by its new and held-back proofs while its head descends
        (_direct_set); the evidence per branch, extended while its head
        descends, its belt closures walked only when a proof misses
        root..head; and, in the store, the merge index per head, which names
        both the merged belts and the pull-request pairs, and the
        attestation ids per trie node."""
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
        """The branch's direct set, held until its head, token list, accepted
        kinds or proof count moves.  While the head descends and the token
        list and accepted kinds hold, the held set is extended in place
        (_admit); any other move derives it in full.  _reach is its only
        reader, and nothing keeps it."""
        branch_id = branch.branch_id
        proofs = self.proofs.get(branch_id, ())
        tokens, kinds = tuple(branch.branch_token), branch.config.accepted_proofs
        held = self._direct.get(branch_id)
        same = held is not None and held.tokens == tokens and held.kinds == kinds
        if same and held.head == branch.stable_head and held.count == len(proofs):
            return held.direct
        evidence = collect_evidence(branch, self.store, held and held.evidence)
        if not (same and evidence.records is held.evidence.records
                and self._admit(held, branch, proofs, evidence)):
            held = self._direct[branch_id] = _Direct(tokens, kinds)
            self._admit(held, branch, proofs, evidence)
        return held.direct

    def _admit(self, held: _Direct, branch: Branch, proofs, evidence: Evidence) -> bool:
        """Extend held by what derive_contributors accepts of the proofs added
        since and, when the head moved, of the held-back proofs, appended in
        arrival order; proofs refused for their branch, kind or signature
        stay refused.  False when held rests on a storage attestation or an
        accepted proof arrived before one already held: then only a full
        derivation gives the evidence and the order of a fresh one."""
        if held.attested:
            return False
        moved = branch.stable_head != held.head  # else the evidence is what refused the held-back proofs
        fresh = list(enumerate(islice(proofs, held.count, None), held.count))
        candidates = held.back + fresh if moved else fresh
        found = derive_contributors(branch, [proof for _, proof in candidates], self.store, evidence=evidence)
        accepted = {id(proof) for kind in ContributorSet.KINDS for listed in found.kind(kind).values()
                    for proof in listed}
        back, last, attested = [] if moved else held.back[:], held.last, False
        for index, proof in candidates:
            if id(proof) in accepted:
                if index < held.last:
                    return False
                last = index
                attested = attested or (bool(evidence.attestations)  # read only when a lookup missed
                                        and proof.evidence not in evidence.records
                                        and proof.evidence not in evidence.tokens)
            elif (proof.branch_id == branch.branch_id and proof.kind in ContributorSet.KINDS
                  and proof.kind in held.kinds and proof.evidence not in evidence):
                back.append((index, proof))
        if held.last < 0:  # nothing accepted yet: the held set is empty
            held.direct = found
        else:
            held.direct.update(found)
        held.head, held.count, held.evidence = branch.stable_head, len(proofs), evidence
        held.back, held.last, held.attested = back, last, attested
        return True

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
    return Submit(parent, message, trie.root, SubmitTrace(new_buckets=tuple(new_buckets)), now)
