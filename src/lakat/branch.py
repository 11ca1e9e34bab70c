"""Branches, submits, conflict detection, and contributor derivation.

A branch is an identified chain of submits with a config and a mutable head.
Submit parents always stay inside the owning lineage; merged-in work is
reachable through belt-tip pointers in the submit trace, never by rebasing.
"""

from __future__ import annotations

import json
from collections import ChainMap
from collections.abc import Iterable, Set
from dataclasses import dataclass, field
from fractions import Fraction

from .codec import (
    CodecError,
    ContentId,
    LakatError,
    LogicalTimestamp,
    NULL_ID,
    canonical_encode,
    content_id,
    object_id,
    protocol_struct,
)
from .identity import CONTRIBUTION_KINDS, ContributionProof
from .bucket import check_new_buckets
from .store import MissingRecord, Store
from . import trie as trie_mod

PROPER, TWIG, SPROUT = "proper", "twig", "sprout"
BRANCH_TYPES = (PROPER, TWIG, SPROUT)
ACCEPTANCE_KINDS = ("no_rejections", "fraction")
_COUNTS = ("min_reviewers", "min_review_rounds", "lignification_time", "engagement_time", "broadcasting_buffer")


class BranchError(LakatError):
    pass


class IntegrityError(BranchError):
    """Branch data is internally inconsistent (dangling parent, cycle, ...)."""


@protocol_struct(21)
@dataclass(frozen=True)
class Rational:
    num: int
    den: int

    def value(self) -> Fraction:
        return Fraction(self.num, self.den)


@protocol_struct(22)
@dataclass(frozen=True)
class AcceptanceRule:
    """Review acceptance policy: no rejections at all, or a fraction bound."""

    kind: str  # "no_rejections" | "fraction"
    fraction: Rational = Rational(1, 1)

    def satisfied(self, reviewer_count: int, reject_count: int) -> bool:
        if reviewer_count == 0:
            return False
        if self.kind == "no_rejections":
            return reject_count == 0
        return Fraction(reject_count, reviewer_count) <= 1 - self.fraction.value()


@protocol_struct(9)
@dataclass(frozen=True)
class BranchConfig:
    branch_type: str = TWIG
    accept_conflicts: bool = True
    accepted_proofs: tuple = CONTRIBUTION_KINDS[:4]
    min_reviewers: int = 1
    acceptance_rule: AcceptanceRule = AcceptanceRule("no_rejections")
    min_review_rounds: int = 1
    twig_merge_fraction: Rational = Rational(1, 2)
    lignification_time: int = 10
    engagement_time: int = 10
    broadcasting_buffer: int = 1
    stale_after_merge: bool = True

    def __post_init__(self):
        """The one check of config values, for scenario, gossip and dump
        input alike; raises BranchError.  Kept cheap: gossip builds a config
        for every header it reads."""
        if type(self.accepted_proofs) is list:
            object.__setattr__(self, "accepted_proofs", tuple(self.accepted_proofs))
        if self.branch_type not in BRANCH_TYPES:
            raise BranchError(f"unknown branch type {self.branch_type!r}")
        for name in ("accept_conflicts", "stale_after_merge"):
            if type(getattr(self, name)) is not bool:
                raise BranchError(f"{name} must be true or false")
        proofs = self.accepted_proofs
        if type(proofs) is not tuple or not all(map(CONTRIBUTION_KINDS.__contains__, proofs)):
            raise BranchError(f"accepted_proofs must list kinds of {CONTRIBUTION_KINDS}")
        for name in _COUNTS:
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise BranchError(f"{name} must be a non-negative integer, not {value!r}")
        rule = self.acceptance_rule
        if type(rule) is not AcceptanceRule or rule.kind not in ACCEPTANCE_KINDS:
            raise BranchError(f"acceptance_rule must be one of {ACCEPTANCE_KINDS}")
        for name, ratio in (("acceptance_rule fraction", rule.fraction),
                            ("twig_merge_fraction", self.twig_merge_fraction)):
            if not (type(ratio) is Rational and type(ratio.num) is int and type(ratio.den) is int
                    and ratio.num >= 0 and ratio.den > 0):
                raise BranchError(f"{name} must be [num, den] with num >= 0 and den > 0")

    def to_json(self) -> dict:
        return _kind("BranchConfig")[0](self)

    @classmethod
    def from_json(cls, data: dict) -> "BranchConfig":
        """The config a JSON object names; a field left out takes its default."""
        return _kind("BranchConfig")[1](data)


@protocol_struct(7)
@dataclass(frozen=True)
class PullRequestTrace:
    review_container: ContentId
    target_branch: ContentId
    requesting_branch: ContentId


@protocol_struct(6)
@dataclass(frozen=True)
class SubmitTrace:
    pull_requests: tuple = ()
    reviews_trace: tuple[ContentId, ...] = ()  # ids of commitment / review-item records
    merged_branch: ContentId | None = None
    belt_tip: ContentId | None = None
    new_buckets: tuple[ContentId, ...] = ()

    def __post_init__(self):
        for name in ("pull_requests", "reviews_trace", "new_buckets"):
            value = getattr(self, name)
            if isinstance(value, list):
                object.__setattr__(self, name, tuple(value))


@protocol_struct(8)
@dataclass(frozen=True)
class Submit:
    parent: ContentId
    submit_message: str
    trie_root: ContentId
    submit_trace: SubmitTrace
    timestamp: LogicalTimestamp

    def is_singularity(self) -> bool:
        return self.parent == NULL_ID

    def is_merge(self) -> bool:
        return self.submit_trace.merged_branch is not None


def submit_id(submit: Submit) -> ContentId:
    return object_id(submit)


@protocol_struct(11)
@dataclass(frozen=True)
class BranchSeed:
    """The immutable entries hashed into the branch identifier."""

    parent_branch: ContentId
    timestamp: LogicalTimestamp
    initial_head: ContentId


def compute_branch_id(parent_branch: ContentId, timestamp: LogicalTimestamp, initial_head: ContentId) -> ContentId:
    return object_id(BranchSeed(parent_branch, timestamp, initial_head))


@protocol_struct(17)
@dataclass(frozen=True)
class Veto:
    sprout: ContentId
    contributor: bytes
    tick: int
    signature: bytes

    def message(self) -> bytes:
        return canonical_encode([b"veto", self.sprout, self.contributor, self.tick])


@protocol_struct(18)
@dataclass(frozen=True)
class Vote:
    sprout: ContentId
    voter: bytes
    tick: int
    signature: bytes

    def message(self) -> bytes:
        return canonical_encode([b"vote", self.sprout, self.voter, self.tick])


@protocol_struct(19)
@dataclass(frozen=True)
class SelectionEntry:
    """One contending sprout plus the vetoes and votes it has drawn."""

    sprout: ContentId
    vetoes: tuple = ()
    votes: tuple = ()

    def __post_init__(self):
        if isinstance(self.vetoes, list):
            object.__setattr__(self, "vetoes", tuple(self.vetoes))
        if isinstance(self.votes, list):
            object.__setattr__(self, "votes", tuple(self.votes))


@dataclass
class Branch:
    """Branch state. Identity fields never change after creation; the head,
    consensus entries, token list, config, and staleness evolve."""

    branch_id: ContentId
    parent_branch: ContentId
    timestamp: LogicalTimestamp
    initial_head: ContentId
    stable_head: ContentId
    config: BranchConfig
    sprouts: set = field(default_factory=set)
    sprout_selection: list = field(default_factory=list)  # list[SelectionEntry]
    branch_token: list = field(default_factory=list)  # opaque attestation bytes
    stale: bool = False

    @property
    def branch_type(self) -> str:
        return self.config.branch_type

    def selection_entry(self, sprout: ContentId) -> SelectionEntry | None:
        return next((entry for entry in self.sprout_selection if entry.sprout == sprout), None)

    def add_signals(self, sprout: ContentId, vetoes=(), votes=()) -> bool:
        """The one join of vetoes and votes, local or gossiped: each signal the
        sprout's entry does not hold joins it, after those held, and a missing
        entry is added.  Returns whether anything changed."""
        entries = self.sprout_selection
        for at, held in enumerate(entries):
            if held.sprout == sprout:
                break
        else:
            entries.append(SelectionEntry(sprout, tuple(vetoes), tuple(votes)))
            return True
        vetoes = tuple(s for s in vetoes if s not in held.vetoes)
        votes = tuple(s for s in votes if s not in held.votes)
        if vetoes or votes:
            entries[at] = SelectionEntry(sprout, held.vetoes + vetoes, held.votes + votes)
        return bool(vetoes or votes)

    def header_json(self) -> dict:
        return _kind("Branch")[0](self)

    def header_text(self) -> str:
        return json.dumps(self.header_json(), sort_keys=True)

    def fingerprint(self) -> tuple:
        """Cheap structural stand-in for header_text equality: covers every
        mutable header field (the rest are fixed at creation)."""
        return (self.stable_head, self.parent_branch, self.stale, tuple(self.branch_token), self.config,
                frozenset(self.sprouts), tuple(self.sprout_selection))


# The JSON of a branch header and of every object in it, read and written by
# one table: class -> {field: kind}.  A kind is a name in _KINDS, a class name
# of the table (an object), "<kind> list" (a tuple field takes it as a tuple)
# or "<kind> set" (written sorted).  A field marked "?" may be left out and
# takes its dataclass default; the rest are required, and no other key is
# taken.  Keys are field names, but a header names its config "branch_config".
HEADER_FIELDS = {
    Branch: {"branch_id": "id", "parent_branch": "id", "timestamp": "LogicalTimestamp", "initial_head": "id",
             "stable_head": "id", "config": "BranchConfig", "sprouts": "id set",
             "sprout_selection": "SelectionEntry list", "branch_token": "bytes list", "stale": "plain"},
    BranchConfig: {"branch_type?": "plain", "accept_conflicts?": "plain", "accepted_proofs?": "plain list",
                   "min_reviewers?": "plain", "acceptance_rule?": "AcceptanceRule", "min_review_rounds?": "plain",
                   "twig_merge_fraction?": "rational", "lignification_time?": "plain",
                   "engagement_time?": "plain", "broadcasting_buffer?": "plain", "stale_after_merge?": "plain"},
    AcceptanceRule: {"kind": "plain", "fraction?": "rational"},
    LogicalTimestamp: {"tick": "plain", "anchor": "anchor"},
    SelectionEntry: {"sprout": "id", "vetoes": "Veto list", "votes": "Vote list"},
    Veto: {"sprout": "id", "contributor": "bytes", "tick": "plain", "signature": "bytes"},
    Vote: {"sprout": "id", "voter": "bytes", "tick": "plain", "signature": "bytes"},
}
_KINDS = {  # kind -> (to JSON, from JSON); _kind adds the lists, sets and objects
    "plain": (lambda value: value, lambda value: value),
    "id": (bytes.hex, ContentId.from_hex),
    "bytes": (bytes.hex, bytes.fromhex),
    "anchor": (lambda anchor: anchor.hex() if anchor else None, lambda text: bytes.fromhex(text) if text else None),
    "rational": (lambda ratio: [ratio.num, ratio.den], lambda pair: Rational(*pair)),
}


def _kind(kind: str) -> tuple:
    if kind not in _KINDS:
        base, _, shape = kind.rpartition(" ")
        if shape in ("list", "set"):
            to, read = _kind(base)
            write_as, read_as = (list, list) if shape == "list" else (sorted, set)
            _KINDS[kind] = (lambda values: write_as(map(to, values)), lambda values: read_as(map(read, values)))
        else:
            _KINDS[kind] = _object(next(cls for cls in HEADER_FIELDS if cls.__name__ == kind))
    return _KINDS[kind]


def _object(cls) -> tuple:
    table = []  # (field, JSON key, may be left out, to JSON, from JSON)
    for spec, kind in HEADER_FIELDS[cls].items():
        name = spec.rstrip("?")
        table.append((name, "branch_config" if name == "config" else name, name != spec, *_kind(kind)))

    def to_json(obj) -> dict:
        return {key: to(getattr(obj, name)) for name, key, _, to, _ in table}

    def from_json(data: dict):
        if type(data) is not dict:
            raise BranchError("must be an object")
        kwargs = {}
        try:
            for name, key, optional, _, read in table:
                if key in data:
                    kwargs[name] = read(data[key])
                elif not optional:
                    raise BranchError("missing")
        except (LakatError, TypeError, ValueError) as exc:
            raise BranchError(f"{key}: {exc}") from exc
        if len(kwargs) < len(data):
            raise BranchError(f"unknown field {min(set(data) - {key for _, key, *_ in table})!r}")
        return cls(**kwargs)

    return to_json, from_json


def branch_header_from_json(data: dict) -> Branch:
    """The branch a header's JSON names; BranchError naming a field it cannot read."""
    return _kind("Branch")[1](data)


@dataclass(frozen=True, order=True)
class ConflictRecord:
    """Two included submits sharing one included parent within one branch."""

    branch: ContentId
    parent_submit: ContentId
    left: ContentId
    right: ContentId

    @classmethod
    def normalized(cls, branch, parent_submit, a, b) -> "ConflictRecord":
        left, right = sorted((a, b))
        return cls(branch, parent_submit, left, right)


@dataclass
class ContributorSet:
    """Per-kind contributor keys with the proofs that back them."""

    KINDS = CONTRIBUTION_KINDS[:4]  # a field each; a "time" proof makes no contributor
    content: dict = field(default_factory=dict)
    review: dict = field(default_factory=dict)
    token: dict = field(default_factory=dict)
    storage: dict = field(default_factory=dict)

    def kind(self, name: str) -> dict:
        return getattr(self, name)

    def add(self, kind: str, key: bytes):
        self.kind(kind).setdefault(key, [])

    def has(self, key: bytes, kind: str | None = None) -> bool:
        return any(key in self.kind(k) for k in ((kind,) if kind else self.KINDS))

    def keys(self, kind: str) -> set:
        return set(self.kind(kind))

    def all_keys(self) -> set:
        return set().union(*map(self.kind, self.KINDS))

    def copy(self) -> "ContributorSet":
        return ContributorSet(*({key: list(proofs) for key, proofs in self.kind(k).items()} for k in self.KINDS))

    def update(self, other: "ContributorSet"):
        """Ordered union in place: new keys follow the held ones, and each
        key's proofs follow its held proofs.  Proofs are not deduplicated:
        a proof names its branch, so direct sets of different branches, the
        only sets this unites, never share one."""
        for name in self.KINDS:
            mine = self.kind(name)
            for key, proofs in other.kind(name).items():
                mine.setdefault(key, []).extend(proofs)


def get_submit(store: Store, cid: ContentId) -> Submit:
    obj = store.get_object(cid)
    if not isinstance(obj, Submit):
        raise IntegrityError(f"{cid.hex} is not a submit")
    return obj


def ancestry(store: Store, head: ContentId, stop=()):
    """Yield (id, submit) along the parent chain from head down to the
    singularity, or down to the first id in stop, which is not yielded.
    Raises MissingRecord for a missing record and IntegrityError for a cycle
    or a record that is not a submit, and CodecError for a record whose
    bytes do not decode."""
    seen = set()
    cursor = head
    while cursor != NULL_ID and cursor not in stop:
        if cursor in seen:
            raise IntegrityError("cycle in submit chain")
        seen.add(cursor)
        submit = get_submit(store, cursor)
        yield cursor, submit
        cursor = submit.parent


def own_submits(branch: Branch, store: Store) -> list[tuple[ContentId, Submit]]:
    """The branch's own (id, submit) pairs, head back to its initial head:
    the range where its commitments, review items, and offered content live."""
    own = []
    for cid, submit in ancestry(store, branch.stable_head):
        own.append((cid, submit))
        if cid == branch.initial_head:
            break
    return own


def _history(branch: Branch, store: Store) -> list[tuple[ContentId, Submit]]:
    """(id, submit) pairs from the stable head back to the branch's root
    submit, child first: the branch's own range, then the initial submit's
    parent for a derived branch (a genesis branch's range already ends at the
    singularity).  Empty for a branch whose head is the null id."""
    history = own_submits(branch, store)
    if history and history[-1][1].parent != NULL_ID:
        root = history[-1][1].parent
        history.append((root, get_submit(store, root)))
    return history


def submit_history(branch: Branch, store: Store) -> list[Submit]:
    """Submits from the stable head back to the branch's root submit, child
    first."""
    return [submit for _, submit in _history(branch, store)]


def included_submits(store: Store, head: ContentId) -> dict[ContentId, Submit]:
    """Inclusion closure: the parent chain of `head` plus, transitively, the
    parent chains hanging off every merge submit's belt tip."""
    return closure(store, [head])


def _walk_closure(store: Store, heads: list[ContentId], included: dict):
    """The inclusion-closure walk: each parent chain in full, then the belt
    tips it passed, latest found first.  Records each submit it reaches in
    `included` (id -> submit) and yields its id; a caller that stops early
    leaves the rest unwalked."""
    frontier = list(reversed(heads))
    while frontier:
        cursor = frontier.pop()
        while cursor != NULL_ID and cursor not in included:
            submit = get_submit(store, cursor)
            included[cursor] = submit
            yield cursor
            tip = submit.submit_trace.belt_tip
            if tip is not None:
                frontier.append(tip)
            cursor = submit.parent


def closure(store: Store, heads: list[ContentId]) -> dict[ContentId, Submit]:
    """Inclusion closure of several heads, in walk order."""
    included: dict[ContentId, Submit] = {}
    for _ in _walk_closure(store, heads, included):
        pass
    return included


def in_closure(store: Store, head: ContentId, target: ContentId) -> bool:
    """Whether target is in the inclusion closure of head.  The walk stops
    at target, which usually sits near the head."""
    return target in _walk_closure(store, [head], {})


def _merge_index(store: Store, head: ContentId) -> tuple[tuple, frozenset]:
    """Belts merged in the closure of head, each once in the order of its
    first merge, and the (target, requesting) pairs of its pull requests.
    A closure is the submit, its parent's closure, then what the parent's
    lacks of its belt tip's closure (_walk_closure), so an entry joins the
    parent's and tip's entries.  Memoised in the store; filled bottom-up
    with a stack: parent chains run thousands deep."""
    merges = store.merge_index
    if head in merges:
        return merges[head]
    stack = [head]
    while stack:
        cid = stack[-1]
        if cid in merges:
            stack.pop()
            continue
        submit = get_submit(store, cid)
        trace, tip = submit.submit_trace, submit.submit_trace.belt_tip
        missing = [x for x in (submit.parent, tip) if x is not None and x not in merges]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        belts, pairs = merges[submit.parent]
        if tip is not None:
            tip_belts, tip_pairs = merges[tip]
            held = set(belts)
            belts = belts + tuple(b for b in tip_belts if b not in held)
            pairs = pairs | tip_pairs
        if trace.merged_branch is not None:
            belts = (trace.merged_branch,) + tuple(b for b in belts if b != trace.merged_branch)
        if trace.pull_requests:
            pairs = pairs | {(pr.target_branch, pr.requesting_branch) for pr in trace.pull_requests}
        merges[cid] = (belts, pairs)
    return merges[head]


def conflict_records(
    store: Store, included: dict[ContentId, Submit], branch_id: ContentId
) -> set[ConflictRecord]:
    """All (parent, left, right) triples inside the inclusion set.

    A merge submit never conflicts with submits of the belt it merged: the
    pair (merge, x) is dropped when x lies in the closure of that merge's
    own belt tip.
    """
    children: dict[ContentId, list[ContentId]] = {}
    for cid, submit in included.items():
        if submit.parent != NULL_ID and submit.parent in included:
            children.setdefault(submit.parent, []).append(cid)
    belt_closure: dict[ContentId, dict] = {}

    def own_belt(merge_cid: ContentId) -> dict:
        closure = belt_closure.get(merge_cid)
        if closure is None:
            tip = included[merge_cid].submit_trace.belt_tip
            closure = included_submits(store, tip) if tip is not None else {}
            belt_closure[merge_cid] = closure
        return closure

    conflicts = set()
    for parent, kids in children.items():
        if len(kids) < 2:
            continue
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                a, b = kids[i], kids[j]
                if included[a].is_merge() and b in own_belt(a):
                    continue
                if included[b].is_merge() and a in own_belt(b):
                    continue
                conflicts.add(ConflictRecord.normalized(branch_id, parent, a, b))
    return conflicts


def detect_conflicts(branch: Branch, store: Store) -> set[ConflictRecord]:
    included = included_submits(store, branch.stable_head)
    return conflict_records(store, included, branch.branch_id)


_NO_IDS = frozenset()


def _attestations(store: Store, node_id: ContentId) -> frozenset:
    """Ids of the storage attestations held in the bucket infos under a trie
    node.  A node id fixes its whole subtree (a leaf id hashes its value
    hash), so the answer is memoised per node in the store and a new root
    only visits the nodes its update path-copied.  An info record missing
    from the store counts as holding none, and neither that leaf nor any
    node above it is memoised until the record arrives."""
    memo = store.attestations
    found = memo.get(node_id)
    if found is not None:
        return found
    if node_id == NULL_ID:
        return _NO_IDS
    node = trie_mod.load_node(store, node_id)
    if isinstance(node, trie_mod.TrieLeaf):
        try:
            info = store.get_object(node.value_hash)
        except MissingRecord:
            return _NO_IDS
        ids = frozenset(object_id(a) for a in getattr(info, "storage_proofs", ())) or _NO_IDS
    else:
        children = (node.child,) if isinstance(node, trie_mod.TrieExtension) else node.children
        ids = _NO_IDS
        for child in children:
            if child is not None:
                child_ids = _attestations(store, child)
                if child_ids:
                    ids = ids | child_ids
        if any(child is not None and child not in memo for child in children):
            return ids
    memo[node_id] = ids
    return ids


def _introduce(records: set, submits: Iterable[tuple[ContentId, Submit]]):
    """Add each submit id and the records it introduces: buckets, commitments, review items, containers."""
    for cid, submit in submits:
        trace = submit.submit_trace
        records.add(cid)
        records.update(trace.new_buckets)
        records.update(trace.reviews_trace)
        records.update(pr.review_container for pr in trace.pull_requests)


class Evidence(Set):
    """The ids a contribution proof may cite at one head of a branch: in
    records, the submits root..head, the belt closures their merges reach
    (walked: id -> submit) and the records all of these introduce.  Storage
    and token attestations stay apart: a later trie or token list can drop one.
    Most proofs cite root..head, so the belt closures (tips: not yet walked)
    and storage attestations are read only when a lookup misses the rest."""

    __slots__ = ("head", "store", "records", "walked", "tips", "attestations", "tokens")

    def __init__(self, head, store, records, walked, tips, tokens):
        self.head, self.store, self.records, self.walked, self.tips = head, store, records, walked, tips
        self.attestations, self.tokens = None, tokens

    def _complete(self):
        store = self.store
        if self.tips:  # walked takes a walk only once it is whole: a missing record leaves it as it was
            fresh = {}
            walk = _walk_closure(store, self.tips, ChainMap(fresh, self.walked))
            _introduce(self.records, ((cid, fresh[cid]) for cid in walk))
            self.walked.update(fresh)
            self.tips = []
        if self.attestations is None:
            self.attestations = _attestations(store, get_submit(store, self.head).trie_root) if self.head != NULL_ID else _NO_IDS

    def __contains__(self, cid) -> bool:
        if cid in self.records or cid in self.tokens:
            return True
        self._complete()
        return cid in self.records or cid in self.attestations

    def __iter__(self):
        self._complete()
        return iter(self.records | self.attestations | self.tokens)

    def __len__(self) -> int:
        self._complete()
        return len(self.records | self.attestations | self.tokens)


def collect_evidence(branch: Branch, store: Store, held: Evidence | None = None) -> Evidence:
    """Every id a contribution proof may legitimately cite: the submits from
    root to head, the belt closures reachable from merge submits in that
    range, the records those submits introduce, plus storage and token
    attestations.  Only root..head is read here; the rest waits for a lookup
    that misses it (Evidence).  held, an earlier result for the branch, is
    extended in place when the head descends from its head without passing
    the initial head; any other move rebuilds."""
    head = branch.stable_head
    suffix = None
    if held is not None and head != NULL_ID and held.head != NULL_ID:
        suffix = list(ancestry(store, head, (held.head,)))
        if suffix and (suffix[-1][1].parent != held.head
                       or any(cid == branch.initial_head for cid, _ in suffix)):
            suffix = None
    if suffix is None:
        records, walked, tips, suffix = set(), {}, [], _history(branch, store)
    else:
        records, walked, tips = held.records, held.walked, list(held.tips)
    _introduce(records, suffix)
    tips += (s.submit_trace.belt_tip for _, s in suffix if s.submit_trace.belt_tip is not None)
    return Evidence(head, store, records, walked, tips, frozenset(content_id(t) for t in branch.branch_token))


def derive_contributors(
    branch: Branch,
    proofs: Iterable[ContributionProof],
    store: Store,
    evidence: Evidence | None = None,
) -> ContributorSet:
    """Partition valid proofs by kind, dropping invalid signatures, foreign
    branches, disallowed kinds, and evidence outside root..head.

    Callers that pre-compute the evidence closure can pass it in to avoid
    repeating the work; signatures are checked through the process-wide
    signature cache of ``identity.verify_signature``.
    """
    result, seen = ContributorSet(), set()  # seen: a hashed ContributorSet.add
    if evidence is None:
        evidence = collect_evidence(branch, store)
    for proof in proofs:
        if proof.branch_id != branch.branch_id:
            continue
        if proof.kind not in ContributorSet.KINDS:
            continue
        if proof.kind not in branch.config.accepted_proofs:
            continue
        if proof.evidence not in evidence or proof in seen or not proof.verify():
            continue
        seen.add(proof)
        result.kind(proof.kind).setdefault(proof.contributor, []).append(proof)
    return result


@dataclass
class BranchVerdict:
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, code: str, detail: str = ""):
        self.failures.append((code, detail))

    def codes(self) -> list[str]:
        return [code for code, _ in self.failures]


def verify_branch(branch: Branch, store: Store) -> BranchVerdict:
    """Integrity check: id recomputation, acyclic history, monotone ticks,
    context membership of every submit, and the conflict policy.  A broken
    chain (cycle, dangling submit, or a record that is not a submit or does
    not decode) ends the check.  Each submit is checked once per store, as
    fsck checks each object once: the walk stops at the first submit in
    store.verified, whose chain down to the singularity passed every
    per-submit check.  Only a chain that passed is added, so the verdict is
    the one a walk of the whole chain gives."""
    verdict = BranchVerdict()
    recomputed = compute_branch_id(branch.parent_branch, branch.timestamp, branch.initial_head)
    if recomputed != branch.branch_id:
        verdict.fail("branch-id-mismatch", branch.branch_id.hex)
    held = len(verdict.failures)
    walked: dict[ContentId, Submit] = {}
    cursor = branch.stable_head
    while cursor != NULL_ID and cursor not in store.verified:
        if cursor in walked:
            verdict.fail("history-integrity", "cycle in submit chain")
            return verdict
        try:
            raw = store.get(cursor)
        except MissingRecord:
            verdict.fail("history-integrity", f"dangling submit {cursor.hex}")
            return verdict
        if content_id(raw) != cursor:
            verdict.fail("submit-id-mismatch", cursor.hex)
        try:
            submit = store.get_object(cursor)
        except CodecError:
            submit = None
        if not isinstance(submit, Submit):
            verdict.fail("history-integrity", f"{cursor.hex} is not a submit")
            return verdict
        walked[cursor] = submit
        cursor = submit.parent
    submits = list(walked.values())
    if submits and cursor != NULL_ID:
        submits.append(get_submit(store, cursor))  # verified: only its tick is read
    for child, parent in zip(submits, submits[1:]):
        if child.timestamp.tick < parent.timestamp.tick:
            verdict.fail("timestamp-regression", submit_id(child).hex)
    for cid, submit in walked.items():
        failure = check_new_buckets(store, submit.submit_trace.new_buckets)
        if failure is not None:
            verdict.fail(failure[0], failure[1] or cid.hex)
    if len(verdict.failures) == held:
        store.verified.update(walked)
    if not branch.config.accept_conflicts:
        try:
            if detect_conflicts(branch, store):
                verdict.fail("conflict-policy", "conflicts present but not accepted")
        except (CodecError, IntegrityError) as exc:  # a belt tip names a non-submit or undecodable record
            verdict.fail("history-integrity", str(exc))
    return verdict
