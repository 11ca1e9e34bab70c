"""Deterministic discrete-event peer simulator.

Peers hold independent protocol states and exchange two event kinds:
gossiped branch state and branch requests routed to contributors.  A gossip
payload is ``[b"gossip", headers, wraps, proofs, records, ousted, spent]``;
one `Shipped` entry per receiver keeps what the sender has already sent it
(store cursor, a proof count per branch, spent ids, ousted pairs), so each of
those ships once, and the records the receiver sent since (echo), which it
holds and so never gets back.  A peer writes each branch's header text once
per change of its fingerprint (`Peer.headers`), whatever the number of
receivers, and adoption compares chain lengths from the store's depth memo.
Join/leave schedule entries are events in the same queue; a join drops the
marks between the joiner and each online peer and syncs both ways.  Events
order by their own fields, never by their payload (see SimEvent), so a run is
a pure function of config plus scenario.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass, field
from itertools import islice

from .codec import CodecError, ContentId, LakatError, LogicalTimestamp, canonical_decode, canonical_encode
from .identity import ContributionProof, KeyIdentity
from .branch import Branch, BranchError, IntegrityError, ancestry, branch_header_from_json
from .lignify import SproutWrap, selection_tree
from .requests import CHANNELS
from .state import ProtocolState
from .store import MemoryStore, MissingRecord, Store

GOSSIP, BRANCH_REQUEST, SCENARIO_ACTION = "gossip_state", "branch_request", "scenario_action"
AVAILABILITY = "availability"  # a schedule entry, logged as "schedule": it applies before messages due that tick


class SimError(LakatError):
    pass


class NonQuiescent(SimError):
    """Event queue failed to drain within the allowed tick budget."""


@dataclass(frozen=True)
class SimConfig:
    rng_seed: int = 0
    latency: tuple = ("fixed", 1)  # ("fixed", k) | ("uniform", a, b)
    schedule: tuple = ()  # ((tick, peer, "join"|"leave"), ...)


@dataclass(order=True)
class SimEvent:
    """A queued event, ordered by its fields in turn; seq is emission order."""
    deliver_tick: int
    kind: str
    src: str
    dst: str
    summary: str
    seq: int
    payload: bytes = field(compare=False)


@dataclass
class Shipped:
    """What a peer has shipped to one receiver: its store cursor, the number
    of proofs sent per branch (a cursor into the append-only proof dict), and
    the spent ids and (sprout, reference) ousted pairs sent.  echo holds the
    ids of records the receiver sent this peer since the last payload to it:
    the receiver holds them, so the next payload leaves them out."""
    records: int = 0
    proofs: dict = field(default_factory=dict)  # branch -> proofs sent
    spent: set = field(default_factory=set)
    ousted: set = field(default_factory=set)
    echo: set = field(default_factory=set)


class Peer:
    def __init__(self, name: str, identity: KeyIdentity):
        self.name = name
        self.identity = identity
        self.online = True
        self.state = ProtocolState(MemoryStore())
        self.last_gossiped: dict[ContentId, tuple] = {}
        self.shipped: dict[str, Shipped] = {}  # receiver -> what it has been sent
        self.headers: dict[ContentId, tuple] = {}  # branch -> (fingerprint, header text) last written
        self.pending_headers: dict[str, str] = {}  # header key -> header text awaiting records


class World:
    def __init__(self, config: SimConfig, peer_names: list[str]):
        self.config = config
        self.rng = random.Random(config.rng_seed)
        self.tick = 0
        self.seq = 0
        self.transcript: list[str] = []
        self.decision_log: list[str] = []
        self.peers: dict[str, Peer] = {}
        self.hosts: dict[bytes, str] = {}  # contributor public key -> hosting peer
        for name in peer_names:
            identity = KeyIdentity.from_seed(f"peer:{config.rng_seed}:{name}".encode())
            self.peers[name] = Peer(name, identity)
            self.hosts[identity.public_key] = name
        for entry in config.schedule:
            tick, name, action = entry
            if type(tick) is not int or tick < 0 or name not in self.peers or action not in ("join", "leave"):
                raise SimError(f"bad schedule entry {entry!r}: needs a tick >= 0, a known peer, join or leave")
        self.queue = sorted(SimEvent(tick, AVAILABILITY, name, "-", action, 0, b"")  # a sorted list is a heap
                            for tick, name, action in config.schedule)
        spec = config.latency
        ints = type(spec) is tuple and all(type(x) is int for x in spec[1:])
        fixed = ints and len(spec) == 2 and spec[0] == "fixed"
        if not (fixed or ints and len(spec) == 3 and spec[0] == "uniform" and spec[1] <= spec[2]):
            raise SimError(f"bad latency {spec!r}: needs ('fixed', k) or ('uniform', a, b) with integers a <= b")

    def register_host(self, public_key: bytes, peer_name: str):
        if peer_name not in self.peers:
            raise SimError(f"unknown peer {peer_name!r}")
        self.hosts[public_key] = peer_name

    # -- time --------------------------------------------------------------

    def now(self) -> LogicalTimestamp:
        return LogicalTimestamp(self.tick)

    def _latency(self) -> int:
        spec = self.config.latency
        return max(1, spec[1] if spec[0] == "fixed" else self.rng.randint(spec[1], spec[2]))

    # -- logging -----------------------------------------------------------

    def log(self, tick: int, kind: str, src: str, dst: str, summary: str):
        self.transcript.append(f"{tick} {kind} {src} {dst} {summary}")

    def transcript_hash(self) -> str:
        return hashlib.sha256("\n".join(self.transcript).encode()).hexdigest()

    # -- event plumbing ------------------------------------------------------

    def emit(self, kind: str, src: str, dst: str, payload: bytes, summary: str):
        self.seq += 1
        heapq.heappush(self.queue, SimEvent(self.tick + self._latency(), kind, src, dst, summary, self.seq, payload))

    def _sync_joiner(self, joiner: str):
        """The joiner and each online peer ship each other every branch they
        hold, from the start: what was in flight between them was dropped."""
        peer = self.peers[joiner]
        for other in self.peers.values():
            if other.name == joiner or not other.online:
                continue
            for src, dst in ((other, peer), (peer, other)):
                src.shipped.pop(dst.name, None)
                for branch_id in sorted(src.state.branches):
                    payload = build_gossip_payload(src, branch_id, dst.name)
                    self.emit(GOSSIP, src.name, dst.name, payload, f"sync {branch_id.hex[:10]}")

    def step(self) -> bool:
        """Deliver the next queued event; False when the queue is empty."""
        if not self.queue:
            return False
        event = heapq.heappop(self.queue)
        self.tick = max(self.tick, event.deliver_tick)
        if event.kind == AVAILABILITY:  # a schedule entry: the peer joins or leaves
            self.log(event.deliver_tick, "schedule", event.src, "-", event.summary)
            self.peers[event.src].online = event.summary == "join"
            if event.summary == "join":
                self._sync_joiner(event.src)
            return True
        dst = self.peers.get(event.dst)
        if dst is None or not dst.online:
            self.log(event.deliver_tick, event.kind, event.src, event.dst, f"dropped-offline {event.summary}")
            return True
        self.log(event.deliver_tick, event.kind, event.src, event.dst, event.summary)
        if event.kind == GOSSIP:
            receive_gossip(self, dst, event.payload, event.src)
        elif event.kind == BRANCH_REQUEST:
            receive_branch_request(self, dst, event.payload)
        return True

    def run_until(self, target_tick: int):
        while self.queue and self.queue[0].deliver_tick <= target_tick:
            self.step()
        self.tick = max(self.tick, target_tick)

    def run_until_quiescent(self, max_ticks: int = 10_000):
        """Deliver events, schedule entries included, until the queue is empty."""
        start = self.tick
        while self.queue:
            if self.queue[0].deliver_tick > start + max_ticks:
                raise NonQuiescent(f"events still queued beyond tick {start + max_ticks}")
            self.step()
        return self

    # -- peer actions ------------------------------------------------------

    def action(self, peer_name: str, summary: str):
        """Record a scenario action executed on a peer's state."""
        self.log(self.tick, SCENARIO_ACTION, peer_name, peer_name, summary)

    def flush_gossip(self, peer_name: str):
        """Broadcast every branch whose header changed since the last flush:
        only touched branches can have, so only their fingerprints are
        compared, in id order.  An offline peer keeps its marks."""
        peer = self.peers[peer_name]
        if not peer.online:
            return
        touched = sorted(peer.state.touched)
        peer.state.touched.clear()
        for branch_id in touched:
            branch = peer.state.branches[branch_id]
            print_ = branch.fingerprint()
            if peer.last_gossiped.get(branch_id) == print_:
                continue
            peer.last_gossiped[branch_id] = print_
            head = branch.stable_head.hex[:10]
            for other in self.peers.values():
                if other.name == peer.name or not other.online:
                    continue
                payload = build_gossip_payload(peer, branch_id, other.name)
                self.emit(GOSSIP, peer.name, other.name,
                          payload, f"branch {branch_id.hex[:10]} head {head}")


# -- gossip payloads ---------------------------------------------------------


def build_gossip_payload(peer: Peer, branch_id: ContentId, receiver: str) -> bytes:
    """Branch gossip, ``[b"gossip", headers, wraps, proofs, records, ousted,
    spent]``: the header (plus the headers of its live sprout tree), wrap
    records, and what the receiver has not been sent yet: proofs, the store
    suffix less the records it sent us since, and the spent ids and ousted
    pairs, as ContentId values.

    The receiver buffers any header it cannot yet resolve, so thinning the
    payload never loses state.
    """
    state = peer.state
    tree = {branch_id: None}  # the branch, then each held sprout once, in walk order
    for _, entry in selection_tree(state, state.branches[branch_id]):
        if entry.sprout in state.branches:
            tree.setdefault(entry.sprout)
    headers = [_header_text(peer, state.branches[cid]) for cid in tree]
    wraps = sorted((state.wraps[cid] for cid in tree if cid in state.wraps), key=lambda w: w.sprout)
    sent = peer.shipped.setdefault(receiver, Shipped())
    order, echo = state.store.ids(), sent.echo
    records = [state.store.get(cid) for cid in order[sent.records:] if cid not in echo]
    sent.records, sent.echo = len(order), set()
    held = state.proofs.get(branch_id, {})
    proofs = list(islice(held, sent.proofs.get(branch_id, 0), None))
    sent.proofs[branch_id] = len(held)
    ousted = sorted(state.ousted.items() - sent.ousted)
    sent.ousted.update(ousted)
    # spent only grows, so what was sent is a subset and equal sizes mean nothing new
    spent = sorted(state.spent - sent.spent) if len(sent.spent) < len(state.spent) else []
    sent.spent.update(spent)
    return canonical_encode([b"gossip", headers, wraps, proofs, records, ousted, spent])


def _header_text(peer: Peer, branch: Branch) -> str:
    """The branch's header text, written again only when its fingerprint moved."""
    print_ = branch.fingerprint()
    memo = peer.headers.get(branch.branch_id)
    if memo is None or memo[0] != print_:
        memo = peer.headers[branch.branch_id] = (print_, branch.header_text())
    return memo[1]


def receive_gossip(world: World, peer: Peer, payload: bytes, sender: str):
    """Apply a gossip payload, noting its records as held by sender; one that
    is not the gossip list raises SimError before any of it applies."""
    state = peer.state
    try:
        tag, headers, wraps, proofs, records, ousted, spent = canonical_decode(payload)
        wellformed = (tag == b"gossip" and all(type(x) is list for x in (headers, wraps, proofs, records, ousted, spent))
                      and all(type(x) is str for x in headers) and all(type(x) is bytes for x in records)
                      and all(type(pair) is list and len(pair) == 2 for pair in ousted)
                      and all(type(cid) is ContentId for cid in spent + [cid for pair in ousted for cid in pair]))
    except (CodecError, TypeError, ValueError) as exc:
        raise SimError(f"malformed gossip payload: {exc}") from exc
    if not wellformed:
        raise SimError("malformed gossip payload: a field of the wrong type")
    held = [state.store.put(record) for record in records]
    peer.shipped.setdefault(sender, Shipped()).echo.update(held)
    for wrap in wraps:
        if isinstance(wrap, SproutWrap):
            state.wraps.setdefault(wrap.sprout, wrap)
    for proof in proofs:
        if isinstance(proof, ContributionProof):
            state.add_proof(proof)
    for sprout, reference in ousted:
        state.ousted.setdefault(sprout, reference)
    state.spent.update(spent)
    changed = False
    for header_text in headers:
        adopted, waiting = adopt_header(state, header_text)
        changed |= adopted
        if waiting:
            peer.pending_headers[waiting] = header_text
    # new records may unlock headers buffered from earlier out-of-order gossip
    for key in list(peer.pending_headers):
        adopted, waiting = adopt_header(state, peer.pending_headers[key])
        changed |= adopted
        if not waiting:
            del peer.pending_headers[key]
    if changed:
        world.flush_gossip(peer.name)


def adopt_header(state: ProtocolState, header_text: str) -> tuple[bool, str | None]:
    """Join a remote branch header into the local state.

    Equal heads union their consensus entries; otherwise the head of the
    longer chain wins, then the larger head id, and is adopted wholesale: a
    remote head that extends the local chain always wins, and a stale one (an
    ancestor of the local head) never does.  Returns (changed, waiting): for a
    header whose chain down to the singularity misses a record, waiting is
    the key (branch id and head in hex) to hold it under until the record
    arrives, else None.  A header that does not read or can never resolve (a
    null head, a record in its chain that is not a submit or does not
    decode, or a cycle) is ignored.
    """
    try:
        remote = branch_header_from_json(json.loads(header_text))
    except (ValueError, BranchError):  # not JSON, or not a header
        return False, None
    if remote.stable_head.is_null():
        return False, None
    local = state.branches.get(remote.branch_id)
    same = local is not None and local.stable_head == remote.stable_head
    if not same:  # equal heads need no walk
        try:
            depth = _chain_depth(state.store, remote.stable_head)
        except MissingRecord:
            return False, remote.branch_id.hex + remote.stable_head.hex
        except (IntegrityError, CodecError):
            return False, None
    if local is None:
        state.add_branch(remote)
        return True, None
    before = local.fingerprint()
    if same:
        for entry in remote.sprout_selection:
            local.add_signals(entry.sprout, entry.vetoes, entry.votes)
        local.sprouts |= remote.sprouts
        for token in remote.branch_token:
            if token not in local.branch_token:
                local.branch_token.append(token)
        local.stale = local.stale or remote.stale
        if local.parent_branch.is_null() and not remote.parent_branch.is_null():
            local.parent_branch = remote.parent_branch
            local.config = remote.config
        elif local.config != remote.config:  # the config with the lesser JSON text
            local.config = min(local.config, remote.config, key=lambda c: json.dumps(c.to_json(), sort_keys=True))
    elif (depth, remote.stable_head) > (_chain_depth(state.store, local.stable_head), local.stable_head):
        _adopt_fields(local, remote)
    changed = local.fingerprint() != before
    if changed:
        state.touch(local.branch_id)
    return changed, None


def _chain_depth(store: Store, head: ContentId) -> int:
    """The number of submits from head down to the singularity.  The walk
    stops at the first submit in the store's depth memo and records those it
    passed; it raises as ancestry does, and then records nothing."""
    memo = store.depth
    chain = list(ancestry(store, head, memo))
    base = memo[chain[-1][1].parent if chain else head]
    for depth, (cid, _) in enumerate(reversed(chain), base + 1):
        memo[cid] = depth
    return memo[head]


def _adopt_fields(local: Branch, remote: Branch):
    local.stable_head = remote.stable_head
    local.sprout_selection = list(remote.sprout_selection)
    local.sprouts = set(remote.sprouts)
    local.branch_token = list(remote.branch_token)
    local.config = remote.config
    local.stale = remote.stale
    if local.parent_branch.is_null() and not remote.parent_branch.is_null():
        local.parent_branch = remote.parent_branch


# -- branch requests ---------------------------------------------------------


def route_request(world: World, src_peer: str, branch_id: ContentId, channel: str, body: bytes) -> set[str]:
    """Send a branch request to every online peer hosting an identity that
    contributes to the branch (direct contributor lookup in place of DHT
    routing)."""
    sender = world.peers[src_peer]
    if branch_id not in sender.state.branches:
        world.log(world.tick, BRANCH_REQUEST, src_peer, "-", f"drop-untracked {branch_id.hex[:10]}")
        return set()
    hosts = {world.hosts.get(key) for key in sender.state.contributors(branch_id).all_keys()}
    recipients = {host for host in hosts - {None, src_peer} if world.peers[host].online}
    payload = canonical_encode([b"request", branch_id, channel, body])
    for name in sorted(recipients):
        world.emit(BRANCH_REQUEST, src_peer, name, payload, f"{channel} {branch_id.hex[:10]}")
    return recipients


def receive_branch_request(world: World, peer: Peer, payload: bytes):
    """Stage a routed request; a payload of another shape raises SimError."""
    try:
        tag, branch_id, channel, body = canonical_decode(payload)
    except (CodecError, TypeError, ValueError) as exc:
        raise SimError(f"malformed branch request: {exc}") from exc
    if not (tag == b"request" and type(branch_id) is ContentId and channel in CHANNELS and type(body) is bytes):
        raise SimError("malformed branch request: a field of the wrong type")
    verdict = peer.state.requests_for(branch_id).enqueue(channel, body)
    if not verdict.accepted:
        world.log(world.tick, BRANCH_REQUEST, peer.name, peer.name, f"rejected {channel}: {verdict.reason}")
