import heapq
import json
import os
from collections import Counter
from dataclasses import replace

import pytest

import lakat.sim as sim
from lakat.bucket import create_atomic_bucket
from lakat.codec import NULL_ID, CodecError, canonical_decode, canonical_encode, content_id
from lakat.identity import KeyIdentity, make_contribution_proof
from lakat.branch import Branch, BranchError, IntegrityError, ancestry, branch_header_from_json, get_submit
from lakat.ops import create_genesis_branch, create_rooted_branch
from lakat.review import twig_push
from lakat.scenario import Runner, parse_scenario
from lakat.sim import BRANCH_REQUEST, GOSSIP, SimConfig, SimError, SimEvent, World, receive_gossip, route_request
from lakat.state import build_content_submit
from lakat.state import ProtocolState
from lakat.store import MemoryStore, MissingRecord
from conftest import proper_config, tick, twig_config
from fuzz_driver import FuzzRun, churn_schedule


def make_world(peers=("p1", "p2", "p3"), seed=0, latency=("fixed", 1), schedule=()):
    return World(SimConfig(seed, latency, schedule), list(peers))


def create_on(world, peer_name, config=None, creator=None, message=None):
    peer = world.peers[peer_name]
    identity = creator if creator is not None else peer.identity
    branch = create_genesis_branch(
        peer.state, config or twig_config(), identity, world.now(), message=message
    )
    world.flush_gossip(peer_name)
    return branch


def push_on(world, peer_name, branch_id, identity, payload):
    peer = world.peers[peer_name]
    branch = peer.state.branches[branch_id]
    submit = build_content_submit(peer.state, branch, identity, "content", world.now(), [payload])
    verdict, cid = twig_push(peer.state, branch_id, submit, identity.public_key)
    assert verdict.ok, verdict
    peer.state.add_proof(make_contribution_proof(identity, branch_id, "content", cid))
    world.flush_gossip(peer_name)
    return cid


def gossip_payload(headers=(), records=(), ousted=(), spent=()):
    """A hand-built gossip payload: tag, headers, wraps, proofs, records, ousted, spent."""
    return canonical_encode([b"gossip", headers, [], [], records, ousted, spent])


# -- time -----------------------------------------------------------------------


def test_initial_tick_zero():
    world = make_world()
    assert world.now().tick == 0
    assert world.now().anchor is None


def test_tick_monotone_across_steps():
    world = make_world()
    create_on(world, "p1")
    ticks = [world.tick]
    while world.step():
        ticks.append(world.tick)
    assert ticks == sorted(ticks)


def test_submit_timestamps_match_creation_tick():
    """Transcript audit: submits carry the tick of the event that made them."""
    world = make_world()
    branch = create_on(world, "p1")
    world.run_until(5)
    cid = push_on(world, "p1", branch.branch_id, world.peers["p1"].identity, b"x")
    submit = get_submit(world.peers["p1"].state.store, cid)
    assert submit.timestamp.tick == 5


# -- event processing ---------------------------------------------------------------


def test_empty_queue_is_fixpoint():
    world = make_world()
    assert not world.step()
    world.run_until_quiescent()
    assert world.tick == 0


def test_single_event_single_transition():
    world = make_world(peers=("p1", "p2"))
    create_on(world, "p1")
    assert len(world.queue) == 1 and world.queue[0].dst == "p2"
    assert world.step()
    assert not world.queue or world.queue[0].src == "p2"


def drain(world):
    """Pop the whole queue in processing order."""
    return [heapq.heappop(world.queue) for _ in range(len(world.queue))]


def test_same_tick_events_order_by_their_fields_regardless_of_insertion():
    """Permuted insertion yields one processing order: tick, then kind,
    source, destination and summary."""
    emits = [
        (2, GOSSIP, "p1", "p2", "bravo"),
        (1, GOSSIP, "p2", "p1", "alpha"),
        (1, GOSSIP, "p1", "p3", "alpha"),
        (1, BRANCH_REQUEST, "p3", "p1", "charlie"),
        (1, GOSSIP, "p1", "p2", "bravo"),
        (1, GOSSIP, "p1", "p2", "alpha"),
    ]

    def order(emits):
        world = make_world()
        for tick, kind, src, dst, summary in emits:
            world.tick = tick - 1
            world.emit(kind, src, dst, summary.encode(), summary)
        return [(e.deliver_tick, e.kind, e.src, e.dst, e.summary) for e in drain(world)]

    assert order(emits) == order(list(reversed(emits))) == sorted(emits)


def test_events_with_equal_fields_run_in_emission_order_whatever_their_payload():
    """Only emission order separates events that agree on every field, so
    changing their payload bytes leaves the processing order unchanged."""
    def order(payloads):
        world = make_world()
        for payload in payloads:
            world.emit(GOSSIP, "p1", "p2", payload, "same")
        return [(e.seq, e.payload) for e in drain(world)]

    assert order([b"zulu", b"alpha"]) == [(1, b"zulu"), (2, b"alpha")]
    assert order([b"alpha", b"zulu"]) == [(1, b"alpha"), (2, b"zulu")]


def test_identical_runs_identical_transcripts():
    def run():
        world = make_world()
        branch = create_on(world, "p1")
        world.run_until(3)
        push_on(world, "p1", branch.branch_id, world.peers["p1"].identity, b"data")
        world.run_until_quiescent()
        return world.transcript_hash()

    assert run() == run()


def test_seed_changes_transcript():
    def run(seed):
        world = make_world(seed=seed, latency=("uniform", 1, 4))
        branch = create_on(world, "p1")
        world.run_until(4)
        push_on(world, "p1", branch.branch_id, world.peers["p1"].identity, b"data")
        world.run_until_quiescent()
        return world.transcript_hash()

    assert run(1) != run(2)


def test_no_event_loss_or_duplication():
    """Every emitted event is delivered exactly once while peers stay online."""
    world = make_world()
    branch = create_on(world, "p1")
    world.run_until_quiescent()
    emitted = world.seq
    delivered = sum(1 for line in world.transcript if "gossip_state" in line and "dropped" not in line)
    assert delivered == emitted


# -- gossip ----------------------------------------------------------------------


def test_head_advance_converges_to_same_header():
    world = make_world()
    branch = create_on(world, "p1")
    world.run_until_quiescent()
    push_on(world, "p1", branch.branch_id, world.peers["p1"].identity, b"payload")
    world.run_until_quiescent()
    headers = {
        peer.state.branches[branch.branch_id].header_text()
        for peer in world.peers.values()
    }
    assert len(headers) == 1


def test_no_change_no_events():
    world = make_world()
    create_on(world, "p1")
    world.run_until_quiescent()
    queue_before = len(world.queue)
    world.flush_gossip("p1")  # nothing changed since last flush
    assert len(world.queue) == queue_before


def test_concurrent_divergent_wraps_union_in_selection():
    """Two peers wrap different merge submits; all peers end with both."""
    from lakat.lignify import wrap_merge_in_sprout
    from lakat.branch import Submit, SubmitTrace
    from lakat.codec import NULL_ID

    world = make_world()
    p1, p2 = world.peers["p1"], world.peers["p2"]
    core = create_on(world, "p1", config=proper_config(lignification_time=50,
                                                       engagement_time=60,
                                                       broadcasting_buffer=2))
    world.run_until_quiescent()
    # p2 knows the branch now; both wrap concurrently at the same head
    for peer, label in ((p1, "mA"), (p2, "mB")):
        state = peer.state
        head = state.branches[core.branch_id].stable_head
        submit = Submit(head, label, NULL_ID,
                        SubmitTrace(merged_branch=content_id(label.encode()), belt_tip=head),
                        world.now())
        cid = state.store.put_object(submit)
        wrap_merge_in_sprout(state, cid, peer.identity.public_key, content_id(b"req"),
                             core.branch_id, world.now())
        world.flush_gossip(peer.name)
    world.run_until_quiescent()
    selections = set()
    for peer in world.peers.values():
        entries = frozenset(e.sprout for e in peer.state.branches[core.branch_id].sprout_selection)
        selections.add(entries)
    assert len(selections) == 1
    assert len(next(iter(selections))) == 2


def test_twig_fork_resolves_deterministically():
    """Concurrent pushes by two peers: everyone settles on one head."""
    world = make_world(peers=("p1", "p2"))
    p1, p2 = world.peers["p1"], world.peers["p2"]
    branch = create_on(world, "p1")
    world.run_until_quiescent()
    # make p2's identity a contributor on both replicas
    for peer in (p1, p2):
        peer.state.add_proof(make_contribution_proof(
            p2.identity, branch.branch_id, "content", branch.initial_head))
    first = push_on(world, "p1", branch.branch_id, p1.identity, b"from p1")
    second = push_on(world, "p2", branch.branch_id, p2.identity, b"from p2")
    world.run_until_quiescent()
    heads = {peer.state.branches[branch.branch_id].stable_head for peer in world.peers.values()}
    # equal chain lengths: the larger head id wins
    assert heads == {max(first, second)}


def test_header_that_can_never_resolve_is_dropped():
    """A header whose stable head names a bucket, bytes that decode to
    nothing, or the null id is dropped instead of raising or waiting, for a
    known branch and for an unknown one; so is a header that does not read.
    A payload that is not the gossip list raises SimError."""
    world = make_world(peers=("p1", "p2"))
    p2 = world.peers["p2"]
    branch = create_on(world, "p1")
    world.run_until_quiescent()
    held = p2.state.branches[branch.branch_id].stable_head
    hostile = MemoryStore()
    _, bucket = create_atomic_bucket(hostile, hostile.put(b"creator"), NULL_ID, b"x", [], world.now())
    garbage = hostile.put(b"\xff not a record")
    records = [hostile.get(cid) for cid in hostile.ids()]
    unknown = content_id(b"unknown branch")
    for branch_id in (branch.branch_id, unknown):
        for head in (bucket, garbage, NULL_ID):
            data = branch.header_json()
            data["branch_id"] = branch_id.hex
            data["stable_head"] = head.hex
            header = json.dumps(data, sort_keys=True)
            receive_gossip(world, p2, gossip_payload([header], records), "p1")
            assert p2.state.branches[branch.branch_id].stable_head == held
            assert unknown not in p2.state.branches
            assert branch_id.hex + head.hex not in p2.pending_headers
    for header in ("{}", '{"branch_id": 5}', "not json"):
        receive_gossip(world, p2, gossip_payload([header]), "p1")
        assert p2.state.branches[branch.branch_id].stable_head == held and not p2.pending_headers
    for payload in (canonical_encode([b"gossip", []]), gossip_payload([5]), gossip_payload(records=["record"]),
                    gossip_payload(spent=["zz"]), canonical_encode(b"gossip"),
                    gossip_payload(spent=[branch.branch_id.hex]), gossip_payload(ousted=[[branch.branch_id]]),
                    gossip_payload(spent=branch.branch_id)):
        with pytest.raises(SimError):
            receive_gossip(world, p2, payload, "p1")
    with pytest.raises(SimError):
        receive_gossip(world, p2, b"\xff", "p1")
    assert len(p2.state.contributors(branch.branch_id).all_keys()) == 1


def test_header_waits_for_its_records_then_is_adopted():
    world = make_world(peers=("p1", "p2"))
    p1, p2 = world.peers["p1"], world.peers["p2"]
    branch = create_on(world, "p1")
    world.run_until_quiescent()
    held = set(p2.state.store.ids())
    head = push_on(world, "p1", branch.branch_id, p1.identity, b"late")
    header = p1.state.branches[branch.branch_id].header_text()
    key = branch.branch_id.hex + head.hex
    receive_gossip(world, p2, gossip_payload([header]), "p1")
    assert p2.pending_headers == {key: header}
    assert p2.state.branches[branch.branch_id].stable_head != head
    missing = [p1.state.store.get(cid) for cid in p1.state.store.ids() if cid not in held]
    receive_gossip(world, p2, gossip_payload(records=missing), "p1")
    assert not p2.pending_headers
    assert p2.state.branches[branch.branch_id].stable_head == head


# -- routing ----------------------------------------------------------------------


def test_route_reaches_all_online_contributors():
    world = make_world()
    p1 = world.peers["p1"]
    branch = create_on(world, "p1")
    world.run_until_quiescent()
    # all three peer identities become contributors in p1's view
    for peer in world.peers.values():
        p1.state.add_proof(make_contribution_proof(
            peer.identity, branch.branch_id, "content", branch.initial_head))
    recipients = route_request(world, "p1", branch.branch_id, "submit_requests", b"body")
    assert recipients == {"p2", "p3"}
    world.run_until_quiescent()
    for name in ("p2", "p3"):
        assert world.peers[name].state.requests_for(branch.branch_id).size("submit_requests") == 1


def test_route_excludes_offline_until_rejoin():
    world = make_world(schedule=((2, "p3", "leave"), (10, "p3", "join")))
    p1 = world.peers["p1"]
    branch = create_on(world, "p1")
    world.run_until(1)
    for peer in world.peers.values():
        p1.state.add_proof(make_contribution_proof(
            peer.identity, branch.branch_id, "content", branch.initial_head))
    world.run_until(3)  # p3 left at tick 2
    recipients = route_request(world, "p1", branch.branch_id, "pull_requests", b"req")
    assert recipients == {"p2"}
    # p1 pushes while p3 is away; p3 catches up through the join sync
    push_on(world, "p1", branch.branch_id, p1.identity, b"while away")
    world.run_until(20)
    world.run_until_quiescent()
    p3_branch = world.peers["p3"].state.branches.get(branch.branch_id)
    assert p3_branch is not None
    assert p3_branch.header_text() == p1.state.branches[branch.branch_id].header_text()


# -- schedule ---------------------------------------------------------------------


@pytest.mark.parametrize("entry", [
    (3, "p9", "join"),
    (3, "p2", "pause"),
    (-1, "p2", "leave"),
    (1.5, "p2", "leave"),
    ("3", "p2", "leave"),
    (True, "p2", "leave"),
])
def test_bad_schedule_entry_refused_up_front(entry):
    with pytest.raises(SimError, match="bad schedule entry") as caught:
        make_world(schedule=((0, "p1", "leave"), entry))
    assert repr(entry) in str(caught.value)


@pytest.mark.parametrize("latency", [
    ("uniform", 5, 2),
    ("fixed", "1"),
    ("fixed", True),
    ("fixed", 1.0),
    ("fixed",),
    ("uniform", 1, 2, 3),
    ("poisson", 1),
    ["fixed", 1],
])
def test_bad_latency_refused_up_front(latency):
    with pytest.raises(SimError, match="bad latency") as caught:
        make_world(latency=latency)
    assert repr(latency) in str(caught.value)


@pytest.mark.parametrize("latency", [("fixed", 0), ("fixed", -4), ("uniform", -3, 0), ("uniform", 0, 0)])
def test_latency_below_one_tick_is_clamped_to_one(latency):
    world = make_world(latency=latency)
    for _ in range(5):
        world.emit(GOSSIP, "p1", "p2", b"", "probe")
    assert {event.deliver_tick for event in world.queue} == {1}


def tick_of(line):
    return int(line.split(" ", 1)[0])


def test_join_inside_a_run_until_window_syncs_before_later_actions():
    world = make_world(schedule=((0, "p2", "leave"), (3, "p2", "join")))
    branch = create_on(world, "p1")
    world.run_until(6)
    assert not world.queue
    assert branch.branch_id in world.peers["p2"].state.branches
    world.action("p3", "after the join")
    syncs = [i for i, line in enumerate(world.transcript)
             if line.startswith("4 gossip_state") and " sync " in line]
    assert len(syncs) == 2
    assert max(syncs) < world.transcript.index("6 scenario_action p3 p3 after the join")
    ticks = [tick_of(line) for line in world.transcript]
    assert ticks == sorted(ticks)


def test_join_applies_before_a_later_message_is_delivered():
    world = make_world(schedule=((0, "p2", "leave"), (3, "p2", "join")))
    branch = create_genesis_branch(world.peers["p1"].state, twig_config(), world.peers["p1"].identity, world.now())
    late = gossip_payload()
    heapq.heappush(world.queue, SimEvent(10, GOSSIP, "p1", "p3", "late", 0, late))
    world.run_until_quiescent()
    sync = world.transcript.index(f"4 gossip_state p1 p2 sync {branch.branch_id.hex[:10]}")
    assert sync < world.transcript.index("10 gossip_state p1 p3 late")
    ticks = [tick_of(line) for line in world.transcript]
    assert ticks == sorted(ticks)


def test_work_done_offline_ships_after_the_join():
    world = make_world(schedule=((1, "p2", "leave"), (5, "p2", "join")))
    world.run_until(2)
    branch = create_on(world, "p2")  # p2 is away: its flush keeps the marks
    assert not any(event.kind == GOSSIP for event in world.queue)
    world.run_until_quiescent()
    for name in ("p1", "p3"):
        held = world.peers[name].state.branches.get(branch.branch_id)
        assert held is not None and held.header_text() == branch.header_text()


def test_request_for_unknown_branch_dropped_with_log():
    world = make_world()
    ghost = content_id(b"ghost branch")
    recipients = route_request(world, "p1", ghost, "submit_requests", b"x")
    assert recipients == set()
    assert any("drop-untracked" in line for line in world.transcript)


def test_capacity_rejection_logged_not_crashing():
    world = make_world(peers=("p1", "p2"))
    p1 = world.peers["p1"]
    branch = create_on(world, "p1")
    world.run_until_quiescent()
    p1.state.add_proof(make_contribution_proof(
        world.peers["p2"].identity, branch.branch_id, "content", branch.initial_head))
    world.peers["p2"].state.requests_for(branch.branch_id).capacities["submit_requests"] = 1
    for _ in range(3):
        route_request(world, "p1", branch.branch_id, "submit_requests", b"x")
    world.run_until_quiescent()
    assert world.peers["p2"].state.requests_for(branch.branch_id).size("submit_requests") == 1
    assert any("rejected submit_requests" in line for line in world.transcript)


@pytest.mark.parametrize("payload", [
    canonical_encode([b"request"]),
    b"\xff",
    canonical_encode(5),
    canonical_encode([b"request", b"not a content id", "submit_requests", b"x"]),
    canonical_encode([b"gossip", content_id(b"b"), "submit_requests", b"x"]),
    canonical_encode([b"request", content_id(b"b"), "mempool", b"x"]),
    canonical_encode([b"request", content_id(b"b"), ["submit_requests"], b"x"]),
    canonical_encode([b"request", content_id(b"b"), "submit_requests", "x"]),
], ids=["short", "undecodable", "not-a-list", "raw-branch-id", "wrong-tag", "unknown-channel", "channel-list",
        "text-body"])
def test_malformed_branch_request_refused_before_touching_state(payload):
    world = make_world()
    with pytest.raises(SimError, match="malformed branch request"):
        sim.receive_branch_request(world, world.peers["p2"], payload)
    assert world.peers["p2"].state.requests == {}


def test_fuzz_run_that_routes_no_request_builds_no_channels():
    run = FuzzRun(42).run(1_500)
    assert not any(line.split(" ")[1] == BRANCH_REQUEST for line in run.world.transcript)
    assert all(peer.state.requests == {} for peer in run.world.peers.values())


def test_fig5a_builds_channels_only_where_a_routed_request_arrived(monkeypatch):
    reached, receive = set(), sim.receive_branch_request

    def tapped(world, peer, payload):
        reached.add((peer.name, canonical_decode(payload)[1]))
        receive(world, peer, payload)

    monkeypatch.setattr(sim, "receive_branch_request", tapped)
    with open(os.path.join(os.path.dirname(__file__), "..", "scenarios", "fig5a.json")) as fh:
        runner = Runner(parse_scenario(fh.read()))
    runner.run()
    built = {(name, branch_id) for name, peer in runner.world.peers.items() for branch_id in peer.state.requests}
    assert reached and built == reached
    assert sum(len(peer.state.branches) for peer in runner.world.peers.values()) > len(built)


# -- gossip deltas ------------------------------------------------------------------


def tap_gossip(monkeypatch):
    """Record (sender, receiver, ousted pairs, spent ids) of every gossip payload built."""
    shipped, build = [], sim.build_gossip_payload

    def tapped(peer, branch_id, receiver):
        payload = build(peer, branch_id, receiver)
        ousted, spent = canonical_decode(payload)[5:]
        shipped.append((peer.name, receiver, [tuple(pair) for pair in ousted], spent))
        return payload

    monkeypatch.setattr(sim, "build_gossip_payload", tapped)
    return shipped


def test_each_spent_id_ships_once_per_ordered_pair(monkeypatch):
    shipped = tap_gossip(monkeypatch)
    run = FuzzRun(42).run(3_000)
    spent = [peer.state.spent for peer in run.world.peers.values()]
    assert spent[0] and spent.count(spent[0]) == 3
    sends = Counter((src, dst, cid) for src, dst, _, ids in shipped for cid in ids)
    assert set(sends.values()) == {1}
    assert {cid for _, _, cid in sends} == spent[0]
    assert len(sends) == 6 * len(spent[0])


def test_fig5b_ships_its_ousted_pair_once_per_ordered_pair(monkeypatch):
    shipped = tap_gossip(monkeypatch)
    with open(os.path.join(os.path.dirname(__file__), "..", "scenarios", "fig5b.json")) as fh:
        runner = Runner(parse_scenario(fh.read()))
    runner.run()
    ousted = [peer.state.ousted for peer in runner.world.peers.values()]
    assert len(ousted[0]) == 1 and ousted.count(ousted[0]) == 3
    sends = Counter((src, dst, pair) for src, dst, pairs, _ in shipped for pair in pairs)
    assert sends == Counter((src, dst, pair) for src in runner.world.peers for dst in runner.world.peers
                            if src != dst for pair in ousted[0].items())


def test_a_join_ships_the_joiner_every_spent_id_again(monkeypatch):
    shipped = tap_gossip(monkeypatch)
    syncs, sync = [], World._sync_joiner

    def tapped_sync(world, joiner):
        start = len(shipped)
        held = {name: set(peer.state.spent) for name, peer in world.peers.items() if peer.online}
        sync(world, joiner)
        syncs.append((joiner, held, shipped[start:]))

    monkeypatch.setattr(World, "_sync_joiner", tapped_sync)
    FuzzRun(42, ((200, "p2", "leave"), (210, "p2", "join"))).run(1_000)
    [(joiner, held, sent)] = syncs
    for src in ("p1", "p3"):
        assert held[src] and {cid for s, dst, _, ids in sent if (s, dst) == (src, joiner) for cid in ids} == held[src]


class GossipTap:
    """Records, through one run, every gossip payload built (sender,
    receiver, record ids, proofs) and received (receiver, sender, record ids)
    in the order they happened, every header text written (the branch object
    and its fingerprint), the submits sim's walks yield, and each adoption
    beside the reference rule's verdict on the same state."""

    def __init__(self, mp):
        self.events, self.writes, self.adoptions, self.walked = [], [], [], 0
        build, receive, adopt, walk, write = (sim.build_gossip_payload, sim.receive_gossip, sim.adopt_header,
                                              sim.ancestry, Branch.header_text)

        def built(peer, branch_id, receiver):
            payload = build(peer, branch_id, receiver)
            _, _, _, proofs, records = canonical_decode(payload)[:5]
            self.events.append(("build", peer.name, receiver, [content_id(r) for r in records], proofs))
            return payload

        def received(world, peer, payload, sender):
            records = canonical_decode(payload)[4]
            self.events.append(("receive", peer.name, sender, [content_id(r) for r in records], []))
            return receive(world, peer, payload, sender)

        def adopted(state, header_text):
            expected, reference, case = reference_adopt(state.store, state.branches, header_text)
            got = adopt(state, header_text)
            after = None if reference is None else state.branches.get(reference.branch_id)
            self.adoptions.append((case, got == expected and _print(after) == _print(reference)))
            return got

        def walking(*args):
            for step in walk(*args):
                self.walked += 1
                yield step

        def written(branch):
            self.writes.append((branch, branch.fingerprint()))
            return write(branch)

        for owner, name, wrapper in ((sim, "build_gossip_payload", built), (sim, "receive_gossip", received),
                                     (sim, "adopt_header", adopted), (sim, "ancestry", walking),
                                     (Branch, "header_text", written)):
            mp.setattr(owner, name, wrapper)


def _print(branch):
    return None if branch is None else branch.fingerprint()


def reference_adopt(store, branches, header_text):
    """adopt_header's rule as it was before chain lengths were memoised: walk
    the remote chain down to the local head or the singularity, and for a
    head that does not extend the local one walk the local chain too.  Works
    on a copy of the local branch, so it changes nothing; returns ((changed,
    waiting), the branch as it would be afterwards, the case taken)."""
    try:
        remote = branch_header_from_json(json.loads(header_text))
    except (ValueError, BranchError):
        return (False, None), None, "ignored"
    local = branches.get(remote.branch_id)
    if local is not None:
        local = replace(local, sprouts=set(local.sprouts), sprout_selection=list(local.sprout_selection),
                        branch_token=list(local.branch_token))
    if remote.stable_head.is_null():
        return (False, None), local, "ignored"
    stop = () if local is None else (local.stable_head,)
    try:
        remote_chain = list(ancestry(store, remote.stable_head, stop))
    except MissingRecord:
        return (False, remote.branch_id.hex + remote.stable_head.hex), local, "waiting"
    except (IntegrityError, CodecError):
        return (False, None), local, "ignored"
    if local is None:
        return (True, None), remote, "new"
    before = local.fingerprint()
    if local.stable_head == remote.stable_head:
        case = "equal"
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
        elif local.config != remote.config:
            local.config = min(local.config, remote.config, key=lambda c: json.dumps(c.to_json(), sort_keys=True))
    elif remote_chain[-1][1].parent == local.stable_head:
        case = "extend"
        sim._adopt_fields(local, remote)
    else:
        local_chain = list(ancestry(store, local.stable_head, (remote.stable_head,)))
        case = "stale" if local_chain[-1][1].parent == remote.stable_head else "diverged"
        if case == "diverged" and (len(remote_chain), remote.stable_head) > (len(local_chain), local.stable_head):
            sim._adopt_fields(local, remote)
    return (local.fingerprint() != before, None), local, case


@pytest.fixture(scope="module")
def tapped():
    """FuzzRun(42) at 3,000 events, and churn seed 3 at 1,500, each tapped."""
    runs = {}
    for name, run, events in (("fuzz", FuzzRun(42), 3_000), ("churn", FuzzRun(3, churn_schedule(3)), 1_500)):
        with pytest.MonkeyPatch.context() as mp:
            tap = GossipTap(mp)
            run.run(events)
        runs[name] = run, tap
    return runs


@pytest.mark.parametrize("name", ["fuzz", "churn"])
def test_every_adoption_matches_the_walk_rule_it_replaced(tapped, name):
    """Same (changed, waiting) and same branch afterwards as the reference
    rule, for every adoption of the run; and each walk passes a submit about
    once per peer (exactly once without churn, where no header waits)."""
    run, tap = tapped[name]
    assert tap.adoptions and all(same for _, same in tap.adoptions)
    cases = {case for case, _ in tap.adoptions}
    assert {"new", "equal", "extend"} <= cases and (name == "fuzz" or {"stale", "waiting"} <= cases)
    submits = sum(len(peer.state.store.depth) - 1 for peer in run.world.peers.values())
    assert tap.walked == submits if name == "fuzz" else submits <= tap.walked <= 1.05 * submits


@pytest.mark.parametrize("pushes", [(1, 1), (2, 1), (1, 3)])
def test_divergent_twig_pushes_adopt_as_the_walk_rule_did(monkeypatch, pushes):
    tap = GossipTap(monkeypatch)
    world = make_world(peers=("p1", "p2"))
    p1, p2 = world.peers["p1"], world.peers["p2"]
    branch = create_on(world, "p1")
    world.run_until_quiescent()
    for peer in (p1, p2):
        peer.state.add_proof(make_contribution_proof(p2.identity, branch.branch_id, "content", branch.initial_head))
    tips = []
    for peer, count in zip((p1, p2), pushes):
        for n in range(count):
            head = push_on(world, peer.name, branch.branch_id, peer.identity, b"%s %d" % (peer.name.encode(), n))
        tips.append((count, head))
    world.run_until_quiescent()
    assert "diverged" in {case for case, _ in tap.adoptions} and all(same for _, same in tap.adoptions)
    assert {peer.state.branches[branch.branch_id].stable_head for peer in (p1, p2)} == {max(tips)[1]}


def test_no_payload_carries_a_record_back_to_the_peer_it_came_from(tapped):
    run, tap = tapped["fuzz"]
    since, received, echoed = {}, 0, 0  # (peer, other) -> ids peer got from other since its last payload to other
    for kind, peer, other, ids, _ in tap.events:
        if kind == "receive":
            since.setdefault((peer, other), set()).update(ids)
            received += len(ids)
        else:
            echoed += len(since.pop((peer, other), set()).intersection(ids))
    assert received and not echoed


def test_each_record_ships_once_to_each_peer_that_lacks_it_and_once_onward(tapped):
    """Without churn every record ships (n - 1)**2 times: from its origin to
    each other peer, and from each of those to the peers but the origin."""
    run, tap = tapped["fuzz"]
    sends = Counter(cid for kind, _, _, ids, _ in tap.events if kind == "build" for cid in ids)
    stores = [set(peer.state.store.ids()) for peer in run.world.peers.values()]
    assert stores.count(stores[0]) == 3 and set(sends) == stores[0]
    assert set(sends.values()) == {(len(stores) - 1) ** 2}


def test_each_proof_ships_once_per_ordered_pair(tapped):
    run, tap = tapped["fuzz"]
    proofs = [{proof for held in peer.state.proofs.values() for proof in held} for peer in run.world.peers.values()]
    assert proofs[0] and proofs.count(proofs[0]) == 3
    sends = Counter((src, dst, proof) for kind, src, dst, _, shipped in tap.events if kind == "build"
                    for proof in shipped)
    assert set(sends.values()) == {1}
    assert {proof for _, _, proof in sends} == proofs[0]
    assert len(sends) == 6 * len(proofs[0])


@pytest.mark.parametrize("name", ["fuzz", "churn"])
def test_each_header_text_is_written_once_per_peer_branch_and_fingerprint(tapped, name):
    run, tap = tapped[name]
    owner = {id(branch): name for name, peer in run.world.peers.items() for branch in peer.state.branches.values()}
    writes = Counter((owner[id(branch)], branch.branch_id, print_) for branch, print_ in tap.writes)
    assert writes and set(writes.values()) == {1}


# -- adoption by chain length -----------------------------------------------------


@pytest.fixture
def adoption(monkeypatch):
    """A state holding one twig at its genesis submit, and the list of ids sim's walks yield."""
    state = ProtocolState(MemoryStore())
    branch = create_genesis_branch(state, twig_config(), KeyIdentity.from_seed(b"adopter"), tick(0))
    walked, walk = [], sim.ancestry

    def counted(*args):
        for step in walk(*args):
            walked.append(step[0])
            yield step

    monkeypatch.setattr(sim, "ancestry", counted)
    return state, branch, walked


def grow(state, branch, parent, tag, length, skip=()):
    """length submits on parent (copies of the branch's first submit), oldest
    first; the store gets all but those whose index is in skip."""
    base, ids = get_submit(state.store, branch.initial_head), []
    for n in range(length):
        data = canonical_encode(replace(base, parent=parent, submit_message=f"{tag} {n}"))
        parent = content_id(data)
        if n not in skip:
            state.store.put(data)
        ids.append(parent)
    return ids


def offer(state, branch, head):
    """adopt_header of the branch's header moved to head, checked against the reference rule."""
    data = branch.header_json()
    data["stable_head"] = head.hex
    text = json.dumps(data, sort_keys=True)
    expected, after, _ = reference_adopt(state.store, state.branches, text)
    got = sim.adopt_header(state, text)
    assert got == expected and branch.fingerprint() == after.fingerprint()
    return got


def test_equal_heads_adopt_without_a_walk(adoption):
    """The reference rule walks with branch.ancestry, which the fixture does not count."""
    state, branch, walked = adoption
    assert offer(state, branch, branch.stable_head) == (False, None)
    assert walked == []


def test_an_extension_by_several_submits_walks_only_the_new_ones(adoption):
    state, branch, walked = adoption
    genesis = branch.stable_head
    first = grow(state, branch, genesis, "a", 3)
    assert offer(state, branch, first[-1]) == (True, None)
    assert branch.stable_head == first[-1] and walked == first[::-1] + [genesis]
    assert [state.store.depth[cid] for cid in [genesis] + first] == [1, 2, 3, 4]
    second = grow(state, branch, first[-1], "b", 2)
    walked.clear()
    assert offer(state, branch, second[-1]) == (True, None)
    assert branch.stable_head == second[-1] and walked == second[::-1]


def test_a_stale_header_changes_nothing_and_walks_nothing(adoption):
    state, branch, walked = adoption
    chain = [branch.stable_head] + grow(state, branch, branch.stable_head, "a", 3)
    assert offer(state, branch, chain[-1]) == (True, None)
    held = branch.fingerprint()
    walked.clear()
    for head in chain[:-1]:
        assert offer(state, branch, head) == (False, None)
    assert branch.fingerprint() == held and walked == []


def test_diverged_heads_resolve_to_the_longer_chain_then_the_larger_head_id(adoption):
    state, branch, _ = adoption
    fork = branch.stable_head
    ours = grow(state, branch, fork, "ours", 2)[-1]
    assert offer(state, branch, ours) == (True, None)
    shorter = grow(state, branch, fork, "short", 1)[-1]
    assert offer(state, branch, shorter) == (False, None)
    rivals = [grow(state, branch, fork, tag, 2)[-1] for tag in ("x", "j", "y")]  # as long as ours
    assert min(rivals) < ours < max(rivals)  # so the head id decides both ways
    for rival in rivals:
        held = branch.stable_head
        assert offer(state, branch, rival) == (rival > held, None)
    assert branch.stable_head == max([ours] + rivals)
    for head in sorted([ours] + rivals)[:-1]:
        assert offer(state, branch, head) == (False, None)
    longer = grow(state, branch, shorter, "long", 2)[-1]
    assert offer(state, branch, longer) == (True, None) and branch.stable_head == longer


def test_a_header_missing_a_record_mid_chain_waits_and_records_no_depth(adoption):
    state, branch, _ = adoption
    chain = grow(state, branch, branch.stable_head, "a", 3, skip=(1,))
    assert offer(state, branch, chain[-1]) == (False, branch.branch_id.hex + chain[-1].hex)
    assert not set(chain) & set(state.store.depth)
    grow(state, branch, branch.stable_head, "a", 3)
    assert offer(state, branch, chain[-1]) == (True, None) and branch.stable_head == chain[-1]


def test_a_cycle_or_a_record_that_is_no_submit_is_ignored(adoption):
    state, branch, _ = adoption
    loop = content_id(b"loop")
    state.store.put(canonical_encode(replace(get_submit(state.store, branch.initial_head), parent=loop)), loop)
    bad = [loop, state.store.put(canonical_encode("not a submit")), state.store.put(b"\xff")]
    tops = [grow(state, branch, under, "on", 2)[-1] for under in bad]
    for head in bad + tops:
        assert offer(state, branch, head) == (False, None)
    assert branch.stable_head == branch.initial_head and not set(bad + tops) & set(state.store.depth)
