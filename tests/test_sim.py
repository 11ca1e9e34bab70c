import heapq
import json
import os
from collections import Counter

import pytest

import lakat.sim as sim
from lakat.bucket import create_atomic_bucket
from lakat.codec import NULL_ID, canonical_decode, canonical_encode, content_id
from lakat.identity import make_contribution_proof
from lakat.branch import get_submit
from lakat.ops import create_genesis_branch, create_rooted_branch
from lakat.review import twig_push
from lakat.scenario import Runner, parse_scenario
from lakat.sim import BRANCH_REQUEST, GOSSIP, SimConfig, SimError, SimEvent, World, receive_gossip, route_request
from lakat.state import build_content_submit
from lakat.store import MemoryStore
from conftest import proper_config, twig_config
from fuzz_driver import FuzzRun


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
            receive_gossip(world, p2, gossip_payload([header], records))
            assert p2.state.branches[branch.branch_id].stable_head == held
            assert unknown not in p2.state.branches
            assert branch_id.hex + head.hex not in p2.pending_headers
    for header in ("{}", '{"branch_id": 5}', "not json"):
        receive_gossip(world, p2, gossip_payload([header]))
        assert p2.state.branches[branch.branch_id].stable_head == held and not p2.pending_headers
    for payload in (canonical_encode([b"gossip", []]), gossip_payload([5]), gossip_payload(records=["record"]),
                    gossip_payload(spent=["zz"]), canonical_encode(b"gossip"),
                    gossip_payload(spent=[branch.branch_id.hex]), gossip_payload(ousted=[[branch.branch_id]]),
                    gossip_payload(spent=branch.branch_id)):
        with pytest.raises(SimError):
            receive_gossip(world, p2, payload)
    with pytest.raises(SimError):
        receive_gossip(world, p2, b"\xff")
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
    receive_gossip(world, p2, gossip_payload([header]))
    assert p2.pending_headers == {key: header}
    assert p2.state.branches[branch.branch_id].stable_head != head
    missing = [p1.state.store.get(cid) for cid in p1.state.store.ids() if cid not in held]
    receive_gossip(world, p2, gossip_payload(records=missing))
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
