"""Derived state that follows what changed, checked against recomputation:
the touched-branch marks behind gossip flushes, the merge index built from
parent and belt-tip entries, and the contributor walk late in a history."""

import collections
import os

import pytest
from hypothesis import given, settings, strategies as st

from lakat.branch import PullRequestTrace, Submit, SubmitTrace, collect_evidence, included_submits
from lakat.identity import KeyIdentity
from lakat.ops import create_genesis_branch, create_rooted_branch
from lakat.codec import CodecError, LogicalTimestamp, NULL_ID, content_id
from lakat.scenario import Runner, parse_scenario
from lakat.sim import World
from lakat.state import ProtocolState
from lakat.store import MemoryStore
from lakat import branch as branch_mod, lignify as lignify_mod, ops as ops_mod, scenario as scenario_mod

import fuzz_driver
from conftest import tick, twig_config
from fuzz_driver import FuzzRun
from test_contributors import _push, assert_matches_reference

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def _merges(run: FuzzRun) -> int:
    return sum(" fuzz: merge " in line for line in run.world.transcript)


@pytest.fixture
def checked_flushes(monkeypatch):
    """Check every flush of an online peer: afterwards no branch's header may
    differ from the one it last gossiped, which a mutation that left no
    touch mark would cause.  Yields the list of checked flushes."""
    checked = []
    flush = World.flush_gossip

    def flush_and_check(world, peer_name):
        flush(world, peer_name)
        peer = world.peers[peer_name]
        if peer.online:
            unsent = [branch_id.hex[:10] for branch_id, branch in peer.state.branches.items()
                      if peer.last_gossiped.get(branch_id) != branch.fingerprint()]
            assert not unsent, f"{peer_name} flushed without gossiping {unsent}"
            assert not peer.state.touched
            checked.append(peer_name)

    monkeypatch.setattr(World, "flush_gossip", flush_and_check)
    return checked


# mutators whose marks a later mark in the same lignify call or merge can hide
MUTATORS = ("_donate", "recompute_sprouts", "convert_sprout", "register_veto", "cast_vote",
            "wrap_merge_in_sprout", "mark_stale", "apply_config_change")


@pytest.fixture
def checked_marks(monkeypatch):
    """Check each call of a mutator on its own: it runs with an empty touched
    set, and every branch whose header it changed or added must be marked
    when it returns.  Yields name -> number of calls that changed a header."""
    changed_by = collections.Counter()

    def checking(name, mutate):
        def call(state, *args, **kwargs):
            before = {branch_id: branch.fingerprint() for branch_id, branch in state.branches.items()}
            outer, state.touched = state.touched, set()
            try:
                result = mutate(state, *args, **kwargs)
            finally:
                own, state.touched = state.touched, outer
                outer.update(own)
            changed = {branch_id for branch_id, branch in state.branches.items()
                       if before.get(branch_id) != branch.fingerprint()}
            assert changed <= own, f"{name} left {[b.hex[:10] for b in changed - own]} unmarked"
            changed_by[name] += bool(changed)
            return result
        return call

    originals = {name: getattr(lignify_mod, name, None) or getattr(ops_mod, name) for name in MUTATORS}
    for module in (lignify_mod, ops_mod, scenario_mod, fuzz_driver):
        for name, mutate in originals.items():
            if getattr(module, name, None) is mutate:
                monkeypatch.setattr(module, name, checking(name, mutate))
    return changed_by


def test_every_flush_gossips_every_changed_branch_through_a_fuzz_run(checked_flushes, checked_marks):
    run = FuzzRun(5).run(2000)
    assert run.violations == []
    assert _merges(run) >= 10 and len(checked_flushes) > 500
    assert all(checked_marks[name] for name in ("_donate", "recompute_sprouts", "convert_sprout")), checked_marks


@pytest.mark.parametrize("name", ["fig5a.json", "fig5b.json"])
def test_every_flush_gossips_every_changed_branch_through_a_scenario(checked_flushes, checked_marks, name):
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        report = Runner(parse_scenario(fh.read())).run()
    assert report.ok and checked_flushes and checked_marks


def test_evidence_extends_only_a_descent_above_the_initial_head():
    """collect_evidence extends a held result only when the new head
    descends from the held head without passing the initial head; each
    other move must give what a rebuild gives."""
    state = ProtocolState(MemoryStore())
    alice = KeyIdentity.from_seed(b"alice")
    core = create_genesis_branch(state, twig_config(), alice, tick(0))
    root = _push(state, core, alice, b"core one", 1)
    core_head = _push(state, core, alice, b"core two", 2)
    belt = create_rooted_branch(state, root, core.branch_id, alice, tick(3), twig_config())
    _push(state, belt, alice, b"belt one", 4)
    belt_head = _push(state, belt, alice, b"belt two", 5)

    def moved(held_at, head):
        belt.stable_head = held_at
        held = collect_evidence(belt, state.store)
        belt.stable_head = head
        return set(collect_evidence(belt, state.store, held=held)), set(collect_evidence(belt, state.store))

    below_initial = moved(root, belt_head)  # the held walk never met the initial head
    off_the_chain = moved(belt_head, core_head)  # the new chain lacks the initial head
    descent = moved(belt.initial_head, belt_head)
    for extended, rebuilt in (below_initial, off_the_chain, descent):
        assert extended == rebuilt
    assert core_head not in below_initial[0] and root in below_initial[0]
    assert belt_head not in off_the_chain[0]


def _closure_entry(store, head) -> tuple:
    """The merge-index entry by a walk of the whole inclusion closure."""
    included = included_submits(store, head).values()
    belts = tuple(dict.fromkeys(s.submit_trace.merged_branch for s in included
                                if s.submit_trace.merged_branch is not None))
    pairs = frozenset((pr.target_branch, pr.requesting_branch)
                      for s in included for pr in s.submit_trace.pull_requests)
    return belts, pairs


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_merge_index_equals_the_closure_walk_on_random_histories(data):
    """Random submit DAGs: any earlier submit may be a parent or a belt tip,
    belts are merged again, and pull requests name any pair of branches."""
    state = ProtocolState(MemoryStore())
    branches = [content_id(b"branch %d" % index) for index in range(4)]
    submits = []
    for index in range(data.draw(st.integers(1, 20))):
        tip = data.draw(st.sampled_from([None] + submits))
        requests = data.draw(st.lists(st.tuples(st.sampled_from(branches), st.sampled_from(branches)),
                                      max_size=2))
        trace = SubmitTrace(
            pull_requests=tuple(PullRequestTrace(NULL_ID, target, asking) for target, asking in requests),
            merged_branch=None if tip is None else data.draw(st.sampled_from(branches)),
            belt_tip=tip)
        parent = data.draw(st.sampled_from([NULL_ID] + submits))
        submits.append(state.store.put_object(Submit(parent, str(index), NULL_ID, trace,
                                                     LogicalTimestamp(index))))
    for cid in data.draw(st.permutations(submits)):
        assert branch_mod._merge_index(state.store, cid) == _closure_entry(state.store, cid)


def test_merge_index_entries_equal_the_closure_walk():
    run = FuzzRun(3).run(1500)
    state = run.world.peers["p1"].state
    checked = 0
    for cid in state.store.ids():
        try:
            record = state.store.get_object(cid)
        except CodecError:
            continue  # raw record bytes, such as a public key
        if isinstance(record, Submit):
            assert branch_mod._merge_index(state.store, cid) == _closure_entry(state.store, cid), cid.hex[:10]
            checked += 1
    assert checked > 150 and _merges(run) >= 10


def test_contributors_match_reference_after_ten_merges():
    run = FuzzRun(21)
    run.setup()
    while _merges(run) < 10:
        run.step()
    run.world.run_until_quiescent()
    for peer in run.world.peers.values():
        assert assert_matches_reference(peer.state) >= 10
