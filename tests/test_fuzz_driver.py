"""The fuzz driver's prefix check walks only the new suffix of each proper
branch; it must still flag a head that does not descend from the last one.
Short fuzz runs keep their frozen bytes, and runs with churn keep the
simulator's invariants."""

import json
import os

import pytest

from lakat.branch import Submit, SubmitTrace, get_submit

from conftest import tick
from fuzz_driver import FUZZ_GOLDEN_EVENTS, FUZZ_GOLDEN_SEEDS, FuzzRun, churn_schedule, state_digest

with open(os.path.join(os.path.dirname(__file__), "golden", "fuzz.json")) as _fh:
    FUZZ_GOLDEN = json.load(_fh)


def _moved_run():
    run = FuzzRun(4)
    run.setup()
    while len(run.world.transcript) < 600:
        run.step()
    assert run.violations == []
    return run


def test_prefix_check_accepts_a_descending_head():
    run = _moved_run()
    state = run.world.peers["p1"].state
    core = state.branches[run.core_id]
    head = get_submit(state.store, core.stable_head)
    core.stable_head = state.store.put_object(Submit(core.stable_head, "next", head.trie_root,
                                                     SubmitTrace(), tick(head.timestamp.tick + 1)))
    run._check_prefixes()
    assert run.violations == []


def test_prefix_check_flags_a_rewritten_prefix():
    run = _moved_run()
    state = run.world.peers["p1"].state
    core = state.branches[run.core_id]
    assert core.stable_head != core.initial_head
    initial = get_submit(state.store, core.initial_head)
    # a sibling chain off the initial head: the old head is not below it
    core.stable_head = state.store.put_object(Submit(core.initial_head, "rewrite", initial.trie_root,
                                                     SubmitTrace(), tick(1)))
    run._check_prefixes()
    assert run.violations == [("p1", run.core_id.hex)]


def test_prefix_check_flags_a_head_moved_back():
    run = _moved_run()
    state = run.world.peers["p1"].state
    core = state.branches[run.core_id]
    core.stable_head = get_submit(state.store, core.stable_head).parent
    run._check_prefixes()
    assert run.violations == [("p1", run.core_id.hex)]


@pytest.mark.parametrize("seed", FUZZ_GOLDEN_SEEDS)
def test_short_fuzz_runs_keep_their_frozen_bytes(seed):
    """Short fuzz runs reproduce the transcript hash and state digest that
    scripts/freeze_golden.py froze; an engine change that moves any gossip,
    record or header byte of a multi-peer run shows here."""
    run = FuzzRun(seed).run(FUZZ_GOLDEN_EVENTS)
    assert run.violations == []
    assert sorted(FUZZ_GOLDEN) == [str(s) for s in FUZZ_GOLDEN_SEEDS]
    expected = FUZZ_GOLDEN[str(seed)]
    assert run.world.transcript_hash() == expected["transcript"], f"fuzz seed {seed} transcript drifted"
    assert state_digest(run.world) == expected["state"], f"fuzz seed {seed} final state drifted"


def _churn_run(seed):
    return FuzzRun(seed, churn_schedule(seed)).run(1_500)


@pytest.mark.parametrize("seed", [*range(1, 7), 9])
def test_churn_keeps_time_order_prefixes_and_convergence(seed):
    """Peers leave and rejoin throughout the run: the transcript never steps
    back in time, no proper branch loses a prefix, and once the queue (the
    schedule included) drains every peer holds the same headers."""
    run = _churn_run(seed)
    ticks = [int(line.split(" ", 1)[0]) for line in run.world.transcript]
    assert ticks == sorted(ticks)
    assert any(" schedule " in line for line in run.world.transcript)
    assert run.violations == []
    headers = [sorted(branch.header_text() for branch in peer.state.branches.values())
               for peer in run.world.peers.values()]
    assert headers[0] and headers.count(headers[0]) == len(headers)
    spent = [peer.state.spent for peer in run.world.peers.values()]
    assert spent.count(spent[0]) == len(spent)


def test_churn_run_is_deterministic():
    assert _churn_run(3).world.transcript_hash() == _churn_run(3).world.transcript_hash()
