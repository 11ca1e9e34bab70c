import os
import subprocess
import sys
from dataclasses import replace

import pytest

from lakat.codec import NULL_ID, canonical_encode, content_id
from lakat.identity import KeyIdentity, make_contribution_proof
from lakat.branch import SelectionEntry, Submit, SubmitTrace, Veto, Vote, branch_header_from_json
from lakat.lignify import (
    InvalidRooting,
    PrematureConversion,
    cast_vote,
    contest_open_tick,
    default_successor,
    downstream_path,
    finalize_ousted_sprout,
    lignify,
    recompute_sprouts,
    register_veto,
    vote_winner,
    wrap_merge_in_sprout,
)
from lakat.ops import create_genesis_branch
from lakat.sim import adopt_header
from conftest import proper_config, tick

L, E, B = 10, 10, 1


def make_core(state, owner, voters=(), **config_overrides):
    config_overrides.setdefault("lignification_time", L)
    config_overrides.setdefault("engagement_time", E)
    config_overrides.setdefault("broadcasting_buffer", B)
    core = create_genesis_branch(state, proper_config(**config_overrides), owner, tick(0))
    for voter in voters:
        state.add_proof(make_contribution_proof(voter, core.branch_id, "content", core.initial_head))
    return core


def make_merge_submit(state, parent, label, at):
    submit = Submit(parent, label, NULL_ID, SubmitTrace(merged_branch=content_id(label.encode()),
                                                        belt_tip=parent), tick(at))
    return state.store.put_object(submit)


def wrap_at(state, rooted_branch, creator, label, at):
    head = state.branches[rooted_branch].stable_head
    cid = make_merge_submit(state, head, label, at)
    wrap = wrap_merge_in_sprout(state, cid, creator.public_key, content_id(b"requesting"),
                                rooted_branch, tick(at))
    return wrap, cid


def signed_veto(identity, sprout, at):
    message = canonical_encode([b"veto", sprout, identity.public_key, at])
    return Veto(sprout, identity.public_key, at, identity.sign(message))


def signed_vote(identity, sprout, at):
    message = canonical_encode([b"vote", sprout, identity.public_key, at])
    return Vote(sprout, identity.public_key, at, identity.sign(message))


# -- wrapping -----------------------------------------------------------------


def test_first_sprout_registers(state, alice):
    core = make_core(state, alice)
    wrap, cid = wrap_at(state, core.branch_id, alice, "m1", 1)
    assert core.sprouts == {wrap.sprout}
    assert [entry.sprout for entry in core.sprout_selection] == [wrap.sprout]
    sprout = state.branches[wrap.sprout]
    assert sprout.branch_type == "sprout"
    assert sprout.stable_head == cid
    assert sprout.parent_branch == NULL_ID


def test_second_sprout_creates_contest(state, alice):
    core = make_core(state, alice)
    wrap_a, _ = wrap_at(state, core.branch_id, alice, "mA", 1)
    wrap_b, _ = wrap_at(state, core.branch_id, alice, "mB", 4)
    assert len(core.sprout_selection) == 2
    assert contest_open_tick(state, core) == 4
    assert core.sprouts == {wrap_a.sprout, wrap_b.sprout}
    # an entry whose sprout header has not arrived neither opens nor wins the contest
    core.sprout_selection.insert(0, SelectionEntry(content_id(b"not arrived")))
    assert contest_open_tick(state, core) == 4
    assert default_successor(state, core) == wrap_a.sprout


def test_chained_sprout_depth_two(state, alice):
    core = make_core(state, alice)
    wrap_a, _ = wrap_at(state, core.branch_id, alice, "mA", 1)
    wrap_b, _ = wrap_at(state, wrap_a.sprout, alice, "mB", 2)
    assert core.sprouts == {wrap_a.sprout, wrap_b.sprout}
    assert [e.sprout for e in core.sprout_selection] == [wrap_a.sprout]
    assert [e.sprout for e in state.branches[wrap_a.sprout].sprout_selection] == [wrap_b.sprout]
    path = downstream_path(state, core, wrap_b.sprout)
    assert [b.branch_id for b in path] == [core.branch_id, wrap_a.sprout, wrap_b.sprout]


def test_sprout_set_reaches_only_through_sprouts(state, alice):
    """A proper branch still listed in the tree (a gossiped selection can lag
    a conversion) keeps its own sprouts out of the core's sprout set."""
    core = make_core(state, alice)
    wrap_a, _ = wrap_at(state, core.branch_id, alice, "mA", 1)
    wrap_b, _ = wrap_at(state, wrap_a.sprout, alice, "mB", 2)
    wrap_c, _ = wrap_at(state, wrap_b.sprout, alice, "mC", 3)
    assert core.sprouts == {wrap_a.sprout, wrap_b.sprout, wrap_c.sprout}
    listed = state.branches[wrap_b.sprout]
    listed.config = replace(listed.config, branch_type="proper")
    recompute_sprouts(state, core)
    assert core.sprouts == {wrap_a.sprout}


def test_wrap_with_wrong_parent_rejected(state, alice):
    core = make_core(state, alice)
    stray = make_merge_submit(state, content_id(b"elsewhere"), "bad", 1)
    with pytest.raises(InvalidRooting):
        wrap_merge_in_sprout(state, stray, alice.public_key, content_id(b"r"),
                             core.branch_id, tick(1))


# -- default successor -----------------------------------------------------------


def test_default_single_sprout_is_itself(state, alice):
    core = make_core(state, alice)
    wrap, _ = wrap_at(state, core.branch_id, alice, "m1", 1)
    assert default_successor(state, core) == wrap.sprout


def test_default_earliest_tick_wins(state, alice):
    core = make_core(state, alice)
    wrap_late, _ = wrap_at(state, core.branch_id, alice, "late", 12)
    wrap_early, _ = wrap_at(state, core.branch_id, alice, "early", 10)
    chosen = default_successor(state, core)
    assert chosen == wrap_early.sprout
    # matches an independent restatement of the rule
    entries = [(state.branches[e.sprout].timestamp.tick, e.sprout.hex, e.sprout)
               for e in core.sprout_selection]
    assert chosen == min(entries)[2]


def test_default_tie_breaks_on_id(state, alice):
    core = make_core(state, alice)
    wrap_a, _ = wrap_at(state, core.branch_id, alice, "one", 5)
    wrap_b, _ = wrap_at(state, core.branch_id, alice, "two", 5)
    expected = min((wrap_a.sprout, wrap_b.sprout), key=lambda c: c.hex)
    assert default_successor(state, core) == expected


def test_empty_selection_no_successor(state, alice):
    core = make_core(state, alice)
    assert default_successor(state, core) is None
    core.sprout_selection.append(SelectionEntry(content_id(b"not arrived")))
    assert default_successor(state, core) is None
    assert contest_open_tick(state, core) is None


# -- veto / vote windows -----------------------------------------------------------


@pytest.fixture
def contest(state, alice, bob, carol):
    """Core with a two-sprout contest opening at tick 2; lignification 50."""
    core = make_core(state, alice, voters=(bob, carol),
                     lignification_time=50, engagement_time=60, broadcasting_buffer=1)
    wrap_a, cid_a = wrap_at(state, core.branch_id, alice, "mA", 1)
    wrap_b, cid_b = wrap_at(state, core.branch_id, alice, "mB", 2)
    return state, core, wrap_a, wrap_b


def test_veto_at_49_accepted(contest, bob, carol):
    state, core, wrap_a, wrap_b = contest
    veto = signed_veto(bob, wrap_b.sprout, 49)
    verdict = register_veto(state, core.branch_id, veto, tick(49))
    assert verdict.ok
    entry = core.selection_entry(wrap_b.sprout)
    assert len(entry.vetoes) == 1
    # registered again, or gossiped back by a peer, the veto joins once
    held = core.fingerprint()
    assert register_veto(state, core.branch_id, veto, tick(49)).ok
    assert adopt_header(state, core.header_text()) == (False, None)
    assert core.fingerprint() == held
    # an echo that lists the veto after another joins only the new one, after those held
    echo = branch_header_from_json(core.header_json())
    other = signed_veto(carol, wrap_b.sprout, 50)
    echo.sprout_selection = [SelectionEntry(wrap_b.sprout, (other, veto)), SelectionEntry(wrap_a.sprout)]
    assert adopt_header(state, echo.header_text()) == (True, None)
    assert [e.sprout for e in core.sprout_selection] == [wrap_a.sprout, wrap_b.sprout]
    assert core.selection_entry(wrap_b.sprout).vetoes == (veto, other)


def test_veto_at_52_rejected_window_closed(contest, bob):
    # contest opened at 2; window closes at 2 + 50 + 1 = 53, so 52 is in, 54 out
    state, core, wrap_a, wrap_b = contest
    assert register_veto(state, core.branch_id, signed_veto(bob, wrap_b.sprout, 52), tick(52)).ok
    verdict = register_veto(state, core.branch_id, signed_veto(bob, wrap_a.sprout, 54), tick(54))
    assert not verdict.ok
    assert verdict.code == "veto-window-closed"


def test_veto_by_non_contributor_rejected(contest):
    state, core, wrap_a, wrap_b = contest
    outsider = KeyIdentity.from_seed(b"outsider")
    verdict = register_veto(state, core.branch_id, signed_veto(outsider, wrap_b.sprout, 5), tick(5))
    assert not verdict.ok
    assert verdict.code == "not-a-contributor"


def test_veto_without_contest_rejected(state, alice, bob):
    core = make_core(state, alice, voters=(bob,))
    wrap, _ = wrap_at(state, core.branch_id, alice, "m1", 1)
    verdict = register_veto(state, core.branch_id, signed_veto(bob, wrap.sprout, 2), tick(2))
    assert not verdict.ok
    assert verdict.code == "no-contest"


def test_vote_without_standing_veto_rejected(contest, bob):
    state, core, wrap_a, wrap_b = contest
    verdict = cast_vote(state, core.branch_id, signed_vote(bob, wrap_b.sprout, 5), tick(5))
    assert not verdict.ok
    assert verdict.code == "no-standing-veto"


def test_vote_window_and_winner(contest, bob, carol):
    state, core, wrap_a, wrap_b = contest
    assert register_veto(state, core.branch_id, signed_veto(bob, wrap_b.sprout, 10), tick(10)).ok
    assert cast_vote(state, core.branch_id, signed_vote(bob, wrap_b.sprout, 60), tick(60)).ok
    assert cast_vote(state, core.branch_id, signed_vote(carol, wrap_a.sprout, 61), tick(61)).ok
    # voting closes at 2 + 50 + 60 + 1 = 113
    late = cast_vote(state, core.branch_id, signed_vote(carol, wrap_b.sprout, 114), tick(114))
    assert not late.ok and late.code == "engagement-window-closed"
    # 1:1 tie falls back to the default successor (earlier sprout)
    assert vote_winner(state, core) == wrap_a.sprout
    # a later re-vote moves carol to B; latest vote per voter counts
    assert cast_vote(state, core.branch_id, signed_vote(carol, wrap_b.sprout, 62), tick(62)).ok
    assert vote_winner(state, core) == wrap_b.sprout


# -- the walk -----------------------------------------------------------------


def test_single_sprout_window_elapsed_advances_head(state, alice):
    """The unambiguous case: no veto, no vote, the head advances."""
    core = make_core(state, alice)
    wrap_a, cid_a = wrap_at(state, core.branch_id, alice, "m1", 1)
    # trigger arrives after the window: rooted at the pending sprout
    wrap_b, cid_b = wrap_at(state, wrap_a.sprout, alice, "m2", L + B + 2)
    log = lignify(state, core.branch_id, cid_b, now=tick(L + B + 2))
    assert core.stable_head == cid_a
    assert [e.sprout for e in core.sprout_selection] == [wrap_b.sprout]
    assert core.sprouts == {wrap_b.sprout}
    assert wrap_a.sprout in state.spent
    assert any("donate-default" in line for line in log)
    assert not any("convert" in line for line in log)


def test_an_unarrived_contender_does_not_hold_the_window_open(state, alice):
    """A selection entry whose sprout header has not arrived is no contender:
    once the arrived sprout's window has passed, the walk decides."""
    core = make_core(state, alice)
    wrap_a, cid_a = wrap_at(state, core.branch_id, alice, "m1", 1)
    core.sprout_selection.append(SelectionEntry(content_id(b"not arrived")))
    wrap_b, cid_b = wrap_at(state, wrap_a.sprout, alice, "m2", L + B + 2)
    log = lignify(state, core.branch_id, cid_b, now=tick(L + B + 2))
    assert core.stable_head == cid_a
    assert any("donate-default" in line for line in log)


def test_trigger_within_window_stops(state, alice):
    core = make_core(state, alice)
    wrap_a, cid_a = wrap_at(state, core.branch_id, alice, "m1", 1)
    wrap_b, cid_b = wrap_at(state, wrap_a.sprout, alice, "m2", 3)
    before = core.stable_head
    log = lignify(state, core.branch_id, cid_b, now=tick(3))
    assert core.stable_head == before
    assert any("stop-windows-open" in line for line in log)


def test_side_branch_conversion_on_rival_path(state, alice):
    """No veto: walking through the non-default rival converts it in place."""
    core = make_core(state, alice)
    wrap_a, cid_a = wrap_at(state, core.branch_id, alice, "mA", 1)
    wrap_b, cid_b = wrap_at(state, core.branch_id, alice, "mB", 2)
    trigger_at = 2 + L + B + 1
    wrap_c, cid_c = wrap_at(state, wrap_b.sprout, alice, "mC", trigger_at)
    lignify(state, core.branch_id, cid_c, now=tick(trigger_at))
    rival = state.branches[wrap_b.sprout]
    assert rival.branch_type == "proper"
    assert rival.parent_branch == core.branch_id
    assert rival.stable_head == cid_b
    # core itself is untouched: default still pending
    assert core.stable_head == core.initial_head
    assert [e.sprout for e in core.sprout_selection] == [wrap_a.sprout]
    # rival keeps its own pending sprout
    assert [e.sprout for e in rival.sprout_selection] == [wrap_c.sprout]
    assert rival.sprouts == {wrap_c.sprout}


def test_vote_winner_head_adopted(state, alice, bob, carol):
    core = make_core(state, alice, voters=(bob, carol))
    wrap_a, cid_a = wrap_at(state, core.branch_id, alice, "mA", 1)
    wrap_b, cid_b = wrap_at(state, core.branch_id, alice, "mB", 2)
    assert register_veto(state, core.branch_id, signed_veto(bob, wrap_b.sprout, 3), tick(3)).ok
    assert cast_vote(state, core.branch_id, signed_vote(bob, wrap_b.sprout, 4), tick(4)).ok
    assert cast_vote(state, core.branch_id, signed_vote(carol, wrap_b.sprout, 5), tick(5)).ok
    after_voting = 2 + L + E + B + 1
    wrap_c, cid_c = wrap_at(state, wrap_b.sprout, alice, "mC", after_voting)
    log = lignify(state, core.branch_id, cid_c, now=tick(after_voting))
    assert core.stable_head == cid_b
    assert any("donate-vote-winner" in line for line in log)
    # the ousted default can convert once targeted
    assert wrap_a.sprout in state.ousted


def test_vote_loser_on_path_converts(state, alice, bob, carol):
    core = make_core(state, alice, voters=(bob, carol))
    wrap_a, cid_a = wrap_at(state, core.branch_id, alice, "mA", 1)
    wrap_b, cid_b = wrap_at(state, core.branch_id, alice, "mB", 2)
    assert register_veto(state, core.branch_id, signed_veto(bob, wrap_b.sprout, 3), tick(3)).ok
    assert cast_vote(state, core.branch_id, signed_vote(bob, wrap_b.sprout, 4), tick(4)).ok
    after_voting = 2 + L + E + B + 1
    # trigger walks through the LOSING default sprout
    wrap_c, cid_c = wrap_at(state, wrap_a.sprout, alice, "mC", after_voting)
    log = lignify(state, core.branch_id, cid_c, now=tick(after_voting))
    loser = state.branches[wrap_a.sprout]
    assert loser.branch_type == "proper"
    assert loser.parent_branch == core.branch_id
    assert any("convert-vote-loser" in line for line in log)
    assert core.stable_head == core.initial_head  # winner not yet targeted


def test_voting_unfinished_stops(state, alice, bob):
    core = make_core(state, alice, voters=(bob,))
    wrap_a, _ = wrap_at(state, core.branch_id, alice, "mA", 1)
    wrap_b, _ = wrap_at(state, core.branch_id, alice, "mB", 2)
    assert register_veto(state, core.branch_id, signed_veto(bob, wrap_b.sprout, 3), tick(3)).ok
    mid = 2 + L + B + 2  # past veto window, inside engagement
    wrap_c, cid_c = wrap_at(state, wrap_b.sprout, alice, "mC", mid)
    before = core.stable_head
    log = lignify(state, core.branch_id, cid_c, now=tick(mid))
    assert core.stable_head == before
    assert any("stop-voting-open" in line for line in log)


def test_deep_walk_two_donations(state, alice):
    """Two expired levels resolve in one walk; the head jumps two submits."""
    core = make_core(state, alice)
    wrap_a, cid_a = wrap_at(state, core.branch_id, alice, "mA", 1)
    wrap_b, cid_b = wrap_at(state, wrap_a.sprout, alice, "mB", 2)
    late = 2 + L + B + 1
    wrap_c, cid_c = wrap_at(state, wrap_b.sprout, alice, "mC", late)
    lignify(state, core.branch_id, cid_c, now=tick(late))
    assert core.stable_head == cid_b
    assert [e.sprout for e in core.sprout_selection] == [wrap_c.sprout]
    assert core.sprouts == {wrap_c.sprout}
    assert state.spent >= {wrap_a.sprout, wrap_b.sprout}


def test_walk_touches_only_downstream_path(state, alice):
    """A second proper branch and its sprouts are untouched by core's walk."""
    core = make_core(state, alice)
    other = create_genesis_branch(state, proper_config(), alice, tick(0), message="other root")
    wrap_other, cid_other = wrap_at(state, other.branch_id, alice, "mO", 1)
    other_snapshot = other.header_text()
    wrap_a, cid_a = wrap_at(state, core.branch_id, alice, "mA", 1)
    wrap_b, cid_b = wrap_at(state, wrap_a.sprout, alice, "mB", L + B + 2)
    lignify(state, core.branch_id, cid_b, now=tick(L + B + 2))
    assert other.header_text() == other_snapshot


# -- ousted conversion ----------------------------------------------------------


def test_finalize_ousted_sprout(state, alice):
    core = make_core(state, alice)
    wrap_a, cid_a = wrap_at(state, core.branch_id, alice, "mA", 1)
    wrap_b, cid_b = wrap_at(state, core.branch_id, alice, "mB", 2)
    late = 2 + L + B + 1
    wrap_c, cid_c = wrap_at(state, wrap_a.sprout, alice, "mC", late)
    lignify(state, core.branch_id, cid_c, now=tick(late))
    assert core.stable_head == cid_a
    assert wrap_b.sprout in state.ousted
    # a submit targeting the ousted sprout converts it
    targeting = make_merge_submit(state, cid_b, "target", late + 1)
    branch = finalize_ousted_sprout(state, wrap_b.sprout, targeting)
    assert branch.branch_type == "proper"
    assert branch.parent_branch == core.branch_id
    assert branch.branch_token == []
    assert branch.config.lignification_time == core.config.lignification_time


def test_never_targeted_sprout_never_converts(state, alice):
    core = make_core(state, alice)
    wrap_a, cid_a = wrap_at(state, core.branch_id, alice, "mA", 1)
    wrap_b, cid_b = wrap_at(state, core.branch_id, alice, "mB", 2)
    late = 2 + L + B + 1
    wrap_c, cid_c = wrap_at(state, wrap_a.sprout, alice, "mC", late)
    lignify(state, core.branch_id, cid_c, now=tick(late))
    assert state.branches[wrap_b.sprout].branch_type == "sprout"
    assert state.branches[wrap_b.sprout].parent_branch == NULL_ID


def test_premature_conversion_rejected(state, alice):
    core = make_core(state, alice)
    wrap_a, cid_a = wrap_at(state, core.branch_id, alice, "mA", 1)
    targeting = make_merge_submit(state, cid_a, "early", 2)
    with pytest.raises(PrematureConversion):
        finalize_ousted_sprout(state, wrap_a.sprout, targeting)


def test_conversion_fills_parent_exactly_once(state, alice):
    core = make_core(state, alice)
    wrap_a, cid_a = wrap_at(state, core.branch_id, alice, "mA", 1)
    wrap_b, cid_b = wrap_at(state, core.branch_id, alice, "mB", 2)
    late = 2 + L + B + 1
    wrap_c, cid_c = wrap_at(state, wrap_a.sprout, alice, "mC", late)
    lignify(state, core.branch_id, cid_c, now=tick(late))
    targeting = make_merge_submit(state, cid_b, "target", late + 1)
    finalize_ousted_sprout(state, wrap_b.sprout, targeting)
    from lakat.lignify import LignificationError

    with pytest.raises(LignificationError):
        finalize_ousted_sprout(state, wrap_b.sprout, targeting)


# -- finality --------------------------------------------------------------------


def test_lignified_head_never_revoked(state, alice, rng):
    """Randomized walks only ever extend the core's history prefix."""
    from lakat.branch import ancestry
    from lakat.lignify import LignificationError, ascend_to_core

    core = make_core(state, alice)
    prefix = [cid for cid, _ in ancestry(state.store, core.stable_head)][::-1]
    frontier = [core.branch_id]
    at = 1
    for round_ in range(40):
        rooted = rng.choice(frontier)
        if rooted in state.spent or rooted in state.ousted:
            continue
        try:
            wrap, cid = wrap_at(state, rooted, alice, f"m{round_}", at)
        except (InvalidRooting, LignificationError):
            continue
        frontier.append(wrap.sprout)
        at += rng.choice([1, 3, L + B + 1])
        owning_core = ascend_to_core(state, state.branches[wrap.sprout])
        lignify(state, owning_core.branch_id, cid, now=tick(at))
        chain = [cid for cid, _ in ancestry(state.store, core.stable_head)][::-1]
        assert chain[: len(prefix)] == prefix, "lignified prefix was rewritten"
        prefix = chain


def test_contest_sweep_script_runs_without_pythonpath():
    """scripts/contest_sweep.py finds the package itself, as its usage line
    runs it."""
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, os.path.join("scripts", "contest_sweep.py"), "--max-sprouts", "1"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert " agree " in done.stdout.splitlines()[-1], done.stdout
