"""Broadcasting wraps and the lignification finality walk.

Candidate merge submits are wrapped into short-lived sprout branches.  On
every new wrapped merge submit the walk descends from the proper branch
through the chain of sprouts leading to the trigger, resolving each level:
donate the winning child's head upward, convert a losing on-path child into
a peripheral proper branch, or stop while windows are still open.  A head
installed by donation is final.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .codec import ContentId, LakatError, LogicalTimestamp, NULL_ID, protocol_struct
from .identity import verify_signature
from .branch import (
    Branch,
    BranchConfig,
    PROPER,
    SPROUT,
    SelectionEntry,
    Veto,
    Vote,
    compute_branch_id,
    get_submit,
)
from .state import OK, ProtocolState, Verdict


class LignificationError(LakatError):
    pass


class InvalidRooting(LignificationError):
    """Merge submit's parent does not match the head it claims to extend."""


class PrematureConversion(LignificationError):
    """Sprout asked to convert before losing a contest."""


@protocol_struct(20)
@dataclass(frozen=True)
class SproutWrap:
    """Registration record of a merge submit wrapped into a sprout."""

    sprout: ContentId
    merge_submit: ContentId
    rooted_at: ContentId
    creator: bytes
    created_tick: int
    requesting_branch: ContentId


def selection_tree(state: ProtocolState, root: Branch):
    """The one walk of the sprout-selection tree under root: yield (owner,
    entry) for every entry of every branch entered, depth first.  Root and
    each held sprout are entered once; a sprout whose branch record has not
    arrived is yielded but not entered."""
    stack, entered = [root], {root.branch_id}
    while stack:
        owner = stack.pop()
        for entry in owner.sprout_selection:
            yield owner, entry
            child = state.branches.get(entry.sprout)
            if child is not None and entry.sprout not in entered:
                entered.add(entry.sprout)
                stack.append(child)


def selection_owner(state: ProtocolState, core: Branch, sprout_id: ContentId) -> Branch | None:
    """The branch in core's downstream tree whose selection lists the sprout."""
    for owner, entry in selection_tree(state, core):
        if entry.sprout == sprout_id:
            return owner
    return None


def downstream_path(state: ProtocolState, core: Branch, sprout_id: ContentId) -> list[Branch]:
    """[core, ..., sprout]: the chain of selection links from core down to
    the sprout, following current ownership."""
    owners = {entry.sprout: owner.branch_id for owner, entry in selection_tree(state, core)}
    path_ids = [sprout_id]
    cursor = sprout_id
    while cursor != core.branch_id:
        owner = owners.get(cursor)
        if owner is None:
            raise LignificationError(f"branch {cursor.hex} is not in the downstream tree of the core")
        path_ids.append(owner)
        cursor = owner
    path_ids.reverse()
    return [state.branches[cid] for cid in path_ids]


def wrap_merge_in_sprout(
    state: ProtocolState,
    merge_submit: ContentId,
    creator: bytes,
    requesting_branch: ContentId,
    rooted_at: ContentId,
    now: LogicalTimestamp,
) -> SproutWrap:
    """Wrap a merge submit into a sprout rooted at the core or one of its
    live upstream sprouts; register it in the rooting branch's selection and
    the core's sprout set."""
    rooting = state.branches.get(rooted_at)
    if rooting is None:
        raise InvalidRooting(f"unknown rooting branch {rooted_at.hex}")
    submit = get_submit(state.store, merge_submit)
    if submit.parent != rooting.stable_head:
        raise InvalidRooting("merge submit parent must equal the head of the rooting branch")
    branch_id = compute_branch_id(NULL_ID, now, merge_submit)
    if branch_id in state.wraps:
        return state.wraps[branch_id]
    if rooting.branch_type == SPROUT:
        core = ascend_to_core(state, rooting)
        if core is None:
            raise InvalidRooting("rooting sprout is not attached to a proper branch")
        downstream_path(state, core, rooted_at)  # raises if rooting is spent/ousted
    elif rooting.branch_type == PROPER:
        core = rooting
    else:
        raise InvalidRooting("merge submits wrap onto proper branches or their sprouts")
    state.found(NULL_ID, now, merge_submit, replace(core.config, branch_type=SPROUT))
    rooting.sprout_selection.append(SelectionEntry(branch_id))
    core.sprouts.add(branch_id)
    state.touch(rooted_at, core.branch_id)
    wrap = SproutWrap(branch_id, merge_submit, rooted_at, creator, now.tick, requesting_branch)
    state.store.put_object(wrap)
    state.wraps[branch_id] = wrap
    return wrap


def ascend_to_core(state: ProtocolState, branch: Branch) -> Branch | None:
    cursor = branch
    seen = set()
    while cursor.branch_type == SPROUT:
        if cursor.branch_id in seen:
            return None
        seen.add(cursor.branch_id)
        wrap = state.wraps.get(cursor.branch_id)
        if wrap is None:
            return None
        nxt = state.branches.get(wrap.rooted_at)
        if nxt is None:
            return None
        cursor = nxt
    return cursor if cursor.branch_type == PROPER else None


def _contenders(state: ProtocolState, branch: Branch) -> list[tuple[int, ContentId]]:
    """Sorted (creation tick, sprout) pairs of the selection, leaving out an
    entry whose sprout branch has not arrived (out-of-order gossip can make an
    entry known before its sprout header resolves)."""
    branches = state.branches
    return sorted((branches[e.sprout].timestamp.tick, e.sprout)
                  for e in branch.sprout_selection if e.sprout in branches)


def contest_open_tick(state: ProtocolState, branch: Branch) -> int | None:
    """Tick the contest clock opened: when the second sprout entered the
    selection.  None while fewer than two resolvable sprouts contend."""
    contenders = _contenders(state, branch)
    return contenders[1][0] if len(contenders) > 1 else None


def default_successor(state: ProtocolState, branch: Branch) -> ContentId | None:
    """Deterministic default choice: earliest created sprout, ties broken by
    smallest id."""
    contenders = _contenders(state, branch)
    return contenders[0][1] if contenders else None


def _window_end(open_tick: int, config: BranchConfig) -> int:
    return open_tick + config.lignification_time + config.broadcasting_buffer


def _voting_end(open_tick: int, config: BranchConfig) -> int:
    return open_tick + config.lignification_time + config.engagement_time + config.broadcasting_buffer


def register_veto(state: ProtocolState, core_id: ContentId, veto: Veto, now: LogicalTimestamp) -> Verdict:
    core = state.branches.get(core_id)
    if core is None:
        return Verdict.fail("unknown-branch")
    if not verify_signature(veto.contributor, veto.message(), veto.signature):
        return Verdict.fail("bad-signature")
    if not state.is_contributor(core_id, veto.contributor):
        return Verdict.fail("not-a-contributor")
    owner = selection_owner(state, core, veto.sprout)
    if owner is None:
        return Verdict.fail("unknown-sprout")
    open_tick = contest_open_tick(state, owner)
    if open_tick is None:
        return Verdict.fail("no-contest")
    if now.tick > _window_end(open_tick, core.config):
        return Verdict.fail("veto-window-closed")
    if owner.add_signals(veto.sprout, vetoes=(veto,)):
        state.touch(owner.branch_id)
    return OK


def cast_vote(state: ProtocolState, core_id: ContentId, vote: Vote, now: LogicalTimestamp) -> Verdict:
    core = state.branches.get(core_id)
    if core is None:
        return Verdict.fail("unknown-branch")
    if not verify_signature(vote.voter, vote.message(), vote.signature):
        return Verdict.fail("bad-signature")
    if not state.is_contributor(core_id, vote.voter, "content"):
        return Verdict.fail("not-a-content-contributor")
    owner = selection_owner(state, core, vote.sprout)
    if owner is None:
        return Verdict.fail("unknown-sprout")
    if not any(entry.vetoes for entry in owner.sprout_selection):
        return Verdict.fail("no-standing-veto")
    open_tick = contest_open_tick(state, owner)
    if open_tick is None:
        return Verdict.fail("no-contest")
    if now.tick > _voting_end(open_tick, core.config):
        return Verdict.fail("engagement-window-closed")
    if owner.add_signals(vote.sprout, votes=(vote,)):
        state.touch(owner.branch_id)
    return OK


def vote_winner(state: ProtocolState, branch: Branch) -> ContentId | None:
    """Plurality over the latest counted vote of each voter; ties (including
    no votes at all) fall back to the default successor."""
    latest: dict[bytes, Vote] = {}
    for entry in branch.sprout_selection:
        for vote in entry.votes:
            current = latest.get(vote.voter)
            if current is None or (vote.tick, vote.sprout) > (current.tick, current.sprout):
                latest[vote.voter] = vote
    tally: dict[ContentId, int] = {entry.sprout: 0 for entry in branch.sprout_selection}
    for vote in latest.values():
        if vote.sprout in tally:
            tally[vote.sprout] += 1
    if not tally:
        return None
    best = max(tally.values())
    leaders = sorted(s for s, n in tally.items() if n == best)
    if best == 0 or len(leaders) > 1:
        return default_successor(state, branch)
    return leaders[0]


def convert_sprout(state: ProtocolState, sprout_id: ContentId, reference_id: ContentId) -> Branch:
    """Turn a sprout into a peripheral proper branch rooted at the reference
    branch: fill the parent entry, flip the type, keep the config, no token."""
    sprout = state.branches[sprout_id]
    if sprout.parent_branch != NULL_ID:
        raise LignificationError("sprout parent entry already filled")
    sprout.parent_branch = reference_id
    sprout.config = replace(sprout.config, branch_type=PROPER)
    sprout.branch_token = []
    state.touch(sprout_id)
    for owner in state.branches.values():
        if owner.selection_entry(sprout_id) is not None:
            owner.sprout_selection = [e for e in owner.sprout_selection if e.sprout != sprout_id]
            state.touch(owner.branch_id)
            break
    state.ousted.pop(sprout_id, None)
    return sprout


def finalize_ousted_sprout(
    state: ProtocolState, sprout_id: ContentId, triggering_submit: ContentId
) -> Branch:
    """Deferred conversion: an ousted sprout becomes a proper branch only
    when a transaction finally targets it."""
    sprout = state.branches.get(sprout_id)
    if sprout is None:
        raise LignificationError("unknown sprout")
    reference = state.ousted.get(sprout_id)
    if reference is None:
        raise PrematureConversion(f"sprout {sprout_id.hex} has not been ousted")
    submit = get_submit(state.store, triggering_submit)
    if submit.parent != sprout.stable_head:
        raise InvalidRooting("triggering submit does not target the sprout")
    return convert_sprout(state, sprout_id, reference)


def recompute_sprouts(state: ProtocolState, branch: Branch):
    """Prune the transitive sprout set to what the live selection tree
    reaches through sprouts: an owner's entries count only when the owner is
    the branch itself or a sprout already counted (the walk is pre-order)."""
    reached = set()
    for owner, entry in selection_tree(state, branch):
        child = state.branches.get(entry.sprout)
        counted = owner is branch or owner.branch_id in reached
        if counted and child is not None and child.branch_type == SPROUT:
            reached.add(entry.sprout)
    branch.sprouts = reached
    state.touch(branch.branch_id)


def lignify(
    state: ProtocolState,
    core_id: ContentId,
    new_merge_submit: ContentId,
    now: LogicalTimestamp,
) -> list[str]:
    """Run the finality walk triggered by a newly wrapped merge submit.

    Returns the decision log: one `tick step branch_id action` line per
    branch taken in the walk.
    """
    core = state.branches.get(core_id)
    if core is None:
        raise LignificationError("unknown core branch")
    trigger_sprout = None
    for sprout_id, wrap in state.wraps.items():
        if wrap.merge_submit == new_merge_submit and sprout_id not in state.spent:
            trigger_sprout = sprout_id
            break
    if trigger_sprout is None:
        raise LignificationError("merge submit has not been wrapped into a sprout")
    path = downstream_path(state, core, trigger_sprout)
    log: list[str] = []
    reference = core

    def emit(step: int, branch: Branch, action: str):
        log.append(f"{now.tick} {step} {branch.branch_id.hex} {action}")

    converted: list[ContentId] = []
    for step in range(len(path) - 1):
        current = path[step]
        child = path[step + 1]
        # after a donation the level's selection lives on the reference branch
        holder = reference if current.branch_id in state.spent else current
        # built once per level: an unresolved contender cannot close the windows
        contenders = _contenders(state, holder)
        if all(now.tick <= _window_end(tick, core.config) for tick, _ in contenders):
            emit(step, current, "stop-windows-open")
            break
        open_tick = contenders[1][0] if len(contenders) > 1 else None  # contest_open_tick
        contested = open_tick is not None and any(entry.vetoes for entry in holder.sprout_selection)
        if contested and now.tick <= _voting_end(open_tick, core.config):
            emit(step, current, "stop-voting-open")
            break
        winner = vote_winner(state, holder) if contested else contenders[0][1]  # default_successor
        if child.branch_id == winner:
            _donate(state, reference, holder, child)
            emit(step, child, "donate-vote-winner" if contested else "donate-default")
        else:
            if contested:
                _oust_losers(state, holder, reference, keep=winner, skip=child.branch_id)
            convert_sprout(state, child.branch_id, reference.branch_id)
            converted.append(child.branch_id)
            emit(step, child, "convert-vote-loser" if contested else "convert-side-branch")
            reference = child
    recompute_sprouts(state, core)
    for branch_id in converted:
        recompute_sprouts(state, state.branches[branch_id])
    return log


def _oust_losers(state: ProtocolState, holder: Branch, reference: Branch, keep: ContentId | None, skip: ContentId):
    """Mark decided losers at this level as ousted, rooted at the reference."""
    for entry in holder.sprout_selection:
        if entry.sprout == keep or entry.sprout == skip:
            continue
        state.ousted.setdefault(entry.sprout, reference.branch_id)


def _donate(state: ProtocolState, reference: Branch, holder: Branch, child: Branch):
    """The winning child's head, selection, and sprout set move up into the
    reference branch; rival sprouts at this level become ousted."""
    _oust_losers(state, holder, reference, keep=None, skip=child.branch_id)
    reference.stable_head = child.stable_head
    reference.sprout_selection = list(child.sprout_selection)
    child.sprout_selection = []
    state.touch(reference.branch_id, child.branch_id)
    state.spent.add(child.branch_id)
