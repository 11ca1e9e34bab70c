import pytest
from hypothesis import given, settings, strategies as st

from lakat import trie as trie_mod
from lakat.branch import Submit, SubmitTrace, compute_branch_id
from lakat.codec import NULL_ID
from lakat.requests import CHANNELS, BranchRequests, UnknownChannel
from lakat.state import ProtocolState
from conftest import tick, twig_config


def test_exactly_eight_channels():
    assert len(CHANNELS) == 8
    assert set(CHANNELS) == {
        "submit_requests", "pull_requests", "review_commits", "review_submit_requests",
        "social_transactions", "token_transactions", "storage_updates", "branch_creation_broadcast",
    }


def test_capacity_two_rejects_third():
    requests = BranchRequests(capacity=2)
    assert requests.enqueue("pull_requests", b"a").accepted
    assert requests.enqueue("pull_requests", b"b").accepted
    verdict = requests.enqueue("pull_requests", b"c")
    assert not verdict.accepted
    assert verdict.reason == "capacity-rejected"


def test_full_channel_leaves_others_unaffected():
    requests = BranchRequests(capacity=1)
    assert requests.enqueue("pull_requests", b"a").accepted
    assert not requests.enqueue("pull_requests", b"b").accepted
    for channel in CHANNELS:
        if channel == "pull_requests":
            continue
        assert requests.enqueue(channel, b"x").accepted


def test_dequeue_frees_capacity():
    requests = BranchRequests(capacity=1)
    assert requests.enqueue("storage_updates", b"a").accepted
    assert requests.dequeue("storage_updates") == b"a"
    assert requests.enqueue("storage_updates", b"b").accepted


def test_dequeue_is_fifo():
    requests = BranchRequests()
    requests.enqueue("submit_requests", b"1")
    requests.enqueue("submit_requests", b"2")
    assert requests.dequeue("submit_requests") == b"1"
    assert requests.dequeue("submit_requests") == b"2"
    assert requests.dequeue("submit_requests") is None


def test_unknown_channel_raises():
    requests = BranchRequests()
    with pytest.raises(UnknownChannel):
        requests.enqueue("mempool", b"x")


def test_per_channel_capacity_override():
    requests = BranchRequests(capacity=1)
    requests.capacities["pull_requests"] = 3
    for _ in range(3):
        assert requests.enqueue("pull_requests", b"x").accepted
    assert not requests.enqueue("pull_requests", b"x").accepted


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from(CHANNELS),
        st.sampled_from(["enqueue", "dequeue"]),
    ),
    max_size=200,
))
def test_capacity_never_exceeded_under_interleavings(ops):
    requests = BranchRequests(capacity=5)
    for channel, op in ops:
        if op == "enqueue":
            requests.enqueue(channel, b"payload")
        else:
            requests.dequeue(channel)
        for name in CHANNELS:
            assert requests.size(name) <= requests.capacities[name]


@pytest.mark.parametrize("op", ["dequeue", "size"])
def test_dequeue_and_size_refuse_an_unknown_channel(op):
    with pytest.raises(UnknownChannel):
        getattr(BranchRequests(), op)("mempool")


def test_a_founded_branch_holds_no_channels_until_first_asked_for():
    state = ProtocolState()
    empty = trie_mod.empty_trie(state.store)
    head = state.store.put_object(Submit(NULL_ID, "genesis", empty.root, SubmitTrace(), tick(3)))
    branch = state.found(NULL_ID, tick(3), head, twig_config())
    assert branch.branch_id == compute_branch_id(NULL_ID, tick(3), head)
    assert branch.stable_head == branch.initial_head == head
    assert state.branches == {branch.branch_id: branch} and branch.branch_id in state.touched
    assert state.requests == {}
    requests = state.requests_for(branch.branch_id)
    assert state.requests_for(branch.branch_id) is requests
    assert state.requests == {branch.branch_id: requests}
