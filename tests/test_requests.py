import pytest
from hypothesis import given, settings, strategies as st

from lakat.requests import CHANNELS, BranchRequests, UnknownChannel


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
