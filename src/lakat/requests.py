"""Per-branch staging area: eight bounded, ephemeral request channels."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .codec import LakatError

CHANNELS = (
    "submit_requests",
    "pull_requests",
    "review_commits",
    "review_submit_requests",
    "social_transactions",
    "token_transactions",
    "storage_updates",
    "branch_creation_broadcast",
)

DEFAULT_CAPACITY = 64


class UnknownChannel(LakatError):
    pass


@dataclass(frozen=True)
class EnqueueVerdict:
    accepted: bool
    reason: str = ""


class BranchRequests:
    """Eight FIFO channels, each with its own capacity.  Contents are
    ephemeral peer state and never enter any hashed object."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacities = {name: capacity for name in CHANNELS}
        self.channels: dict[str, deque] = {name: deque() for name in CHANNELS}

    def enqueue(self, channel: str, payload) -> EnqueueVerdict:
        if channel not in CHANNELS:
            raise UnknownChannel(channel)
        queue = self.channels[channel]
        if len(queue) >= self.capacities[channel]:
            return EnqueueVerdict(False, "capacity-rejected")
        queue.append(payload)
        return EnqueueVerdict(True)

    def dequeue(self, channel: str):
        if channel not in CHANNELS:
            raise UnknownChannel(channel)
        queue = self.channels[channel]
        if not queue:
            return None
        return queue.popleft()

    def size(self, channel: str) -> int:
        if channel not in CHANNELS:
            raise UnknownChannel(channel)
        return len(self.channels[channel])
