"""Correctness checks computed apart from the engine.

Each check is a plain function over data the workload collected, so that
``selftest.py`` can feed it a deliberately wrong input and show that it
rejects it.
"""

from __future__ import annotations

import ast
import os
import re
import shutil

from lakat.codec import NULL_ID
from lakat.trie import TrieProof, verify_proof

_PROBLEM = re.compile(r"^(\S+): branch ([0-9a-f]{12}) (.*)$")


def descends_from(store, head, ancestor) -> bool:
    """True iff ``ancestor`` lies on the parent chain of ``head``: the old
    lignified prefix is still the prefix of the new head."""
    cursor = head
    while cursor != NULL_ID:
        if cursor == ancestor:
            return True
        cursor = store.get_object(cursor).parent
    return False


def flat_bucket_union(store, head) -> set:
    """Union of ``new_buckets`` over every submit included in ``head``: its
    parent chain plus, transitively, the chains behind each belt tip."""
    buckets, seen, frontier = set(), set(), [head]
    while frontier:
        cursor = frontier.pop()
        while cursor != NULL_ID and cursor not in seen:
            seen.add(cursor)
            trace = store.get_object(cursor).submit_trace
            buckets.update(trace.new_buckets)
            if trace.belt_tip is not None:
                frontier.append(trace.belt_tip)
            cursor = store.get_object(cursor).parent
    return buckets


def bucket_sets_agree(store, head, trie_buckets: set) -> bool:
    """The head trie holds exactly the flat union of included new_buckets."""
    return trie_buckets == flat_bucket_union(store, head)


def failing_branches(problems: list[str], outcome) -> dict:
    """Map (peer, branch id prefix) -> failure codes from ``verify_dump``
    output; a line of any other form is itself a problem."""
    failing: dict = {}
    for line in problems:
        match = _PROBLEM.match(line)
        if match is None:
            outcome.check(False, f"unexpected verify output: {line}")
            continue
        peer, branch, rest = match.groups()
        if rest.startswith("fails: "):
            codes = list(ast.literal_eval(rest[len("fails: "):]))
        else:
            codes = [rest]
        failing.setdefault((peer, branch), []).extend(codes)
    return failing


def proof_holds(root, bucket_id, info, proof: TrieProof, flip_at: int) -> bool:
    """The proof verifies against the root, and the same proof with the byte
    at ``flip_at`` (counted over all its nodes) changed does not."""
    if not verify_proof(root, bucket_id, info, proof):
        return False
    nodes = [bytearray(node) for node in proof.path]
    position = flip_at % sum(len(node) for node in nodes)
    for node in nodes:
        if position < len(node):
            node[position] ^= 0x01
            break
        position -= len(node)
    tampered = TrieProof(tuple(bytes(node) for node in nodes))
    return not verify_proof(root, bucket_id, info, tampered)


def trace_agrees(values: dict, facts: dict, outcome):
    """The traced counts agree with what the run saw.  ``values`` maps each
    per-layer metric to (value, unit); ``facts`` holds the traced window (the
    raw CPU time of the measured calls of the timed phase and the end of the
    run) and the counts the workload took itself over the same part."""
    self_sum = sum(value for key, (value, _) in values.items() if key.endswith(".self_s"))
    outcome.check(self_sum <= facts["window_s"],
                  f"summed self time {self_sum:.3f}s exceeds the traced window {facts['window_s']:.3f}s")
    if "gossip_lines" in facts:
        outcome.check(values["sim.gossip_payloads"][0] == facts["gossip_lines"],
                      "gossip payloads differ from gossip lines in the transcript")
    if "new_records" in facts:
        outcome.check(values["store.put_calls"][0] >= facts["new_records"],
                      "fewer store puts than records added to the stores")


def remove_tree(path: str):
    if os.path.isdir(path):
        shutil.rmtree(path)
