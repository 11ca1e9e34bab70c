"""Merkle-Patricia trie over truncated bucket ids.

Radix-16 trie with four node kinds (null, leaf, extension, branch) mapping
the first 16 bytes of a bucket id's digest to that bucket's mutable info.
Leaf hashing is salted with the full bucket id so fresh buckets with empty
info still hash apart.  Updates are persistent: old roots stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import (
    CodecError, ContentId, LakatError, NULL_ID, canonical_decode, canonical_encode, content_id, protocol_struct,
)
from .bucket import BucketInfo, InfoDelta, attach_info
from .store import Store

KEY_NIBBLES = 32  # 16 bytes of digest

_STRUCT_TAG = 0x06  # first byte of a canonically encoded struct


class TrieError(LakatError):
    pass


class TrieKeyCollision(TrieError):
    """Two distinct bucket ids truncate to the same trie key."""


@protocol_struct(12)
@dataclass(frozen=True)
class TrieLeaf:
    key_suffix: bytes  # one nibble per byte
    value_hash: ContentId
    salt: ContentId  # full bucket id


@protocol_struct(13)
@dataclass(frozen=True)
class TrieExtension:
    shared: bytes
    child: ContentId


@protocol_struct(14)
@dataclass(frozen=True)
class TrieBranch:
    children: tuple[ContentId | None, ...]  # 16 entries
    value: ContentId | None = None

    def __post_init__(self):
        if isinstance(self.children, list):
            object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) != 16:
            raise TrieError("branch node needs 16 children")


_NIBBLE_OF_HEX_DIGIT = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def trie_key(bucket_id: ContentId) -> bytes:
    """Truncated key: the first KEY_NIBBLES nibbles of the digest, one per byte."""
    return bucket_id.hex[2 : 2 + KEY_NIBBLES].encode().translate(_NIBBLE_OF_HEX_DIGIT)


def _node_bytes(node) -> bytes:
    if isinstance(node, TrieLeaf):
        return node.salt + canonical_encode(node)
    return canonical_encode(node)


def node_hash(node) -> ContentId:
    """Salted hash for leaves, plain canonical hash otherwise."""
    return content_id(_node_bytes(node))


def store_node(store: Store, node) -> ContentId:
    """Store a node just built and seed node_cache with it: only nodes that came as bytes are decoded."""
    cid = store.put(_node_bytes(node))
    store.node_cache[cid] = node
    return cid


def decode_node(data: bytes):
    if data and data[0] == _STRUCT_TAG:
        node = canonical_decode(data)
        if not isinstance(node, (TrieExtension, TrieBranch)):
            raise TrieError("stored bytes are not a trie node")
        return node
    if len(data) < 34:
        raise TrieError("truncated salted leaf record")
    node = canonical_decode(data[33:])
    if not isinstance(node, TrieLeaf) or node.salt != data[:33]:
        raise TrieError("salted record does not carry a matching leaf")
    return node


def load_node(store: Store, cid: ContentId):
    node = store.node_cache.get(cid)
    if node is None:
        node = store.node_cache[cid] = decode_node(store.get(cid))
    return node


@dataclass(frozen=True)
class Trie:
    """Handle onto a persistent trie: a root hash over a shared node store."""

    root: ContentId
    store: Store


def empty_trie(store: Store) -> Trie:
    return Trie(NULL_ID, store)


def _common_prefix(a: bytes, b: bytes) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _insert(store: Store, node_id: ContentId, key: bytes, value_hash: ContentId, salt: ContentId) -> ContentId:
    if node_id == NULL_ID:
        return store_node(store, TrieLeaf(key, value_hash, salt))
    node = load_node(store, node_id)
    if isinstance(node, TrieLeaf):
        if node.key_suffix == key:
            if node.salt != salt:
                raise TrieKeyCollision(
                    f"truncated key clash between {node.salt.hex} and {salt.hex}"
                )
            return store_node(store, TrieLeaf(key, value_hash, salt))
        shared = _common_prefix(node.key_suffix, key)
        children = [None] * 16
        children[node.key_suffix[shared]] = store_node(
            store, TrieLeaf(node.key_suffix[shared + 1 :], node.value_hash, node.salt)
        )
        children[key[shared]] = store_node(store, TrieLeaf(key[shared + 1 :], value_hash, salt))
        branch_id = store_node(store, TrieBranch(tuple(children)))
        if shared:
            return store_node(store, TrieExtension(key[:shared], branch_id))
        return branch_id
    if isinstance(node, TrieExtension):
        shared = _common_prefix(node.shared, key)
        if shared == len(node.shared):
            child = _insert(store, node.child, key[shared:], value_hash, salt)
            return store_node(store, TrieExtension(node.shared, child))
        children = [None] * 16
        rest = node.shared[shared + 1 :]
        if rest:
            children[node.shared[shared]] = store_node(store, TrieExtension(rest, node.child))
        else:
            children[node.shared[shared]] = node.child
        children[key[shared]] = store_node(store, TrieLeaf(key[shared + 1 :], value_hash, salt))
        branch_id = store_node(store, TrieBranch(tuple(children)))
        if shared:
            return store_node(store, TrieExtension(key[:shared], branch_id))
        return branch_id
    # branch node
    nibble = key[0]
    children = list(node.children)
    child = children[nibble]
    if child is None:
        children[nibble] = store_node(store, TrieLeaf(key[1:], value_hash, salt))
    else:
        children[nibble] = _insert(store, child, key[1:], value_hash, salt)
    return store_node(store, TrieBranch(tuple(children), node.value))


def insert(trie: Trie, bucket_id: ContentId, info: BucketInfo) -> Trie:
    """Persistent insert/update of a bucket's info; returns the new trie."""
    value_hash = trie.store.put_object(info)
    key = trie_key(bucket_id)
    root = _insert(trie.store, trie.root, key, value_hash, bucket_id)
    return Trie(root, trie.store)


def add_container(trie: Trie, container: ContentId, members) -> Trie:
    """Reverse containment: each member the trie holds gains the molecular
    container in its bucket_refs_in, once.  Members outside the trie are
    skipped."""
    for member in members:
        info = get(trie, member)
        if info is not None and container not in info.bucket_refs_in:
            trie = insert(trie, member, attach_info(info, InfoDelta(bucket_refs_in=(container,))))
    return trie


def _walk(store: Store, root: ContentId, key: bytes):
    """Yield (node id, node, remaining key) along the lookup path, ending at leaf or divergence."""
    node_id = root
    remaining = key
    while node_id is not None and node_id != NULL_ID:
        node = load_node(store, node_id)
        yield node_id, node, remaining
        if isinstance(node, TrieLeaf):
            return
        if isinstance(node, TrieExtension):
            if remaining[: len(node.shared)] != node.shared:
                return
            remaining = remaining[len(node.shared) :]
            node_id = node.child
        else:
            if not remaining:
                return
            node_id = node.children[remaining[0]]
            remaining = remaining[1:]


def get(trie: Trie, bucket_id: ContentId) -> BucketInfo | None:
    """Value stored for the bucket, or None when absent."""
    key = trie_key(bucket_id)
    for _, node, remaining in _walk(trie.store, trie.root, key):
        if isinstance(node, TrieLeaf):
            if node.key_suffix == remaining and node.salt == bucket_id:
                return trie.store.get_object(node.value_hash)
            return None
    return None


@dataclass(frozen=True)
class TrieProof:
    """Nodes along the root-to-leaf (or root-to-divergence) path, as stored bytes."""

    path: tuple


def prove(trie: Trie, bucket_id: ContentId) -> TrieProof:
    key = trie_key(bucket_id)
    nodes = [trie.store.get(node_id) for node_id, _, _ in _walk(trie.store, trie.root, key)]
    return TrieProof(tuple(nodes))


def verify_proof(
    root: ContentId,
    bucket_id: ContentId,
    value: BucketInfo | None,
    proof: TrieProof,
) -> bool:
    """Replay the proof against the root; True iff it supports the claim."""
    key = trie_key(bucket_id)
    if root == NULL_ID:
        return value is None and not proof.path
    expected = root
    remaining = key
    for index, data in enumerate(proof.path):
        if content_id(data) != expected:
            return False
        try:
            node = decode_node(data)
        except (CodecError, TrieError):
            return False
        last = index == len(proof.path) - 1
        if isinstance(node, TrieLeaf):
            if not last:
                return False
            if node.key_suffix == remaining and node.salt == bucket_id:
                if value is None:
                    return False
                return node.value_hash == content_id(canonical_encode(value))
            return value is None
        if isinstance(node, TrieExtension):
            if remaining[: len(node.shared)] != node.shared:
                return last and value is None
            remaining = remaining[len(node.shared) :]
            expected = node.child
            if last:
                return False
            continue
        # branch
        if not remaining:
            return False
        child = node.children[remaining[0]]
        if child is None:
            return last and value is None
        remaining = remaining[1:]
        expected = child
        if last:
            return False
    return False


def items(trie: Trie) -> list[tuple[ContentId, ContentId]]:
    """All (bucket_id, value_hash) pairs, sorted by bucket id."""
    results = []

    def visit(node_id: ContentId):
        if node_id == NULL_ID or node_id is None:
            return
        node = load_node(trie.store, node_id)
        if isinstance(node, TrieLeaf):
            results.append((node.salt, node.value_hash))
        elif isinstance(node, TrieExtension):
            visit(node.child)
        else:
            for child in node.children:
                if child is not None:
                    visit(child)

    visit(trie.root)
    return sorted(results)


def bucket_ids(trie: Trie) -> frozenset[ContentId]:
    """Every bucket id in the trie (the leaf salts), unordered.  The store
    keeps the last listing (root, ids): listing that root again walks nothing."""
    store, cache = trie.store, trie.store.node_cache
    if store.last_listing[0] == trie.root:
        return store.last_listing[1]
    found = set()
    add = found.add
    stack = [] if trie.root == NULL_ID else [trie.root]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        cid = pop()
        node = cache.get(cid) or load_node(store, cid)
        kind = type(node)
        if kind is TrieLeaf:
            add(node.salt)
        elif kind is TrieExtension:
            push(node.child)
        else:
            extend(filter(None, node.children))
    store.last_listing = (trie.root, frozenset(found))
    return store.last_listing[1]


def _fanout(node) -> tuple:
    """A node seen as a 16-way branch: an extension or leaf becomes one child
    under its first nibble, the rest of it kept as an unstored node."""
    if type(node) is TrieBranch:
        return node.children
    children = [None] * 16
    if type(node) is TrieExtension:
        rest = node.shared[1:]
        children[node.shared[0]] = TrieExtension(rest, node.child) if rest else node.child
    else:
        children[node.key_suffix[0]] = TrieLeaf(node.key_suffix[1:], node.value_hash, node.salt)
    return children


def added_ids(store: Store, old_root: ContentId, new_root: ContentId) -> set[ContentId]:
    """Bucket ids under new_root that old_root lacks: exactly
    bucket_ids(new) - bucket_ids(old), but the walk descends both tries in
    step and enters only the subtrees whose ids differ, so its cost follows
    the difference rather than the trie size.  A leaf met on the new side is
    looked up on the old side, so a bucket whose info changed is not new."""
    cache = store.node_cache

    def node_of(ref):  # a stored node id, None, or an unstored node from _fanout
        if type(ref) is not ContentId:
            return ref
        return cache.get(ref) or load_node(store, ref)

    found = set()
    stack = [(None if old_root == NULL_ID else old_root, new_root)]
    while stack:
        old, new = stack.pop()
        if new is None or new == NULL_ID or old == new:
            continue
        node = node_of(new)
        if type(node) is TrieLeaf:  # look its salt up on the old side
            held = node_of(old)
            for nibble in node.key_suffix:
                if held is None or type(held) is TrieLeaf:
                    break
                held = node_of(_fanout(held)[nibble])
            if type(held) is not TrieLeaf or held.salt != node.salt:
                found.add(node.salt)
            continue
        old_children = (None,) * 16 if old is None else _fanout(node_of(old))
        stack.extend(pair for pair in zip(old_children, _fanout(node)) if pair[0] != pair[1])
    return found
