import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from lakat.codec import ContentId, NULL_ID, canonical_encode, content_id
from lakat.bucket import BucketInfo, InfoDelta, attach_info, fresh_info
from lakat.trie import (
    Trie,
    add_container,
    added_ids,
    TrieBranch,
    TrieError,
    TrieKeyCollision,
    TrieLeaf,
    decode_node,
    bucket_ids,
    empty_trie,
    get,
    insert,
    items,
    node_hash,
    prove,
    trie_key,
    verify_proof,
)
from lakat.store import MemoryStore


def _info(n: int) -> BucketInfo:
    return attach_info(fresh_info([]), InfoDelta(reviews=(content_id(bytes([n % 251])),)))


def _random_ids(rng, n):
    return [content_id(rng.randbytes(16)) for _ in range(n)]


def test_trie_key_shape():
    cid = content_id(b"x")
    key = trie_key(cid)
    assert len(key) == 32
    assert all(0 <= nib <= 15 for nib in key)
    assert key == trie_key(cid)
    # first 16 digest bytes, split into nibbles
    expected = []
    for byte in cid.digest[:16]:
        expected += [byte >> 4, byte & 0x0F]
    assert list(key) == expected


def test_insert_into_null_trie_is_salted_leaf(store):
    trie = empty_trie(store)
    cid = content_id(b"bucket")
    info = BucketInfo()
    out = insert(trie, cid, info)
    leaf = TrieLeaf(trie_key(cid), store.put_object(info), cid)
    assert out.root == node_hash(leaf)


def test_insert_idempotent(store):
    trie = empty_trie(store)
    cid = content_id(b"bucket")
    once = insert(trie, cid, _info(1))
    twice = insert(once, cid, _info(1))
    assert once.root == twice.root


def test_order_independence_200_keys(store, rng):
    """Root equals the sorted-insertion oracle for any insertion order."""
    ids = _random_ids(rng, 200)
    values = {cid: _info(i) for i, cid in enumerate(ids)}
    oracle = empty_trie(store)
    for cid in sorted(ids, key=lambda c: c.hex):
        oracle = insert(oracle, cid, values[cid])
    for trial in range(8):
        shuffled = ids[:]
        rng.shuffle(shuffled)
        trie = empty_trie(store)
        for cid in shuffled:
            trie = insert(trie, cid, values[cid])
        assert trie.root == oracle.root


def test_get_matches_flat_map_oracle(store, rng):
    """10^3 random present/absent lookups agree with a plain dict."""
    ids = _random_ids(rng, 300)
    flat = {}
    trie = empty_trie(store)
    for i, cid in enumerate(ids):
        info = _info(i)
        flat[cid] = info
        trie = insert(trie, cid, info)
    absent = _random_ids(rng, 200)
    for _ in range(1000):
        if rng.random() < 0.5:
            cid = rng.choice(ids)
        else:
            cid = rng.choice(absent)
        assert get(trie, cid) == flat.get(cid)


def test_update_value_changes_root_only_if_different(store):
    trie = empty_trie(store)
    cid = content_id(b"bucket")
    v1 = insert(trie, cid, _info(1))
    v2 = insert(v1, cid, _info(2))
    assert v1.root != v2.root
    assert get(v2, cid) == _info(2)


def test_persistence_old_roots_stay_readable(store, rng):
    ids = _random_ids(rng, 60)
    trie = empty_trie(store)
    snapshots = []
    for i, cid in enumerate(ids):
        trie = insert(trie, cid, _info(i))
        snapshots.append((trie.root, ids[: i + 1]))
    for root, present in snapshots:
        old = Trie(root, store)
        for j, cid in enumerate(present):
            assert get(old, cid) == _info(j)


def test_salted_leaf_distinctness_1000(store):
    """Fresh empty-info buckets all hash to distinct leaves."""
    hashes = set()
    for i in range(1000):
        cid = content_id(b"bucket-%d" % i)
        trie = insert(empty_trie(store), cid, BucketInfo())
        hashes.add(trie.root)
    assert len(hashes) == 1000


def test_truncated_key_collision_is_hard_error(store):
    """Two ids that share the 16 digest bytes of the trie key collide."""
    first = ContentId(0x01, bytes(16) + b"\x01" + bytes(15))
    second = ContentId(0x01, bytes(16) + b"\x02" + bytes(15))
    assert trie_key(first) == trie_key(second)
    trie = insert(empty_trie(store), first, BucketInfo())
    with pytest.raises(TrieKeyCollision):
        insert(trie, second, BucketInfo())


def test_proof_present_verifies(store, rng):
    ids = _random_ids(rng, 50)
    trie = empty_trie(store)
    for i, cid in enumerate(ids):
        trie = insert(trie, cid, _info(i))
    for i, cid in enumerate(ids):
        proof = prove(trie, cid)
        assert verify_proof(trie.root, cid, _info(i), proof)


def test_proof_absent_verifies(store, rng):
    ids = _random_ids(rng, 50)
    trie = empty_trie(store)
    for i, cid in enumerate(ids):
        trie = insert(trie, cid, _info(i))
    for cid in _random_ids(rng, 50):
        proof = prove(trie, cid)
        assert verify_proof(trie.root, cid, None, proof)
        assert not verify_proof(trie.root, cid, _info(0), proof)


def test_proof_wrong_root_fails(store, rng):
    ids = _random_ids(rng, 10)
    trie = empty_trie(store)
    for i, cid in enumerate(ids):
        trie = insert(trie, cid, _info(i))
    proof = prove(trie, ids[0])
    wrong_root = content_id(b"wrong")
    assert not verify_proof(wrong_root, ids[0], _info(0), proof)


def test_proof_tamper_fuzz_1000(store, rng):
    """Every single-node tampering of a valid proof is rejected."""
    ids = _random_ids(rng, 80)
    trie = empty_trie(store)
    values = {}
    for i, cid in enumerate(ids):
        values[cid] = _info(i)
        trie = insert(trie, cid, values[cid])
    rejected = 0
    trials = 0
    while trials < 1000:
        cid = rng.choice(ids)
        proof = prove(trie, cid)
        node_index = rng.randrange(len(proof.path))
        raw = bytearray(proof.path[node_index])
        raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        tampered = replace(proof, path=tuple(
            bytes(raw) if i == node_index else original
            for i, original in enumerate(proof.path)
        ))
        if tampered.path == proof.path:
            continue
        trials += 1
        if not verify_proof(trie.root, cid, values[cid], tampered):
            rejected += 1
    assert rejected == 1000


def test_empty_trie_absence_proof(store):
    trie = empty_trie(store)
    cid = content_id(b"missing")
    proof = prove(trie, cid)
    assert verify_proof(trie.root, cid, None, proof)
    assert not verify_proof(trie.root, cid, BucketInfo(), proof)


def test_add_container_registers_each_held_member_once(store):
    a, b, absent, box = (content_id(bytes([n])) for n in range(4))
    trie = insert(insert(empty_trie(store), a, fresh_info([])), b, fresh_info([]))
    held = add_container(trie, box, [a, b, absent])
    assert get(held, a).bucket_refs_in == (box,) == get(held, b).bucket_refs_in
    assert get(held, absent) is None
    assert add_container(held, box, [b, a]).root == held.root


def test_items_enumerates_bucket_ids(store, rng):
    ids = _random_ids(rng, 40)
    trie = empty_trie(store)
    for i, cid in enumerate(ids):
        trie = insert(trie, cid, _info(i))
    assert bucket_ids(trie) == set(ids)
    listed = items(trie)
    assert [pair[0] for pair in listed] == sorted(ids, key=lambda c: c.hex)


# -- added_ids: the structural merge delta ------------------------------------

# Key bytes from a three-letter alphabet and a distinct last key byte: ids
# share long prefixes, so tries grow extensions that later inserts split.
_PREFIX_BYTES = st.sampled_from([0x00, 0x0F, 0xF0])


@st.composite
def _shared_prefix_ids(draw, max_size=24):
    prefixes = draw(st.lists(st.lists(_PREFIX_BYTES, min_size=15, max_size=15),
                             min_size=0, max_size=max_size))
    return [ContentId(0x01, bytes(prefix) + bytes([index]) + bytes(16))
            for index, prefix in enumerate(prefixes)]


def _walked(trie) -> set:
    """Bucket ids by a full walk of the trie, apart from bucket_ids."""
    return {salt for salt, _ in items(trie)}


def _build(trie, ids, version):
    for cid in ids:
        trie = insert(trie, cid, _info(version + cid[16]))
    return trie


@settings(max_examples=300, deadline=None)
@given(ids=_shared_prefix_ids(), data=st.data())
def test_added_ids_equals_set_difference(ids, data):
    store = MemoryStore()
    old_ids = data.draw(st.lists(st.sampled_from(ids), unique=True) if ids else st.just([]))
    grown_ids = data.draw(st.lists(st.sampled_from(ids), unique=True) if ids else st.just([]))
    other_ids = data.draw(st.lists(st.sampled_from(ids), unique=True) if ids else st.just([]))
    old = _build(empty_trie(store), old_ids, 0)
    # new buckets plus value-only updates of held ones (same key, new info)
    grown = _build(old, grown_ids, 1)
    other = _build(empty_trie(store), other_ids, 2)  # no shared history
    empty = empty_trie(store)
    for a in (old, grown, other, empty):
        for b in (old, grown, other, empty):
            assert added_ids(store, a.root, b.root) == bucket_ids(b) - bucket_ids(a)


@settings(max_examples=200, deadline=None)
@given(ids=_shared_prefix_ids(), data=st.data())
def test_bucket_ids_keeps_the_last_listing(ids, data):
    """bucket_ids returns the store's last listing for the same root and
    walks any other; a run of listings of related and unrelated roots, with
    repeats, must each equal a fresh walk."""
    store = MemoryStore()
    draw_ids = lambda: data.draw(st.lists(st.sampled_from(ids), unique=True) if ids else st.just([]))  # noqa: E731
    old = _build(empty_trie(store), draw_ids(), 0)
    grown = _build(old, draw_ids(), 1)
    other = _build(empty_trie(store), draw_ids(), 2)  # no shared history
    tries = [old, grown, other, empty_trie(store)]
    for index in data.draw(st.lists(st.integers(0, len(tries) - 1), min_size=1, max_size=12)):
        assert bucket_ids(tries[index]) == _walked(tries[index])
        assert store.last_listing[0] == tries[index].root


def _field_types(node) -> tuple:
    types = [type(value) for value in vars(node).values()]
    if type(node) is TrieBranch:
        types += [type(child) for child in node.children]
    return tuple(types)


@settings(max_examples=150, deadline=None)
@given(ids=_shared_prefix_ids(), data=st.data())
def test_seeded_node_cache_matches_decoding(ids, data):
    """Every node store_node built and cached equals the decoding of its
    stored bytes, field types included, and a store holding only those
    bytes gives the same roots, listings and proofs."""
    store = MemoryStore()
    extra = [content_id(bytes([n])) for n in data.draw(st.lists(st.integers(0, 255), unique=True, max_size=12))]
    updates = data.draw(st.lists(st.sampled_from(ids + extra), unique=True) if ids + extra else st.just([]))
    first = _build(empty_trie(store), ids + extra, 0)
    grown = _build(first, updates, 1)  # info updates: same keys, new leaves up to the root
    for cid in store.ids():
        if cid not in store.node_cache:  # only bucket infos were not built as nodes
            with pytest.raises(TrieError):
                decode_node(store.get(cid))
            continue
        node, decoded = store.node_cache[cid], decode_node(store.get(cid))
        assert node == decoded and type(node) is type(decoded)
        assert _field_types(node) == _field_types(decoded)
    fresh = MemoryStore()
    for cid in store.ids():
        fresh.put(store.get(cid))
    assert _build(Trie(first.root, fresh), updates, 1).root == grown.root
    absent = content_id(b"absent")
    for trie in (first, grown):
        reread = Trie(trie.root, fresh)
        assert items(reread) == items(trie) and bucket_ids(reread) == bucket_ids(trie)
        for cid in ids + extra + [absent]:
            assert prove(reread, cid) == prove(trie, cid)
            assert get(reread, cid) == get(trie, cid)


def test_added_ids_skips_info_updates_and_finds_split_extensions(store):
    first = ContentId(0x01, bytes(15) + b"\x01" + bytes(16))
    second = ContentId(0x01, bytes(15) + b"\x02" + bytes(16))  # shares 30 nibbles with first
    third = ContentId(0x01, bytes(7) + b"\x10" + bytes(24))  # splits the extension above them
    old = _build(empty_trie(store), [first, second], 0)
    updated = insert(old, first, _info(99))
    assert updated.root != old.root
    assert added_ids(store, old.root, updated.root) == set()
    split = insert(updated, third, _info(5))
    assert added_ids(store, old.root, split.root) == {third}
    assert added_ids(store, split.root, old.root) == set()
    assert added_ids(store, NULL_ID, split.root) == {first, second, third}
    assert added_ids(store, split.root, split.root) == set()


def test_added_ids_reads_only_the_changed_paths(store, rng):
    ids = _random_ids(rng, 500)
    old = _build(empty_trie(store), ids, 0)
    fresh = content_id(b"one more bucket")
    new = insert(insert(old, fresh, _info(1)), ids[0], _info(2))
    store.node_cache.clear()
    assert added_ids(store, old.root, new.root) == {fresh}
    # two root-to-leaf paths on each side, out of some 600 nodes per trie
    assert len(store.node_cache) <= 4 * 4
    store.node_cache.clear()
    bucket_ids(new)
    assert len(store.node_cache) > 500
