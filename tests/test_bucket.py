import random
import re

import pytest

from lakat.codec import LogicalTimestamp, NULL_ID, canonical_encode, content_id
from lakat.bucket import (
    SCHEMA_MOLECULAR,
    Bucket,
    BucketError,
    DanglingReference,
    ImmutableFieldError,
    InfoDelta,
    REF_MARKER,
    attach_info,
    check_context_membership,
    check_new_buckets,
    create_atomic_bucket,
    create_molecular_bucket,
    extract_refs,
    fresh_info,
    make_social_mark,
    make_storage_attestation,
    validate_refs,
)
from conftest import tick


def _creator(store, identity):
    return store.put(identity.public_key)


def test_atomic_bucket_empty_refs(store, alice):
    bucket, cid = create_atomic_bucket(store, _creator(store, alice), NULL_ID, b"x", [], tick(0))
    assert bucket.data_root == content_id(b"x")
    assert bucket.refs_root == content_id(canonical_encode([]))
    assert store.get_object(cid) == bucket


def test_content_addressing_identical_fields(store, alice):
    creator = _creator(store, alice)
    _, a = create_atomic_bucket(store, creator, NULL_ID, b"x", [], tick(3))
    _, b = create_atomic_bucket(store, creator, NULL_ID, b"x", [], tick(3))
    assert a == b


def test_field_sensitivity_sweep(store, alice, bob):
    """Changing any of the six fields changes the bucket id."""
    creator = _creator(store, alice)
    base, base_id = create_atomic_bucket(store, creator, NULL_ID, b"payload", [], tick(1))
    variants = []
    # schema
    variants.append(create_atomic_bucket(store, creator, NULL_ID, b"payload", [], tick(1), schema=5)[1])
    # creator root
    variants.append(create_atomic_bucket(store, _creator(store, bob), NULL_ID, b"payload", [], tick(1))[1])
    # parent
    variants.append(create_atomic_bucket(store, creator, content_id(b"parent"), b"payload", [], tick(1))[1])
    # data root
    variants.append(create_atomic_bucket(store, creator, NULL_ID, b"other", [], tick(1))[1])
    # refs root
    variants.append(create_atomic_bucket(store, creator, NULL_ID, b"payload", [content_id(b"r")], tick(1))[1])
    # timestamp
    variants.append(create_atomic_bucket(store, creator, NULL_ID, b"payload", [], tick(2))[1])
    assert len({base_id, *variants}) == 7


def test_molecular_order_matters(store, alice):
    creator = _creator(store, alice)
    _, a = create_atomic_bucket(store, creator, NULL_ID, b"a", [], tick(0))
    _, b = create_atomic_bucket(store, creator, NULL_ID, b"b", [], tick(0))
    _, ab = create_molecular_bucket(store, creator, NULL_ID, [a, b], tick(1))
    _, ba = create_molecular_bucket(store, creator, NULL_ID, [b, a], tick(1))
    assert ab != ba


def test_molecular_empty_arrangement_valid(store, alice):
    _, cid = create_molecular_bucket(store, _creator(store, alice), NULL_ID, [], tick(0))
    assert store.has(cid)


def test_molecular_dangling_arrangement_rejected(store, alice):
    with pytest.raises(DanglingReference):
        create_molecular_bucket(store, _creator(store, alice), NULL_ID, [content_id(b"ghost")], tick(0))


def test_extract_refs_marker():
    target = content_id(b"target")
    payload = b"see " + REF_MARKER + target.hex.encode() + b" for details"
    assert extract_refs(payload) == [target]


def test_validate_refs_examples(store, alice):
    creator = _creator(store, alice)
    a, b = content_id(b"a"), content_id(b"b")
    payload = REF_MARKER + a.hex.encode() + b" and " + REF_MARKER + b.hex.encode()
    bucket, _ = create_atomic_bucket(store, creator, NULL_ID, payload, [a, b], tick(0))
    assert validate_refs(bucket, payload, [a, b])

    lone = REF_MARKER + a.hex.encode()
    bucket2, _ = create_atomic_bucket(store, creator, NULL_ID, lone, [], tick(0))
    assert not validate_refs(bucket2, lone, [])


def _oracle_scan(payload: bytes) -> set:
    """Naive full-text scan for the in-band marker, independent of extract_refs."""
    found = set()
    pattern = re.compile(rb"@lakat:([0-9a-f]{66})")
    for match in pattern.finditer(payload):
        found.add(match.group(1).decode())
    return found


def test_validate_refs_mutation_sweep(store, alice):
    """100 random payload/ref mutations agree with the brute-force scan oracle."""
    rng = random.Random(42)
    creator = _creator(store, alice)
    pool = [content_id(bytes([i])) for i in range(8)]
    for _ in range(100):
        embedded = rng.sample(pool, rng.randrange(0, 4))
        payload = b"text"
        for ref in embedded:
            payload += b" " + REF_MARKER + ref.hex.encode()
            payload += rng.randbytes(rng.randrange(0, 4)).replace(b"@", b".")
        claimed = rng.sample(pool, rng.randrange(0, 4))
        bucket, _ = create_atomic_bucket(store, creator, NULL_ID, payload, claimed, tick(0))
        verdict = validate_refs(bucket, payload, claimed)
        oracle = _oracle_scan(payload) == {c.hex for c in claimed}
        assert verdict == oracle


def test_context_membership_same_submit(store, alice):
    creator = _creator(store, alice)
    _, a = create_atomic_bucket(store, creator, NULL_ID, b"a", [], tick(0))
    _, m = create_molecular_bucket(store, creator, NULL_ID, [a], tick(0))
    buckets = {a: store.get_object(a), m: store.get_object(m)}
    assert check_context_membership({a, m}, buckets, store)


def test_context_membership_lone_atomic_false(store, alice):
    creator = _creator(store, alice)
    _, a = create_atomic_bucket(store, creator, NULL_ID, b"a", [], tick(0))
    assert not check_context_membership({a}, {a: store.get_object(a)}, store)


def test_context_membership_from_earlier_submit(store, alice):
    """Second submit adds an atomic already covered by a stored molecular."""
    creator = _creator(store, alice)
    _, a = create_atomic_bucket(store, creator, NULL_ID, b"a", [], tick(0))
    _, m = create_molecular_bucket(store, creator, NULL_ID, [a], tick(0))
    # submit two introduces only the atomic; context sits in the store
    assert check_context_membership({a}, {a: store.get_object(a)}, store)


BAD_ARRANGEMENTS = pytest.mark.parametrize("record", [
    b"\xff garbage",  # does not decode
    canonical_encode(5),
    canonical_encode([b"x"]),
], ids=["undecodable", "number", "list-of-bytes"])


def _garbled_molecular(store, creator, record):
    bucket = Bucket(SCHEMA_MOLECULAR, creator, NULL_ID, store.put(record), NULL_ID, tick(0))
    return store.put_object(bucket)


@BAD_ARRANGEMENTS
def test_bad_arrangement_in_the_submit_fails_with_a_code(store, alice, record):
    creator = _creator(store, alice)
    _, a = create_atomic_bucket(store, creator, NULL_ID, b"a", [], tick(0))
    m = _garbled_molecular(store, creator, record)
    assert check_new_buckets(store, (a, m)) == ("bad-arrangement", m.hex)


@BAD_ARRANGEMENTS
def test_bad_arrangement_in_the_store_is_skipped(store, alice, record):
    creator = _creator(store, alice)
    _garbled_molecular(store, creator, record)
    _, a = create_atomic_bucket(store, creator, NULL_ID, b"a", [], tick(0))
    assert check_new_buckets(store, (a,)) == ("context-membership", "")
    create_molecular_bucket(store, creator, NULL_ID, [a], tick(0))
    assert check_new_buckets(store, (a,)) is None


def test_attach_review_appends(store):
    info = fresh_info([])
    out = attach_info(info, InfoDelta(reviews=(content_id(b"r"),)))
    assert len(out.reviews) == 1
    assert info.reviews == ()  # original untouched


def test_refs_out_write_once():
    info = fresh_info([content_id(b"x")])
    with pytest.raises(ImmutableFieldError):
        attach_info(info, InfoDelta(bucket_refs_out=(content_id(b"y"),)))


def test_bad_storage_attestation_rejected(store, alice, bob):
    bucket = content_id(b"bucket")
    attestation = make_storage_attestation(alice, bucket, tick(4))
    good = attach_info(fresh_info([]), InfoDelta(storage_proofs=(attestation,)))
    assert len(good.storage_proofs) == 1
    from dataclasses import replace

    forged = replace(attestation, storer=bob.public_key)
    with pytest.raises(BucketError):
        attach_info(fresh_info([]), InfoDelta(storage_proofs=(forged,)))


def test_social_mark_roundtrip(alice):
    mark = make_social_mark(alice, content_id(b"b"), "up")
    assert mark.verify()
    info = attach_info(fresh_info([]), InfoDelta(social_refs=(mark,)))
    assert info.social_refs == (mark,)


def test_parent_chain_terminates(store, alice):
    creator = _creator(store, alice)
    parent = NULL_ID
    chain = []
    for i in range(5):
        bucket, cid = create_atomic_bucket(store, creator, parent, bytes([i]), [], tick(i))
        chain.append(cid)
        parent = cid
    # walking parents reaches the zero id without cycling
    seen = set()
    cursor = chain[-1]
    while cursor != NULL_ID:
        assert cursor not in seen
        seen.add(cursor)
        cursor = store.get_object(cursor).parent
    assert seen == set(chain)
