"""Data buckets: immutable six-field content units plus their mutable info.

Atomic buckets hold raw payload bytes; molecular buckets hold an ordered
arrangement of other bucket ids and provide the context every new atomic
bucket must appear in.  References embedded in payloads are written with the
in-band marker ``@lakat:`` followed by the referenced id in hex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .codec import (
    CodecError,
    ContentId,
    LakatError,
    LogicalTimestamp,
    canonical_encode,
    content_id,
    protocol_struct,
)
from .identity import KeyIdentity, verify_signature
from .store import MissingRecord, Store

REF_MARKER = b"@lakat:"
_REF_PATTERN = re.compile(re.escape(REF_MARKER) + rb"([0-9a-f]{66})")

SCHEMA_ATOMIC = 0
SCHEMA_MOLECULAR = 1


class BucketError(LakatError):
    pass


class DanglingReference(BucketError):
    """An arrangement or reviewed-bucket list names an unknown id."""


class ImmutableFieldError(BucketError):
    """Attempt to rewrite a write-once bucket info field."""


class BadArrangement(BucketError):
    """A molecular bucket's arrangement record is not a list of ids."""


@protocol_struct(2)
@dataclass(frozen=True)
class Bucket:
    schema: int
    creator_root: ContentId
    parent: ContentId
    data_root: ContentId
    refs_root: ContentId
    timestamp: LogicalTimestamp


@protocol_struct(4)
@dataclass(frozen=True)
class SocialMark:
    """Signed thumbs up/down on a bucket."""

    bucket: ContentId
    direction: str  # "up" | "down"
    signer: bytes
    signature: bytes

    def message(self) -> bytes:
        return canonical_encode([b"social", self.bucket, self.direction])

    def verify(self) -> bool:
        return self.direction in ("up", "down") and verify_signature(
            self.signer, self.message(), self.signature
        )


def make_social_mark(identity: KeyIdentity, bucket: ContentId, direction: str) -> SocialMark:
    message = canonical_encode([b"social", bucket, direction])
    return SocialMark(bucket, direction, identity.public_key, identity.sign(message))


@protocol_struct(5)
@dataclass(frozen=True)
class StorageAttestation:
    """Signed, timestamped claim that a peer stores a bucket."""

    bucket: ContentId
    storer: bytes
    timestamp: LogicalTimestamp
    signature: bytes

    def message(self) -> bytes:
        return canonical_encode([b"storage", self.bucket, self.storer, self.timestamp.tick])

    def verify(self) -> bool:
        return verify_signature(self.storer, self.message(), self.signature)


def make_storage_attestation(
    identity: KeyIdentity, bucket: ContentId, timestamp: LogicalTimestamp
) -> StorageAttestation:
    message = canonical_encode([b"storage", bucket, identity.public_key, timestamp.tick])
    return StorageAttestation(bucket, identity.public_key, timestamp, identity.sign(message))


@protocol_struct(3)
@dataclass(frozen=True)
class BucketInfo:
    """Mutable interaction data attached to a bucket, kept in the data trie.

    bucket_refs_out is write-once (None until first set); every other field
    is append-only.
    """

    social_refs: tuple = ()
    reviews: tuple[ContentId, ...] = ()
    tokens: tuple = ()
    bucket_refs_out: tuple[ContentId, ...] | None = None
    bucket_refs_in: tuple[ContentId, ...] = ()
    storage_proofs: tuple = ()

    def __post_init__(self):
        # canonical encoding must not depend on list-vs-tuple construction
        for name in ("social_refs", "reviews", "tokens", "bucket_refs_in", "storage_proofs"):
            value = getattr(self, name)
            if isinstance(value, list):
                object.__setattr__(self, name, tuple(value))
        if isinstance(self.bucket_refs_out, list):
            object.__setattr__(self, "bucket_refs_out", tuple(self.bucket_refs_out))


EMPTY_INFO = BucketInfo()


@dataclass(frozen=True)
class InfoDelta:
    """Append-only additions to a BucketInfo."""

    social_refs: tuple = ()
    reviews: tuple = ()
    tokens: tuple = ()
    bucket_refs_out: tuple | None = None
    bucket_refs_in: tuple = ()
    storage_proofs: tuple = ()


def attach_info(info: BucketInfo, delta: InfoDelta) -> BucketInfo:
    """Apply an append-only delta, enforcing write-once and signature rules."""
    if delta.bucket_refs_out is not None and info.bucket_refs_out is not None:
        raise ImmutableFieldError("bucket_refs_out is write-once")
    for mark in delta.social_refs:
        if not mark.verify():
            raise BucketError("social mark signature invalid")
    for attestation in delta.storage_proofs:
        if not attestation.verify():
            raise BucketError("storage attestation signature invalid")
    refs_out = info.bucket_refs_out
    if delta.bucket_refs_out is not None:
        refs_out = tuple(delta.bucket_refs_out)
    new_in = info.bucket_refs_in + tuple(r for r in delta.bucket_refs_in if r not in info.bucket_refs_in)
    return BucketInfo(
        social_refs=info.social_refs + tuple(delta.social_refs),
        reviews=info.reviews + tuple(delta.reviews),
        tokens=info.tokens + tuple(delta.tokens),
        bucket_refs_out=refs_out,
        bucket_refs_in=new_in,
        storage_proofs=info.storage_proofs + tuple(delta.storage_proofs),
    )


def extract_refs(payload: bytes) -> list[ContentId]:
    """All distinct in-band bucket references, in order of first appearance."""
    seen = []
    for match in _REF_PATTERN.finditer(payload):
        cid = ContentId.from_hex(match.group(1).decode())
        if cid not in seen:
            seen.append(cid)
    return seen


def create_atomic_bucket(
    store: Store,
    creator_root: ContentId,
    parent: ContentId,
    payload: bytes,
    refs: list[ContentId],
    timestamp: LogicalTimestamp,
    schema: int = SCHEMA_ATOMIC,
) -> tuple[Bucket, ContentId]:
    """Store payload and refs list, return the bucket and its id."""
    data_root = store.put(payload)
    refs_root = store.put_object(list(refs))
    bucket = Bucket(schema, creator_root, parent, data_root, refs_root, timestamp)
    return bucket, store.put_object(bucket)


def create_molecular_bucket(
    store: Store,
    creator_root: ContentId,
    parent: ContentId,
    arrangement: list[ContentId],
    timestamp: LogicalTimestamp,
) -> tuple[Bucket, ContentId]:
    """Bucket whose payload is an ordered arrangement of existing bucket ids."""
    for member in arrangement:
        if not store.has(member):
            raise DanglingReference(f"arrangement member {member.hex} not in store")
    data_root = store.put_object(list(arrangement))
    refs_root = store.put_object(list(arrangement))
    bucket = Bucket(SCHEMA_MOLECULAR, creator_root, parent, data_root, refs_root, timestamp)
    return bucket, store.put_object(bucket)


def is_molecular(bucket: Bucket) -> bool:
    return bucket.schema == SCHEMA_MOLECULAR


def arrangement_of(store: Store, bucket: Bucket) -> list[ContentId]:
    if not is_molecular(bucket):
        raise BucketError("not a molecular bucket")
    arrangement = store.get_object(bucket.data_root)
    if type(arrangement) is not list or not all(type(member) is ContentId for member in arrangement):
        raise CodecError(f"arrangement {bucket.data_root.hex} is not a list of ids")
    return list(arrangement)


def validate_refs(bucket: Bucket, payload: bytes, refs: list[ContentId]) -> bool:
    """True iff refs matches the payload's marker set and the bucket's refs_root."""
    if content_id(payload) != bucket.data_root:
        return False
    if content_id(canonical_encode(list(refs))) != bucket.refs_root:
        return False
    return set(extract_refs(payload)) == set(refs)


def check_context_membership(
    new_bucket_ids: set[ContentId],
    submit_buckets: dict[ContentId, Bucket],
    store: Store,
) -> bool:
    """Every new atomic bucket must sit in some molecular arrangement.

    Molecular context may come from the same submit or from buckets already
    in the store.  Raises BadArrangement for a molecular bucket of the submit
    whose arrangement is not a list of ids; the store scan skips such buckets.
    """
    needing_context = set()
    for cid in new_bucket_ids:
        bucket = submit_buckets.get(cid)
        if bucket is None:
            bucket = store.get_object(cid)
        if not is_molecular(bucket):
            needing_context.add(cid)
    if not needing_context:
        return True
    contexted = set()
    for cid, bucket in submit_buckets.items():
        if is_molecular(bucket):
            try:
                contexted.update(arrangement_of(store, bucket))
            except CodecError as exc:
                raise BadArrangement(cid.hex) from exc
    if needing_context <= contexted:
        return True
    for cid in store.ids():
        try:
            obj = store.get_object(cid)
            if isinstance(obj, Bucket) and is_molecular(obj):
                contexted.update(arrangement_of(store, obj))
        except CodecError:
            continue
    return needing_context <= contexted


def check_new_buckets(store: Store, new_bucket_ids) -> tuple[str, str] | None:
    """The one check of a submit's new buckets, for appends and for
    verify_branch alike: load each one, then check context membership.
    Returns None on a pass, else the (code, detail) of the first failure:
    missing-bucket, not-a-bucket (a record that is not a bucket or does not
    decode), missing-record (an arrangement record of a molecular bucket),
    bad-arrangement (one that is not a list of ids) or context-membership."""
    submit_buckets = {}
    for cid in new_bucket_ids:
        try:
            obj = store.get_object(cid)
        except MissingRecord:
            return "missing-bucket", cid.hex
        except CodecError:
            obj = None
        if not isinstance(obj, Bucket):
            return "not-a-bucket", cid.hex
        submit_buckets[cid] = obj
    try:
        if not check_context_membership(set(submit_buckets), submit_buckets, store):
            return "context-membership", ""
    except MissingRecord as exc:
        return "missing-record", str(exc)
    except BadArrangement as exc:
        return "bad-arrangement", str(exc)
    return None


def fresh_info(refs_out: list[ContentId]) -> BucketInfo:
    return replace(EMPTY_INFO, bucket_refs_out=tuple(refs_out))
