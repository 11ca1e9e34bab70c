import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from lakat.codec import (
    CodecError,
    ContentId,
    LogicalTimestamp,
    NULL_ID,
    canonical_decode,
    canonical_encode,
    content_id,
)
from lakat.bucket import Bucket, BucketInfo
from lakat.branch import AcceptanceRule, BranchConfig, Rational, Submit, SubmitTrace


def test_encode_deterministic_and_idempotent():
    info = BucketInfo()
    first = canonical_encode(info)
    second = canonical_encode(info)
    assert first == second
    assert canonical_encode(BucketInfo()) == first


def test_empty_info_is_compact():
    # all-empty object: one struct tag + varint code + six empty field markers
    encoded = canonical_encode(BucketInfo())
    assert len(encoded) <= 16


def test_roundtrip_primitives():
    values = [None, True, False, 0, 7, 2**40, b"", b"abc", "", "héllo", [], [1, b"x", ["y"]], NULL_ID]
    for value in values:
        assert canonical_decode(canonical_encode(value)) == value


def test_roundtrip_protocol_objects():
    ts = LogicalTimestamp(12, b"anchor")
    bucket = Bucket(0, NULL_ID, NULL_ID, content_id(b"d"), content_id(b"r"), ts)
    trace = SubmitTrace(new_buckets=(content_id(b"n"),))
    submit = Submit(NULL_ID, "msg", content_id(b"t"), trace, ts)
    config = BranchConfig(acceptance_rule=AcceptanceRule("fraction", Rational(2, 3)))
    for value in [ts, bucket, trace, submit, config, BucketInfo()]:
        assert canonical_decode(canonical_encode(value)) == value


class _Text(str):
    pass


def test_unencodable_kinds_raise():
    with pytest.raises(CodecError):
        canonical_encode({"a": 1})
    with pytest.raises(CodecError):
        canonical_encode(3.14)
    with pytest.raises(CodecError):
        canonical_encode({1, 2})
    # the encoder dispatches on exact type: a subclass of a plain kind is refused
    with pytest.raises(CodecError, match="unencodable value kind: _Text"):
        canonical_encode(["ok", _Text("sub")])


def test_trailing_garbage_rejected():
    with pytest.raises(CodecError):
        canonical_decode(canonical_encode(5) + b"\x00")


def _random_object(rng: random.Random, depth=0):
    kinds = ["int", "bytes", "text", "none", "bool"]
    if depth < 2:
        kinds += ["list", "ts", "trace"]
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randrange(0, 2**32)
    if kind == "bytes":
        return rng.randbytes(rng.randrange(0, 12))
    if kind == "text":
        return "".join(rng.choice("abcxyz@:") for _ in range(rng.randrange(0, 10)))
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "list":
        return [_random_object(rng, depth + 1) for _ in range(rng.randrange(0, 4))]
    if kind == "ts":
        return LogicalTimestamp(rng.randrange(0, 1000))
    return SubmitTrace(new_buckets=(content_id(rng.randbytes(8)),))


def test_injectivity_sweep_10k():
    """Randomized injectivity: distinct objects never share an encoding."""
    rng = random.Random(7)
    seen = {}
    collisions = []
    for _ in range(10_000):
        obj = _random_object(rng)
        encoded = canonical_encode(obj)
        prior = seen.get(encoded, _SENTINEL := object())
        if prior is not _SENTINEL and prior != obj:
            collisions.append((prior, obj))
        seen[encoded] = obj
    assert collisions == [], f"collision log: {collisions[:5]}"


def test_roundtrip_sweep_10k():
    rng = random.Random(8)
    for _ in range(10_000):
        obj = _random_object(rng)
        assert canonical_decode(canonical_encode(obj)) == obj


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    st.none() | st.booleans() | st.integers(min_value=0, max_value=2**60)
    | st.binary(max_size=32) | st.text(max_size=16),
    lambda children: st.lists(children, max_size=4),
    max_leaves=12,
))
def test_roundtrip_property(value):
    assert canonical_decode(canonical_encode(value)) == value


def test_content_id_deterministic(rng):
    for _ in range(50):
        data = rng.randbytes(rng.randrange(0, 64))
        assert content_id(data) == content_id(data)


def test_content_id_empty_fixed():
    cid = content_id(b"")
    assert cid.algo == 0x01
    # sha256 of the empty string
    assert cid.hex == "01e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_avalanche_sweep_10k():
    """One-bit flips always land on a different digest."""
    rng = random.Random(9)
    for _ in range(10_000):
        data = bytearray(rng.randbytes(rng.randrange(1, 32)))
        flipped = bytearray(data)
        bit = rng.randrange(0, len(data) * 8)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert content_id(bytes(data)) != content_id(bytes(flipped))


def test_content_id_text_form():
    cid = content_id(b"x")
    assert len(cid.hex) == 66
    assert cid.hex.startswith("01")
    assert ContentId.from_hex(cid.hex) == cid
    assert type(ContentId.from_hex(cid.hex)) is ContentId
    assert NULL_ID.hex == "00" + "0" * 64
    assert repr(content_id(b"")) == str(content_id(b"")) == "ContentId(01e3b0c442..)"
    assert f"{NULL_ID}" == "ContentId(0000000000..)"


@pytest.mark.parametrize("text, error", [
    (" 1" + "00" * 32, ValueError),  # int() read this as tag 01
    ("+1" + "00" * 32, ValueError),  # and this one too
    ("0g" + "00" * 32, ValueError),
    ("01" + "00" * 31 + "  ", CodecError),  # fromhex skips the spaces: 32 bytes
    ("01 " + "00" * 31 + " ", CodecError),
    ("01" + "00" * 31, CodecError),
    ("01" + "00" * 33, CodecError),
])
def test_content_id_from_hex_takes_only_its_own_text_form(text, error):
    with pytest.raises(error):
        ContentId.from_hex(text)


def test_content_id_encoding_and_raw_bytes():
    cid = content_id(b"x")
    assert canonical_encode(cid) == b"\x05\x01" + hashlib.sha256(b"x").digest()
    assert (cid.algo, cid.digest) == (0x01, hashlib.sha256(b"x").digest())
    assert ContentId(cid.algo, cid.digest) == cid
    for twin in (pickle.loads(pickle.dumps(cid)), copy.deepcopy(cid)):
        assert type(twin) is ContentId and twin == cid
    # an id equals its raw bytes, but raw bytes still encode and decode as bytes
    raw = bytes(cid)
    assert raw == cid and hash(raw) == hash(cid)
    assert canonical_encode(raw) == b"\x02\x21" + raw
    assert type(canonical_decode(canonical_encode(raw))) is bytes
    assert type(canonical_decode(canonical_encode(cid))) is ContentId
    with pytest.raises(CodecError):
        ContentId(0x100, cid.digest)
    with pytest.raises(CodecError):
        ContentId(0x01, cid.digest[:-1])


def test_content_id_orders_only_against_ids_and_bytes():
    with pytest.raises(TypeError):
        content_id(b"x") < 5
    with pytest.raises(TypeError):
        content_id(b"x") < "01"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(ContentId, st.integers(0, 255), st.binary(min_size=32, max_size=32)), max_size=20))
def test_id_order_is_hex_order(ids):
    assert sorted(ids) == sorted(ids, key=lambda c: c.hex)


def test_every_registered_struct_roundtrips(alice=None):
    """One instance of each registered protocol struct survives the codec."""
    from lakat.identity import ContributionProof
    from lakat.bucket import SocialMark, StorageAttestation
    from lakat.branch import (
        BranchSeed, PullRequestTrace, Rational, SelectionEntry, Veto, Vote,
    )
    from lakat.review import ReviewCommitment, ReviewItem
    from lakat.lignify import SproutWrap
    from lakat.trie import TrieBranch, TrieExtension, TrieLeaf

    ts = LogicalTimestamp(3, None)
    cid = content_id(b"x")
    proof = ContributionProof(b"pk", cid, "content", cid, b"sig")
    instances = [
        ts,
        Bucket(1, cid, NULL_ID, cid, cid, ts),
        BucketInfo(reviews=(cid,)),
        SocialMark(cid, "up", b"pk", b"sig"),
        StorageAttestation(cid, b"pk", ts, b"sig"),
        SubmitTrace(pull_requests=(PullRequestTrace(cid, cid, cid),), belt_tip=cid),
        PullRequestTrace(cid, cid, cid),
        Submit(NULL_ID, "m", cid, SubmitTrace(), ts),
        BranchConfig(),
        proof,
        BranchSeed(NULL_ID, ts, cid),
        TrieLeaf(b"\x01\x02", cid, cid),
        TrieExtension(b"\x03", cid),
        TrieBranch(tuple([None] * 16)),
        ReviewCommitment(proof, cid, ts),
        ReviewItem(cid, (cid,), "accept", 1),
        Veto(cid, b"pk", 5, b"sig"),
        Vote(cid, b"pk", 6, b"sig"),
        SelectionEntry(cid, (Veto(cid, b"pk", 5, b"sig"),), ()),
        SproutWrap(cid, cid, cid, b"pk", 7, cid),
        Rational(1, 2),
        AcceptanceRule("fraction", Rational(2, 3)),
    ]
    for value in instances:
        assert canonical_decode(canonical_encode(value)) == value


def test_overlong_varint_rejected():
    # 01 85 00 would read as 5, whose canonical encoding is 01 05
    assert canonical_encode(5) == bytes.fromhex("0105")
    with pytest.raises(CodecError):
        canonical_decode(bytes.fromhex("018500"))
    with pytest.raises(CodecError):
        canonical_decode(bytes.fromhex("0180808000"))
    # a lone zero byte is the shortest encoding of 0
    assert canonical_decode(bytes.fromhex("0100")) == 0


def test_bool_byte_must_be_zero_or_one():
    assert canonical_decode(bytes.fromhex("0700")) is False
    assert canonical_decode(bytes.fromhex("0701")) is True
    for byte in (0x02, 0x80, 0xFF):
        with pytest.raises(CodecError):
            canonical_decode(bytes([0x07, byte]))


def _salted_leaf():
    from lakat.trie import TrieLeaf

    return TrieLeaf(bytes([3, 0, 15]), content_id(b"value"), content_id(b"bucket"))


def _sample_values() -> tuple:
    """One value for each path through the encoder's and decoder's dispatch."""
    from lakat.identity import ContributionProof
    from lakat.lignify import SproutWrap
    from lakat.trie import TrieBranch

    cid = content_id(b"x")
    proof = ContributionProof(b"pk", cid, "content", content_id(b"e"), b"sig")
    children = [None] * 16
    children[2], children[9] = cid, content_id(b"y")
    gossip = [b"gossip", cid, ['{"branch_id": "01ab"}', "{}"], [SproutWrap(cid, cid, cid, b"pk", 7, cid)],
              [proof], [b"\x06\x01\x00", b""], [[cid.hex, NULL_ID.hex]], [cid.hex]]
    return (
        5,
        True,
        [b"ab", "héllo", None, [0, 300]],
        LogicalTimestamp(12, b"anchor"),
        Submit(NULL_ID, "msg", content_id(b"t"),
               SubmitTrace(new_buckets=(content_id(b"n"),)), LogicalTimestamp(3)),
        BranchConfig(acceptance_rule=AcceptanceRule("fraction", Rational(2, 3))),
        BucketInfo(bucket_refs_out=(content_id(b"o"),)),
        TrieBranch(tuple(children)),
        _salted_leaf(),
        [n * 3 for n in range(128)],  # the least two-byte count; numbers of one and two bytes
        bytes(range(128)),  # the least two-byte length
        "naïve — 木の葉 🌳",  # two-, three- and four-byte UTF-8
        "🌳" * 32,  # 128 bytes of UTF-8 in 32 characters
        proof,
        gossip,
    )


_CANONICAL_SAMPLES = [canonical_encode(value) for value in _sample_values()]


def test_samples_roundtrip_and_every_strict_prefix_is_refused():
    for value, data in zip(_sample_values(), _CANONICAL_SAMPLES):
        assert canonical_decode(data) == value
        assert canonical_encode(canonical_decode(data)) == data
        for end in range(len(data)):
            with pytest.raises(CodecError):
                canonical_decode(data[:end])


@pytest.mark.parametrize("data, message", [
    (b"", "truncated value"),
    (canonical_encode([None, None])[:-1], "truncated value"),
    (canonical_encode(b"abc")[:-1], "truncated bytes"),
    (canonical_encode("abc")[:-1], "truncated bytes"),
    (canonical_encode(bytes(128))[:-1], "truncated bytes"),
    (canonical_encode(content_id(b"x"))[:-1], "truncated content id"),
    (b"\x07", "truncated bool"),
    (canonical_encode(300)[:-1], "truncated varint"),
    (canonical_encode([1, 2])[:-1], "truncated varint"),
    (b"\x06\x7f", "unknown struct code 127"),
    (b"\x03\x02\xc3\x28", "text is not valid UTF-8: invalid continuation byte"),
    (canonical_encode(5) + b"\x00\x00", "2 trailing bytes after value"),
] + [(bytes([tag, 1, 0x41]), f"unknown value kind tag {tag:#x}") for tag in (0x08, 0x09, 0x7F, 0x80, 0xFF)])
def test_each_refusal_names_its_cause(data, message):
    with pytest.raises(CodecError, match=f"^{message}$"):
        canonical_decode(data)


def test_every_strict_prefix_of_a_salted_leaf_record_is_refused():
    from lakat.trie import TrieError, _node_bytes, decode_node

    record = _node_bytes(_salted_leaf())
    assert decode_node(record) == _salted_leaf()
    for end in range(len(record)):
        with pytest.raises((CodecError, TrieError)):
            decode_node(record[:end])


@st.composite
def _mutated_encoding(draw):
    data = bytearray(draw(st.sampled_from(_CANONICAL_SAMPLES)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        index = draw(st.integers(min_value=0, max_value=len(data) - 1))
        action = draw(st.sampled_from(("replace", "insert", "delete")))
        if action == "replace":
            data[index] = draw(st.integers(min_value=0, max_value=255))
        elif action == "insert":
            data.insert(index, draw(st.integers(min_value=0, max_value=255)))
        elif len(data) > 1:
            del data[index]
    return bytes(data)


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=48) | _mutated_encoding())
def test_decode_accepts_only_canonical_bytes(data):
    """Bytes decode only if they re-encode to the same bytes, and every
    rejection is a CodecError."""
    try:
        value = canonical_decode(data)
    except CodecError:
        return
    assert canonical_encode(value) == data


def test_mistyped_struct_field_is_a_codec_error():
    # LogicalTimestamp(0) is its struct tag, the tick 0 and the anchor; put a
    # content id where the integer tick belongs
    good = canonical_encode(LogicalTimestamp(0))
    tick = canonical_encode(0)
    assert good[2:4] == tick
    bad = good[:2] + canonical_encode(content_id(b"x")) + good[4:]
    with pytest.raises(CodecError, match="invalid LogicalTimestamp fields"):
        canonical_decode(bad)


def _id_written_as_bytes(value, cid) -> bytes:
    """The canonical bytes of `value` with its one encoded `cid` rewritten
    as a plain 33-byte bytes value."""
    encoded, as_id = canonical_encode(value), canonical_encode(cid)
    assert encoded.count(as_id) == 1
    return encoded.replace(as_id, canonical_encode(bytes(cid)))


def test_raw_bytes_in_an_id_field_do_not_decode():
    from lakat.identity import ContributionProof

    parent, root, evidence = content_id(b"p"), content_id(b"r"), content_id(b"e")
    submit = Submit(parent, "m", root, SubmitTrace(), LogicalTimestamp(1))
    proof = ContributionProof(b"pk", content_id(b"b"), "content", evidence, b"sig")
    for value, cid, field in ((submit, parent, "Submit.parent"),
                              (proof, evidence, "ContributionProof.evidence")):
        assert canonical_decode(canonical_encode(value)) == value
        with pytest.raises(CodecError, match=f"{field} must hold ContentId"):
            canonical_decode(_id_written_as_bytes(value, cid))
    # an optional id field takes None or an id, never bytes
    merge = SubmitTrace(belt_tip=parent)
    with pytest.raises(CodecError, match="SubmitTrace.belt_tip must hold ContentId"):
        canonical_decode(_id_written_as_bytes(merge, parent))


def test_an_id_in_a_bytes_field_does_not_decode():
    from lakat.branch import Veto

    key = content_id(b"k")
    veto = Veto(content_id(b"s"), bytes(key), 5, b"sig")
    bad = canonical_encode(veto).replace(canonical_encode(bytes(key)), canonical_encode(key))
    with pytest.raises(CodecError, match="Veto.contributor must hold bytes"):
        canonical_decode(bad)


def _id_tuple_probes():
    """(value holding one id in an id-tuple field, that id, field name)."""
    from lakat.review import ReviewItem
    from lakat.trie import TrieBranch

    cid, bucket = content_id(b"element"), content_id(b"bucket")
    children = [None] * 16
    children[5] = cid
    return [
        (TrieBranch(tuple(children)), cid, "TrieBranch.children"),
        (SubmitTrace(new_buckets=(cid,)), cid, "SubmitTrace.new_buckets"),
        (SubmitTrace(reviews_trace=(cid,)), cid, "SubmitTrace.reviews_trace"),
        (ReviewItem(bucket, (cid,), "accept", 1), cid, "ReviewItem.reviewed_buckets"),
        (BucketInfo(reviews=(cid,)), cid, "BucketInfo.reviews"),
        (BucketInfo(bucket_refs_out=(cid,)), cid, "BucketInfo.bucket_refs_out"),
        (BucketInfo(bucket_refs_in=(cid,)), cid, "BucketInfo.bucket_refs_in"),
    ]


@pytest.mark.parametrize("value,cid,field", _id_tuple_probes(),
                         ids=[probe[2] for probe in _id_tuple_probes()])
def test_raw_bytes_in_an_id_tuple_do_not_decode(value, cid, field):
    """A raw 33-byte element equals its id, so it would decode to an object
    equal to the honest one under another content id; it must not decode."""
    assert canonical_decode(canonical_encode(value)) == value
    with pytest.raises(CodecError, match=f"{field} must hold a list of ContentId"):
        canonical_decode(_id_written_as_bytes(value, cid))


def test_id_tuple_fields_keep_their_empty_and_absent_forms():
    from lakat.trie import TrieBranch

    for value in (TrieBranch(tuple([None] * 16)), SubmitTrace(), BucketInfo()):
        assert canonical_decode(canonical_encode(value)) == value


def test_every_engine_error_derives_from_lakat_error():
    """The scenario runner and the decoder catch engine refusals by one base."""
    import importlib
    import inspect
    import pkgutil

    import lakat
    from lakat.codec import LakatError

    found = set()
    for info in pkgutil.iter_modules(lakat.__path__):
        module = importlib.import_module(f"lakat.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                found.add(cls)
    assert {"CodecError", "BranchError", "SimError", "UnknownChannel", "ScenarioError"} <= {c.__name__ for c in found}
    assert [c.__name__ for c in found if c.__name__ != "ScenarioError" and not issubclass(c, LakatError)] == []
