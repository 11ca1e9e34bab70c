"""Canonical serialization and content identifiers.

Every protocol object has exactly one byte encoding: values are kind-tagged,
fields are written in declaration order, and absent/empty fields collapse to a
one- or two-byte marker so sparse objects stay compact.  Content ids are the
SHA-256 digest of those canonical bytes, prefixed with a one-byte algorithm
tag.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields as dc_fields

SHA256_TAG = 0x01
DIGEST_LEN = 32

# value kind tags
_K_ABSENT = 0x00
_K_UINT = 0x01
_K_BYTES = 0x02
_K_TEXT = 0x03
_K_LIST = 0x04
_K_CID = 0x05
_K_STRUCT = 0x06
_K_BOOL = 0x07


class LakatError(Exception):
    """Base of every error the engine raises for input it refuses."""


class CodecError(LakatError):
    """Value cannot be canonically encoded or bytes cannot be decoded."""


class ContentId(bytes):
    """Algorithm-tagged 32-byte content hash, held as 33 bytes: tag, then digest.

    A `bytes` subclass, so hashing (cached), equality and ordering run in C.
    An id equals the plain bytes of its value, which the decoder keeps out of
    id fields, and byte order is the order of the lowercase hex forms.
    """

    __slots__ = ()

    def __new__(cls, algo: int, digest: bytes):
        if not 0 <= algo <= 0xFF:
            raise CodecError(f"algo tag out of range: {algo}")
        if len(digest) != DIGEST_LEN:
            raise CodecError(f"digest must be {DIGEST_LEN} bytes")
        return bytes.__new__(cls, bytes((algo,)) + digest)

    def __getnewargs__(self):
        return self[0], self[1:]

    @property
    def algo(self) -> int:
        return self[0]

    @property
    def digest(self) -> bytes:
        return self[1:]

    hex = property(bytes.hex, doc="Lowercase hex of the 33 bytes.")

    @classmethod
    def from_hex(cls, text: str) -> "ContentId":
        """The id whose hex form is text; ValueError for a non-hex character,
        CodecError for a wrong length."""
        if len(text) != 2 + 2 * DIGEST_LEN:
            raise CodecError(f"content id hex must be {2 + 2 * DIGEST_LEN} chars")
        data = bytes.fromhex(text)
        if len(data) != 1 + DIGEST_LEN:  # fromhex skips whitespace between digit pairs
            raise CodecError(f"content id hex must be {2 + 2 * DIGEST_LEN} hex digits")
        return bytes.__new__(cls, data)

    def is_null(self) -> bool:
        return self == NULL_ID

    def __repr__(self):
        return f"ContentId({self.hex[:10]}..)"

    __str__ = __repr__


NULL_ID = ContentId(0x00, b"\x00" * DIGEST_LEN)
_SHA256_PREFIX = bytes((SHA256_TAG,))


def content_id(data: bytes) -> ContentId:
    """Content id of raw bytes: SHA-256 under the fixed algorithm tag."""
    return bytes.__new__(ContentId, _SHA256_PREFIX + hashlib.sha256(data).digest())


@dataclass(frozen=True)
class LogicalTimestamp:
    """Simulation tick plus an optional opaque external anchor."""

    tick: int
    anchor: bytes | None = None

    def __post_init__(self):
        if type(self.tick) is not int or self.tick < 0:
            raise CodecError("tick must be a non-negative integer")


# struct registry: type code <-> dataclass
_STRUCT_BY_CODE: dict[int, type] = {}
_CODE_BY_CLASS: dict[type, int] = {}
_FIELDS_BY_CLASS: dict[type, tuple] = {}
# (index, name, type, None allowed) of each field annotated `ContentId` or
# `bytes`, optionally `| None`; the decoder holds such fields to that type
_TYPED_FIELDS_BY_CLASS: dict[type, tuple] = {}
# (index, name, None allowed, element types allowed) of each field
# annotated `tuple[ContentId, ...]`, optionally with `| None` on the element
# or on the field; the decoder holds every element to those types
_ID_TUPLE_FIELDS_BY_CLASS: dict[type, tuple] = {}
_EXACT_TYPES = {"ContentId": ContentId, "bytes": bytes}
_NONE_SUFFIX = " | None"


def protocol_struct(code: int):
    """Class decorator registering a dataclass as an encodable struct."""

    def register(cls):
        if code in _STRUCT_BY_CODE:
            raise ValueError(f"struct code {code} already taken by {_STRUCT_BY_CODE[code]}")
        _STRUCT_BY_CODE[code] = cls
        _CODE_BY_CLASS[cls] = code
        _FIELDS_BY_CLASS[cls] = tuple(field.name for field in dc_fields(cls))
        typed, id_tuples = [], []
        for index, field in enumerate(dc_fields(cls)):
            kind = str(field.type)
            nullable = kind.endswith(_NONE_SUFFIX)
            kind = kind.removesuffix(_NONE_SUFFIX)
            if kind in _EXACT_TYPES:
                typed.append((index, field.name, _EXACT_TYPES[kind], nullable))
            elif kind in ("tuple[ContentId, ...]", "tuple[ContentId | None, ...]"):
                allowed = {ContentId, type(None)} if _NONE_SUFFIX in kind else {ContentId}
                id_tuples.append((index, field.name, nullable, frozenset(allowed)))
        _TYPED_FIELDS_BY_CLASS[cls] = tuple(typed)
        _ID_TUPLE_FIELDS_BY_CLASS[cls] = tuple(id_tuples)
        return cls

    return register


def is_protocol_struct(value) -> bool:
    return type(value) in _CODE_BY_CLASS


protocol_struct(1)(LogicalTimestamp)


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise CodecError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Shortest-form varint only: a zero final byte after the first would
    decode to the same value as the shorter encoding."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if byte == 0 and shift:
                raise CodecError("overlong varint")
            return result, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


def _encode_value(out: bytearray, value) -> None:
    if value is None:
        out.append(_K_ABSENT)
    elif isinstance(value, ContentId):  # before bytes: an id is a bytes value
        out.append(_K_CID)
        out.extend(value)
    elif isinstance(value, bool):
        out.append(_K_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, int):
        out.append(_K_UINT)
        _write_varint(out, value)
    elif isinstance(value, bytes):
        out.append(_K_BYTES)
        _write_varint(out, len(value))
        out.extend(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_K_TEXT)
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, (list, tuple)):
        out.append(_K_LIST)
        _write_varint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif type(value) in _CODE_BY_CLASS:
        out.append(_K_STRUCT)
        _write_varint(out, _CODE_BY_CLASS[type(value)])
        for name in _FIELDS_BY_CLASS[type(value)]:
            _encode_value(out, getattr(value, name))
    else:
        raise CodecError(f"unencodable value kind: {type(value).__name__}")


def _decode_value(data: bytes, pos: int):
    if pos >= len(data):
        raise CodecError("truncated value")
    kind = data[pos]
    pos += 1
    if kind == _K_ABSENT:
        return None, pos
    if kind == _K_BOOL:
        if pos >= len(data):
            raise CodecError("truncated bool")
        if data[pos] > 1:
            raise CodecError(f"bool byte must be 0 or 1, not {data[pos]}")
        return data[pos] == 1, pos + 1
    if kind == _K_UINT:
        return _read_varint(data, pos)
    if kind in (_K_BYTES, _K_TEXT):
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated bytes")
        raw = data[pos : pos + length]
        pos += length
        if kind == _K_BYTES:
            return raw, pos
        try:
            return raw.decode("utf-8"), pos
        except UnicodeDecodeError as exc:
            raise CodecError(f"text is not valid UTF-8: {exc.reason}") from exc
    if kind == _K_CID:
        if pos + 1 + DIGEST_LEN > len(data):
            raise CodecError("truncated content id")
        end = pos + 1 + DIGEST_LEN
        return bytes.__new__(ContentId, data[pos:end]), end
    if kind == _K_LIST:
        count, pos = _read_varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return items, pos
    if kind == _K_STRUCT:
        code, pos = _read_varint(data, pos)
        cls = _STRUCT_BY_CODE.get(code)
        if cls is None:
            raise CodecError(f"unknown struct code {code}")
        values = []
        for _ in _FIELDS_BY_CLASS[cls]:
            value, pos = _decode_value(data, pos)
            values.append(value)
        for index, name, exact, nullable in _TYPED_FIELDS_BY_CLASS[cls]:
            if type(values[index]) is not exact and not (nullable and values[index] is None):
                raise CodecError(f"{cls.__name__}.{name} must hold {exact.__name__}")
        for index, name, nullable, allowed in _ID_TUPLE_FIELDS_BY_CLASS[cls]:
            items = values[index]
            if not (allowed.issuperset(map(type, items)) if type(items) is list
                    else nullable and items is None):
                raise CodecError(f"{cls.__name__}.{name} must hold a list of ContentId")
        try:
            return cls(*values), pos
        except (LakatError, TypeError, ValueError) as exc:  # fields fail __post_init__ or are mistyped
            raise CodecError(f"invalid {cls.__name__} fields: {exc}") from exc
    raise CodecError(f"unknown value kind tag {kind:#x}")


def canonical_encode(value) -> bytes:
    """Deterministic canonical byte encoding of a protocol value."""
    out = bytearray()
    _encode_value(out, value)
    return bytes(out)


def canonical_decode(data: bytes):
    """Inverse of canonical_encode; rejects trailing garbage."""
    value, pos = _decode_value(data, 0)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after value")
    return value


def object_id(value) -> ContentId:
    """Content id of a protocol object's canonical encoding."""
    return content_id(canonical_encode(value))
