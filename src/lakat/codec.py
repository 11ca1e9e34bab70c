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
from operator import attrgetter

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
_ID_LEN, _new_bytes = 1 + DIGEST_LEN, bytes.__new__


def content_id(data: bytes) -> ContentId:
    """Content id of raw bytes: SHA-256 under the fixed algorithm tag."""
    return _new_bytes(ContentId, _SHA256_PREFIX + hashlib.sha256(data).digest())


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
# dataclass -> (its kind tag and type code as encoded, its field values as one tuple)
_ENCODING_BY_CLASS: dict[type, tuple] = {}
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
        names = _FIELDS_BY_CLASS[cls] = tuple(field.name for field in dc_fields(cls))
        head = bytearray((_K_STRUCT,))
        _write_varint(head, code)
        _ENCODING_BY_CLASS[cls] = (bytes(head), attrgetter(*names) if len(names) > 1
                                   else lambda value: tuple(getattr(value, name) for name in names))
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
    return type(value) in _ENCODING_BY_CLASS


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


protocol_struct(1)(LogicalTimestamp)


def _encode_values(out: bytearray, values) -> None:
    """Append each value's encoding: one loop on exact type, recursing only into lists and structs."""
    append, extend = out.append, out.extend
    for value in values:
        kind = type(value)
        if kind is ContentId:
            append(_K_CID)
            extend(value)
        elif value is None:
            append(_K_ABSENT)
        elif kind is tuple or kind is list:
            append(_K_LIST)
            append(len(value)) if len(value) < 0x80 else _write_varint(out, len(value))
            _encode_values(out, value)
        elif kind is bytes:
            append(_K_BYTES)
            append(len(value)) if len(value) < 0x80 else _write_varint(out, len(value))
            extend(value)
        elif kind is str:
            raw = value.encode("utf-8")
            append(_K_TEXT)
            append(len(raw)) if len(raw) < 0x80 else _write_varint(out, len(raw))
            extend(raw)
        elif kind is int:
            append(_K_UINT)
            append(value) if 0 <= value < 0x80 else _write_varint(out, value)
        elif kind in _ENCODING_BY_CLASS:
            head, field_values = _ENCODING_BY_CLASS[kind]
            extend(head)
            _encode_values(out, field_values(value))
        elif kind is bool:
            extend((_K_BOOL, 1 if value else 0))
        else:  # a subclass of a plain kind too: dispatch is on exact type
            raise CodecError(f"unencodable value kind: {kind.__name__}")


def _build_struct(cls, values: list):
    """The struct of decoded field values, once every typed field holds its type."""
    for index, name, exact, nullable in _TYPED_FIELDS_BY_CLASS[cls]:
        if type(values[index]) is not exact and not (nullable and values[index] is None):
            raise CodecError(f"{cls.__name__}.{name} must hold {exact.__name__}")
    for index, name, nullable, allowed in _ID_TUPLE_FIELDS_BY_CLASS[cls]:
        items = values[index]
        if not (allowed.issuperset(map(type, items)) if type(items) is list
                else nullable and items is None):
            raise CodecError(f"{cls.__name__}.{name} must hold a list of ContentId")
    try:
        return cls(*values)
    except (LakatError, TypeError, ValueError) as exc:  # fields fail __post_init__ or are mistyped
        raise CodecError(f"invalid {cls.__name__} fields: {exc}") from exc


def _decode_values(data: bytes, pos: int, count: int) -> tuple[list, int]:
    """Decode count values from pos: one loop on the kind tag, recursing only into lists and structs."""
    values, end = [], len(data)
    append = values.append
    for _ in range(count):
        if pos >= end:
            raise CodecError("truncated value")
        kind = data[pos]
        pos += 1
        if kind == _K_CID:
            if pos + _ID_LEN > end:
                raise CodecError("truncated content id")
            append(_new_bytes(ContentId, data[pos : pos + _ID_LEN]))
            pos += _ID_LEN
        elif kind == _K_ABSENT:
            append(None)
        elif kind == _K_BOOL:
            if pos >= end:
                raise CodecError("truncated bool")
            if data[pos] > 1:
                raise CodecError(f"bool byte must be 0 or 1, not {data[pos]}")
            append(data[pos] == 1)
            pos += 1
        elif kind > _K_BOOL:
            raise CodecError(f"unknown value kind tag {kind:#x}")
        else:  # each other kind goes on with a varint: the number, a length, a count or a struct code
            number, pos = (data[pos], pos + 1) if pos < end and data[pos] < 0x80 else _read_varint(data, pos)
            if kind == _K_UINT:
                append(number)
            elif kind == _K_LIST:
                items, pos = _decode_values(data, pos, number)
                append(items)
            elif kind == _K_STRUCT:
                cls = _STRUCT_BY_CODE.get(number)
                if cls is None:
                    raise CodecError(f"unknown struct code {number}")
                fields, pos = _decode_values(data, pos, len(_FIELDS_BY_CLASS[cls]))
                append(_build_struct(cls, fields))
            elif pos + number > end:
                raise CodecError("truncated bytes")
            elif kind == _K_BYTES:
                append(data[pos : pos + number])
                pos += number
            else:
                try:
                    append(data[pos : pos + number].decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise CodecError(f"text is not valid UTF-8: {exc.reason}") from exc
                pos += number
    return values, pos


def canonical_encode(value) -> bytes:
    """Deterministic canonical byte encoding of a protocol value."""
    out = bytearray()
    _encode_values(out, (value,))
    return bytes(out)


def canonical_decode(data: bytes):
    """Inverse of canonical_encode; rejects trailing garbage."""
    (value,), pos = _decode_values(data, 0, 1)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after value")
    return value


def object_id(value) -> ContentId:
    """Content id of a protocol object's canonical encoding."""
    return content_id(canonical_encode(value))
