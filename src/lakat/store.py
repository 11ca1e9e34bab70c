"""Content-addressed key-value stores, and the record log they are saved as.

Keys are always the content id of the stored bytes.  Two backends: an
in-memory map and an append-only record log file.  This module owns the
log format, one `hex-id SPACE hex-bytes` line per record: `write_log` and
`FileStore.put` write it, and `read_log` alone reads it.
"""

from __future__ import annotations

import os

from .codec import NULL_ID, ContentId, LakatError, canonical_decode, canonical_encode, content_id, is_protocol_struct


class StoreError(LakatError):
    pass


class MissingRecord(StoreError):
    """Lookup of a content id that is not in the store."""


class Store:
    """Single-writer, multi-reader content-addressed map: a backend defines
    put, get, has and ids.

    The store is also the one cache of what is computed from its records.
    Each memo is keyed by content id; records are immutable and a store only
    grows, so an entry never goes stale.  A value that read a record the
    store lacks is not kept.  By key:
    - _decoded: record -> its decoded protocol struct (get_object);
    - node_cache: trie node -> the node trie.store_node built or load_node
      decoded, kept apart so a trie root that names any other record fails to load;
    - last_listing: the root listed last, with its bucket ids (trie.bucket_ids);
    - attestations: trie node -> storage attestation ids under it;
    - merge_index: submit -> belts merged in its inclusion closure and the
      (target, requesting) pairs of its pull requests;
    - verified: submits whose chain down to the singularity passed
      verify_branch's per-submit checks;
    - depth: submit -> the number of submits in its chain down to the
      singularity, kept only for chains that resolved (sim._chain_depth)."""

    def __init__(self):
        self._decoded: dict[ContentId, object] = {}
        self.node_cache: dict[ContentId, object] = {}
        self.last_listing: tuple[ContentId, frozenset] = (NULL_ID, frozenset())
        self.attestations: dict[ContentId, frozenset] = {}
        self.merge_index: dict[ContentId, tuple[tuple, frozenset]] = {NULL_ID: ((), frozenset())}
        self.verified: set[ContentId] = set()
        self.depth: dict[ContentId, int] = {NULL_ID: 0}

    def put_object(self, value) -> ContentId:
        return self.put(canonical_encode(value))

    def get_object(self, cid: ContentId):
        cached = self._decoded.get(cid)
        if cached is not None:
            return cached
        value = canonical_decode(self.get(cid))
        # records are immutable; frozen struct instances are safe to share
        if is_protocol_struct(value):
            self._decoded[cid] = value
        return value


class MemoryStore(Store):
    def __init__(self):
        super().__init__()
        self._records: dict[ContentId, bytes] = {}
        self._order: list[ContentId] = []

    def put(self, data: bytes, cid: ContentId | None = None) -> ContentId:
        cid = cid or content_id(data)  # a cid given is content_id(data), as read_log computed it
        if cid not in self._records:
            self._records[cid] = data
            self._order.append(cid)
        return cid

    def get(self, cid: ContentId) -> bytes:
        try:
            return self._records[cid]
        except KeyError:
            raise MissingRecord(cid.hex) from None

    def has(self, cid: ContentId) -> bool:
        return cid in self._records

    def ids(self) -> list[ContentId]:
        """Insertion-ordered ids; treat as read-only."""
        return self._order

    def __len__(self):
        return len(self._records)


def open_log(path: str, mode: str = "r"):
    """Open a record log as ASCII text split only at newlines, so a line's
    length is its length in bytes (a non-ASCII byte reads as one U+FFFD)."""
    return open(path, mode, encoding="ascii", errors="replace", newline="\n")


def _log_line(cid: ContentId, data: bytes) -> str:
    return f"{cid.hex} {data.hex()}\n"


def write_log(fh, store: Store):
    """Write store's records, in insertion order, to a log from open_log."""
    fh.writelines(_log_line(cid, store.get(cid)) for cid in store.ids())


def read_log(fh):
    """Yield (line number, byte offset, content id, record bytes, problem) per line of a log
    from open_log, or of any iterable of its lines; the id is the bytes' own.  The problem is
    None, "malformed" (id and bytes None), "id mismatch" (the bytes do not hash to the id the
    line names), or "torn": a last line without its newline (id and bytes None)."""
    offset = 0
    for line_no, line in enumerate(fh, 1):
        if line[-1] != "\n":
            yield line_no, offset, None, None, "torn"
            return
        hex_id, _, hex_bytes = line.partition(" ")
        try:
            data = bytes.fromhex(hex_bytes)
        except ValueError:
            data = None
        if data is None or len(hex_bytes) != 2 * len(data) + 1:  # fromhex skips inner spaces
            yield line_no, offset, None, None, "malformed"
        else:
            cid = content_id(data)
            yield line_no, offset, cid, data, None if cid.hex == hex_id else "id mismatch"
        offset += len(line)


class FileStore(Store):
    """A record log on disk and each record's byte offset in memory.  The
    log is the only truth: opening it cuts a torn last line (a put that did
    not finish) and refuses any other bad line."""

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        self._offsets: dict[ContentId, int] = {}
        if os.path.exists(path):
            with open_log(path) as fh:
                for line_no, offset, cid, _, problem in read_log(fh):
                    if problem == "torn":
                        os.truncate(path, offset)
                    elif problem is not None:
                        raise StoreError(f"{path} line {line_no} {problem}")
                    else:
                        self._offsets.setdefault(cid, offset)
        self._log = open_log(path, "a")
        self._end = os.path.getsize(path)

    def put(self, data: bytes) -> ContentId:
        cid = content_id(data)
        if cid in self._offsets:
            return cid
        line = _log_line(cid, data)
        self._log.write(line)
        self._log.flush()
        self._offsets[cid] = self._end
        self._end += len(line)
        return cid

    def get(self, cid: ContentId) -> bytes:
        offset = self._offsets.get(cid)
        if offset is None:
            raise MissingRecord(cid.hex)
        with open(self.path, "rb") as fh:
            fh.seek(offset)
            line = fh.readline().decode("ascii", "replace")
        for _, _, held, data, problem in read_log([line]):
            if problem is None and held == cid:
                return data
        raise StoreError(f"{self.path} byte {offset} does not hold {cid.hex}")

    def has(self, cid: ContentId) -> bool:
        return cid in self._offsets

    def ids(self) -> list[ContentId]:
        return list(self._offsets)

    def close(self):
        self._log.close()
