"""Content-addressed key-value stores.

Keys are always the content id of the stored bytes.  Two backends: an
in-memory map and an append-only log file with an offset index sidecar
(one `hex-id SPACE hex-bytes` record per line).
"""

from __future__ import annotations

import os

from .codec import ContentId, canonical_decode, canonical_encode, content_id, is_protocol_struct


class StoreError(Exception):
    pass


class MissingRecord(StoreError):
    """Lookup of a content id that is not in the store."""


class Store:
    """Single-writer, multi-reader content-addressed map."""

    def __init__(self):
        self._decoded: dict[ContentId, object] = {}
        self.node_cache: dict[ContentId, object] = {}  # decoded trie nodes, see trie.load_node

    def put(self, data: bytes) -> ContentId:
        raise NotImplementedError

    def get(self, cid: ContentId) -> bytes:
        raise NotImplementedError

    def has(self, cid: ContentId) -> bool:
        raise NotImplementedError

    def ids(self) -> list[ContentId]:
        raise NotImplementedError

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

    def put(self, data: bytes) -> ContentId:
        cid = content_id(data)
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


class FileStore(Store):
    """Append-only log per run, with an id -> byte-offset index sidecar."""

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        self.index_path = path + ".idx"
        self._offsets: dict[ContentId, int] = {}
        if os.path.exists(self.index_path):
            self._load_index()
        elif os.path.exists(self.path):
            self._rebuild_index()
        else:
            open(self.path, "a").close()
        self._log = open(self.path, "a")

    def _load_index(self):
        with open(self.index_path) as fh:
            for line in fh:
                hex_id, offset = line.split()
                self._offsets[ContentId.from_hex(hex_id)] = int(offset)

    def _rebuild_index(self):
        offset = 0
        with open(self.path) as fh:
            for line in fh:
                hex_id, _ = line.split(" ", 1)
                self._offsets[ContentId.from_hex(hex_id)] = offset
                offset += len(line)
        self._write_index()

    def _write_index(self):
        with open(self.index_path, "w") as fh:
            for cid, offset in self._offsets.items():
                fh.write(f"{cid.hex} {offset}\n")

    def put(self, data: bytes) -> ContentId:
        cid = content_id(data)
        if cid in self._offsets:
            return cid
        self._log.flush()
        offset = os.path.getsize(self.path)
        self._log.write(f"{cid.hex} {data.hex()}\n")
        self._log.flush()
        self._offsets[cid] = offset
        with open(self.index_path, "a") as fh:
            fh.write(f"{cid.hex} {offset}\n")
        return cid

    def get(self, cid: ContentId) -> bytes:
        offset = self._offsets.get(cid)
        if offset is None:
            raise MissingRecord(cid.hex)
        with open(self.path) as fh:
            fh.seek(offset)
            line = fh.readline()
        hex_id, hex_bytes = line.rstrip("\n").split(" ", 1)
        if hex_id != cid.hex:
            raise StoreError(f"index points at wrong record for {cid.hex}")
        return bytes.fromhex(hex_bytes)

    def has(self, cid: ContentId) -> bool:
        return cid in self._offsets

    def ids(self) -> list[ContentId]:
        return list(self._offsets)

    def close(self):
        self._log.close()
