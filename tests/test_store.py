import os
import random

import pytest

from lakat.codec import content_id
from lakat.store import FileStore, MemoryStore, MissingRecord, StoreError, open_log, read_log, write_log


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_roundtrip_and_content_addressing(backend, tmp_path, rng):
    store = MemoryStore() if backend == "memory" else FileStore(str(tmp_path / "run.log"))
    blobs = [rng.randbytes(rng.randrange(0, 48)) for _ in range(200)]
    ids = [store.put(blob) for blob in blobs]
    for cid, blob in zip(ids, blobs):
        assert store.get(cid) == blob
        assert content_id(store.get(cid)) == cid
    for cid in store.ids():
        assert content_id(store.get(cid)) == cid


def test_missing_record_raises(store):
    with pytest.raises(MissingRecord):
        store.get(content_id(b"never stored"))


def test_put_is_idempotent(store):
    a = store.put(b"data")
    b = store.put(b"data")
    assert a == b
    assert len(store) == 1


def test_file_store_format_and_reload(tmp_path):
    path = str(tmp_path / "records.log")
    store = FileStore(path)
    cid = store.put(b"\x01\x02")
    store.close()
    with open(path) as fh:
        line = fh.read().strip()
    hex_id, hex_bytes = line.split(" ")
    assert hex_id == cid.hex
    assert bytes.fromhex(hex_bytes) == b"\x01\x02"
    reloaded = FileStore(path)
    assert reloaded.get(cid) == b"\x01\x02"
    reloaded.close()
    assert os.listdir(tmp_path) == ["records.log"]  # the log is the only file


def test_file_store_sees_a_record_appended_after_close(tmp_path):
    path = str(tmp_path / "records.log")
    store = FileStore(path)
    cids = [store.put(bytes([i])) for i in range(5)]
    store.close()
    late = b"written by another process"
    with open_log(path, "a") as fh:
        fh.write(f"{content_id(late).hex} {late.hex()}\n")
    reloaded = FileStore(path)
    assert reloaded.has(content_id(late))
    for i, cid in enumerate(cids):
        assert reloaded.get(cid) == bytes([i])
    assert reloaded.put(late) == content_id(late)
    reloaded.close()
    with open(path) as fh:
        assert len(fh.readlines()) == 6  # the second put of the late record wrote nothing


def test_file_store_cuts_a_torn_tail_and_keeps_the_next_put(tmp_path):
    path = str(tmp_path / "records.log")
    store = FileStore(path)
    kept = store.put(b"kept")
    store.close()
    with open(path, "a") as fh:
        fh.write("01ab")  # a put cut off before its newline
    reopened = FileStore(path)
    after = reopened.put(b"after the tear")
    reopened.close()
    again = FileStore(path)
    assert again.ids() == [kept, after]
    assert again.get(after) == b"after the tear"
    again.close()


@pytest.mark.parametrize("bad, problem", [("garbage", "malformed"), ("00" * 33 + " 01", "id mismatch")])
def test_file_store_refuses_a_bad_middle_line(tmp_path, bad, problem):
    path = tmp_path / "records.log"
    FileStore(str(path)).close()
    good = b"good"
    path.write_text(f"{bad}\n{content_id(good).hex} {good.hex()}\n")
    with pytest.raises(StoreError, match=f"line 1 {problem}"):
        FileStore(str(path))


def test_read_log_reports_each_line(tmp_path):
    data = b"\x01\x02"
    good = f"{content_id(data).hex} {data.hex()}\n"
    lines = [good, "zz zz\n", f"{content_id(data).hex} 01  02\n", f"{content_id(b'x').hex} {data.hex()}\n", "01ab"]
    assert list(read_log(lines)) == [
        (1, 0, content_id(data), data, None),
        (2, len(good), None, None, "malformed"),
        (3, len(good) + 6, None, None, "malformed"),
        (4, 2 * len(good) + 8, content_id(data), data, "id mismatch"),
        (5, 3 * len(good) + 8, None, None, "torn"),
    ]


def test_write_log_then_read_log_roundtrip(tmp_path, rng):
    store = MemoryStore()
    for _ in range(50):
        store.put(rng.randbytes(rng.randrange(0, 48)))
    path = str(tmp_path / "store.log")
    with open_log(path, "w") as fh:
        write_log(fh, store)
    with open_log(path) as fh:
        read = [(cid, data, problem) for _, _, cid, data, problem in read_log(fh)]
    assert read == [(cid, store.get(cid), None) for cid in store.ids()]


def test_object_roundtrip(store):
    from lakat.codec import LogicalTimestamp

    ts = LogicalTimestamp(5)
    cid = store.put_object(ts)
    assert store.get_object(cid) == ts
