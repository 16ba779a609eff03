"""The durable format's version stamp: every journal record and every
snapshot carries ``"v"``; state without one (written before stamping)
reads as version 1, and state in any version but this build's is
refused untouched."""

from __future__ import annotations

import json
import zlib

import pytest

from repro.durability import (
    FORMAT_VERSION,
    DurabilityManager,
    FormatVersionError,
)
from repro.nest.backends import MemoryStore
from repro.nest.storage import StorageManager

CLOCK = 1_000_000.0

#: A journal exactly as the appliance wrote it before the stamp existed
#: (format version 1): a PUT bracketed by ``put_begin`` and
#: ``put_commit``, then a rename.
UNSTAMPED_JOURNAL = (
    'b8731e34 {"last_used":1000000.0,"lot_id":"lot1","nbytes":200,'
    '"path":"/data/b","seq":7,"type":"lot_charge"}\n'
    'd31afade {"existed":false,"old_size":0,"path":"/data/b","seq":8,'
    '"size":200,"type":"put_begin","user":"alice"}\n'
    '3598df9f {"path":"/data/b","seq":9,"size":200,"type":"put_commit"}\n'
    '7d5cfc9d {"new_path":"/data/c","path":"/data/a","seq":10,'
    '"type":"rename"}\n')


#: A journal as format version 2 wrote it: a lot-charged PUT's
#: reservation as its own ``lot_charge`` record, and a shrinking
#: overwrite's release as a ``lot_release`` after its ``put_commit``.
VERSION_TWO_RECORDS = [
    {"type": "lot_create", "lot_id": "lot1", "owner": "admin",
     "capacity": 65536, "expires_at": CLOCK + 3600, "volatile": False,
     "last_used": CLOCK},
    {"type": "mkdir", "user": "admin", "path": "/a"},
    {"type": "lot_charge", "lot_id": "lot1", "path": "/a/x.1-0.nest-tmp",
     "nbytes": 10, "last_used": CLOCK},
    {"type": "put_commit", "path": "/a/x", "size": 10, "user": "admin",
     "staged": "/a/x.1-0.nest-tmp"},
    {"type": "put_commit", "path": "/a/x", "size": 3, "user": "admin",
     "staged": "/a/x.1-1.nest-tmp"},
    {"type": "lot_release", "lot_id": "lot1", "path": "/a/x", "nbytes": 7},
]


def recover(state_dir):
    storage = StorageManager(store=MemoryStore(), require_lots=True,
                             capacity_bytes=1 << 20, clock=lambda: CLOCK)
    manager = DurabilityManager(str(state_dir), fsync=False,
                                snapshot_every=0)
    report = manager.recover_into(storage)
    return storage, manager, report


def frame(rec: dict) -> bytes:
    data = json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
    return b"%08x " % (zlib.crc32(data) & 0xFFFFFFFF,) + data + b"\n"


def files(state_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(state_dir.iterdir())}


def test_records_and_snapshots_are_stamped(tmp_path):
    storage, manager, _ = recover(tmp_path)
    storage.mkdir("admin", "/d")
    manager.close(snapshot=False)
    records = manager.journal.replay().records
    assert records and all(r["v"] == FORMAT_VERSION for r in records)
    manager.snapshot()
    doc = json.loads((tmp_path / "snapshot.json").read_bytes())
    assert doc["v"] == FORMAT_VERSION


@pytest.mark.parametrize("state", ["v1-journal", "v2-journal",
                                   "v2-snapshot"])
def test_an_older_format_is_refused_untouched(tmp_path, state):
    """Version 1 bracketed a PUT with ``put_begin``; version 2 wrote a
    PUT as up to three records.  Version 3 replays neither, so a state
    directory of either is refused with its files as they were."""
    if state == "v1-journal":
        (tmp_path / "journal.log").write_text(UNSTAMPED_JOURNAL)
    elif state == "v2-journal":
        (tmp_path / "journal.log").write_bytes(b"".join(
            frame({**rec, "seq": seq, "v": 2})
            for seq, rec in enumerate(VERSION_TWO_RECORDS, 1)))
    else:
        (tmp_path / "snapshot.json").write_text(json.dumps(
            {"seq": 6, "v": 2, "state": {"storage": {"used_bytes": 3}}}))
    before = files(tmp_path)
    with pytest.raises(FormatVersionError,
                       match=f"format version {state[1]}"):
        recover(tmp_path)
    assert files(tmp_path) == before


@pytest.mark.parametrize("where", ["journal", "snapshot"])
def test_newer_format_is_refused_untouched(tmp_path, where):
    storage, manager, _ = recover(tmp_path)
    storage.mkdir("admin", "/d")
    manager.snapshot()
    storage.mkdir("admin", "/e")
    manager.close(snapshot=False)
    if where == "journal":
        with open(tmp_path / "journal.log", "ab") as f:
            f.write(frame({"seq": manager.journal.last_seq + 1,
                           "type": "mkdir", "user": "admin", "path": "/f",
                           "v": FORMAT_VERSION + 1}))
    else:
        path = tmp_path / "snapshot.json"
        doc = json.loads(path.read_bytes())
        doc["v"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
    before = files(tmp_path)
    with pytest.raises(FormatVersionError,
                       match=f"format version {FORMAT_VERSION + 1}"):
        recover(tmp_path)
    assert files(tmp_path) == before

