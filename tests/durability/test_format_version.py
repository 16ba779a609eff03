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


def test_a_version_one_journal_with_put_begin_is_refused_untouched(tmp_path):
    (tmp_path / "journal.log").write_text(UNSTAMPED_JOURNAL)
    before = files(tmp_path)
    with pytest.raises(FormatVersionError, match="format version 1"):
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
