"""Unit tests for the CRC-framed write-ahead journal and snapshots."""

from __future__ import annotations

import errno
import os

import pytest

from repro.durability.journal import JournalError, MetadataJournal
from repro.durability.snapshot import SnapshotStore
from repro.faults.disk import DiskFaultPlan, DiskFaultRule, SimulatedCrash
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def journal_path(tmp_path):
    return str(tmp_path / "journal.log")


def test_append_replay_roundtrip(journal_path):
    j = MetadataJournal(journal_path)
    assert j.append("mkdir", {"user": "alice", "path": "/a"}) == 1
    assert j.append("lot_create", {"lot_id": "lot1", "capacity": 100}) == 2
    j.close()
    result = MetadataJournal(journal_path).replay()
    assert not result.corrupt_tail
    assert [r["type"] for r in result.records] == ["mkdir", "lot_create"]
    assert [r["seq"] for r in result.records] == [1, 2]
    assert result.records[0]["path"] == "/a"


def test_replay_missing_file_is_empty(journal_path):
    result = MetadataJournal(journal_path).replay()
    assert result.records == [] and not result.corrupt_tail


def test_torn_tail_stops_replay_at_last_durable_record(journal_path):
    j = MetadataJournal(journal_path)
    for i in range(3):
        j.append("mkdir", {"path": f"/d{i}"})
    j.close()
    # Tear the last record: chop bytes off the file's tail.
    size = os.path.getsize(journal_path)
    with open(journal_path, "r+b") as f:
        f.truncate(size - 7)
    result = MetadataJournal(journal_path).replay()
    assert result.corrupt_tail
    assert [r["path"] for r in result.records] == ["/d0", "/d1"]
    # truncate_to removes the torn fragment so appends extend cleanly.
    j2 = MetadataJournal(journal_path)
    j2.truncate_to(result.valid_bytes)
    j2.last_seq = result.records[-1]["seq"]
    j2.append("mkdir", {"path": "/d9"})
    j2.close()
    final = MetadataJournal(journal_path).replay()
    assert not final.corrupt_tail
    assert [r["path"] for r in final.records] == ["/d0", "/d1", "/d9"]


def test_corrupted_crc_stops_replay(journal_path):
    j = MetadataJournal(journal_path)
    j.append("mkdir", {"path": "/a"})
    j.append("mkdir", {"path": "/b"})
    j.close()
    with open(journal_path, "rb") as f:
        lines = f.read().splitlines(keepends=True)
    # Flip one payload byte of the second record; its CRC now lies.
    bad = bytearray(lines[1])
    bad[-5] ^= 0xFF
    with open(journal_path, "wb") as f:
        f.write(lines[0] + bytes(bad))
    result = MetadataJournal(journal_path).replay()
    assert result.corrupt_tail
    assert [r["path"] for r in result.records] == ["/a"]


def test_injected_torn_append_crashes_with_fragment(journal_path):
    plan = DiskFaultPlan.torn_record(2)
    j = MetadataJournal(journal_path, faults=plan)
    j.append("mkdir", {"path": "/a"})
    with pytest.raises(SimulatedCrash):
        j.append("mkdir", {"path": "/b"})
    j.close()
    result = MetadataJournal(journal_path).replay()
    assert result.corrupt_tail
    assert [r["path"] for r in result.records] == ["/a"]
    assert plan.fired("torn") == 1


def test_injected_short_append_reports_success_detected_at_replay(journal_path):
    plan = DiskFaultPlan.short_record(2)
    j = MetadataJournal(journal_path, faults=plan)
    j.append("mkdir", {"path": "/a"})
    # The nasty one: the append claims success but only a prefix landed.
    assert j.append("mkdir", {"path": "/b"}) == 2
    j.close()
    result = MetadataJournal(journal_path).replay()
    assert result.corrupt_tail
    assert [r["path"] for r in result.records] == ["/a"]


def test_injected_errno_surfaces_as_typed_journal_error(journal_path):
    j = MetadataJournal(journal_path,
                        faults=DiskFaultPlan.enospc_at_record(1))
    with pytest.raises(JournalError) as exc:
        j.append("mkdir", {"path": "/a"})
    assert exc.value.errno == errno.ENOSPC
    j2 = MetadataJournal(journal_path, faults=DiskFaultPlan.eio_at_record(1))
    with pytest.raises(JournalError) as exc:
        j2.append("mkdir", {"path": "/a"})
    assert exc.value.errno == errno.EIO


def test_reset_if_quiescent_only_when_no_newer_records(journal_path):
    j = MetadataJournal(journal_path)
    j.append("mkdir", {"path": "/a"})
    j.append("mkdir", {"path": "/b"})
    assert not j.reset_if_quiescent(1)  # record 2 not covered: refuse
    assert j.reset_if_quiescent(2)
    assert j.size_bytes() == 0
    assert j.last_seq == 2  # numbering continues past the truncation


def test_fsync_metrics_published(journal_path):
    reg = MetricsRegistry()
    j = MetadataJournal(journal_path, registry=reg)
    j.append("mkdir", {"path": "/a"})
    j.close()
    assert reg.get("journal_records_total").total() == 1
    hist = reg.get("journal_fsync_seconds")
    assert hist is not None


def test_fsync_amortization_gauge(journal_path):
    # journal_records_per_fsync is the group-commit payoff in one
    # number: records made durable per fsync, 1.0 when every append
    # pays its own disk flush.
    reg = MetricsRegistry()
    j = MetadataJournal(journal_path, registry=reg)
    snap = reg.snapshot()
    assert snap["journal_records_per_fsync"]["series"][()] == 0.0
    for i in range(3):
        j.append("mkdir", {"path": f"/d{i}"})
    snap = reg.snapshot()
    ratio = snap["journal_records_per_fsync"]["series"][()]
    assert ratio == pytest.approx(j.records_appended / j.fsync_count)
    assert ratio >= 1.0
    j.close()


def test_snapshot_atomic_save_load(tmp_path):
    store = SnapshotStore(str(tmp_path / "snap.json"))
    assert store.load() == (None, 0)
    store.save({"used": 42}, seq=7)
    state, seq = store.load()
    assert state == {"used": 42} and seq == 7
    store.save({"used": 43}, seq=9)
    assert store.load() == ({"used": 43}, 9)
    # No temp residue after a completed save.
    assert not os.path.exists(str(tmp_path / "snap.json") + ".tmp")


def test_snapshot_crash_fault(tmp_path):
    plan = DiskFaultPlan([DiskFaultRule(op="snapshot", action="crash")])
    store = SnapshotStore(str(tmp_path / "snap.json"), faults=plan)
    with pytest.raises(SimulatedCrash):
        store.save({"x": 1}, seq=1)
    assert store.load() == (None, 0)  # nothing landed
