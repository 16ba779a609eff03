"""Recovery semantics: snapshot + replay rebuild the managers exactly.

These tests drive the storage manager directly (no sockets) with a
DurabilityManager bound, "crash" by dropping the in-memory objects,
and recover into fresh managers over the same backend.
"""

from __future__ import annotations

import pytest

from repro.durability import DurabilityManager
from repro.nest.backends import LocalFSStore, MemoryStore
from repro.nest.lots import LotState
from repro.nest.storage import StorageError, StorageManager
from repro.obs.metrics import MetricsRegistry
from repro.protocols.common import Status
from repro.replica.catalog import ReplicaCatalog


def make_stack(state_dir, store, clock=None, snapshot_every=0, **kwargs):
    """A storage manager + durability manager over one state_dir."""
    storage = StorageManager(store=store, require_lots=True,
                            capacity_bytes=1 << 20,
                            **({"clock": clock} if clock else {}), **kwargs)
    manager = DurabilityManager(str(state_dir), fsync=False,
                                snapshot_every=snapshot_every)
    report = manager.recover_into(storage)
    return storage, manager, report


def put(storage, user, path, data: bytes):
    ticket = storage.approve_put(user, path, len(data))
    ticket.stream.write(data)
    ticket.settle(len(data))


def test_namespace_acls_groups_lots_survive_restart(tmp_path):
    store = MemoryStore()
    s1, m1, _ = make_stack(tmp_path / "state", store)
    s1.lots.create_lot("alice", 4096, 3600.0)
    s1.add_group("team", {"alice", "bob"})
    s1.mkdir("admin", "/data")
    s1.acl_set("admin", "/data", "group:team", "rwil")
    s1.mkdir("alice", "/data/sub")
    put(s1, "alice", "/data/sub/f", b"x" * 1000)
    s1.rename("alice", "/data/sub/f", "/data/sub/g")
    m1.close(snapshot=False)  # crash: journal only, no final snapshot

    s2, m2, report = make_stack(tmp_path / "state", store)
    assert report.replayed_records > 0
    assert s2.groups == {"team": {"alice", "bob"}}
    assert ("group:team", "rwil") in s2.acl_get("admin", "/data")
    assert s2.stat("alice", "/data/sub/g")["size"] == 1000
    assert not s2.exists("/data/sub/f")
    assert s2.used_bytes == 1000
    lot = next(iter(s2.lots.lots.values()))
    assert lot.owner == "alice" and lot.used == 1000
    assert lot.charges == {"/data/sub/g": 1000}  # charges follow renames
    m2.close()


def test_charges_follow_capacity_after_delete(tmp_path):
    store = MemoryStore()
    s1, m1, _ = make_stack(tmp_path / "state", store)
    s1.lots.create_lot("alice", 4096, 3600.0)
    s1.mkdir("admin", "/d")
    s1.acl_set("admin", "/d", "alice", "rwild")
    put(s1, "alice", "/d/a", b"a" * 100)
    put(s1, "alice", "/d/b", b"b" * 200)
    s1.delete("alice", "/d/a")
    m1.close(snapshot=False)

    s2, m2, _ = make_stack(tmp_path / "state", store)
    lot = next(iter(s2.lots.lots.values()))
    assert lot.used == 200
    assert s2.used_bytes == 200
    m2.close()


def test_snapshot_compaction_truncates_journal(tmp_path):
    store = MemoryStore()
    s1, m1, _ = make_stack(tmp_path / "state", store, snapshot_every=5)
    s1.lots.create_lot("alice", 8192, 3600.0)
    s1.mkdir("admin", "/d")
    s1.acl_set("admin", "/d", "alice", "rwild")
    for i in range(8):
        put(s1, "alice", f"/d/f{i}", b"z" * 10)
    # Compaction fired at least once: the journal holds only the tail.
    assert m1.journal.size_bytes() < 8 * 200
    snap_state, snap_seq = m1.snapshots.load()
    assert snap_state is not None and snap_seq > 0
    m1.close(snapshot=False)

    s2, m2, report = make_stack(tmp_path / "state", store)
    assert report.snapshot_seq > 0
    for i in range(8):
        assert s2.stat("alice", f"/d/f{i}")["size"] == 10
    lot = next(iter(s2.lots.lots.values()))
    assert lot.used == 80
    m2.close()


def test_interrupted_put_new_file_vanishes(tmp_path):
    store = MemoryStore()
    s1, m1, _ = make_stack(tmp_path / "state", store)
    s1.lots.create_lot("alice", 4096, 3600.0)
    s1.mkdir("admin", "/d")
    s1.acl_set("admin", "/d", "alice", "rwil")
    # put_begin journaled; the data never lands, settle never runs.
    ticket = s1.approve_put("alice", "/d/torn", 500)
    ticket.stream.write(b"q" * 120)  # MemoryStore: invisible until close
    m1.close(snapshot=False)

    s2, m2, report = make_stack(tmp_path / "state", store)
    assert [p["disposition"] for p in report.interrupted_puts] == ["absent"]
    assert not s2.exists("/d/torn")
    assert s2.used_bytes == 0
    lot = next(iter(s2.lots.lots.values()))
    assert lot.used == 0  # the charge was released with the file
    m2.close()


def test_interrupted_overwrite_keeps_old_version(tmp_path):
    store = LocalFSStore(str(tmp_path / "disk"))
    s1, m1, _ = make_stack(tmp_path / "state", store)
    s1.lots.create_lot("alice", 4096, 3600.0)
    s1.mkdir("admin", "/d")
    s1.acl_set("admin", "/d", "alice", "rwil")
    put(s1, "alice", "/d/f", b"old!" * 25)  # 100 bytes, committed
    ticket = s1.approve_put("alice", "/d/f", 300)  # overwrite dies mid-way
    ticket.stream.write(b"n" * 40)
    m1.close(snapshot=False)

    s2, m2, report = make_stack(tmp_path / "state", store)
    assert [p["disposition"] for p in report.interrupted_puts] == ["settled"]
    # Old version intact -- never a torn hybrid.
    assert s2.stat("alice", "/d/f")["size"] == 100
    with store.open_read("/d/f") as r:
        assert r.read() == b"old!" * 25
    assert s2.used_bytes == 100
    lot = next(iter(s2.lots.lots.values()))
    assert lot.used == 100
    assert report.swept_temp_files == 1  # the orphaned .nest-tmp
    m2.close()


def test_lot_expired_while_down_comes_back_best_effort(tmp_path):
    now = [1000.0]
    store = MemoryStore()
    s1, m1, _ = make_stack(tmp_path / "state", store, clock=lambda: now[0])
    s1.lots.create_lot("alice", 4096, duration=500.0)  # expires at 1500
    active = s1.lots.list_lots(owner="alice")
    assert active[0]["state"] == "active"
    m1.close(snapshot=False)

    now[0] = 2000.0  # the server was down past the lot's expiry
    s2, m2, report = make_stack(tmp_path / "state", store,
                                clock=lambda: now[0])
    assert report.recovered_lots  # the lot itself came back...
    described = s2.lots.list_lots(owner="alice")
    assert described[0]["state"] == "best_effort"  # ...without its guarantee
    lot = next(iter(s2.lots.lots.values()))
    assert lot.state is LotState.BEST_EFFORT
    m2.close()


def test_lot_renewed_before_crash_stays_active(tmp_path):
    now = [1000.0]
    store = MemoryStore()
    s1, m1, _ = make_stack(tmp_path / "state", store, clock=lambda: now[0])
    lot = s1.lots.create_lot("alice", 4096, duration=500.0)
    s1.lots.renew(lot.lot_id, 5000.0)  # now expires at 6000
    m1.close(snapshot=False)

    now[0] = 2000.0
    s2, m2, _ = make_stack(tmp_path / "state", store, clock=lambda: now[0])
    assert s2.lots.list_lots(owner="alice")[0]["state"] == "active"
    m2.close()


def test_replica_catalog_recovers_and_readvertises(tmp_path):
    store = MemoryStore()
    s1, m1, _ = make_stack(tmp_path / "state", store)
    cat1 = ReplicaCatalog()
    m1.attach_catalog(cat1)
    cat1.register("lf1", "siteA", "/r/lf1", size=10, state="valid")
    cat1.register("lf1", "siteB", "/r/lf1", size=10, state="copying")
    cat1.mark_valid("lf1", "siteB", checksum=123, size=10)
    cat1.register("lf2", "siteA", "/r/lf2", size=20, state="valid")
    cat1.drop("lf2", "siteA")
    m1.close(snapshot=False)

    class Collector:
        def __init__(self):
            self.ads = {}

        def advertise(self, ad, ttl=None):
            self.ads[str(ad.eval("Name"))] = ad

        def withdraw(self, name):
            self.ads.pop(name, None)

    s2, m2, _ = make_stack(tmp_path / "state", store)
    collector = Collector()
    cat2 = ReplicaCatalog(collector=collector)
    applied = m2.attach_catalog(cat2)
    assert applied > 0
    assert cat2.logicals() == ["lf1"]
    states = {r.site: r.state for r in cat2.locations("lf1")}
    assert states == {"siteA": "valid", "siteB": "valid"}
    checksums = {r.site: r.checksum for r in cat2.locations("lf1")}
    assert checksums["siteB"] == 123
    # attach_catalog re-advertised the recovered sets.
    assert "replica::lf1" in collector.ads
    m2.close()


def test_corrupt_journal_tail_recovers_prefix(tmp_path):
    store = MemoryStore()
    s1, m1, _ = make_stack(tmp_path / "state", store)
    s1.mkdir("admin", "/a")
    s1.mkdir("admin", "/b")
    journal_path = m1.journal.path
    m1.close(snapshot=False)
    size = __import__("os").path.getsize(journal_path)
    with open(journal_path, "r+b") as f:
        f.truncate(size - 4)  # tear the /b record

    s2, m2, report = make_stack(tmp_path / "state", store)
    assert report.corrupt_tail
    assert s2.exists("/a") and not s2.exists("/b")
    # The torn fragment was cut; new mutations append cleanly and a
    # further recovery sees consistent history.
    s2.mkdir("admin", "/c")
    m2.close(snapshot=False)
    s3, m3, report3 = make_stack(tmp_path / "state", store)
    assert not report3.corrupt_tail
    assert s3.exists("/a") and s3.exists("/c")
    m3.close()


def _shrinking_overwrite_stack(tmp_path, store):
    """alice's 64 KiB /d/f, about to be overwritten with 1 KiB."""
    s1, m1, _ = make_stack(tmp_path / "state", store)
    s1.lots.create_lot("alice", 1 << 19, 3600.0)
    s1.mkdir("alice", "/d")
    put(s1, "alice", "/d/f", b"b" * 65536)
    return s1, m1


@pytest.mark.parametrize("landed", [1024, 300])
def test_shrinking_overwrite_replays_to_the_live_charge(tmp_path, landed):
    """Live and replayed lot accounting agree after a put replaced a
    larger file (``landed`` < 1024: the overwrite itself fell short),
    and recovery had nothing to trim -- the journal alone is right."""
    store = MemoryStore()
    s1, m1 = _shrinking_overwrite_stack(tmp_path, store)
    ticket = s1.approve_put("alice", "/d/f", 1024)
    ticket.stream.write(b"s" * landed)
    ticket.settle(landed)
    (live,) = s1.lots.lots.values()
    assert live.used == s1.used_bytes == landed
    m1.close(snapshot=False)

    s2, m2, report = make_stack(tmp_path / "state", store)
    (lot,) = s2.lots.lots.values()
    assert lot.used == s2.used_bytes == landed
    assert lot.charges == live.charges
    assert report.reconciled_charges == 0
    m2.close()


def test_interrupted_shrinking_overwrite_charges_old_content_back(tmp_path):
    """Crash after a shrinking overwrite was approved (shrinkage
    released) but before it landed: the atomic backend still holds the
    old 64 KiB, and recovery charges the lot for all of it again."""
    store = LocalFSStore(str(tmp_path / "data"))
    s1, m1 = _shrinking_overwrite_stack(tmp_path, store)
    ticket = s1.approve_put("alice", "/d/f", 1024)
    ticket.stream.write(b"s" * 100)  # never closed: no rename, no commit
    assert next(iter(s1.lots.lots.values())).used == 1024
    m1.close(snapshot=False)

    s2, m2, report = make_stack(tmp_path / "state", store)
    assert report.interrupted_puts == [
        {"path": "/d/f", "disposition": "settled", "size": 65536}]
    (lot,) = s2.lots.lots.values()
    assert lot.used == s2.used_bytes == 65536
    assert s2.stat("alice", "/d/f")["size"] == 65536
    m2.close()


def test_journal_enospc_degrades_to_typed_storage_error(tmp_path):
    from repro.faults.disk import DiskFaultPlan

    store = MemoryStore()
    storage = StorageManager(store=store, capacity_bytes=1 << 20)
    manager = DurabilityManager(str(tmp_path / "state"), fsync=False,
                                faults=DiskFaultPlan.enospc_at_record(2))
    manager.recover_into(storage)
    storage.mkdir("admin", "/ok")  # record 1: fine
    with pytest.raises(StorageError) as exc:
        storage.mkdir("admin", "/doomed")  # record 2: injected ENOSPC
    assert exc.value.status is Status.NO_SPACE
    manager.close(snapshot=False)


def test_recovery_metrics_exported(tmp_path):
    store = MemoryStore()
    s1 = StorageManager(store=store)
    m1 = DurabilityManager(str(tmp_path / "state"), fsync=False)
    m1.recover_into(s1)
    s1.mkdir("admin", "/a")
    m1.close(snapshot=False)

    reg = MetricsRegistry()
    s2 = StorageManager(store=store)
    m2 = DurabilityManager(str(tmp_path / "state"), fsync=False,
                           registry=reg)
    m2.recover_into(s2)
    assert reg.get("recovery_runs_total").total() == 1
    assert reg.get("recovery_replayed_records_total").total() >= 1
    snap = reg.snapshot()
    assert "recovery_duration_seconds" in snap
    assert "journal_size_bytes" in snap
    m2.close()


def test_epoch_increments_every_recovery(tmp_path):
    store = MemoryStore()
    epochs = []
    for _ in range(3):
        s, m, report = make_stack(tmp_path / "state", store)
        epochs.append(report.epoch)
        m.close(snapshot=False)
    assert epochs == [1, 2, 3]
