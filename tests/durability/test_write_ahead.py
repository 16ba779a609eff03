"""The one journal write path: fault plans act inside group commit, and
the backing store is touched only after the records describing the
change are durable."""

from __future__ import annotations

import errno
import os
import sys
import threading

import pytest

from repro.durability import DurabilityManager
from repro.durability.journal import JournalError, MetadataJournal
from repro.faults.disk import DiskFaultPlan, SimulatedCrash
from repro.nest.backends import TEMP_SUFFIX, LocalFSStore, MemoryStore
from repro.nest.storage import StorageManager
from repro.protocols.common import Request, RequestType, Status, StorageError


class TestFaultsInsideGroupCommit:
    """Three records enqueued, then one waited on: the flush that
    carries them consults the plan per record."""

    @staticmethod
    def enqueue_three(path, plan):
        journal = MetadataJournal(path, fsync=False, faults=plan)
        seqs = [journal.append_async("mkdir", {"path": f"/d{i}"})
                for i in (1, 2, 3)]
        journal.wait_durable(seqs[0])
        return journal, seqs

    @pytest.mark.parametrize("plan", [DiskFaultPlan.crash_at_record,
                                      DiskFaultPlan.torn_record],
                             ids=["crash", "torn"])
    def test_a_crash_keeps_the_records_ahead_and_no_record_behind(
            self, tmp_path, plan):
        path = str(tmp_path / "journal.log")
        journal, seqs = self.enqueue_three(path, plan(2))
        assert journal.last_seq == seqs[0]
        for seq in seqs[1:]:
            with pytest.raises(SimulatedCrash):
                journal.wait_durable(seq)
        journal.close()  # a later close writes nothing behind the crash
        replay = MetadataJournal(path).replay()
        assert [r["path"] for r in replay.records] == ["/d1"]

    def test_an_eio_fails_its_record_and_those_behind_it_only(
            self, tmp_path):
        path = str(tmp_path / "journal.log")
        journal, seqs = self.enqueue_three(
            path, DiskFaultPlan.eio_at_record(2))
        for seq in seqs[1:]:
            with pytest.raises(JournalError) as exc:
                journal.wait_durable(seq)
            assert exc.value.errno == errno.EIO
        after = journal.append("mkdir", {"path": "/d4"})
        assert journal.last_seq == after
        journal.close()
        replay = MetadataJournal(path).replay()
        assert [r["path"] for r in replay.records] == ["/d1", "/d4"]
        assert not replay.corrupt_tail

    def test_concurrent_appenders_see_exactly_what_landed(self, tmp_path):
        """16 threads append while record 40 fails: every acked record
        is on disk and no failed one is."""
        path = str(tmp_path / "journal.log")
        journal = MetadataJournal(path, fsync=False,
                                  faults=DiskFaultPlan.eio_at_record(40))
        acked: list[int] = []
        failed: list[BaseException] = []
        barrier = threading.Barrier(16)

        def writer(w):
            barrier.wait(10)
            for i in range(16):
                try:
                    acked.append(
                        journal.append("mkdir", {"path": f"/{w}-{i}"}))
                except JournalError as exc:
                    failed.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(w,))
                       for w in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert failed and len(acked) + len(failed) == 256
        journal.close()
        replay = MetadataJournal(path).replay()
        assert sorted(r["seq"] for r in replay.records) == sorted(acked)


class _EioFile:
    """A journal file whose every write fails: the disk went away."""

    closed = False

    def write(self, data: bytes) -> int:
        raise OSError(errno.EIO, "injected EIO")

    def close(self) -> None:
        self.closed = True


def _boot(state_dir, store, require_lots):
    storage = StorageManager(store=store, capacity_bytes=1 << 20,
                             require_lots=require_lots)
    manager = DurabilityManager(str(state_dir))
    manager.recover_into(storage)
    return storage, manager


_RENAME = Request(RequestType.RENAME, "/a/x", user="admin",
                  params={"new_path": "/a/y"})
_DELETE = Request(RequestType.DELETE, "/a/x", user="admin")


@pytest.mark.parametrize("request_,lots", [
    (_RENAME, False), (_DELETE, False), (_RENAME, True), (_DELETE, True),
], ids=["rename", "delete", "rename-lots", "delete-lots"])
def test_bytes_stay_put_when_their_record_never_lands(tmp_path, request_,
                                                      lots):
    """A durable journal with no fault plan, whose writes then fail
    with EIO under a RENAME or DELETE on the wire path.  The request
    fails and is undone in memory: before any restart ``/a/x`` stats
    whole, ``/a/y`` does not exist, and the accounting and, with lots
    required, the lot charge are as they were.  Because no byte moved
    ahead of its record, a restart finds ``/a/x`` whole too."""
    store = MemoryStore()
    storage, manager = _boot(tmp_path / "state", store, lots)
    storage.lots.create_lot("admin", 1 << 16, 3600.0)
    storage.mkdir("admin", "/a")
    ticket = storage.approve_put("admin", "/a/x", 5)
    ticket.stream.write(b"hello")
    ticket.settle(5)
    charges = storage.lots.charges_of("/a/x")
    manager.journal.close()
    manager.journal._file = _EioFile()

    assert storage.execute(request_).status is Status.SERVER_ERROR

    assert storage.stat("admin", "/a/x")["size"] == 5
    assert not storage.exists("/a/y")
    assert storage.used_bytes == 5
    assert storage.lots.charges_of("/a/x") == charges
    assert storage.lots.charges_of("/a/y") == {}
    assert sum(charges.values()) == (5 if lots else 0)
    restarted, _ = _boot(tmp_path / "state", store, lots)
    assert restarted.stat("admin", "/a/x")["size"] == 5
    ticket = restarted.approve_get("admin", "/a/x")
    assert ticket.stream.read(5) == b"hello"
    ticket.settle(5)


@pytest.mark.parametrize("verb", ["rename", "delete"])
def test_a_direct_call_whose_record_never_lands_is_undone(tmp_path, verb):
    """Called outside a storage op, a verb waits for its record as it
    commits it; when that fails, the verb is undone in memory too, and
    a restart agrees with the live state."""
    store = MemoryStore()
    storage, manager = _boot(tmp_path / "state", store, True)
    storage.lots.create_lot("admin", 1 << 16, 3600.0)
    storage.mkdir("admin", "/a")
    ticket = storage.approve_put("admin", "/a/x", 5)
    ticket.stream.write(b"hello")
    ticket.settle(5)
    before = storage.serialize_state()
    manager.journal.close()
    manager.journal._file = _EioFile()

    with pytest.raises(StorageError) as failed:
        if verb == "rename":
            storage.rename("admin", "/a/x", "/a/y")
        else:
            storage.delete("admin", "/a/x")
    assert failed.value.status is Status.SERVER_ERROR
    assert storage.serialize_state() == before
    restarted, _ = _boot(tmp_path / "state", store, True)
    assert restarted.serialize_state() == before


def _staged_left(store) -> list[str]:
    names = (list(store._files) if isinstance(store, MemoryStore) else
             [n for _, _, files in os.walk(store.root) for n in files])
    return [n for n in names if n.endswith(TEMP_SUFFIX)]


@pytest.mark.parametrize("old", [None, b"abc"], ids=["new", "overwrite"])
@pytest.mark.parametrize("backend", ["memory", "localfs"])
def test_a_put_whose_commit_never_lands_is_undone(tmp_path, backend, old):
    """The journal's writes fail with EIO under a PUT, whose approval
    waits for no flush and whose commit's flush fails.  The
    settle fails typed and the commit is undone in memory: ``stat``
    and a GET see the file from before the PUT, at a size that matches
    its bytes, the accounting and the lot are as they were, no staged
    file is left, and the journal keeps no failed flush's error for a
    record nobody will wait for."""
    store = (MemoryStore() if backend == "memory"
             else LocalFSStore(str(tmp_path / "data")))
    storage = StorageManager(store=store, capacity_bytes=1 << 20,
                             clock=lambda: 1000.0, require_lots=True)
    manager = DurabilityManager(str(tmp_path / "state"))
    manager.recover_into(storage)
    storage.lots.create_lot("admin", 1 << 16, 3600.0)
    storage.mkdir("admin", "/a")
    if old is not None:
        ticket = storage.approve_put("admin", "/a/x", len(old))
        ticket.stream.write(old)
        ticket.settle(len(old))
    manager.journal.close()
    manager.journal._file = _EioFile()
    before = storage.serialize_state()
    ticket = storage.approve_put("admin", "/a/x", 8)
    ticket.stream.write(b"12345678")

    with pytest.raises(StorageError) as failed:
        ticket.settle(8)
    assert failed.value.status is Status.SERVER_ERROR
    assert storage.serialize_state() == before
    if old is None:
        assert not storage.exists("/a/x")
    else:
        get = storage.approve_get("admin", "/a/x")
        assert get.size == len(old) and get.stream.read(100) == old
        get.settle(len(old))
    assert _staged_left(store) == []
    assert manager.journal._batch_errors == {}


def _shrink_setup(state_dir):
    """A durable, lot-charged ``/a/x`` of 10 bytes, and a 3-byte PUT
    over it approved and written, not yet settled."""
    store = MemoryStore()
    storage = StorageManager(store=store, capacity_bytes=1 << 20,
                             clock=lambda: 1000.0, require_lots=True)
    manager = DurabilityManager(str(state_dir))
    manager.recover_into(storage)
    storage.lots.create_lot("admin", 1 << 16, 3600.0)
    storage.mkdir("admin", "/a")
    ticket = storage.approve_put("admin", "/a/x", 10)
    ticket.stream.write(b"0123456789")
    ticket.settle(10)
    before = storage.serialize_state()
    mark = manager.journal.last_seq
    ticket = storage.approve_put("admin", "/a/x", 3)
    ticket.stream.write(b"abc")
    return store, storage, manager, ticket, before, mark


def _reads_its_size(storage):
    size = storage.stat("admin", "/a/x")["size"]
    get = storage.approve_get("admin", "/a/x")
    data = get.stream.read(100)
    get.settle(len(data))
    return size == len(data)


def test_a_shrinking_overwrite_is_undone_whichever_record_fails(tmp_path):
    """A shrinking overwrite gives back lot space as it commits.  Each
    record its commit journals is failed with EIO in turn: the settle
    fails, the live state is the one from before the PUT, a restart
    finds that same state, and the file stats the size it reads."""
    _store, _storage, manager, ticket, _before, mark = _shrink_setup(
        tmp_path / "clean")
    ticket.settle(3)
    records = manager.journal.last_seq - mark
    assert records >= 1
    for k in range(1, records + 1):
        state_dir = tmp_path / f"eio-{k}"
        store, storage, manager, ticket, before, mark = _shrink_setup(
            state_dir)
        manager.journal._faults = DiskFaultPlan.eio_at_record(mark + k)
        with pytest.raises(StorageError) as failed:
            ticket.settle(3)
        assert failed.value.status is Status.SERVER_ERROR
        assert storage.serialize_state() == before, f"record {k}"
        assert _reads_its_size(storage)
        restarted = StorageManager(store=store, capacity_bytes=1 << 20,
                                   clock=lambda: 1000.0, require_lots=True)
        DurabilityManager(str(state_dir)).recover_into(restarted)
        assert restarted.serialize_state() == before, f"record {k}"
        assert _reads_its_size(restarted)
