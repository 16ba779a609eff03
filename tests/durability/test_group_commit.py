"""Group commit: batched fsyncs, the async/wait split, and durability
of every acknowledged record."""

import os
import threading

import pytest

from repro.durability.journal import MetadataJournal
from repro.durability.manager import DurabilityManager
from repro.nest.storage import StorageManager


@pytest.fixture
def journal_path(tmp_path):
    return str(tmp_path / "journal.log")


class TestAsyncSplit:
    def test_enqueue_then_wait_batches_into_one_flush(self, journal_path):
        """Records enqueued before anyone waits share a single
        write+fsync -- deterministically, no thread races needed."""
        j = MetadataJournal(journal_path, batch_records=64)
        seqs = [j.append_async("mkdir", {"path": f"/d{i}"})
                for i in range(50)]
        assert j.fsync_count == 0  # nothing durable yet
        j.wait_durable(seqs[-1])
        assert j.fsync_count == 1
        assert j.records_appended == 50
        assert j.last_seq == seqs[-1]
        replay = j.replay()
        assert [r["seq"] for r in replay.records] == seqs
        j.close()

    def test_batch_size_cap_is_honoured(self, journal_path):
        j = MetadataJournal(journal_path, batch_records=8)
        seqs = [j.append_async("mkdir", {"path": f"/d{i}"})
                for i in range(20)]
        j.wait_durable(seqs[-1])
        assert j.fsync_count == 3  # ceil(20 / 8)
        assert len(j.replay().records) == 20
        j.close()

    def test_wait_durable_noop_on_ungrouped_journal(self, journal_path):
        j = MetadataJournal(journal_path, batch_records=1)
        seq = j.append_async("mkdir", {"path": "/d"})
        # append_async degraded to a full synchronous append.
        assert j.fsync_count == 1 and j.last_seq == seq
        j.wait_durable(seq)
        assert j.fsync_count == 1
        j.close()

    def test_reset_refuses_while_records_pending(self, journal_path):
        j = MetadataJournal(journal_path, batch_records=64)
        j.append_async("mkdir", {"path": "/a"})
        assert not j.reset_if_quiescent(j.last_seq)
        j.wait_durable(j.append_async("mkdir", {"path": "/b"}))
        assert j.reset_if_quiescent(j.last_seq)
        j.close()

    def test_close_flushes_unwaited_records(self, journal_path):
        j = MetadataJournal(journal_path, batch_records=64)
        seqs = [j.append_async("mkdir", {"path": f"/d{i}"})
                for i in range(3)]
        j.close()
        j2 = MetadataJournal(journal_path)
        assert [r["seq"] for r in j2.replay().records] == seqs


class TestConcurrentAppenders:
    def test_every_acknowledged_record_is_on_disk(self, journal_path):
        """16 threads x 16 durable appends: far fewer fsyncs than
        records, no seq reused, and a fresh journal (the "crashed"
        process's successor) replays every one of them."""
        j = MetadataJournal(journal_path, batch_records=64)
        per_thread, nthreads = 16, 16
        barrier = threading.Barrier(nthreads)
        acked: list[int] = []
        lock = threading.Lock()

        def writer(w):
            barrier.wait()
            for i in range(per_thread):
                seq = j.append("put_begin", {"path": f"/w{w}-f{i}"})
                with lock:
                    acked.append(seq)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = per_thread * nthreads
        assert sorted(acked) == list(range(1, total + 1))
        assert j.records_appended == total
        # Group commit must have shared flushes under this much
        # concurrency; 1.0 fsync/record means batching never engaged.
        assert j.fsync_count < total
        # Simulated crash: no close, just replay what hit the disk.
        j2 = MetadataJournal(journal_path)
        replayed = {r["seq"] for r in j2.replay().records}
        assert replayed == set(range(1, total + 1))
        j.close()


class TestStorageIntegration:
    def test_op_exit_waits_for_durability_outside_the_lock(self, tmp_path):
        """The storage manager enqueues under its lock and waits in the
        op epilogue; every mutation acked to a caller is replayable."""
        storage = StorageManager(capacity_bytes=1 << 30, require_lots=False)
        dm = DurabilityManager(str(tmp_path / "state"), snapshot_every=0)
        dm.recover_into(storage)
        nthreads, per_thread = 8, 8
        barrier = threading.Barrier(nthreads)

        def writer(w):
            from repro.protocols.common import Request, RequestType
            barrier.wait()
            for i in range(per_thread):
                resp = storage.execute(Request(
                    rtype=RequestType.MKDIR, user="admin",
                    path=f"/w{w}-d{i}"))
                assert resp.status.value == "ok"

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        journal = dm.journal
        total = nthreads * per_thread
        assert journal.records_appended == total
        assert journal.fsync_count <= total
        # Crash without a graceful close: replay must see every mkdir.
        replay = MetadataJournal(journal.path).replay()
        made = {r["path"] for r in replay.records if r["type"] == "mkdir"}
        assert made == {f"/w{w}-d{i}" for w in range(nthreads)
                        for i in range(per_thread)}
        dm.close(snapshot=False)


class TestLiveAppliance:
    def test_concurrent_puts_journal_two_records_each(self, tmp_path):
        """4 writers x 2 PUTs over Chirp into a durable appliance: every
        PUT journals its begin and its commit, and the flusher (given a
        2 ms dally so appenders can pile on) never syncs more often
        than once per record."""
        from repro.client.chirp import ChirpClient
        from repro.nest.config import NestConfig
        from repro.nest.server import NestServer

        writers, per_writer = 4, 2
        payload = bytes(range(256)) * 32  # 8 KiB
        config = NestConfig(name="group-commit", protocols=("chirp",),
                            state_dir=str(tmp_path / "state"),
                            snapshot_every=0, journal_batch_delay=0.002,
                            management=False)
        errors: list[BaseException] = []
        with NestServer(config) as server:
            endpoint = server.endpoint("chirp")
            barrier = threading.Barrier(writers)

            def writer(w):
                try:
                    with ChirpClient(*endpoint) as client:
                        barrier.wait(10)
                        for i in range(per_writer):
                            client.put(f"/w{w}-f{i}.dat", payload)
                except BaseException as exc:  # noqa: BLE001 - reported
                    errors.append(exc)

            threads = [threading.Thread(target=writer, args=(w,))
                       for w in range(writers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            journal = server.durability.journal
            records, fsyncs = journal.records_appended, journal.fsync_count
            stored = [entry["size"]
                      for entry in server.storage.listdir("admin", "/")]
        puts = writers * per_writer
        assert stored == [len(payload)] * puts
        assert records >= 2 * puts
        assert 0 < fsyncs <= records
