"""Unit tests for the live transfer manager.

A transfer is pumped by the thread that calls ``wait()``, so every
test that needs several transfers in progress gives each its own
thread -- which is what every ``src/`` caller does.
"""

import io
import sys
import threading
import time
import zlib

import pytest

from repro.client.chirp import ChirpClient
from repro.client.http import HttpClient
from repro.nest import io as fastio
from repro.nest import transfer as transfer_module
from repro.nest.backends import LocalFSStore
from repro.nest.config import NestConfig
from repro.nest.server import NestServer
from repro.nest.transfer import TransferError, TransferManager


@pytest.fixture
def manager():
    tm = TransferManager(NestConfig(transfer_workers=4))
    yield tm
    tm.shutdown()


def pump_each_on_its_own_thread(transfers, timeout=30):
    """``wait()`` every transfer on a thread of its own; returns the
    per-transfer outcomes (bytes moved, or the exception raised)."""
    outcomes = [None] * len(transfers)

    def own(i, transfer):
        try:
            outcomes[i] = transfer.wait(timeout)
        except Exception as exc:  # noqa: BLE001 - handed to the test
            outcomes[i] = exc

    threads = [threading.Thread(target=own, args=(i, t), daemon=True)
               for i, t in enumerate(transfers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout + 5)
        assert not thread.is_alive()
    return outcomes


class TestBasicTransfers:
    def test_round_trip(self, manager):
        payload = b"payload " * 10_000
        sink = io.BytesIO()
        moved = manager.submit(io.BytesIO(payload), sink,
                               len(payload), "chirp").wait()
        assert moved == len(payload)
        assert sink.getvalue() == payload

    def test_empty_transfer(self, manager):
        sink = io.BytesIO()
        assert manager.submit(io.BytesIO(b""), sink, 0, "http").wait() == 0

    def test_unknown_length_reads_to_eof(self, manager):
        payload = b"x" * 123_456
        sink = io.BytesIO()
        moved = manager.submit(io.BytesIO(payload), sink, -1, "ftp").wait()
        assert moved == len(payload)

    def test_short_source_reports_error(self, manager):
        sink = io.BytesIO()
        transfer = manager.submit(io.BytesIO(b"only 9 by"), sink, 100, "chirp")
        with pytest.raises(TransferError):
            transfer.wait(5)

    def test_source_without_readinto_fails_its_transfer(self, manager):
        """Two pumps, no third: a reader that only has ``read`` is not
        quietly served some other way; the cause is kept."""
        class ReadOnly:
            def read(self, n=-1):
                return b"data"

        transfer = manager.submit(ReadOnly(), io.BytesIO(), 4, "chirp")
        with pytest.raises(AttributeError, match="readinto"):
            transfer.wait(5)
        (failure,) = manager.failures()
        assert failure["error"] is transfer.error
        assert (failure["moved"], failure["total"]) == (0, 4)

    def test_concurrent_transfers_isolated(self, manager):
        payloads = [bytes([i]) * 10_000 for i in range(16)]
        sinks = [io.BytesIO() for _ in payloads]
        transfers = [
            manager.submit(io.BytesIO(payload), sink, len(payload), "http")
            for payload, sink in zip(payloads, sinks)]
        outcomes = pump_each_on_its_own_thread(transfers, timeout=10)
        assert outcomes == [len(p) for p in payloads]
        assert [s.getvalue() for s in sinks] == payloads

    def test_wait_again_returns_the_same_outcome(self, manager):
        done = manager.submit(io.BytesIO(b"abc"), io.BytesIO(), 3, "chirp")
        assert done.wait(5) == 3
        assert done.wait(5) == 3
        short = manager.submit(io.BytesIO(b"ab"), io.BytesIO(), 3, "chirp")
        for _ in range(2):
            with pytest.raises(TransferError, match="ended 1 bytes early"):
                short.wait(5)
        assert len(manager.failures()) == 1


class TestOwnerPumps:
    def test_every_quantum_runs_on_the_thread_that_called_wait(self):
        """No relay: transfers submitted from one thread and waited on
        from two; every ``pump_chunk`` (seen from the sink) runs on
        the thread that called that transfer's ``wait()``."""
        tm = TransferManager(NestConfig(quantum_bytes=1024))

        class Sink(io.BytesIO):
            def __init__(self):
                super().__init__()
                self.writers = []

            def write(self, data):
                self.writers.append(threading.get_ident())
                return super().write(data)

        try:
            size = 64 * 1024
            sinks = [Sink(), Sink()]
            transfers = [tm.submit(io.BytesIO(b"d" * size), sink, size,
                                   "chirp") for sink in sinks]
            assert sinks[0].writers == sinks[1].writers == []
            waiters = [None, None]

            def own(i):
                waiters[i] = threading.get_ident()
                transfers[i].wait(30)

            other = threading.Thread(target=own, args=(1,))
            other.start()
            own(0)
            other.join(30)
            assert not other.is_alive()
            assert waiters[0] == threading.get_ident() != waiters[1]
            for sink, waiter in zip(sinks, waiters):
                assert sink.getvalue() == b"d" * size
                assert set(sink.writers) == {waiter}
        finally:
            tm.shutdown()

    def test_manager_creates_no_thread(self):
        before = set(threading.enumerate())
        tm = TransferManager(NestConfig())
        tm.submit(io.BytesIO(b"z" * 100_000), io.BytesIO(),
                  100_000, "chirp").wait()
        assert set(threading.enumerate()) == before
        tm.shutdown()

    def test_default_server_thread_census(self):
        """A started default NestServer with one Chirp and one HTTP
        connection open: the one accept thread + mgmt + one per
        connection, and nothing named after a transfer pool."""
        before = set(threading.enumerate())
        config = NestConfig(name="census")
        with NestServer(config) as server:
            with ChirpClient(*server.endpoint("chirp")) as chirp, \
                    HttpClient(*server.endpoint("http")) as http:
                chirp.mkdir("/d")
                chirp.put("/d/f", b"x" * 200_000)
                assert chirp.get("/d/f") == b"x" * 200_000
                assert http.get("/d/f") == b"x" * 200_000
                names = sorted(t.name for t in
                               set(threading.enumerate()) - before)
        assert not [n for n in names
                    if n.startswith(("nest-xfer", "nest-events"))]
        assert names == sorted(
            ["nest-accept-census", "obs-mgmt-accept",
             "nest-chirp-conn", "nest-http-conn"])


class TestScheduling:
    def test_stride_shapes_live_transfers(self):
        # Throttle via tiny quanta so shaping is observable.
        config = NestConfig(
            scheduling="stride",
            shares={"fast": 4.0, "slow": 1.0},
            transfer_workers=1,
            quantum_bytes=1024,
        )
        tm = TransferManager(config)
        try:
            moved = {"fast": 0, "slow": 0}
            snapshot = {}
            size = 400_000

            class CountingSink(io.BytesIO):
                def __init__(self, key):
                    super().__init__()
                    self.key = key

                def write(self, data):
                    moved[self.key] += len(data)
                    # One grant at a time: no other sink is writing.
                    if not snapshot and sum(moved.values()) > 500_000:
                        snapshot.update(moved)
                    return super().write(data)

            transfers = [
                tm.submit(io.BytesIO(b"d" * size), CountingSink(key), size,
                          key)
                for key in ("fast", "fast", "slow", "slow")]
            outcomes = pump_each_on_its_own_thread(transfers)
            assert outcomes == [size] * 4
            # While both classes are backlogged, fast gets ~4x.
            assert snapshot["fast"] > 2 * snapshot["slow"]
        finally:
            tm.shutdown()

    def test_non_work_conserving_idles_then_force_grants(self, monkeypatch):
        """The rightful (minimum-pass) job holds a grant and is not
        ready; with ``work_conserving=False`` the scheduler refuses the
        free slot to the other job, which idles ``IDLE_WAIT`` and is
        then granted anyway."""
        monkeypatch.setattr(transfer_module, "IDLE_WAIT", 0.05)
        tm = TransferManager(NestConfig(
            scheduling="stride", work_conserving=False, transfer_workers=2))
        gate = threading.Event()
        entered = threading.Event()

        class GatedSource(io.BytesIO):
            def readinto(self, view):
                entered.set()
                gate.wait(30)
                return super().readinto(view)

        try:
            holder = tm.submit(GatedSource(b"h" * 1000), io.BytesIO(), 1000,
                               "chirp")
            holding = threading.Thread(target=holder.wait, args=(30,))
            holding.start()
            assert entered.wait(10)
            # holder: pass 0, in flight, not ready.  The newcomer joins
            # at the same pass but a later arrival, so select() keeps
            # returning None for as long as the holder is out.
            newcomer = tm.submit(io.BytesIO(b"n" * 1000), io.BytesIO(), 1000,
                                 "chirp")
            t0 = time.monotonic()
            assert newcomer.wait(10) == 1000
            idled = time.monotonic() - t0
            assert 0.05 <= idled < 5.0
            assert not holder._finished  # the gate never opened
            gate.set()
            holding.join(30)
            assert not holding.is_alive()
            assert holder.moved == 1000
            assert tm.queue_depth() == 0 and tm.in_flight() == 0
        finally:
            gate.set()
            tm.shutdown()

    def test_grants_never_exceed_transfer_workers(self):
        """Stress: more owners than cores, a short switch interval; a
        lost update on the grant count would break the cap or strand a
        waiter."""
        workers = 3
        tm = TransferManager(NestConfig(transfer_workers=workers,
                                        quantum_bytes=512))
        peak = [0]

        class Source(io.BytesIO):
            def readinto(self, view):
                peak[0] = max(peak[0], tm.in_flight())
                return super().readinto(view)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            size = 40_000
            sinks = [io.BytesIO() for _ in range(24)]
            transfers = [tm.submit(Source(bytes([i]) * size), sink, size,
                                   "chirp")
                         for i, sink in enumerate(sinks)]
            outcomes = pump_each_on_its_own_thread(transfers, timeout=60)
        finally:
            sys.setswitchinterval(interval)
            tm.shutdown()
        assert outcomes == [size] * len(sinks)
        assert [s.getvalue() for s in sinks] == [
            bytes([i]) * size for i in range(len(sinks))]
        assert 1 <= peak[0] <= workers
        assert tm.queue_depth() == 0 and tm.in_flight() == 0
        assert tm.scheduler.depth() == 0

    def test_timeout_withdraws_a_waiting_transfer(self):
        tm = TransferManager(NestConfig(transfer_workers=1))
        gate = threading.Event()

        class GatedSource(io.BytesIO):
            def readinto(self, view):
                gate.wait(30)
                return super().readinto(view)

        try:
            holder = tm.submit(GatedSource(b"h" * 10), io.BytesIO(), 10,
                               "chirp")
            holding = threading.Thread(target=holder.wait, args=(30,))
            holding.start()
            deadline = time.monotonic() + 10
            while tm.in_flight() == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            starved = tm.submit(io.BytesIO(b"s" * 10), io.BytesIO(), 10,
                                "chirp")
            with pytest.raises(TransferError, match="transfer timed out"):
                starved.wait(0.05)
            assert tm.queue_depth() == 0
            gate.set()
            holding.join(30)
            assert holder.moved == 10
            assert tm.scheduler.depth() == 0
        finally:
            gate.set()
            tm.shutdown()

    def test_shutdown_idempotent_enough(self):
        tm = TransferManager(NestConfig())
        assert tm.submit(io.BytesIO(b"ok"), io.BytesIO(), 2,
                         "chirp").wait() == 2
        tm.shutdown()
        state = (tm.queue_depth(), tm.in_flight(), tm.failures())
        tm.shutdown()  # a second shutdown changes nothing
        assert (tm.queue_depth(), tm.in_flight(), tm.failures()) == state
        assert state == (0, 0, [])
        # ...and the manager stays shut: no grant, typed failure.
        late = tm.submit(io.BytesIO(b"late"), io.BytesIO(), 4, "chirp")
        with pytest.raises(TransferError, match="manager shut down"):
            late.wait(5)


MIB = 1 << 20


def wait_until(condition, timeout=10):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.002)
    assert condition()


class TestGrantSize:
    """A grant is ``BURST_BYTES`` while there is a slot for every
    registered transfer and ``quantum_bytes`` once there is not; counted
    with the manager's own ``grants`` / ``burst_grants``."""

    @staticmethod
    def recording_sink(tm, log, key=None):
        """A sink that logs, per write, who wrote, how many transfers
        were registered, the bursts granted so far and the bytes."""
        class Sink(io.BytesIO):
            def write(self, data):
                log.append((key, tm.scheduler.depth(), tm.burst_grants,
                            len(data)))
                return super().write(data)
        return Sink()

    def test_two_transfers_with_slots_to_spare_move_in_bursts(self):
        tm = TransferManager(NestConfig())
        try:
            sinks = [io.BytesIO(), io.BytesIO()]
            transfers = [tm.submit(io.BytesIO(bytes([i]) * MIB), sink, MIB,
                                   "chirp") for i, sink in enumerate(sinks)]
            assert pump_each_on_its_own_thread(transfers) == [MIB, MIB]
        finally:
            tm.shutdown()
        assert [s.getvalue() for s in sinks] == [b"\0" * MIB, b"\1" * MIB]
        assert tm.burst_grants == tm.grants
        assert 2 <= tm.grants <= 4  # 64 each at quantum_bytes

    def test_two_transfers_on_one_slot_take_quanta_only(self):
        config = NestConfig(transfer_workers=1)
        tm = TransferManager(config)
        log = []
        try:
            transfers = [tm.submit(io.BytesIO(b"d" * MIB),
                                   self.recording_sink(tm, log), MIB, "chirp")
                         for _ in range(2)]
            assert pump_each_on_its_own_thread(transfers) == [MIB, MIB]
        finally:
            tm.shutdown()
        contended = [entry for entry in log if entry[1] == 2]
        # Whichever finished first moved all of its bytes in company.
        assert len(contended) >= MIB // config.quantum_bytes
        assert all(bursts == 0 and size <= config.quantum_bytes
                   for _, _, bursts, size in contended)
        assert tm.grants >= len(contended)

    def test_no_burst_once_there_is_one_transfer_more_than_slots(self):
        config = NestConfig(transfer_workers=2)
        tm = TransferManager(config)
        gate = threading.Event()
        entered = threading.Semaphore(0)
        log = []

        class GatedSource(io.BytesIO):
            def readinto(self, view):
                entered.release()
                gate.wait(30)
                return super().readinto(view)

        try:
            holders = [tm.submit(GatedSource(b"h" * MIB),
                                 self.recording_sink(tm, log), MIB, "chirp")
                       for _ in range(config.transfer_workers)]
            threads = [threading.Thread(target=h.wait, args=(30,))
                       for h in holders]
            for thread in threads:
                thread.start()
            for _ in holders:
                assert entered.acquire(timeout=10)
            assert tm.burst_grants == tm.grants == config.transfer_workers
            last = tm.submit(io.BytesIO(b"n" * MIB),
                             self.recording_sink(tm, log), MIB, "chirp")
            bursts_before = tm.burst_grants
            gate.set()
            assert last.wait(30) == MIB
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            gate.set()
            tm.shutdown()
        assert [h.moved for h in holders] == [MIB] * len(holders)
        crowded = [entry for entry in log
                   if entry[1] == config.transfer_workers + 1]
        assert crowded
        assert all(bursts == bursts_before for _, _, bursts, _ in crowded)

    def test_a_pooled_burst_yields_within_one_buffer_of_a_waiter(self):
        tm = TransferManager(NestConfig(transfer_workers=1))
        gate = threading.Event()
        mid_burst = threading.Event()
        log = []
        buffer_bytes = fastio.DEFAULT_POOL.buffer_bytes
        size = 8 * buffer_bytes

        class GatedSource(io.BytesIO):
            reads = 0

            def readinto(self, view):
                self.reads += 1
                if self.reads == 2:
                    mid_burst.set()
                    gate.wait(30)
                return super().readinto(view)

        try:
            holder = tm.submit(GatedSource(b"h" * size),
                               self.recording_sink(tm, log, "holder"), size,
                               "chirp")
            holding = threading.Thread(target=holder.wait, args=(30,))
            holding.start()
            assert mid_burst.wait(10)
            assert (tm.grants, tm.burst_grants, holder.moved) == (
                1, 1, buffer_bytes)
            newcomer = tm.submit(io.BytesIO(b"n" * size),
                                 self.recording_sink(tm, log, "newcomer"),
                                 size, "chirp")
            arriving = threading.Thread(target=newcomer.wait, args=(30,))
            arriving.start()
            wait_until(lambda: tm.queue_depth() == 1)
            gate.set()
            for thread in (holding, arriving):
                thread.join(30)
                assert not thread.is_alive()
        finally:
            gate.set()
            tm.shutdown()
        assert holder.moved == newcomer.moved == size
        writers = [key for key, _, _, _ in log]
        # The read that was in flight lands, and the very next bytes to
        # move are the newcomer's: the other six buffers of the burst
        # went back.
        assert writers[:3] == ["holder", "holder", "newcomer"]
        assert tm.queue_depth() == 0 and tm.in_flight() == 0


@pytest.mark.skipif(not fastio.sendfile_available,
                    reason="platform has no os.sendfile")
class TestLiveGrants:
    def test_two_connections_getting_8mib_files_move_them_in_bursts(
            self, tmp_path):
        """One Chirp and one HTTP connection, four 8 MiB GETs each, at
        once: a second connection must not put both back on 16 KiB
        quanta (512 arbitrations per file)."""
        payload = bytes(range(256)) * (8 * MIB // 256)
        config = NestConfig(name="live-grants", protocols=("chirp", "http"),
                            management=False)
        got = {"chirp": [], "http": []}

        def fetch(key, client):
            for _ in range(4):
                got[key].append(client.get("/big.dat"))

        with NestServer(config, store=LocalFSStore(str(tmp_path))) as server:
            tm = server.transfers
            with ChirpClient(*server.endpoint("chirp")) as chirp, \
                    HttpClient(*server.endpoint("http")) as http:
                chirp.put("/big.dat", payload)
                grants = tm.grants
                before = fastio.COUNTERS.snapshot()
                threads = [threading.Thread(target=fetch, args=pair)
                           for pair in (("chirp", chirp), ("http", http))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                    assert not thread.is_alive()
        # Counted once the server has stopped: a client can hold the
        # last byte before its handler thread has finished the transfer.
        after = fastio.COUNTERS.snapshot()
        crc = zlib.crc32(payload)
        for key in ("chirp", "http"):
            assert [len(d) for d in got[key]] == [len(payload)] * 4
            assert [zlib.crc32(d) for d in got[key]] == [crc] * 4
        assert (after["sendfile_bytes"] - before["sendfile_bytes"]
                == 8 * len(payload))
        assert after["fallback_bytes"] == before["fallback_bytes"]
        assert tm.grants - grants <= 64  # ~600 at 16 KiB quanta
        assert tm.queue_depth() == 0 and tm.in_flight() == 0
