"""Regressions for the server/transfer lifecycle bug sweep.

Three bugs the concurrency work exposed, each pinned here:

* ``TransferManager.shutdown()`` abandoned queued/in-flight transfers:
  waiters sat out the full ``wait()`` timeout and pooled buffers
  leaked from ``DEFAULT_POOL``.
* ``NestServer.stop()`` could ``join()`` a handler thread the accept
  loop had registered but not yet started, crashing the drain with
  RuntimeError.
* Re-calling ``advertise_to(..., readvertise_interval=0)`` on a
  running server left the old heartbeat spinning on ``Event.wait(0)``,
  flooding the collector with ads.

And one found later: a ``start()`` that failed part-way (a port in
use) left the listeners it had already bound accepting and serving,
``running`` True and the journal open.
"""

from __future__ import annotations

import io
import socket
import threading
import time

import pytest

from repro.nest import io as fastio
from repro.nest.config import NestConfig
from repro.nest.handlers import ChirpHandler
from repro.nest.server import NestServer
from repro.nest.transfer import BURST_BYTES, TransferError, TransferManager


def _thread_names(prefix: str) -> list[str]:
    return [t.name for t in threading.enumerate()
            if t.name.startswith(prefix)]


class GatedSource:
    """``readinto`` blocks until the gate opens, then yields forever --
    a transfer quantum that is reliably *in flight* at shutdown."""

    def __init__(self) -> None:
        self.gate = threading.Event()

    def readinto(self, view) -> int:
        self.gate.wait(10.0)
        view[:] = b"x" * len(view)
        return len(view)


class TestShutdownFailsPending:
    def test_waiters_unblock_fast_and_buffers_return(self):
        config = NestConfig(name="shutdown-test", protocols=("chirp",),
                            transfer_workers=1)
        manager = TransferManager(config)
        pool0 = fastio.DEFAULT_POOL.snapshot()["outstanding"]
        outcomes: dict[int, BaseException | int] = {}

        def own(transfer):
            """One thread per transfer, as every handler does."""
            try:
                outcomes[id(transfer)] = transfer.wait(timeout=10.0)
            except TransferError as exc:
                outcomes[id(transfer)] = exc

        def start_owner(transfer):
            thread = threading.Thread(target=own, args=(transfer,),
                                      daemon=True)
            thread.start()
            return thread

        blocker_src = GatedSource()
        # Total far beyond one burst grant, so the in-flight quantum
        # cannot complete the transfer before shutdown lands.
        blocker = manager.submit(blocker_src, io.BytesIO(),
                                 total=BURST_BYTES * 16, protocol="chirp")
        blocker_owner = start_owner(blocker)
        deadline = time.monotonic() + 5.0
        while manager.in_flight() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert manager.in_flight() == 1
        # With the single grant out, these wait for one forever.
        queued = [manager.submit(io.BytesIO(b"d" * 1024), io.BytesIO(),
                                 total=1024, protocol="chirp")
                  for _ in range(4)]
        owners = [start_owner(transfer) for transfer in queued]
        deadline = time.monotonic() + 5.0
        while manager.queue_depth() < 4 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert manager.queue_depth() == 4
        t0 = time.perf_counter()
        manager.shutdown()
        for owner in owners:
            owner.join(10.0)
            assert not owner.is_alive()
        # The bug: these waits blocked their full timeout instead.
        assert time.perf_counter() - t0 < 1.0
        for transfer in queued:
            assert "manager shut down" in str(outcomes[id(transfer)])
        assert manager.queue_depth() == 0
        # The in-flight quantum returns after the gate opens and must
        # fail the same way rather than ask a dead manager for more.
        assert blocker_owner.is_alive()
        blocker_src.gate.set()
        blocker_owner.join(10.0)
        assert not blocker_owner.is_alive()
        assert "manager shut down" in str(outcomes[id(blocker)])
        assert manager.in_flight() == 0
        # The bug: the blocker's pooled buffer leaked (outstanding
        # never decremented).
        assert fastio.DEFAULT_POOL.snapshot()["outstanding"] == pool0
        assert sum("manager shut down" in repr(f["error"])
                   for f in manager.failures()) == 5

    def test_shutdown_with_no_pending_is_quiet(self):
        config = NestConfig(name="shutdown-quiet", protocols=("chirp",))
        manager = TransferManager(config)
        sink = io.BytesIO()
        manager.submit(io.BytesIO(b"ok"), sink, total=2,
                       protocol="chirp").wait(timeout=10.0)
        manager.shutdown()
        assert sink.getvalue() == b"ok"
        assert not manager.failures()


class TestStopAcceptRace:
    def test_stop_tolerates_not_yet_started_handler_thread(
            self, server_factory):
        srv = server_factory(protocols=("chirp",))
        # Freeze the hand-off at its racy point: the handler is in
        # _connections but its thread has not started -- exactly the
        # window the accept loop opens between register and start().
        client, conn = socket.socketpair()
        handler = ChirpHandler(srv, conn, ("127.0.0.1", 0))
        thread = threading.Thread(target=srv._run_handler, args=(handler,),
                                  daemon=True)
        with srv._conn_lock:
            srv._connections[handler] = thread
        # The thread must still be unstarted when stop() reaches the
        # straggler sweep, which is its drain window (0.05 s) away.
        starter = threading.Timer(0.3, thread.start)
        starter.start()
        try:
            # The bug: the straggler join hit the never-started thread
            # and raised RuntimeError mid-drain.
            result = srv.stop(drain_timeout=0.05)
        finally:
            client.close()
        assert result["forced"] >= 1
        thread.join(5.0)
        # The handler stayed in the drain set the whole time and is
        # gone now -- the fix must not trade the race for a leak.
        assert srv.active_connections() == 0

    def test_clean_stop_still_drains(self, server_factory):
        from repro.client.chirp import ChirpClient

        srv = server_factory(protocols=("chirp",))
        with ChirpClient(*srv.endpoint("chirp")) as c:
            c.put("/data/drain.bin", b"d" * 4096)
        result = srv.stop(drain_timeout=2.0)
        assert result == {"drained": 1, "forced": 0}
        assert srv.active_connections() == 0


class CountingCollector:
    """Collector stand-in that just counts publishes."""

    def __init__(self) -> None:
        self.ads = 0
        self.withdrawn: list[str] = []

    def advertise(self, ad, ttl=None) -> None:
        self.ads += 1

    def withdraw(self, name: str) -> None:
        self.withdrawn.append(name)


class TestHeartbeatReconfigure:
    def test_disabling_interval_stops_heartbeat(self, server_factory):
        srv = server_factory(protocols=("chirp",))
        collector = CountingCollector()
        srv.advertise_to(collector, readvertise_interval=0.02)
        deadline = time.monotonic() + 5.0
        while collector.ads < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert collector.ads >= 3  # heartbeat alive and beating
        srv.advertise_to(collector, readvertise_interval=0.0)
        # Reconfigure joined the beat thread -- not merely signalled.
        assert srv._advert_thread is None
        baseline = collector.ads
        time.sleep(0.25)
        # The bug: the old thread re-read the interval and
        # Event.wait(0) returned immediately -- a hot spin publishing
        # hundreds of ads here instead of zero.
        assert collector.ads == baseline
        assert not _thread_names(f"nest-advertise-{srv.config.name}")

    def test_interval_change_replaces_not_duplicates(self, server_factory):
        srv = server_factory(protocols=("chirp",))
        collector = CountingCollector()
        srv.advertise_to(collector, readvertise_interval=30.0)
        srv.advertise_to(collector, readvertise_interval=0.02)
        deadline = time.monotonic() + 5.0
        while collector.ads < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert collector.ads >= 4  # the new fast interval took over
        names = _thread_names(f"nest-advertise-{srv.config.name}")
        assert len(names) == 1  # old beat joined, exactly one remains


class TestFailedStart:
    def test_a_port_in_use_leaves_nothing_started(self, tmp_path):
        """``start()`` is all or nothing.  The management endpoint is
        up and Chirp bound when HTTP finds its port taken: the error
        reaches the caller and nothing of the appliance is left up -- which
        ``with NestServer(...)`` relies on, since ``__exit__`` never
        runs when ``__enter__`` raises."""
        collector = CountingCollector()
        with socket.socket() as squatter:
            squatter.bind(("127.0.0.1", 0))
            squatter.listen(1)
            srv = NestServer(
                NestConfig(name="half", protocols=("chirp", "http"),
                           state_dir=str(tmp_path / "state")),
                ports={"http": squatter.getsockname()[1]})
            srv.advertise_to(collector, readvertise_interval=0.02)
            with pytest.raises(OSError, match="in use"):
                with srv:
                    pytest.fail("a half-started server was entered")
        assert not srv.running
        assert not _thread_names("nest-accept-half")
        bound = [listener for listener, _ in srv._acceptor._listeners]
        assert bound and all(listener.fileno() == -1 for listener in bound)
        with pytest.raises(OSError):  # the port Chirp had bound is dead
            socket.create_connection(("127.0.0.1", srv.ports["chirp"]),
                                     timeout=1.0).close()
        assert srv.mgmt is None
        assert srv._advert_thread is None
        assert collector.withdrawn == ["half"]
        assert srv.durability.journal._file is None
