"""Event loop and server-model switcher: units plus a live flip.

The EventLoop tests drive the loop with a minimal echo handler over
socketpairs -- no NestServer, no protocols -- to pin the park /
dispatch / re-park / retire cycle and the two-phase shutdown.  The
switcher tests inject signal callables and a fake clock so the policy
is exercised without sockets at all.  The live tests are the
acceptance-criterion ones: a real adaptive-mode server demonstrably
flips to the event architecture under connection load, and each
architecture shows its thread signature while holding a burst of
connections open.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.nest.concurrency import EVENTS, THREADS, ServerModelSwitcher
from repro.nest.config import NestConfig
from repro.nest.eventserver import EventLoop


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class EchoHandler:
    """Minimal event-capable handler: echo whatever arrives."""

    def __init__(self, sock):
        self.sock = sock
        self.served = 0
        self.finished = threading.Event()

    def fileno(self):
        return self.sock.fileno()

    def step(self):
        try:
            data = self.sock.recv(4096)
        except OSError:
            return False
        if not data:
            return False
        self.served += 1
        self.sock.sendall(data)
        return True

    def force_close(self):
        try:
            self.sock.close()
        except OSError:
            pass

    def finish(self):
        self.force_close()
        self.finished.set()


class TestEventLoop:
    def test_park_dispatch_repark_retire_cycle(self):
        loop = EventLoop(workers=2, name="evt-cycle")
        try:
            client, server_side = socket.socketpair()
            client.settimeout(5.0)
            handler = EchoHandler(server_side)
            assert loop.adopt(handler)
            # Each round trip is one dispatch followed by a re-park.
            for _ in range(3):
                client.sendall(b"ping")
                assert client.recv(4096) == b"ping"
            assert handler.served == 3
            assert loop.dispatches >= 3
            assert loop.live() == 1
            # EOF from the client retires the connection.
            client.close()
            assert handler.finished.wait(5.0)
            assert _wait_until(lambda: loop.live() == 0)
            assert loop.retired == 1
        finally:
            loop.begin_shutdown()
            loop.finish_shutdown()

    def test_many_parked_connections_one_fixed_pool(self):
        loop = EventLoop(workers=2, name="evt-many")
        pairs = [socket.socketpair() for _ in range(50)]
        handlers = [EchoHandler(s) for _, s in pairs]
        try:
            for handler in handlers:
                assert loop.adopt(handler)
            assert _wait_until(lambda: loop.live() == 50)
            # Parked connections hold no thread: the only new threads
            # are the loop itself plus at most `workers` pool threads.
            names = [t.name for t in threading.enumerate()
                     if t.name.startswith("evt-many")]
            assert len(names) <= 3
            # All 50 still respond.
            for client, _ in pairs:
                client.settimeout(5.0)
                client.sendall(b"x")
                assert client.recv(4096) == b"x"
            # Let the last dispatches re-park before the drain so the
            # forced-straggler count below is deterministic.
            assert _wait_until(lambda: loop.busy_count() == 0)
        finally:
            loop.begin_shutdown()
            forced = loop.finish_shutdown()
            for client, _ in pairs:
                client.close()
        # Idle connections were retired by the drain, none forced.
        assert forced == 0
        assert all(h.finished.is_set() for h in handlers)

    def test_shutdown_refuses_new_adoptions(self):
        loop = EventLoop(workers=1, name="evt-stop")
        loop.begin_shutdown()
        client, server_side = socket.socketpair()
        handler = EchoHandler(server_side)
        assert not loop.adopt(handler)  # caller keeps ownership
        handler.finish()
        client.close()
        assert loop.finish_shutdown() == 0
        # Pool threads joined: nothing left bearing the loop's name.
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("evt-stop")]


class TestServerModelSwitcher:
    def test_flips_to_events_at_high_connections(self):
        conns = {"n": 0}
        sw = ServerModelSwitcher(connections=lambda: conns["n"],
                                 high=10, low=2, interval=0.0)
        assert sw.choose() == THREADS
        conns["n"] = 10
        assert sw.choose() == EVENTS
        assert sw.flips == 1
        assert sw.last_signals["connections"] == 10

    def test_queue_depth_alone_triggers_events(self):
        depth = {"n": 0}
        sw = ServerModelSwitcher(connections=lambda: 1,
                                 queue_depth=lambda: depth["n"],
                                 high=10, low=2, interval=0.0)
        assert sw.choose() == THREADS
        depth["n"] = 10
        assert sw.choose() == EVENTS

    def test_hysteresis_holds_in_middle_band(self):
        conns = {"n": 10}
        sw = ServerModelSwitcher(connections=lambda: conns["n"],
                                 high=10, low=2, interval=0.0)
        assert sw.choose() == EVENTS
        conns["n"] = 5  # between low and high: no flap
        assert sw.choose() == EVENTS
        conns["n"] = 9
        assert sw.choose() == EVENTS
        assert sw.flips == 1

    def test_low_load_follows_measured_goodput(self):
        conns = {"n": 10}
        sw = ServerModelSwitcher(connections=lambda: conns["n"],
                                 high=10, low=2, interval=0.0)
        assert sw.choose() == EVENTS
        # Evidence: under light load the threaded path served requests
        # an order of magnitude faster than the event path.
        for _ in range(8):
            sw.report(THREADS, 1, 0.001)
            sw.report(EVENTS, 1, 0.1)
        conns["n"] = 1
        assert sw.choose() == THREADS
        assert sw.flips == 2

    def test_interval_gates_signal_reads(self):
        now = {"t": 0.0}
        reads = {"n": 0}

        def conns():
            reads["n"] += 1
            return 100

        sw = ServerModelSwitcher(connections=conns, high=10, low=2,
                                 interval=1.0, clock=lambda: now["t"])
        assert sw.choose() == EVENTS
        assert reads["n"] == 1
        for _ in range(20):  # within the interval: cached decision
            sw.choose()
        assert reads["n"] == 1
        now["t"] = 1.5
        sw.choose()
        assert reads["n"] == 2

    def test_slo_degradation_forces_the_event_model(self):
        degraded = {"v": False}
        sw = ServerModelSwitcher(connections=lambda: 1,
                                 slo_degraded=lambda: degraded["v"],
                                 high=10, low=2, interval=0.0)
        assert sw.choose() == THREADS
        degraded["v"] = True  # burn rate blew the budget: shed threads
        assert sw.choose() == EVENTS
        assert sw.last_signals["slo_degraded"] is True
        degraded["v"] = False
        conns_low = sw.choose()  # connections=1 <= low: recover
        assert conns_low == THREADS

    def test_every_flip_counts_and_emits_a_span(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.spans import SpanRecorder, Tracer

        registry = MetricsRegistry()
        recorder = SpanRecorder()
        conns = {"n": 0}
        sw = ServerModelSwitcher(
            connections=lambda: conns["n"], high=10, low=2, interval=0.0,
            registry=registry,
            tracer=Tracer(recorder=recorder, service="switcher"))
        conns["n"] = 50
        assert sw.choose() == EVENTS
        conns["n"] = 0
        assert sw.choose() == THREADS
        counts = registry.snapshot()["server_model_switch_total"]["series"]
        assert counts[EVENTS] == 1
        assert counts[THREADS] == 1
        spans = [s for s in recorder.spans()
                 if s.name == "server.model_switch"]
        assert [s.attributes["to"] for s in spans] == [EVENTS, THREADS]
        # The span carries the signals that justified the decision.
        assert spans[0].attributes["connections"] == 50
        assert spans[0].attributes["slo_degraded"] is False


class TestAdaptiveServerFlip:
    def test_server_flips_to_events_under_connection_load(self):
        from repro.nest.server import NestServer

        config = NestConfig(name="adapt-flip", protocols=("chirp",),
                            concurrency_server="adaptive",
                            server_switch_high=8, server_switch_low=2,
                            server_switch_interval=0.0,
                            management=False)
        with NestServer(config) as srv:
            assert srv._switcher is not None
            assert srv._switcher.model == THREADS
            host, port = srv.endpoint("chirp")
            socks = []
            try:
                # The accept loop registers each threaded handler
                # before accepting the next connection, so by the time
                # the ramp passes the high-water mark the switcher's
                # connection signal has crossed it too.
                for _ in range(16):
                    socks.append(socket.create_connection((host, port),
                                                          timeout=5.0))
                assert _wait_until(lambda: srv._switcher.model == EVENTS)
                assert srv._switcher.flips >= 1
                # Post-flip accepts really landed on the event loop.
                assert _wait_until(lambda: srv._eventloop.live() > 0)
                # connect() returns once the kernel queued the connection;
                # the accept loop may still be working through the backlog.
                assert _wait_until(lambda: srv.active_connections() == 16)
            finally:
                for sock in socks:
                    sock.close()


def _stat_root(sock) -> bool:
    """One raw Chirp ``stat /`` round trip; True when the reply is ok."""
    sock.sendall(b"stat /\r\n")
    reply = b""
    while not reply.endswith(b"\n"):
        data = sock.recv(4096)
        if not data:
            return False
        reply += data
    return reply.startswith(b"ok")


class TestConnectionBurst:
    """Fig. 5's point on real sockets: N connections held open at once,
    each served while all the others stay open, then each served again.
    Thread-per-connection needs a thread per held connection; the event
    path holds them all on its fixed pool."""

    def _hold(self, mode: str, connections: int):
        from repro.nest.server import NestServer

        before = set(threading.enumerate())
        config = NestConfig(name=f"burst-{mode}", protocols=("chirp",),
                            concurrency_server=mode, management=False)
        socks = []
        with NestServer(config) as srv:
            try:
                for _ in range(connections):
                    sock = socket.create_connection(srv.endpoint("chirp"),
                                                    timeout=10.0)
                    socks.append(sock)
                    assert _stat_root(sock)
                held = srv.active_connections()
                threads = set(threading.enumerate()) - before
                # Second sweep: every held connection is still served.
                assert all([_stat_root(sock) for sock in socks])
            finally:
                for sock in socks:
                    sock.close()
        return held, [t.name for t in threads]

    def test_event_server_holds_a_burst_on_a_fixed_pool(self):
        held, threads = self._hold("events", 96)
        assert held >= 96
        assert len(threads) < 96 / 2
        assert "nest-chirp-conn" not in threads

    def test_threaded_server_spends_a_thread_per_connection(self):
        held, threads = self._hold("threaded", 32)
        assert held >= 32
        assert threads.count("nest-chirp-conn") >= 32
