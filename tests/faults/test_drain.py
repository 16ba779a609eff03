"""Graceful lifecycle: stop() drains in-flight work, leaks nothing.

Acceptance criterion: ``stop(drain_timeout=...)`` with transfers in
flight returns with zero leaked handler threads and sockets, and the
transfer manager can say *why* an interrupted transfer failed.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.client import FtpClient, GridFtpClient, NfsClient
from repro.client.chirp import ChirpClient
from repro.client.errors import ClientError
from repro.client.http import HttpClient
from repro.client.retry import RetryPolicy
from repro.faults import FaultAction, FaultPlan
from repro.jbos import (
    NativeChirpd,
    NativeFtpd,
    NativeGridFtpd,
    NativeHttpd,
    NativeNfsd,
)
from repro.protocols import chirp, http
from repro.protocols.common import Request, RequestType, write_line


def _wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _leaked_handler_threads():
    return [t for t in threading.enumerate()
            if t.is_alive() and t.name.startswith("nest-")
            and (t.name.endswith("-conn") or t.name.startswith("nest-accept"))]


class TestNestServerDrain:
    def test_clean_drain_closes_idle_connections(self, server_factory):
        srv = server_factory()
        client = ChirpClient(*srv.endpoint("chirp"))
        client.put("/data/f", b"payload")
        assert _wait_until(lambda: srv.active_connections() == 1)

        stats = srv.stop(drain_timeout=2.0)

        assert stats == {"drained": 1, "forced": 0}
        assert srv.active_connections() == 0
        assert _wait_until(lambda: not _leaked_handler_threads())
        # The idle connection was closed under the client: the next
        # operation cannot silently succeed.
        with pytest.raises(ClientError):
            client.get("/data/f")
        client.close()

    def test_forced_drain_zero_leaks_with_in_flight_transfer(
            self, server_factory):
        srv = server_factory()
        # A raw Chirp PUT that announces 1 MiB but sends only 1 KiB:
        # the handler parks mid-transfer waiting for the rest.
        sock = socket.create_connection(srv.endpoint("chirp"))
        wfile = sock.makefile("wb")
        write_line(wfile, chirp.encode_request(
            Request(rtype=RequestType.PUT, path="/data/big",
                    length=1 << 20)))
        wfile.write(b"x" * 1024)
        wfile.flush()
        assert _wait_until(
            lambda: any(getattr(h, "busy", False)
                        for h in list(srv._connections)))

        stats = srv.stop(drain_timeout=0.3)

        assert stats["forced"] >= 1
        assert srv.active_connections() == 0
        assert _wait_until(lambda: not _leaked_handler_threads())
        # The interrupted transfer left a readable cause, not just a
        # closed socket.
        failures = srv.transfers.failures()
        assert any(f["path"] == "/data/big" for f in failures)
        cause = next(f for f in failures if f["path"] == "/data/big")
        assert cause["moved"] < cause["total"]
        assert cause["error"] is not None
        sock.close()

    def test_in_flight_transfer_drains_within_timeout(self, server_factory):
        """A transfer that *can* finish during the window is not cut."""
        srv = server_factory()
        client = ChirpClient(*srv.endpoint("chirp"))
        data = bytes(range(256)) * 512  # 128 KiB
        client.put("/data/f", data)

        results = {}

        def slow_get():
            try:
                results["data"] = client.get("/data/f")
            except BaseException as exc:  # noqa: BLE001 - asserted below
                results["error"] = exc

        def busy():
            return any(getattr(h, "busy", False)
                       for h in list(srv._connections))

        assert _wait_until(lambda: not busy())  # the put's scope has closed
        thread = threading.Thread(target=slow_get, daemon=True)
        thread.start()
        # In flight, not merely intended: a stop() that wins the race
        # with the request line closes an idle connection, rightly.
        assert _wait_until(lambda: results or busy())
        stats = srv.stop(drain_timeout=5.0)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert results.get("data") == data
        assert stats["forced"] == 0


class TestNativeServerDrain:
    def test_accept_fault_and_retry_against_native_daemon(self):
        plan = FaultPlan.fail_accept(count=1)
        with NativeHttpd(faults=plan) as srv:
            retry = RetryPolicy(max_attempts=3, base_delay=0.01,
                                deadline=10.0)
            with HttpClient(srv.host, srv.port, retry=retry) as client:
                client.put("/f", b"jbos payload")
                assert client.get("/f") == b"jbos payload"
        assert plan.fired(FaultAction.DROP) == 1

    def test_forced_drain_with_stuck_connection(self):
        srv = NativeHttpd().start()
        try:
            sock = socket.create_connection((srv.host, srv.port))
            wfile = sock.makefile("wb")
            # Announce a body that never arrives: handler blocks in
            # read_exact.
            http.write_request(wfile, Request(
                rtype=RequestType.PUT, path="/big", length=1 << 20))
            wfile.write(b"y" * 512)
            wfile.flush()
            assert _wait_until(lambda: srv.active_connections() == 1)

            stats = srv.stop(drain_timeout=0.3)

            assert stats["forced"] == 1
            assert srv.active_connections() == 0
            leaked = [t for t in threading.enumerate()
                      if t.is_alive() and t.name.startswith("jbos-")]
            assert _wait_until(lambda: not [
                t for t in threading.enumerate()
                if t.is_alive() and t.name.startswith("jbos-")]), leaked
            sock.close()
        finally:
            srv.stop(drain_timeout=0.1)

    def test_clean_stop_reports_drained(self):
        srv = NativeHttpd().start()
        with HttpClient(srv.host, srv.port) as client:
            client.put("/f", b"abc")
            assert client.get("/f") == b"abc"
        assert _wait_until(lambda: srv.active_connections() == 0)
        assert srv.stop(drain_timeout=2.0) == {"drained": 1, "forced": 0}


#: every native daemon, with its client and that client's whole-file GET.
NATIVE_GETS = {
    NativeChirpd: (ChirpClient, "get"),
    NativeHttpd: (HttpClient, "get"),
    NativeFtpd: (FtpClient, "retr"),
    NativeGridFtpd: (GridFtpClient, "retr"),
    NativeNfsd: (NfsClient, "read_file"),
}


@pytest.mark.parametrize("daemon", NATIVE_GETS, ids=lambda cls: cls.__name__)
def test_every_native_daemon_takes_a_fault_plan(daemon):
    """``NativeGridFtpd(faults=...)`` was a TypeError: its constructor
    forgot the argument its four siblings took."""
    plan = FaultPlan.fail_accept(count=1)
    with daemon(faults=plan) as srv:
        srv.store.write("/f", b"native payload")
        client_cls, get = NATIVE_GETS[daemon]
        retry = RetryPolicy(max_attempts=3, base_delay=0.01, deadline=10.0)
        with client_cls(srv.host, srv.port, retry=retry) as client:
            assert getattr(client, get)("/f") == b"native payload"
    assert plan.fired(FaultAction.DROP) == 1


class TestConnectionTracking:
    def test_active_connections_follows_clients(self, server_factory):
        srv = server_factory()
        clients = [ChirpClient(*srv.endpoint("chirp")) for _ in range(3)]
        assert _wait_until(lambda: srv.active_connections() == 3)
        for c in clients:
            c.close()
        assert _wait_until(lambda: srv.active_connections() == 0)
