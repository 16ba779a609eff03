"""The management endpoint: HTTP scrape surface of a live appliance.

A tiny HTTP/1.0 server (raw sockets, thread-per-request, in the same
idiom as the rest of the live stack) bound next to the protocol
listeners, serving:

* ``GET /metrics``  -- Prometheus text exposition of a metrics snapshot;
* ``GET /healthz``  -- the JSON health document (rolling throughput,
  per-protocol error rates, probe samples);
* ``GET /trace``    -- recent request spans as a Chrome trace-event
  JSON document (load it in ``chrome://tracing`` / Perfetto);
* ``GET /slo``      -- the SLO report;
* ``GET /ad``       -- the live-health ClassAd attribute block.

The endpoint computes nothing itself: it is built from one document
provider per path (zero-argument callables).  A single appliance
passes its own -- its registry's snapshot, its recorder's trace, its
health monitor, its SLO engine, its ad block -- and a shard group
passes the fleet-merged ones, so one class serves both.  Each scrape
calls its provider once; providers take consistent snapshots (the
registry's per-metric locks, the recorder's ring lock), so a scrape
concurrent with 32 in-flight transfers, an active fault plan, or a
draining ``stop()`` still returns an internally consistent document.
``stop()`` closes the listener and joins every scrape thread -- the
endpoint never leaks.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Callable

from repro.obs.export_prom import render_prometheus
from repro.obs.log import get_logger
from repro.protocols.runtime import Acceptor

__all__ = ["ManagementEndpoint"]

logger = get_logger(__name__)

#: A document provider: called once per scrape of its path.
Provider = Callable[[], Any]


def _no_trace() -> dict:
    return {"traceEvents": []}


class ManagementEndpoint:
    """Serves one appliance's (or one shard fleet's) observability
    documents over HTTP."""

    def __init__(self, *, metrics: Provider = dict,
                 trace: Provider = _no_trace, health: Provider = dict,
                 slo: Provider = dict, ad: Provider = dict,
                 host: str = "127.0.0.1", port: int = 0):
        """``metrics`` returns a :meth:`MetricsRegistry.snapshot`; the
        others return the JSON documents of their paths."""
        self._metrics = metrics
        self._documents = {"/healthz": health, "/trace": trace,
                           "/slo": slo, "/ad": ad}
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self._acceptor: Acceptor | None = None
        self._conn_lock = threading.Lock()
        self._threads: dict[threading.Thread, socket.socket] = {}

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ManagementEndpoint":
        self._acceptor = Acceptor("obs-mgmt-accept")
        self.port = self._acceptor.listen(
            self.host, self._requested_port, self._on_connection,
            backlog=16)
        self._acceptor.start()
        return self

    def stop(self, grace: float | None = None) -> None:
        """Close the listener and join every scrape thread (``grace``:
        the server-part signature; a scrape gets its own bound)."""
        if self._acceptor is not None:
            self._acceptor.stop()
        with self._conn_lock:
            pending = list(self._threads.items())
        for thread, conn in pending:
            thread.join(timeout=2)
            if thread.is_alive():  # wedged scrape: cut the socket
                try:
                    conn.close()
                except OSError:
                    pass
                thread.join(timeout=1)
        with self._conn_lock:
            self._threads.clear()

    def active_scrapes(self) -> int:
        with self._conn_lock:
            return len(self._threads)

    # -- serving -----------------------------------------------------------
    def _on_connection(self, conn: socket.socket, _addr) -> None:
        thread = threading.Thread(
            target=self._serve_one, args=(conn,), name="obs-mgmt-scrape",
            daemon=True)
        with self._conn_lock:
            self._threads[thread] = conn
        thread.start()

    def _serve_one(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(5.0)
            request = conn.recv(4096).decode("latin-1", "replace")
            path = "/"
            parts = request.split()
            if len(parts) >= 2 and parts[0] == "GET":
                path = parts[1]
            status, ctype, body = self._respond(path)
            head = (f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n")
            conn.sendall(head.encode("latin-1") + body)
        except OSError:
            pass
        except Exception:  # noqa: BLE001 - a broken scrape must not leak
            logger.exception("management scrape failed")
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._conn_lock:
                self._threads.pop(threading.current_thread(), None)

    def _respond(self, path: str) -> tuple[str, str, bytes]:
        path = path.split("?", 1)[0]
        if path == "/metrics":
            body = render_prometheus(self._metrics()).encode()
            return "200 OK", "text/plain; version=0.0.4", body
        provider = self._documents.get(path)
        if provider is not None:
            return "200 OK", "application/json", json.dumps(
                provider(), sort_keys=True).encode()
        if path == "/":
            return ("200 OK", "text/plain",
                    b"repro management endpoint\n"
                    b"/metrics /healthz /trace /ad /slo\n")
        return "404 Not Found", "text/plain", b"not found\n"
