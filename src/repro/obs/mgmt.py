"""The management endpoint: HTTP scrape surface of a live appliance.

A tiny HTTP/1.0 server (raw sockets, thread-per-request, in the same
idiom as the rest of the live stack) bound next to the protocol
listeners, serving:

* ``GET /metrics``  -- Prometheus text exposition of the registry;
* ``GET /healthz``  -- the JSON health document (rolling throughput,
  per-protocol error rates, probe samples);
* ``GET /trace``    -- recent request spans as a Chrome trace-event
  JSON document (load it in ``chrome://tracing`` / Perfetto);
* ``GET /ad``       -- the live-health ClassAd attribute block.

Scrapes are read-only and cheap: each handler takes one consistent
snapshot (the registry's per-metric locks, the recorder's ring lock)
so a scrape concurrent with 32 in-flight transfers, an active fault
plan, or a draining ``stop()`` still returns an internally consistent
document.  ``stop()`` closes the listener and joins every scrape
thread -- the endpoint never leaks.
"""

from __future__ import annotations

import json
import os
import socket
import threading

from repro.obs.export_chrome import spans_to_chrome
from repro.obs.export_prom import render_prometheus
from repro.obs.health import HealthMonitor
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.protocols.common import Acceptor

__all__ = ["ManagementEndpoint"]

logger = get_logger(__name__)


class ManagementEndpoint:
    """Serves observability documents for one appliance over HTTP."""

    def __init__(self, registry: MetricsRegistry,
                 health: HealthMonitor | None = None,
                 recorder: SpanRecorder | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 service: str = "nest",
                 ad_attributes=None, slo=None, refresh=None):
        self.registry = registry
        self.health = health
        self.recorder = recorder
        self.host = host
        self.service = service
        self._requested_port = port
        self.port: int | None = None
        #: optional callable returning the live-health ClassAd attrs.
        self.ad_attributes = ad_attributes
        #: optional callable returning the SLO report document.
        self.slo = slo
        #: optional hook run before /metrics and /slo scrapes, so
        #: derived gauges (the SLO engine's) are fresh at read time.
        self.refresh = refresh
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

    def stop(self) -> None:
        """Close the listener and join every scrape thread."""
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

    def _refresh(self) -> None:
        if self.refresh is None:
            return
        try:
            self.refresh()
        except Exception:  # noqa: BLE001 - a broken probe must not 500
            logger.exception("management refresh hook failed")

    def _respond(self, path: str) -> tuple[str, str, bytes]:
        path = path.split("?", 1)[0]
        if path == "/metrics":
            self._refresh()
            body = render_prometheus(self.registry).encode()
            return "200 OK", "text/plain; version=0.0.4", body
        if path == "/healthz":
            doc = self.health.snapshot() if self.health else {}
            return "200 OK", "application/json", json.dumps(
                doc, sort_keys=True).encode()
        if path == "/trace":
            recorder = self.recorder
            # The real OS pid keeps this document mergeable with other
            # workers' documents (distinct pid per process row).
            doc = spans_to_chrome(recorder, service=self.service,
                                  pid=os.getpid()) \
                if recorder else {"traceEvents": []}
            return "200 OK", "application/json", json.dumps(doc).encode()
        if path == "/slo":
            if self.slo is None:
                return "404 Not Found", "text/plain", b"no slo engine\n"
            self._refresh()
            return "200 OK", "application/json", json.dumps(
                self.slo(), sort_keys=True).encode()
        if path == "/ad":
            attrs = self.ad_attributes() if self.ad_attributes else {}
            return "200 OK", "application/json", json.dumps(
                attrs, sort_keys=True).encode()
        if path == "/":
            return ("200 OK", "text/plain",
                    b"repro management endpoint\n"
                    b"/metrics /healthz /trace /ad /slo\n")
        return "404 Not Found", "text/plain", b"not found\n"
