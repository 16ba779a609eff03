"""Common plumbing for the native single-protocol servers.

Each native server owns a listener and spawns a thread per connection,
pumping bytes *directly* -- no transfer manager, no scheduler, exactly
one protocol.  This base class is intentionally thin: the servers are
meant to be independent daemons, not a framework -- but like the NeST
dispatcher it tracks its live connections, accepts an optional
:class:`~repro.faults.FaultPlan`, and drains gracefully on ``stop``.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.faults import FaultPlan
from repro.jbos.store import SimpleStore
from repro.jbos.throttle import Throttle, Unthrottled
from repro.obs.metrics import global_registry
from repro.protocols.common import Acceptor, ProtocolError


class NativeServer:
    """Base: one listener, one thread per connection."""

    protocol = "base"

    def __init__(
        self,
        store: SimpleStore | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        throttle: Throttle | None = None,
        faults: FaultPlan | None = None,
    ):
        self.store = store if store is not None else SimpleStore()
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self.throttle = throttle if throttle is not None else Unthrottled()
        self.faults = faults
        self._acceptor: Acceptor | None = None
        #: live connections: socket -> its handler thread.
        self._conn_lock = threading.Lock()
        self._connections: dict[socket.socket, threading.Thread] = {}
        # Native servers are independent daemons with no appliance
        # context, so their counters land on the process registry.
        reg = global_registry()
        self._m_connections = reg.counter(
            "repro_jbos_connections_total",
            "Connections accepted by native single-protocol servers.",
            labelnames=("protocol",))
        self._m_bytes = reg.counter(
            "repro_jbos_bytes_sent_total",
            "Bytes pumped by native servers (direct, unscheduled).",
            labelnames=("protocol",))

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "NativeServer":
        self._acceptor = Acceptor(f"jbos-{self.protocol}")
        self.port = self._acceptor.listen(
            self.host, self._requested_port, self._on_connection)
        self._acceptor.start()
        return self

    def stop(self, drain_timeout: float = 5.0) -> dict[str, int]:
        """Stop accepting, give live connections ``drain_timeout``
        seconds to finish, then force-close the rest.  Returns
        ``{"drained": 0|1, "forced": n}`` like ``NestServer.stop``.
        """
        if self._acceptor is not None:
            self._acceptor.stop()

        deadline = time.monotonic() + max(drain_timeout, 0.0)
        while time.monotonic() < deadline:
            with self._conn_lock:
                if not self._connections:
                    break
            time.sleep(0.01)

        with self._conn_lock:
            stragglers = list(self._connections.items())
        for conn, _thread in stragglers:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for conn, thread in stragglers:
            thread.join(timeout=2)
            with self._conn_lock:
                self._connections.pop(conn, None)
        return {"drained": int(not stragglers), "forced": len(stragglers)}

    def active_connections(self) -> int:
        """How many connections are currently being served."""
        with self._conn_lock:
            return len(self._connections)

    def __enter__(self) -> "NativeServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- per connection -------------------------------------------------------
    def _on_connection(self, conn: socket.socket, addr) -> None:
        if self.faults is not None:
            conn = self.faults.wrap_accept(conn, label=f"jbos-{self.protocol}")
            if conn is None:
                return  # accept fault: connection already closed
        self._m_connections.inc(protocol=self.protocol)
        thread = threading.Thread(
            target=self._safe_handle, args=(conn, addr),
            name=f"jbos-{self.protocol}-conn", daemon=True,
        )
        with self._conn_lock:
            self._connections[conn] = thread
        thread.start()

    def _safe_handle(self, conn: socket.socket, addr) -> None:
        try:
            self.handle(conn, addr)
        except (OSError, ValueError, ProtocolError):
            # A torn-down or misbehaving connection ends its handler
            # quietly; anything else is a real bug and should surface.
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._conn_lock:
                self._connections.pop(conn, None)

    def handle(self, conn: socket.socket, addr) -> None:  # pragma: no cover
        raise NotImplementedError

    # -- data pumping (direct, throttled) ---------------------------------------
    def send_all(self, wfile, data: bytes, chunk: int = 65536) -> None:
        """Send with the per-server throttle applied."""
        for i in range(0, len(data), chunk):
            piece = data[i:i + chunk]
            self.throttle.consume(len(piece))
            wfile.write(piece)
        wfile.flush()
        self._m_bytes.inc(len(data), protocol=self.protocol)
