"""Common plumbing for the native single-protocol servers.

Each native server owns a listener and spawns a thread per connection.
What it *speaks* is the protocol's session class from
:mod:`repro.protocols` -- the same one NeST's handler runs -- mixed into
:class:`NativeConnection`, the JBOS side of the host contract described
there: a :class:`SimpleStore` behind :class:`StoreFiles` where NeST has
its storage manager, and a direct, throttled chunk copy where NeST has
its transfer manager -- no scheduler, no lots, no ACLs, no spans, exactly
one protocol.  Like the NeST dispatcher a daemon tracks its live
connections, accepts an optional :class:`~repro.faults.FaultPlan`, and
drains gracefully on ``stop``.
"""

from __future__ import annotations

import io
import socket
import threading
import time
import zlib
from contextlib import nullcontext

from repro.faults import FaultPlan
from repro.jbos.store import SimpleStore
from repro.jbos.throttle import Throttle, Unthrottled
from repro.obs.metrics import global_registry
from repro.protocols.common import (
    Acceptor,
    ProtocolError,
    Request,
    RequestType,
    Response,
    Status,
    StorageError,
    TransferTicket,
)
from repro.protocols.nfs import FileHandleRegistry

#: Bytes per throttled write of the direct copy.
CHUNK = 65536

#: What arrives is not paced: the throttle shapes what a daemon sends.
_UNPACED = Unthrottled()


class _Sink(io.BytesIO):
    """A write ticket's stream: what was written outlives ``close()``,
    for the ticket's settlement to commit."""

    data = b""

    def close(self) -> None:
        if not self.closed:
            self.data = self.getvalue()
        super().close()


class StoreFiles:
    """A :class:`SimpleStore` as the sessions' ``files``: users are
    ignored (a 2002 daemon's export has no ACLs), every transfer the
    path allows is approved, and a ticket is its bytes in memory."""

    def __init__(self, store: SimpleStore):
        self.store = store

    def stat(self, user: str, path: str) -> dict:
        kind = "dir" if self.store.is_dir(path) else "file"
        return {"size": self.store.size(path), "type": kind, "owner": ""}

    def exists(self, path: str) -> bool:
        return self.store.exists(path)

    def listdir(self, user: str, path: str) -> list[dict]:
        return [{"name": name, "type": kind, "size": size, "owner": ""}
                for name, kind, size in self.store.listdir(path)]

    def mkdir(self, user: str, path: str) -> None:
        self.store.mkdir(path)

    def rmdir(self, user: str, path: str) -> None:
        self.store.rmdir(path)

    def delete(self, user: str, path: str) -> None:
        self.store.delete(path)

    def approve_get(self, user: str, path: str) -> TransferTicket:
        return self.approve_read(user, path, 0, self.store.size(path))

    def approve_read(self, user: str, path: str, offset: int,
                     length: int) -> TransferTicket:
        data = self.store.read(path)[offset:offset + max(length, 0)]
        return TransferTicket(path, user, len(data), io.BytesIO(data),
                              is_write=False, offset=offset)

    def approve_put(self, user: str, path: str, length: int) -> TransferTicket:
        # Like open(2) for writing: refused now if the path cannot hold
        # a file, truncated now if it already does.
        self.store.write(path, b"")
        return self._write_ticket(
            user, path, length, 0, lambda data: self.store.write(path, data))

    def approve_write(self, user: str, path: str, offset: int,
                      length: int) -> TransferTicket:
        self.store.write_at(path, offset, b"")
        return self._write_ticket(
            user, path, length, offset,
            lambda data: self.store.write_at(path, offset, data))

    @staticmethod
    def _write_ticket(user, path, size, offset, commit) -> TransferTicket:
        return TransferTicket(
            path, user, size, _Sink(), is_write=True, offset=offset,
            on_settle=lambda ticket, moved: commit(ticket.stream.data[:moved]))

    def execute(self, request: Request) -> Response:
        """Chirp's metadata verbs; lots, ACLs and the rest of NeST's
        feature set do not exist here."""
        verb = self._METADATA.get(request.rtype)
        if verb is None:
            raise StorageError(Status.BAD_REQUEST,
                               f"chirpd has no {request.rtype.value}")
        return Response(Status.OK,
                        data=verb(self, request.user, request.path))

    _METADATA = {
        RequestType.MKDIR: mkdir,
        RequestType.RMDIR: rmdir,
        RequestType.LIST: listdir,
        RequestType.STAT: stat,
        RequestType.DELETE: delete,
    }


class NativeConnection:
    """One client connection of a native daemon: the host a protocol
    session is mixed into (``serve()`` is the session's)."""

    user = "anonymous"

    def __init__(self, daemon: "NativeServer", rfile, wfile):
        self.daemon = daemon
        self.rfile = rfile
        self.wfile = wfile
        self.files = daemon.files
        self.gsi = daemon.gsi
        self.host = daemon.host
        self.faults = daemon.faults
        self.fhandles = daemon.fhandles

    def map_subject(self, subject: str) -> str:
        return subject  # no grid-mapfile: the certificate subject it is

    def request_scope(self, op: str, path: str = "", trace=None):
        return nullcontext()  # a native daemon is not traced

    def mark_request_error(self) -> None:
        pass

    # -- the door: a direct copy; what leaves is paced by this daemon's
    # throttle, and by nothing else --------------------------------------
    def send(self, ticket, sink=None, mover=None):
        sink = self.wfile if sink is None else sink
        moved, crc = self._move(ticket, ticket.stream, sink, ticket.size,
                                mover)
        if mover is None:
            sink.flush()
        self.daemon._m_bytes.inc(moved, protocol=self.protocol)
        return moved, crc

    def receive(self, ticket, source=None, length=-1, mover=None):
        source = self.rfile if source is None else source
        return self._move(ticket, source, ticket.stream, length, mover)

    def _move(self, ticket, source, sink, length, mover):
        throttle = _UNPACED if ticket.is_write else self.daemon.throttle
        with ticket:
            if mover is not None:
                ticket.moved, crc = mover(ticket)
                throttle.consume(ticket.moved)
                return ticket.moved, crc
            moved = crc = 0
            while length < 0 or moved < length:
                chunk = source.read(
                    CHUNK if length < 0 else min(CHUNK, length - moved))
                if not chunk:
                    break
                throttle.consume(len(chunk))
                sink.write(chunk)
                crc = zlib.crc32(chunk, crc)
                moved += len(chunk)
            if moved < length:
                # Settles with nothing moved, like any failed transfer.
                raise ProtocolError(
                    f"connection closed with {length - moved} bytes pending")
            ticket.moved = moved
        return moved, crc


class NativeServer:
    """Base: one listener, one thread per connection."""

    #: a :mod:`repro.protocols` session mixed into :class:`NativeConnection`.
    Connection: type[NativeConnection]
    #: GSI acceptor; only the GridFTP daemon authenticates.
    gsi = None

    def __init__(
        self,
        store: SimpleStore | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        throttle: Throttle | None = None,
        faults: FaultPlan | None = None,
    ):
        self.protocol = self.Connection.protocol
        self.store = store if store is not None else SimpleStore()
        self.files = StoreFiles(self.store)
        self.fhandles = FileHandleRegistry()
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
            target=self._serve, args=(conn,),
            name=f"jbos-{self.protocol}-conn", daemon=True,
        )
        with self._conn_lock:
            self._connections[conn] = thread
        thread.start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            with conn.makefile("rb") as rfile, conn.makefile("wb") as wfile:
                self.Connection(self, rfile, wfile).serve()
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
