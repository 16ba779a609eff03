"""The common request interface behind the virtual protocol layer.

Every protocol handler parses its wire format into a :class:`Request`
and renders a :class:`Response` back; the dispatcher, storage manager,
and transfer manager see only these objects.  This is the "virtual
protocol connection" of the paper's section 3.
"""

from __future__ import annotations

import enum
import io
import selectors
import socket
import threading
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Callable

from repro.obs.log import get_logger

logger = get_logger(__name__)


#: Protocols NeST release 0.9 speaks, in the paper's order.
PROTOCOL_NAMES = ("chirp", "ftp", "gridftp", "http", "nfs")


class ProtocolError(Exception):
    """Malformed or unexpected traffic on a protocol connection."""


class RequestType(enum.Enum):
    """Operations in the common request interface.

    The paper observes most request types are shared across protocols
    (directory create/remove/read; file read/write/get/put/remove/
    query) with a few protocol-specific outliers: ``LOOKUP``/``MOUNT``
    exist only for NFS, and lot management only for Chirp.
    """

    # file data transfer (routed to the transfer manager)
    GET = "get"  #: whole-file retrieve
    PUT = "put"  #: whole-file store
    READ = "read"  #: block read at (offset, length) -- NFS
    WRITE = "write"  #: block write at (offset, length) -- NFS

    # file / directory metadata (executed synchronously by storage mgr)
    MKDIR = "mkdir"
    RMDIR = "rmdir"
    LIST = "list"
    STAT = "stat"
    DELETE = "delete"
    CREATE = "create"
    RENAME = "rename"

    # NFS-specific namespace operations
    LOOKUP = "lookup"
    MOUNT = "mount"

    # lot management (Chirp only)
    LOT_CREATE = "lot_create"
    LOT_DELETE = "lot_delete"
    LOT_RENEW = "lot_renew"
    LOT_STAT = "lot_stat"
    LOT_LIST = "lot_list"
    LOT_ATTACH = "lot_attach"  #: bind a path prefix to a lot

    # access control (Chirp, or any protocol with ACL semantics)
    ACL_SET = "acl_set"
    ACL_GET = "acl_get"

    # third-party data movement (Chirp: push a file to another server)
    THIRDPUT = "thirdput"

    # end-to-end integrity (Chirp: CRC32 over a file's contents)
    CHECKSUM = "checksum"

    # resource discovery / server status
    QUERY = "query"

    # session
    AUTH = "auth"
    QUIT = "quit"


#: Request types the dispatcher routes to the transfer manager; all
#: others go to the storage manager (paper, section 2.1).
TRANSFER_TYPES = frozenset(
    {RequestType.GET, RequestType.PUT, RequestType.READ, RequestType.WRITE}
)


class Status(enum.Enum):
    """Common response status codes (mapped per protocol on the wire)."""

    OK = "ok"
    NOT_FOUND = "not_found"
    EXISTS = "exists"
    DENIED = "denied"
    NOT_AUTHENTICATED = "not_authenticated"
    NO_SPACE = "no_space"
    NOT_DIR = "not_dir"
    IS_DIR = "is_dir"
    NOT_EMPTY = "not_empty"
    BAD_REQUEST = "bad_request"
    SERVER_ERROR = "server_error"
    #: A handle/token from before a server restart: the referent may
    #: still exist, but the handle must be re-resolved by path.
    STALE = "stale"


@dataclass
class Request:
    """A protocol-independent client request.

    ``user`` is filled by the protocol handler's authentication step;
    ``protocol`` records which handler produced the request so the
    transfer manager can apply per-protocol scheduling shares.
    """

    rtype: RequestType
    path: str = ""
    offset: int = 0
    length: int = -1  #: -1 means "whole file" / "not applicable"
    user: str = "anonymous"
    protocol: str = "chirp"
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def is_transfer(self) -> bool:
        """True when the dispatcher must route this to the transfer manager."""
        return self.rtype in TRANSFER_TYPES


@dataclass
class Response:
    """A protocol-independent response.

    ``data`` carries small payloads (listings, stat results); bulk file
    data always moves through the transfer manager's data path, never
    through a Response.
    """

    status: Status
    data: Any = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status is Status.OK


class StorageError(Exception):
    """Carries a protocol-independent failure status."""

    def __init__(self, status: Status, message: str = ""):
        super().__init__(message or status.value)
        self.status = status
        self.message = message


@dataclass
class TransferTicket:
    """An approved transfer, and the scope of its data movement.

    ``with ticket:`` brackets whatever moves the bytes.  The mover
    records what actually moved in :attr:`moved` before the scope ends;
    leaving it -- normally or by any exception, including one raised
    before a single byte moved -- settles the ticket with that count
    (0 if nothing did).  Settling happens once: the stream is closed
    and, for a put, declared vs actual size is reconciled; later calls
    are no-ops, so a ticket approved is a ticket settled.
    """

    path: str
    user: str
    size: int  #: bytes to move (-1 when unknown until EOF)
    stream: BinaryIO  #: backend source (get) or sink (put)
    is_write: bool
    offset: int = 0
    #: bytes actually moved, as recorded by whoever moved them.
    moved: int = 0
    #: the approver's reconciliation at settlement (puts only), called
    #: with the ticket and the actual byte count.
    on_settle: Callable[["TransferTicket", int], None] | None = field(
        default=None, repr=False)
    settled: bool = field(default=False, init=False)

    def settle(self, actual_bytes: int) -> None:
        """End the data movement: close the stream, reconcile."""
        if self.settled:
            return
        self.settled = True
        self.stream.close()
        if self.on_settle is not None:
            self.on_settle(self, actual_bytes)

    def __enter__(self) -> "TransferTicket":
        return self

    def __exit__(self, *exc_info) -> None:
        self.settle(self.moved)


# ---------------------------------------------------------------------------
# stream helpers shared by the codecs
# ---------------------------------------------------------------------------


def read_exact_into(stream: BinaryIO, view: memoryview) -> None:
    """Fill ``view`` completely from ``stream`` via ``readinto`` (no
    intermediate allocations) or raise :exc:`ProtocolError` on EOF.

    The caller owns the buffer -- pair with a pooled ``bytearray``
    (:class:`repro.nest.io.BufferPool`) for an allocation-free receive
    loop.  Requires a source whose *class* implements ``readinto``.
    """
    filled = 0
    n = len(view)
    while filled < n:
        got = stream.readinto(view[filled:])
        if not got:
            raise ProtocolError(
                f"connection closed with {n - filled} bytes pending")
        filled += got


def read_exact(stream: BinaryIO, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :exc:`ProtocolError` on EOF."""
    if n < 0:
        raise ValueError("negative count")  # never read(-1) to EOF
    # One buffer filled in place, one bytes object out -- except from a
    # ``BufferedReader``, whose ``read(n)`` CPython fills straight into
    # the result object (no second allocation, no copy): that takes the
    # loop below, one pass of it.  The checks are class-level on
    # purpose -- fault-injection wrappers forward unknown attributes to
    # the raw stream, and reading around them would skip injected
    # faults (see repro.nest.io).
    if (type(stream) is not io.BufferedReader
            and getattr(type(stream), "readinto", None) is not None):
        buf = bytearray(n)
        read_exact_into(stream, memoryview(buf))
        return bytes(buf)
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            raise ProtocolError(f"connection closed with {remaining} bytes pending")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_line(stream: BinaryIO, limit: int = 65536) -> str:
    """Read one CRLF- or LF-terminated line, decoded as UTF-8.

    Returns the line without its terminator; raises
    :exc:`ProtocolError` at EOF or if the line exceeds ``limit``.
    """
    raw = stream.readline(limit + 2)
    if not raw:
        raise ProtocolError("connection closed while reading line")
    if len(raw) > limit and not raw.endswith(b"\n"):
        raise ProtocolError("line too long")
    return raw.rstrip(b"\r\n").decode("utf-8", errors="replace")


def write_line(stream: BinaryIO, line: str, flush: bool = True) -> None:
    """Write ``line`` with CRLF termination and flush.

    ``flush=False`` is for a reply head whose body follows: the line
    stays in the stream's write buffer and leaves with the flush that
    ends the body -- one reply, one wire write (sockets are born
    through :func:`tuned`, so every flush is a packet).
    """
    stream.write(line.encode("utf-8") + b"\r\n")
    if flush:
        stream.flush()


def tuned(sock: socket.socket) -> socket.socket:
    """Tune a just-accepted or just-dialled TCP socket; returns it.

    Every stream socket in the code base passes through here at birth
    (``scripts/lint_datapath.py`` rule 3).  ``TCP_NODELAY``: all traffic
    is request/reply with each side writing a whole message per flush,
    so Nagle's algorithm has nothing to coalesce -- it can only hold a
    message's last segment until the peer's delayed ACK (~40 ms) fires.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class Acceptor:
    """The accept loop: one thread in front of any number of listeners.

    :meth:`listen` binds a listener and names the callback that gets
    its connections, :meth:`start` begins accepting, :meth:`stop`
    ends it.  The thread blocks in ``select()`` over the listeners and
    a ``socketpair`` that :meth:`stop` writes to, so an idle acceptor
    never wakes and a stopping one never waits out a timer.  Every
    accepted socket is :func:`tuned` before ``on_connection(conn,
    addr)`` sees it; a callback that raises costs that one connection
    (closed, logged), never the loop.
    """

    def __init__(self, name: str):
        self._name = name
        self._listeners: list[tuple[socket.socket, Callable]] = []
        self._thread: threading.Thread | None = None
        self._wake: socket.socket | None = None

    def listen(self, host: str, port: int,
               on_connection: Callable[[socket.socket, Any], None],
               backlog: int = 32, reuse_port: bool = False) -> int:
        """Bind and listen (before :meth:`start`); returns the bound
        port.  ``reuse_port``: several processes share the port and the
        kernel spreads connections across them."""
        # create_server: SO_REUSEADDR, bind, listen; closed if any fails.
        listener = socket.create_server(
            (host, port), backlog=backlog, reuse_port=reuse_port)
        listener.setblocking(False)
        self._listeners.append((listener, on_connection))
        return listener.getsockname()[1]

    def start(self) -> None:
        wake, self._wake = socket.socketpair()
        self._thread = threading.Thread(
            target=self._run, args=(wake,), name=self._name, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Wake the thread, join it, close every listener.  Idempotent,
        and safe on an acceptor that never started."""
        if self._thread is not None:
            self._wake.send(b"\0")
            self._thread.join()
            self._wake.close()
            self._thread = None
        for listener, _ in self._listeners:
            listener.close()

    def _run(self, wake: socket.socket) -> None:
        with selectors.DefaultSelector() as selector, wake:
            selector.register(wake, selectors.EVENT_READ, None)
            for listener, on_connection in self._listeners:
                selector.register(
                    listener, selectors.EVENT_READ, on_connection)
            while True:
                for key, _ in selector.select():
                    on_connection = key.data
                    if on_connection is None:
                        return  # stop() wrote the wake-up
                    try:
                        conn, addr = key.fileobj.accept()
                    except OSError:
                        # The client gave up first, or another process
                        # sharing the port took it: nothing to serve.
                        continue
                    try:
                        on_connection(tuned(conn), addr)
                    except Exception:  # noqa: BLE001 - one connection's cost
                        logger.exception("%s: connection from %s dropped",
                                         self._name, addr)
                        conn.close()
