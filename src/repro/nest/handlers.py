"""Live protocol handlers: the virtual protocol layer (paper, §3).

Each handler owns one client connection.  What a protocol *says* --
request loop, verb table, reply encoding, authentication exchange (GSI
for Chirp and GridFTP, anonymous for the rest, exactly the paper's
policy) -- is its session class in :mod:`repro.protocols`, written
once against the host contract there; :class:`ConnectionHandler`
is NeST's host for it: metadata operations go synchronously to the
storage manager (``files``), and every byte moves through
``ConnectionHandler.send``/``receive``, the one place that holds a
ticket's scope open, runs the transfer and feeds the gray-box model
(when cache-aware scheduling built one).
What stays here besides the host is what only an appliance has: the
``parse`` span, trace-context adoption, the head-sampling decision,
Chirp's ``query`` and ``thirdput``, and the IBP depot dialect.
"""

from __future__ import annotations

import socket
import time
from typing import TYPE_CHECKING, BinaryIO

from repro.nest import io as fastio
from repro.nest.transfer import TransferError
from repro.obs import spans as _spans
from repro.protocols import chirp, ftp, gridftp, http, nfs
from repro.protocols.common import (
    ProtocolError,
    Request,
    RequestType,
    Response,
    Status,
    read_exact,
    read_line,
    write_line,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.nest.server import NestServer


#: Exceptions that end a connection like a wire error: the connection
#: closes, the cause is span-annotated, nothing propagates.  The
#: threaded ``run`` and the event loop's ``step`` share this contract.
WIRE_ERRORS = (ProtocolError, ConnectionError, OSError, ValueError,
               TransferError)


class RequestScope:
    """One request's telemetry, entered once around it: the busy flag,
    the ``request`` span pushed onto this thread's trace stack (so
    storage/ACL/transfer layers attach their own children), and one
    ``observe_request`` -- the request's metrics -- on the way
    out, whether or not the tree was recorded.

    A request head sampling left out pushes an
    :class:`~repro.obs.spans.UnsampledSpan` instead, and nothing below
    it records a span.  If it ends in error (an exception, or
    ``mark_request_error``) or is slower than the server's
    ``slow_request_s``, it is recorded after all: one retroactive
    ``request`` span, tagged ``sampled=False``."""

    __slots__ = ("handler", "op", "attrs", "span", "started")

    def __init__(self, handler: "ConnectionHandler", op: str, path: str,
                 trace: tuple[str, str] | None, sampled: bool):
        self.handler = handler
        self.op = op
        # taken at entry, so a request kept after the fact carries the
        # identity it arrived with, as a sampled one does
        self.attrs = attrs = {
            "op": op, "protocol": handler.protocol,
            "user_class": ("anonymous" if handler.user == "anonymous"
                           else "authenticated")}
        if path:
            attrs["path"] = path
        if trace is not None:
            # The caller's trace: its id, the remote span as parent,
            # and the local connection trace kept for correlation.
            self.span = handler.tracer.adopt(
                "request", trace[0], trace[1],
                conn_trace=handler.conn_span.trace_id, **attrs)
        elif sampled:
            self.span = handler.conn_span.child("request", **attrs)
        else:
            self.span = _spans.UnsampledSpan()

    def __enter__(self):
        self.handler.busy = True
        self.span.__enter__()
        self.started = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        handler = self.handler
        span = self.span
        try:
            span.__exit__(exc_type, exc, tb)
        finally:
            elapsed = time.perf_counter() - self.started
            ok = span.status == "ok"
            handler.busy = False
            handler.server.observe_request(
                handler.protocol, self.op, ok, elapsed,
                model=handler.concurrency_model)
        if type(span) is _spans.UnsampledSpan and (
                not ok or elapsed > handler.server.slow_request_s):
            handler.conn_span.child_at(
                "request", _spans.PERF_EPOCH + self.started, elapsed,
                status=span.status, sampled=False, **self.attrs)


class ConnectionHandler:
    """Base: owns sockets/streams and the authenticated identity, and
    is the host (:mod:`repro.protocols`) NeST gives a protocol session.

    ``busy`` is True while the handler is processing one request (as
    opposed to parked on a blocking read between requests); the
    server's graceful drain closes idle connections immediately and
    only waits for busy ones.

    Handlers whose wire format is a clean request-at-a-time loop set
    ``event_capable`` and implement :meth:`serve_one`; the server may
    then park their connections in the event loop instead of
    dedicating a thread (:meth:`step` serves on while the read buffer
    holds bytes the selector cannot see).
    """

    protocol = "base"
    #: True when serve() is a pure serve_one() loop the event loop can
    #: drive one request at a time (Chirp, HTTP).  Session-stateful
    #: wire formats (FTP's greeting + data channels, NFS, IBP) stay
    #: thread-per-connection.
    event_capable = False

    def __init__(self, server: "NestServer", sock: socket.socket, addr):
        self.server = server
        self.sock = sock
        self.addr = addr
        # What the session sees of the appliance (the host contract).
        self.files = server.storage
        self.gsi = server.gsi
        self.map_subject = server.map_subject
        self.host = server.host
        self.faults = server.faults
        self.fhandles = server.fhandles
        self.rfile: BinaryIO = sock.makefile("rb")
        self.wfile: BinaryIO = sock.makefile("wb")
        self.user = "anonymous"
        self.busy = False
        #: which server architecture is driving this connection
        #: ("threads" or "events"); feeds the adaptive switcher.
        self.concurrency_model = "threads"
        #: root span of this connection's trace, opened at accept;
        #: every request on the connection is a child.
        self.tracer = server.obs.tracer
        self.conn_span = self.tracer.start_trace(
            "accept", protocol=self.protocol, peer=str(addr))

    def run(self) -> None:
        """Serve the connection until EOF or error, then clean up."""
        try:
            self.serve()
        except WIRE_ERRORS:
            # A failed transfer closes the connection like any wire
            # error; its cause is recorded in ``transfers.failures()``.
            self.conn_span.set(wire_error=True)
        finally:
            self.finish()

    def serve_one(self) -> bool:  # pragma: no cover - interface
        """Serve exactly one request (the event loop's dispatch unit).

        Returns True if the connection should stay open for another
        request, False at EOF/quit.  May raise ``WIRE_ERRORS``.
        """
        raise NotImplementedError

    def step(self) -> bool:
        """One event-loop dispatch: :meth:`serve_one` under the same
        error contract as the threaded :meth:`run`, repeated while a
        pipelined request already waits in the read buffer (bytes in
        userspace never wake the selector).  Returns whether the
        connection should be re-parked."""
        try:
            while self.serve_one():
                if not self._read_ahead():
                    return True
            return False
        except WIRE_ERRORS:
            self.conn_span.set(wire_error=True)
            return False

    def _read_ahead(self) -> bool:
        """Whether more request bytes are readable right now.  ``peek``
        answers from the read buffer when it holds any; otherwise it
        makes one read, non-blocking, so an idle connection answers
        False at once and is parked."""
        timeout = self.sock.gettimeout()
        self.sock.setblocking(False)
        try:
            return bool(self.rfile.peek(1))
        finally:
            self.sock.settimeout(timeout)

    def finish(self) -> None:
        """Tear down and end the connection trace (idempotent: the
        span's end() is a no-op the second time)."""
        self.force_close()
        self.conn_span.set(user=self.user).end()

    def fileno(self) -> int:
        """The connection's descriptor (selector registration)."""
        return self.sock.fileno()

    def request_scope(self, op: str, path: str = "",
                      trace: tuple[str, str] | None = None,
                      sampled: bool | None = None) -> RequestScope:
        """Wrap one request (see :class:`RequestScope`).

        ``sampled`` is the request's head-sampling decision; Chirp's
        ``serve_one``, which needs it earlier for the ``parse`` span,
        passes it, every other caller leaves it to be made here.  With ``trace`` (a parsed wire trace context)
        the tree is recorded whatever the decision, and the request
        span *adopts* the caller's trace -- its id is the remote
        trace's and its parent is the remote span -- so merged fleet
        documents show one tree across processes.
        """
        if sampled is None:
            sampled = self.tracer.head_sample()
        return RequestScope(self, op, path, trace, sampled)

    def mark_request_error(self) -> None:
        """Flag the active request span (and its metric outcome) as an
        error, for handlers that report failures as in-band protocol
        replies rather than exceptions."""
        span = _spans.current_span()
        if span is not None:
            span.end(status="error")

    def force_close(self) -> None:
        """Tear the connection down (idempotent; any thread may call).

        Shuts the socket down first so a handler thread blocked in a
        read wakes immediately -- this is what the server's drain uses
        on stragglers.
        """
        try:
            self.wfile.flush()
        except (OSError, ValueError):
            pass
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        for stream in (self.wfile, self.rfile):
            try:
                stream.close()
            except (OSError, ValueError):
                pass
        try:
            self.sock.close()
        except OSError:
            pass

    def serve(self) -> None:  # pragma: no cover - interface
        """The whole connection; the protocol's session provides it."""
        raise NotImplementedError

    # -- the door to the data path -------------------------------------------
    #
    # Every byte a protocol moves goes through send/receive: they alone
    # hold the ticket's scope open, run the transfer and feed the
    # gray-box model, if the server has one (scripts/lint_datapath.py
    # enforces it).  A handler
    # only parses, asks the storage manager for a ticket, and encodes
    # the reply.  ``mover(ticket) -> (moved, crc)`` replaces the
    # transfer manager for data that does not flow stream-to-stream
    # (GridFTP's framed lanes, a checksum pass, a third-party push).
    #
    # Wire discipline: one reply, one wire write.  A handler leaves the
    # reply head in ``wfile``'s buffer (``flush=False``) and the flush
    # that ends ``send`` carries head and body together.
    def send(self, ticket, sink: BinaryIO | None = None,
             mover=None) -> tuple[int, int | None]:
        """Move an approved read ticket's bytes out -- to the control
        stream unless ``sink`` names an FTP data connection or an NFS
        reply buffer; returns ``(moved, crc)``."""
        sink = self.wfile if sink is None else sink
        result = self._move(ticket, ticket.stream, sink, ticket.size, mover)
        if mover is None:
            sink.flush()
        return result

    def receive(self, ticket, source: BinaryIO | None = None,
                length: int = -1, mover=None) -> tuple[int, int | None]:
        """Move ``length`` bytes (-1: to EOF) into an approved write
        ticket, from the control stream unless ``source`` is given;
        returns ``(moved, crc)``."""
        source = self.rfile if source is None else source
        return self._move(ticket, source, ticket.stream, length, mover)

    def _move(self, ticket, source, sink, length, mover):
        crc = None
        with ticket:
            if mover is not None:
                ticket.moved, crc = mover(ticket)
            else:
                transfer = self.server.transfers.submit(
                    source, sink, length, protocol=self.protocol,
                    user=self.user, path=ticket.path)
                ticket.moved = transfer.wait(60)
                crc = transfer.crc
        graybox = self.server.graybox
        if graybox is not None:  # only cache-aware scheduling has one
            observe = (graybox.observe_write if ticket.is_write
                       else graybox.observe_read)
            observe(ticket.path, ticket.offset, ticket.moved)
        return ticket.moved, crc


# ---------------------------------------------------------------------------
# Chirp
# ---------------------------------------------------------------------------


class ChirpHandler(chirp.ChirpSession, ConnectionHandler):
    """NeST's native protocol: full feature set, GSI authentication."""

    event_capable = True

    def serve_one(self) -> bool:
        """One Chirp request: the session's loop body plus what only
        the appliance has -- the ``parse`` span and the caller's trace
        context."""
        try:
            line = read_line(self.rfile)
        except ProtocolError:
            return False
        sampled = self.tracer.head_sample()
        started = time.perf_counter()
        try:
            request = chirp.decode_request(line)
        except ProtocolError as exc:
            self._parse_span(started, "error", sampled)
            self.server.observe_request(self.protocol, "parse",
                                        False, 0.0)
            self._respond(Response(Status.BAD_REQUEST, message=str(exc)))
            return True
        if sampled:
            self._parse_span(started, "ok", sampled)
        trace = _spans.parse_trace_context(request.params.get("trace"))
        with self.request_scope(request.rtype.value, request.path,
                                trace=trace, sampled=sampled):
            return self._handle(request)

    def _parse_span(self, started: float, status: str,
                    sampled: bool) -> None:
        """The ``parse`` span, recorded once its outcome is known: for
        a sampled request, and for a parse error even when head
        sampling had left the request out (tagged ``sampled=False``)."""
        kept = {} if sampled else {"sampled": False}
        self.conn_span.child_at(
            "parse", _spans.PERF_EPOCH + started,
            time.perf_counter() - started, status=status,
            protocol=self.protocol, **kept)

    def _query(self, request: Request) -> None:
        self._respond(
            Response(Status.OK),
            payload=self.server.advertisement().external_repr().encode())

    def _thirdput(self, request: Request) -> None:
        """Three-party transfer: push one of our files to another
        server, data flowing server-to-server (paper, §2.1: the
        transfer manager allows "transparent three- and four-party
        transfers")."""
        from repro.client.chirp import ChirpClient
        from repro.client.errors import ClientError
        from repro.client.retry import NO_RETRY

        ticket = self.files.approve_get(self.user, request.path)

        def push(ticket):
            # Fail fast: the requesting client owns the retry decision,
            # not a handler thread holding the control connection.  The
            # file streams straight from the storage ticket to the
            # remote's data connection -- bounded memory no matter the
            # file size.
            remote = ChirpClient(request.params["host"],
                                 int(request.params["port"]),
                                 timeout=10.0, retry=NO_RETRY)
            try:
                return remote.put_stream(request.params["remote_path"],
                                         ticket.stream, ticket.size), None
            finally:
                remote.close()

        try:
            self.send(ticket, mover=push)
        except (ClientError, OSError, ProtocolError) as exc:
            self.mark_request_error()
            self._respond(Response(Status.SERVER_ERROR, message=str(exc)))
            return
        self._respond(Response(Status.OK), [str(ticket.size)])

    #: The session's verbs plus the two that need an appliance: an
    #: advertisement to print, and a client of its own to push with.
    _VERBS = {
        **chirp.ChirpSession._VERBS,
        RequestType.QUERY: _query,
        RequestType.THIRDPUT: _thirdput,
    }


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------


class HttpHandler(http.HttpSession, ConnectionHandler):
    """HTTP/1.0 subset; anonymous only."""

    event_capable = True

    def serve_one(self) -> bool:
        """One HTTP exchange: the session's loop body plus the caller's
        trace context."""
        try:
            request = http.read_request(self.rfile)
        except ProtocolError:
            return False
        if request is None:
            return False
        trace = _spans.parse_trace_context(
            request.params.get("headers", {}).get(http.TRACE_HEADER.lower()))
        with self.request_scope(request.rtype.value, request.path,
                                trace=trace):
            return self._handle(request)


# ---------------------------------------------------------------------------
# FTP, GridFTP, NFS: the session is the whole handler
# ---------------------------------------------------------------------------


class FtpHandler(ftp.FtpSession, ConnectionHandler):
    """FTP subset: control + passive/active data connections."""

    greeting = "NeST FTP ready"


class GridFtpHandler(gridftp.GridFtpSession, FtpHandler):
    """FTP + GSI (ADAT), extended-block mode, parallel streams."""

    greeting = "NeST GridFTP ready"


class NfsHandler(nfs.NfsSession, ConnectionHandler):
    """Restricted NFS subset over TCP; anonymous only."""


# ---------------------------------------------------------------------------
# IBP
# ---------------------------------------------------------------------------


class IbpHandler(ConnectionHandler):
    """IBP depot dialect: capability-named byte-array allocations.

    The extension protocol the paper plans for ("data movement
    protocols such as IBP"); see :mod:`repro.nest.ibp` for how
    allocations map onto lots.  IBP's trust model is capability
    possession, so there is no authentication step at all.
    """

    protocol = "ibp"
    #: The verbs :meth:`_dispatch` serves.
    _VERBS = frozenset({"allocate", "store", "load", "probe", "extend",
                        "increment", "decrement", "status"})

    def serve(self) -> None:
        from repro.nest.ibp import IbpDepot  # local import: optional protocol
        from repro.protocols import ibp

        depot: "IbpDepot" = self.server.ibp_depot
        while True:
            try:
                line = read_line(self.rfile)
            except ProtocolError:
                return
            try:
                verb, args = ibp.parse_command(line)
            except ProtocolError as exc:
                write_line(self.wfile, ibp.format_err("bad-command", str(exc)))
                continue
            if verb == "quit":
                write_line(self.wfile, ibp.format_ok())
                return
            # an unknown verb is the client's word, not an op label
            with self.request_scope(verb if verb in self._VERBS
                                    else "unknown") as sp:
                try:
                    self._dispatch(depot, verb, args)
                except ibp.IbpError as exc:
                    sp.end(status="error")
                    write_line(self.wfile, ibp.format_err(exc.code, str(exc)))
                except (ProtocolError, ValueError, IndexError) as exc:
                    sp.end(status="error")
                    write_line(self.wfile,
                               ibp.format_err("bad-arguments", str(exc)))

    def _dispatch(self, depot, verb: str, args: list[str]) -> None:
        from repro.protocols import ibp

        if verb == "allocate":
            size, duration, atype = int(args[0]), float(args[1]), args[2]
            alloc = depot.allocate(size, duration, atype)
            write_line(self.wfile, ibp.format_ok(
                depot.capability(alloc, ibp.READ),
                depot.capability(alloc, ibp.WRITE),
                depot.capability(alloc, ibp.MANAGE),
            ))
        elif verb == "store":
            cap = ibp.parse_capability(args[0])
            nbytes = int(args[1])
            if nbytes < 0:
                raise ValueError(f"negative length {nbytes}")
            try:
                depot.check_store(cap, nbytes)
            except ibp.IbpError as exc:
                # ``nbytes`` is the peer's word: refuse before buffering
                # a body the allocation cannot hold, then skip whatever
                # body does arrive through one pooled buffer so the
                # next line read is a command again.
                self.mark_request_error()
                write_line(self.wfile, ibp.format_err(exc.code, str(exc)))
                fastio.stream_crc32(self.rfile, nbytes)
                return
            used = depot.store(cap, read_exact(self.rfile, nbytes))
            write_line(self.wfile, ibp.format_ok(used))
        elif verb == "load":
            cap = ibp.parse_capability(args[0])
            offset, nbytes = int(args[1]), int(args[2])
            data = depot.load(cap, offset, nbytes)
            write_line(self.wfile, ibp.format_ok(len(data)), flush=False)
            self.wfile.write(data)
            self.wfile.flush()
        elif verb == "probe":
            info = depot.probe(ibp.parse_capability(args[0]))
            write_line(self.wfile, ibp.format_ok(
                info["size"], info["used"], info["expires_at"],
                info["type"], info["refcount"],
            ))
        elif verb == "extend":
            expires = depot.extend(ibp.parse_capability(args[0]),
                                   float(args[1]))
            write_line(self.wfile, ibp.format_ok(expires))
        elif verb == "increment":
            write_line(self.wfile, ibp.format_ok(
                depot.increment(ibp.parse_capability(args[0]))))
        elif verb == "decrement":
            write_line(self.wfile, ibp.format_ok(
                depot.decrement(ibp.parse_capability(args[0]))))
        elif verb == "status":
            info = depot.status()
            write_line(self.wfile, ibp.format_ok(
                info["total"], info["used"], info["volatile"]))
        else:
            write_line(self.wfile, ibp.format_err("bad-command", verb))


#: Handler class per protocol name (the dispatcher's routing table).
HANDLERS = {
    "chirp": ChirpHandler,
    "http": HttpHandler,
    "ftp": FtpHandler,
    "gridftp": GridFtpHandler,
    "nfs": NfsHandler,
    "ibp": IbpHandler,
}
