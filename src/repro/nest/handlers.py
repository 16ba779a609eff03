"""Live protocol handlers: the virtual protocol layer (paper, §3).

Each handler owns one client connection, performs its own
authentication (GSI for Chirp and GridFTP, anonymous for the rest --
exactly the paper's policy), parses its wire format into the common
request interface, and routes requests: metadata operations go
synchronously to the storage manager, data movement goes through the
transfer manager.  A handler is a wire codec -- *parse, ask the storage
manager, encode the reply* -- and owns no data-path code of its own:
every byte moves through ``ConnectionHandler.send``/``receive``, the one
place that holds a ticket's scope open, runs the transfer and feeds the
gray-box model.
"""

from __future__ import annotations

import base64
import io
import json
import socket
import threading
import time
from contextlib import closing, contextmanager
from typing import TYPE_CHECKING, BinaryIO

from repro.nest import io as fastio
from repro.nest.auth import AuthError
from repro.nest.storage import StorageError
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
    tuned,
    write_line,
)
from repro.protocols.xdr import Packer, Unpacker

if TYPE_CHECKING:  # pragma: no cover
    from repro.nest.server import NestServer


#: Exceptions that end a connection like a wire error: the connection
#: closes, the cause is span-annotated, nothing propagates.  The
#: threaded ``run`` and the event loop's ``step`` share this contract.
WIRE_ERRORS = (ProtocolError, ConnectionError, OSError, ValueError,
               TransferError)


class ConnectionHandler:
    """Base: owns sockets/streams and the authenticated identity.

    ``busy`` is True while the handler is processing one request (as
    opposed to parked on a blocking read between requests); the
    server's graceful drain closes idle connections immediately and
    only waits for busy ones.

    Handlers whose wire format is a clean request-at-a-time loop set
    ``event_capable`` and implement :meth:`serve_one`; the server may
    then park their connections in the event loop instead of
    dedicating a thread (``unbuffered`` read streams keep pipelined
    bytes in the kernel buffer where the selector can see them).
    """

    protocol = "base"
    #: True when serve() is a pure serve_one() loop the event loop can
    #: drive one request at a time (Chirp, HTTP).  Session-stateful
    #: wire formats (FTP's greeting + data channels, NFS, IBP) stay
    #: thread-per-connection.
    event_capable = False

    def __init__(self, server: "NestServer", sock: socket.socket, addr,
                 *, unbuffered: bool = False):
        self.server = server
        self.sock = sock
        self.addr = addr
        # Event mode must not read ahead: a buffered rfile would slurp
        # pipelined requests into userspace where the selector cannot
        # see them, leaving the connection parked with work pending.
        self.rfile: BinaryIO = sock.makefile(
            "rb", buffering=0 if unbuffered else -1)
        self.wfile: BinaryIO = sock.makefile("wb")
        self.user = "anonymous"
        self.busy = False
        #: which server architecture is driving this connection
        #: ("threads" or "events"); feeds the adaptive switcher.
        self.concurrency_model = "threads"
        #: root span of this connection's trace, opened at accept;
        #: every request on the connection is a child.
        self.conn_span = server.obs.tracer.start_trace(
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
        error contract as the threaded :meth:`run`.  Returns whether
        the connection should be re-parked."""
        try:
            return self.serve_one()
        except WIRE_ERRORS:
            self.conn_span.set(wire_error=True)
            return False

    def finish(self) -> None:
        """Tear down and end the connection trace (idempotent: the
        span's end() is a no-op the second time)."""
        self.force_close()
        self.conn_span.set(user=self.user).end()

    def fileno(self) -> int:
        """The connection's descriptor (selector registration)."""
        return self.sock.fileno()

    @contextmanager
    def request_scope(self, op: str, path: str = "",
                      trace: tuple[str, str] | None = None):
        """Wrap one request: the busy flag, a ``request`` child span
        pushed onto this thread's trace stack (so storage/ACL/transfer
        layers attach their own children), and request metrics plus the
        health feed on the way out.

        With ``trace`` (a parsed wire trace context), the request span
        *adopts* the caller's trace -- its id is the remote trace's and
        its parent is the remote span -- so merged fleet documents show
        one tree across processes.  The local connection trace id is
        kept as an attribute for correlation.
        """
        user_class = ("anonymous" if self.user == "anonymous"
                      else "authenticated")
        if trace is not None:
            span = self.server.obs.tracer.adopt(
                "request", trace[0], trace[1], op=op,
                protocol=self.protocol, user_class=user_class,
                conn_trace=self.conn_span.trace_id)
        else:
            span = self.conn_span.child(
                "request", op=op, protocol=self.protocol,
                user_class=user_class)
        if path:
            span.set(path=path)
        self.busy = True
        started = time.perf_counter()
        ok = False
        try:
            with span:
                yield span
            ok = span.status == "ok"
        finally:
            self.busy = False
            self.server.observe_request(
                self.protocol, op, ok, time.perf_counter() - started,
                model=self.concurrency_model)

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
        raise NotImplementedError

    # -- the door to the data path -------------------------------------------
    #
    # Every byte a protocol moves goes through send/receive: they alone
    # hold the ticket's scope open, run the transfer and feed the
    # gray-box model (scripts/lint_datapath.py enforces it).  A handler
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
        observe = (graybox.observe_write if ticket.is_write
                   else graybox.observe_read)
        observe(ticket.path, ticket.offset, ticket.moved)
        return ticket.moved, crc


# ---------------------------------------------------------------------------
# Chirp
# ---------------------------------------------------------------------------


class ChirpHandler(ConnectionHandler):
    """NeST's native protocol: full feature set, GSI authentication."""

    protocol = "chirp"
    event_capable = True

    def serve(self) -> None:
        while self.serve_one():
            pass

    def serve_one(self) -> bool:
        """One Chirp request: read a line, decode, dispatch."""
        try:
            line = read_line(self.rfile)
        except ProtocolError:
            return False
        parse = self.conn_span.child("parse", protocol=self.protocol)
        try:
            request = chirp.decode_request(line)
        except ProtocolError as exc:
            parse.end(status="error")
            self.server.observe_request(self.protocol, "parse",
                                        False, 0.0)
            self._respond(Response(Status.BAD_REQUEST, message=str(exc)))
            return True
        parse.end()
        request.user = self.user
        trace = _spans.parse_trace_context(request.params.get("trace"))
        with self.request_scope(request.rtype.value, request.path,
                                trace=trace):
            return self._handle(request)

    def _handle(self, request: Request) -> bool:
        if request.rtype is RequestType.QUIT:
            write_line(self.wfile, "ok")
            return False
        verb = self._VERBS.get(request.rtype)
        try:
            if verb is None:
                self._reply(request, self.server.storage.execute(request))
            else:
                verb(self, request)
        except StorageError as exc:
            # The one StorageError -> reply mapping: a refused approval
            # (nothing promised yet) or a settlement the journal could
            # not record both answer in place of the success line.
            self.mark_request_error()
            self._respond(Response(exc.status, message=exc.message))
        return True

    def _respond(self, response: Response, args: list[str] | None = None,
                 payload: bytes | None = None, flush: bool = True) -> None:
        """One reply line -- followed, in the same wire write, by
        ``payload`` (whose length is appended to ``args``).
        ``flush=False`` when the body goes out through ``send``."""
        if payload is not None:
            args = [*(args or ()), str(len(payload))]
        write_line(self.wfile, chirp.encode_response(response, args),
                   flush=False)
        if payload is not None:
            self.wfile.write(payload)
        if flush:
            self.wfile.flush()

    def _authenticate(self, request: Request) -> None:
        mechanism = request.params.get("mechanism", "gsi")
        if mechanism != "gsi":
            self._respond(Response(Status.BAD_REQUEST,
                                   message="only gsi supported"))
            return
        write_line(self.wfile, "ok")
        auth_span = _spans.maybe_span("auth", mechanism=mechanism)
        try:
            cert = base64.b64decode(read_line(self.rfile))
            challenge = self.server.gsi.challenge()
            write_line(self.wfile, base64.b64encode(challenge).decode())
            response = base64.b64decode(read_line(self.rfile))
            subject = self.server.gsi.accept(cert, challenge, response)
        except (AuthError, ProtocolError, ValueError) as exc:
            auth_span.end(status="error")
            self.mark_request_error()
            self._respond(Response(Status.NOT_AUTHENTICATED,
                                   message=str(exc)))
            return
        self.user = self.server.map_subject(subject)
        auth_span.set(user=self.user).end()
        self._respond(Response(Status.OK), [self.user])

    def _get(self, request: Request) -> None:
        # Approve (permissions + existence) before promising data.
        ticket = self.server.storage.approve_get(self.user, request.path)
        self._respond(Response(Status.OK), [str(ticket.size)], flush=False)
        self.send(ticket)

    def _put(self, request: Request) -> None:
        # Approve before telling the client to send.
        ticket = self.server.storage.approve_put(
            self.user, request.path, request.length)
        write_line(self.wfile, "ok")
        self.receive(ticket, length=request.length)
        write_line(self.wfile, "ok")

    def _block_read(self, request: Request) -> None:
        """Chirp ``read <path> <offset> <len>``: partial-file read."""
        ticket = self.server.storage.approve_read(
            self.user, request.path, request.offset, request.length)
        self._respond(Response(Status.OK), [str(ticket.size)], flush=False)
        self.send(ticket)

    def _block_write(self, request: Request) -> None:
        """Chirp ``write <path> <offset> <len>``: partial-file write."""
        ticket = self.server.storage.approve_write(
            self.user, request.path, request.offset, request.length)
        write_line(self.wfile, "ok")
        moved, crc = self.receive(ticket, length=request.length)
        # Ack with the CRC32 folded into the receive loop: the client
        # verifies its upload end to end with zero extra read passes.
        write_line(self.wfile, f"ok {'-' if crc is None else crc} {moved}")

    def _query(self, request: Request) -> None:
        self._respond(
            Response(Status.OK),
            payload=self.server.advertisement().external_repr().encode())

    def _checksum(self, request: Request) -> None:
        """Chirp ``checksum <path>``: CRC32 over the file's contents.

        Runs the contents through the same read-approval gate as a GET
        (permissions and existence checked first), so a replica manager
        can verify a third-party copy end to end without pulling the
        bytes over the wide area.  Replies ``ok <crc32> <size>``.
        """
        ticket = self.server.storage.approve_get(self.user, request.path)

        def fold(ticket):
            crc, nbytes = fastio.stream_crc32(ticket.stream, ticket.size)
            return nbytes, crc

        _, crc = self.send(ticket, mover=fold)
        self._respond(Response(Status.OK), [str(crc), str(ticket.size)])

    def _thirdput(self, request: Request) -> None:
        """Three-party transfer: push one of our files to another
        server, data flowing server-to-server (paper, §2.1: the
        transfer manager allows "transparent three- and four-party
        transfers")."""
        from repro.client.chirp import ChirpClient
        from repro.client.errors import ClientError
        from repro.client.retry import NO_RETRY

        ticket = self.server.storage.approve_get(self.user, request.path)

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

    def _reply(self, request: Request, response: Response) -> None:
        if not response.ok:
            self.mark_request_error()
            self._respond(response)
        elif request.rtype is RequestType.STAT:
            self._respond(response, chirp.encode_stat(response.data))
        elif request.rtype in (RequestType.LIST, RequestType.ACL_GET,
                               RequestType.LOT_STAT, RequestType.LOT_LIST,
                               RequestType.LOT_DELETE):
            self._respond(response,
                          payload=json.dumps(response.data).encode())
        elif request.rtype in (RequestType.LOT_CREATE, RequestType.LOT_RENEW):
            self._respond(response, [str(response.data["lot_id"]),
                                     str(response.data["capacity"]),
                                     str(response.data["expires_at"])])
        else:
            write_line(self.wfile, "ok")

    #: Verbs served here; every other request type is a metadata
    #: operation the storage manager executes synchronously.
    _VERBS = {
        RequestType.AUTH: _authenticate,
        RequestType.GET: _get,
        RequestType.PUT: _put,
        RequestType.READ: _block_read,
        RequestType.WRITE: _block_write,
        RequestType.QUERY: _query,
        RequestType.THIRDPUT: _thirdput,
        RequestType.CHECKSUM: _checksum,
    }


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------


class HttpHandler(ConnectionHandler):
    """HTTP/1.0 subset; anonymous only."""

    protocol = "http"
    event_capable = True

    def serve(self) -> None:
        while self.serve_one():
            pass

    def serve_one(self) -> bool:
        """One HTTP request/response exchange."""
        try:
            request = http.read_request(self.rfile)
        except ProtocolError:
            return False
        if request is None:
            return False
        request.user = self.user
        keep_alive = request.params.get("keep_alive", False)
        headers = request.params.get("headers", {})
        trace = _spans.parse_trace_context(
            headers.get(http.TRACE_HEADER.lower()))
        with self.request_scope(request.rtype.value, request.path,
                                trace=trace) as sp:
            try:
                self._handle(request, keep_alive)
            except StorageError as exc:
                sp.end(status="error")
                http.write_response_head(
                    self.wfile, Response(exc.status, message=exc.message),
                    keep_alive=keep_alive,
                )
        return bool(keep_alive)

    def _handle(self, request: Request, keep_alive: bool) -> None:
        storage = self.server.storage
        if request.rtype is RequestType.GET:
            # Approve before the status line goes out, so a denial is a
            # clean 403 rather than a corrupted body.
            ticket = storage.approve_get(self.user, request.path)
            http.write_response_head(self.wfile, Response(Status.OK),
                                     content_length=ticket.size,
                                     keep_alive=keep_alive, flush=False)
            self.send(ticket)
        elif request.rtype is RequestType.STAT:  # HEAD
            size = storage.stat(self.user, request.path)["size"]
            http.write_response_head(self.wfile, Response(Status.OK),
                                     content_length=size, keep_alive=keep_alive)
        elif request.rtype is RequestType.PUT:
            ticket = storage.approve_put(self.user, request.path,
                                         max(request.length, 0))
            self.receive(ticket, length=request.length)
            http.write_response_head(self.wfile, Response(Status.OK),
                                     keep_alive=keep_alive)
        elif request.rtype is RequestType.DELETE:
            storage.delete(self.user, request.path)
            http.write_response_head(self.wfile, Response(Status.OK),
                                     keep_alive=keep_alive)
        else:
            http.write_response_head(self.wfile, Response(Status.BAD_REQUEST),
                                     keep_alive=keep_alive)


# ---------------------------------------------------------------------------
# FTP
# ---------------------------------------------------------------------------


class FtpHandler(ConnectionHandler):
    """FTP subset: control + passive/active data connections."""

    protocol = "ftp"
    greeting = "NeST FTP ready"
    #: Verbs that move bytes over a data connection.
    DATA_VERBS = frozenset({"RETR", "STOR", "LIST"})
    #: Seconds a data connection may take to open (PASV accept, PORT
    #: connect) before the transfer fails.
    data_timeout = 10.0

    def __init__(self, server, sock, addr):
        super().__init__(server, sock, addr)
        self.cwd = "/"
        self.logged_in = False
        self._pasv_listener: socket.socket | None = None
        self._port_target: tuple[str, int] | None = None

    def finish(self) -> None:
        self.close_data_state()
        super().finish()

    def reply(self, code: int, text: str) -> None:
        write_line(self.wfile, ftp.format_reply(code, text))

    def resolve(self, path: str) -> str:
        if not path.startswith("/"):
            path = self.cwd.rstrip("/") + "/" + path
        return path

    def serve(self) -> None:
        self.reply(ftp.READY, self.greeting)
        while True:
            try:
                line = read_line(self.rfile)
            except ProtocolError:
                return
            try:
                verb, arg = ftp.parse_command(line)
            except ProtocolError:
                self.reply(ftp.SYNTAX_ERROR, "bad command")
                continue
            with self.request_scope(verb.lower()):
                keep = self.dispatch(verb, arg)
            if not keep:
                return

    def dispatch(self, verb: str, arg: str) -> bool:
        handler = getattr(self, f"cmd_{verb.lower()}", None)
        if handler is None:
            self.reply(ftp.NOT_IMPLEMENTED, f"{verb} not implemented")
            return True
        if verb in self.DATA_VERBS and not self.data_channel_configured():
            # Refused before any approval: nothing charged, journaled
            # or opened that a missing data channel could strand.
            self.mark_request_error()
            self.reply(ftp.BAD_SEQUENCE, "use PASV or PORT first")
            return True
        try:
            return handler(arg)
        except StorageError as exc:
            self.mark_request_error()
            self.reply(ftp.STATUS_TO_REPLY.get(exc.status, ftp.ACTION_FAILED),
                       exc.message or exc.status.value)
            return True

    # -- session -------------------------------------------------------------
    def cmd_user(self, arg: str) -> bool:
        if arg.lower() in ("anonymous", "ftp"):
            self.reply(ftp.NEED_PASSWORD, "anonymous ok, send email as pass")
        else:
            self.reply(ftp.NOT_LOGGED_IN, "anonymous only")
        return True

    def cmd_pass(self, arg: str) -> bool:
        self.logged_in = True
        self.reply(ftp.LOGGED_IN, "logged in anonymously")
        return True

    def cmd_type(self, arg: str) -> bool:
        self.reply(200, f"type set to {arg or 'I'}")
        return True

    def cmd_noop(self, arg: str) -> bool:
        self.reply(200, "ok")
        return True

    def cmd_syst(self, arg: str) -> bool:
        self.reply(215, "UNIX Type: L8 (NeST)")
        return True

    def cmd_quit(self, arg: str) -> bool:
        self.reply(ftp.GOODBYE, "goodbye")
        return False

    # -- navigation -----------------------------------------------------------
    def cmd_cwd(self, arg: str) -> bool:
        target = self.resolve(arg)
        stat = self.server.storage.stat(self.user, target) if target != "/" else {
            "type": "dir"
        }
        if stat["type"] != "dir":
            self.reply(ftp.ACTION_FAILED, "not a directory")
            return True
        self.cwd = target
        self.reply(ftp.ACTION_OK, f"cwd {self.cwd}")
        return True

    def cmd_pwd(self, arg: str) -> bool:
        self.reply(ftp.PATH_CREATED, f'"{self.cwd}"')
        return True

    def cmd_mkd(self, arg: str) -> bool:
        self.server.storage.mkdir(self.user, self.resolve(arg))
        self.reply(ftp.PATH_CREATED, f'"{arg}" created')
        return True

    def cmd_rmd(self, arg: str) -> bool:
        self.server.storage.rmdir(self.user, self.resolve(arg))
        self.reply(ftp.ACTION_OK, "removed")
        return True

    def cmd_dele(self, arg: str) -> bool:
        self.server.storage.delete(self.user, self.resolve(arg))
        self.reply(ftp.ACTION_OK, "deleted")
        return True

    def cmd_size(self, arg: str) -> bool:
        stat = self.server.storage.stat(self.user, self.resolve(arg))
        self.reply(213, str(stat["size"]))
        return True

    # -- data connections -----------------------------------------------------
    def cmd_pasv(self, arg: str) -> bool:
        if self._pasv_listener is not None:
            self._pasv_listener.close()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind((self.server.host, 0))
        listener.listen(4)
        self._pasv_listener = listener
        self._port_target = None
        host, port = listener.getsockname()
        write_line(self.wfile, ftp.format_pasv_reply(host, port))
        return True

    def cmd_port(self, arg: str) -> bool:
        try:
            nums = [int(x) for x in arg.split(",")]
            host = ".".join(str(n) for n in nums[:4])
            port = nums[4] * 256 + nums[5]
        except (ValueError, IndexError):
            self.reply(ftp.SYNTAX_ERROR, "bad PORT")
            return True
        self._port_target = (host, port)
        if self._pasv_listener is not None:
            self._pasv_listener.close()
            self._pasv_listener = None
        self.reply(200, "PORT ok")
        return True

    def data_channel_configured(self) -> bool:
        return (self._pasv_listener is not None
                or self._port_target is not None)

    def open_data_connection(self) -> socket.socket:
        if self._pasv_listener is not None:
            self._pasv_listener.settimeout(self.data_timeout)
            conn, _ = self._pasv_listener.accept()
        elif self._port_target is not None:
            conn = socket.create_connection(self._port_target,
                                            timeout=self.data_timeout)
        else:
            raise ProtocolError("no data connection configured")
        tuned(conn)
        if self.server.faults is not None:
            conn = self.server.faults.wrap_socket(
                conn, label=f"{self.protocol}-data")
        return conn

    def close_data_state(self) -> None:
        if self._pasv_listener is not None:
            self._pasv_listener.close()
            self._pasv_listener = None
        self._port_target = None

    @contextmanager
    def data_channel(self, mode: str):
        """The session's data connection as a ``mode`` file.  Opened on
        entry -- callers enter it *inside* the ticket's scope, so a
        channel that never opens is one more transfer failure the
        ticket settles -- and torn down with the PASV/PORT state."""
        try:
            with closing(self.open_data_connection()) as conn, \
                    conn.makefile(mode) as stream:
                yield stream
        finally:
            self.close_data_state()

    # -- transfers ----------------------------------------------------------
    def cmd_retr(self, arg: str) -> bool:
        ticket = self.server.storage.approve_get(self.user, self.resolve(arg))
        self.reply(ftp.OPENING_DATA, "opening data connection")
        with ticket, self.data_channel("wb") as data_out:
            self.send(ticket, data_out)
        self.reply(ftp.TRANSFER_OK, "transfer complete")
        return True

    def cmd_stor(self, arg: str) -> bool:
        ticket = self.server.storage.approve_put(self.user,
                                                 self.resolve(arg), 0)
        self.reply(ftp.OPENING_DATA, "opening data connection")
        with ticket, self.data_channel("rb") as data_in:
            moved, _ = self.receive(ticket, data_in)
        self.reply(ftp.TRANSFER_OK, f"received {moved} bytes")
        return True

    def cmd_list(self, arg: str) -> bool:
        path = self.resolve(arg) if arg else self.cwd
        entries = self.server.storage.listdir(self.user, path)
        listing = "".join(
            f"{e['type']:<4} {e['size']:>12} {e['name']}\r\n" for e in entries
        ).encode()
        self.reply(ftp.OPENING_DATA, "here comes the listing")
        with self.data_channel("wb") as data_out:
            data_out.write(listing)
        self.reply(ftp.TRANSFER_OK, "listing sent")
        return True


# ---------------------------------------------------------------------------
# GridFTP
# ---------------------------------------------------------------------------


class GridFtpHandler(FtpHandler):
    """FTP + GSI (ADAT), extended-block mode, parallel streams."""

    protocol = "gridftp"
    greeting = "NeST GridFTP ready"

    def __init__(self, server, sock, addr):
        super().__init__(server, sock, addr)
        self.mode = "S"
        self.parallelism = 1
        self._gsi_challenge: bytes | None = None
        self._gsi_cert: bytes | None = None
        self._spas_listeners: list[socket.socket] = []

    def cmd_auth(self, arg: str) -> bool:
        if arg.upper() not in ("GSSAPI", "GSI"):
            self.reply(ftp.NOT_IMPLEMENTED, "only GSSAPI")
            return True
        self.reply(334, "ADAT must follow")
        return True

    def cmd_adat(self, arg: str) -> bool:
        try:
            payload = base64.b64decode(arg)
        except ValueError:
            self.reply(ftp.SYNTAX_ERROR, "bad base64")
            return True
        if self._gsi_challenge is None:
            # Step 1: certificate in, challenge out.
            self._gsi_cert = payload
            self._gsi_challenge = self.server.gsi.challenge()
            token = base64.b64encode(self._gsi_challenge).decode()
            self.reply(ftp.AUTH_CONTINUE, f"ADAT={token}")
            return True
        # Step 2: challenge response in.
        try:
            subject = self.server.gsi.accept(
                self._gsi_cert, self._gsi_challenge, payload
            )
        except AuthError as exc:
            self.reply(ftp.NOT_LOGGED_IN, str(exc))
            self._gsi_challenge = None
            return True
        self.user = self.server.map_subject(subject)
        self.logged_in = True
        self.reply(ftp.AUTH_OK, f"authenticated as {self.user}")
        return True

    def cmd_mode(self, arg: str) -> bool:
        mode = arg.upper()
        if mode not in ("S", "E"):
            self.reply(ftp.NOT_IMPLEMENTED, "modes S and E only")
            return True
        self.mode = mode
        self.reply(200, f"mode {mode}")
        return True

    def cmd_opts(self, arg: str) -> bool:
        try:
            opts = gridftp.parse_opts_retr(arg)
        except ProtocolError as exc:
            self.reply(ftp.SYNTAX_ERROR, str(exc))
            return True
        self.parallelism = max(1, opts.get("parallelism", 1))
        self.reply(200, f"parallelism {self.parallelism}")
        return True

    def cmd_spas(self, arg: str) -> bool:
        """Striped passive: one listener per parallel stream."""
        self.close_data_state()
        lines = []
        for _ in range(self.parallelism):
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind((self.server.host, 0))
            listener.listen(2)
            self._spas_listeners.append(listener)
            host, port = listener.getsockname()
            h = host.split(".")
            lines.append(f" {h[0]},{h[1]},{h[2]},{h[3]},{port // 256},{port % 256}")
        write_line(self.wfile, "229-Entering Striped Passive Mode",
                   flush=False)
        for line in lines:
            write_line(self.wfile, line, flush=False)
        write_line(self.wfile, "229 End")
        return True

    def data_channel_configured(self) -> bool:
        return bool(self._spas_listeners) or super().data_channel_configured()

    def close_data_state(self) -> None:
        for listener in self._spas_listeners:
            listener.close()
        self._spas_listeners = []
        super().close_data_state()

    def _data_connections(self) -> list[socket.socket]:
        if not self._spas_listeners:
            return [self.open_data_connection()]
        conns: list[socket.socket] = []
        try:
            for listener in self._spas_listeners:
                listener.settimeout(self.data_timeout)
                conn, _ = listener.accept()
                tuned(conn)
                if self.server.faults is not None:
                    conn = self.server.faults.wrap_socket(
                        conn, label="gridftp-stripe")
                conns.append(conn)
        except OSError:
            for conn in conns:
                conn.close()
            raise
        return conns

    def _run_lanes(self, lane, what: str) -> list[BaseException]:
        """Extended-block data movement: open the data channel(s) and
        run ``lane(conn, index)`` on one thread per connection.  Called
        from a mover, i.e. inside the ticket's scope: a stripe that
        never connects raises out of here and the ticket settles like
        any failed transfer.  Returns what the lanes themselves raised
        -- those are reported in-band, the control connection lives."""
        errors: list[BaseException] = []

        def guarded(conn: socket.socket, index: int) -> None:
            try:
                lane(conn, index)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                conn.close()

        try:
            threads = [
                threading.Thread(target=guarded, args=(conn, i), daemon=True)
                for i, conn in enumerate(self._data_connections())
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            if any(t.is_alive() for t in threads):
                errors.append(TimeoutError(f"parallel {what} lane hung"))
        finally:
            self.close_data_state()
        return errors

    def _lanes_reply(self, errors: list[BaseException], done: str) -> bool:
        if errors:
            self.reply(ftp.ACTION_FAILED, f"transfer failed: {errors[0]}")
        else:
            self.reply(ftp.TRANSFER_OK, done)
        return True

    def cmd_retr(self, arg: str) -> bool:
        if self.mode != "E":
            return super().cmd_retr(arg)
        ticket = self.server.storage.approve_get(self.user, self.resolve(arg))
        self.reply(ftp.OPENING_DATA, "opening extended-block channels")
        errors: list[BaseException] = []

        def send_lanes(ticket):
            extents = gridftp.stripe_ranges(
                ticket.size, max(1, len(self._spas_listeners)), 256 * 1024)
            # Lanes share the storage ticket's stream: each extent is
            # one bounded seek+read under this lock, so memory per lane
            # is one stripe block -- never the whole file.
            source_lock = threading.Lock()

            def lane(conn: socket.socket, index: int) -> None:
                with conn.makefile("wb") as out:
                    for offset, length in extents[index]:
                        with source_lock:
                            ticket.stream.seek(offset)
                            payload = read_exact(ticket.stream, length)
                        gridftp.write_block(out, offset, payload)
                    gridftp.write_eod(out, eof=index == 0)

            errors.extend(self._run_lanes(lane, "send"))
            return ticket.size, None

        self.send(ticket, mover=send_lanes)
        return self._lanes_reply(errors, "transfer complete")

    def cmd_stor(self, arg: str) -> bool:
        if self.mode != "E":
            return super().cmd_stor(arg)
        ticket = self.server.storage.approve_put(self.user,
                                                 self.resolve(arg), 0)
        self.reply(ftp.OPENING_DATA, "opening extended-block channels")
        errors: list[BaseException] = []

        def receive_lanes(ticket):
            # Blocks land directly at their offsets in the storage
            # ticket's stream (one seek+write per block under this
            # lock): memory per lane is one wire block, never the whole
            # file, and sparse regions zero-fill.
            sink_lock = threading.Lock()
            high_water = 0

            def lane(conn: socket.socket, index: int) -> None:
                nonlocal high_water
                with conn.makefile("rb") as stream:
                    for offset, payload in gridftp.iter_blocks(stream):
                        with sink_lock:
                            ticket.stream.seek(offset)
                            ticket.stream.write(payload)
                            high_water = max(high_water,
                                             offset + len(payload))

            errors.extend(self._run_lanes(lane, "receive"))
            # A failed or hung lane means missing stripes: settle the
            # STOR as empty rather than commit a silently truncated file.
            return (0 if errors else high_water), None

        moved, _ = self.receive(ticket, mover=receive_lanes)
        return self._lanes_reply(errors, f"received {moved} bytes")


# ---------------------------------------------------------------------------
# NFS
# ---------------------------------------------------------------------------


class NfsHandler(ConnectionHandler):
    """Restricted NFS subset over TCP; anonymous only.

    MOUNT is handled here too ("mount is handled by the NFS handler",
    paper footnote 1).
    """

    protocol = "nfs"

    def serve(self) -> None:
        while True:
            try:
                record = nfs.read_record(self.rfile)
                xid, prog, proc, args = nfs.unpack_call(record)
            except ProtocolError:
                return
            if prog == nfs.PROG_MOUNT:
                op, procedure = "mount", self._MOUNT_PROCEDURES.get(proc)
            else:
                op, procedure = self._PROCEDURES.get(proc, ("other", None))
            with self.request_scope(op):
                results = self._dispatch(procedure, args)
                nfs.write_record(self.wfile, nfs.pack_reply(xid, results))

    def _dispatch(self, procedure, args: Unpacker) -> bytes:
        if procedure is None:
            return self._status_only(nfs.NFSERR_IO)
        try:
            return procedure(self, args)
        except StorageError as exc:
            self.mark_request_error()
            return self._status_only(_STATUS_TO_NFS.get(exc.status,
                                                        nfs.NFSERR_IO))
        except ProtocolError:
            self.mark_request_error()
            return self._status_only(nfs.NFSERR_IO)

    # -- helpers ----------------------------------------------------------
    def _status_only(self, status: int) -> bytes:
        p = Packer()
        p.pack_uint(status)
        return p.get_buffer()

    def _path_of(self, args: Unpacker) -> str:
        """The path behind the file-handle argument."""
        handle = args.unpack_fixed(nfs.FHSIZE)
        path = self.server.fhandles.path_of(nfs.fhandle_token(handle))
        if path is None:
            # Unknown token, or one minted before a server restart (the
            # registry's epoch changed): the NFS client must LOOKUP the
            # path again, exactly as with a real ESTALE.
            raise StorageError(Status.STALE, "stale file handle")
        return path

    def _child_of(self, args: Unpacker) -> str:
        """The path a (directory handle, name) argument pair names."""
        return self._path_of(args).rstrip("/") + "/" + args.unpack_string()

    def _fh_for(self, path: str) -> bytes:
        return nfs.make_fhandle(self.server.fhandles.token_for(path))

    def _attr_reply(self, path: str) -> bytes:
        """``NFS_OK fattr`` for ``path`` as it is now."""
        stat = self.server.storage.stat(self.user, path) if path != "/" else {
            "type": "dir", "size": 0,
        }
        p = Packer()
        p.pack_uint(nfs.NFS_OK)
        nfs.pack_fattr(p, _NFS_FTYPE[stat["type"]], stat["size"])
        return p.get_buffer()

    def _entry_reply(self, path: str, ftype: int, size: int) -> bytes:
        """``NFS_OK fhandle fattr``: what LOOKUP, CREATE and MKDIR answer."""
        p = Packer()
        p.pack_uint(nfs.NFS_OK)
        p.pack_fixed(self._fh_for(path))
        nfs.pack_fattr(p, ftype, size)
        return p.get_buffer()

    # -- procedures ----------------------------------------------------------
    def _null(self, args: Unpacker) -> bytes:
        return b""

    def _mnt(self, args: Unpacker) -> bytes:
        dirpath = args.unpack_string()
        if dirpath != "/" and not self.server.storage.exists(dirpath):
            return self._status_only(nfs.NFSERR_NOENT)
        p = Packer()
        p.pack_uint(nfs.NFS_OK)
        p.pack_fixed(self._fh_for(dirpath if dirpath else "/"))
        return p.get_buffer()

    def _getattr(self, args: Unpacker) -> bytes:
        return self._attr_reply(self._path_of(args))

    def _lookup(self, args: Unpacker) -> bytes:
        path = self._child_of(args)
        stat = self.server.storage.stat(self.user, path)
        return self._entry_reply(path, _NFS_FTYPE[stat["type"]], stat["size"])

    def _read(self, args: Unpacker) -> bytes:
        path = self._path_of(args)
        offset = args.unpack_hyper()
        count = args.unpack_uint()
        ticket = self.server.storage.approve_read(self.user, path, offset,
                                                  min(count, nfs.BLOCK_SIZE))
        sink = io.BytesIO()
        self.send(ticket, sink)
        p = Packer()
        p.pack_uint(nfs.NFS_OK)
        size = self.server.storage.stat(self.user, path)["size"]
        nfs.pack_fattr(p, nfs.NFREG, size)
        p.pack_opaque(sink.getvalue())
        return p.get_buffer()

    def _write(self, args: Unpacker) -> bytes:
        path = self._path_of(args)
        offset = args.unpack_hyper()
        data = args.unpack_opaque()
        ticket = self.server.storage.approve_write(self.user, path, offset,
                                                   len(data))
        self.receive(ticket, io.BytesIO(data), len(data))
        return self._attr_reply(path)

    def _create(self, args: Unpacker) -> bytes:
        path = self._child_of(args)
        with self.server.storage.approve_put(self.user, path, 0):
            pass  # an empty file: the ticket settles with nothing moved
        return self._entry_reply(path, nfs.NFREG, 0)

    def _remove(self, args: Unpacker) -> bytes:
        self.server.storage.delete(self.user, self._child_of(args))
        return self._status_only(nfs.NFS_OK)

    def _mkdir(self, args: Unpacker) -> bytes:
        path = self._child_of(args)
        self.server.storage.mkdir(self.user, path)
        return self._entry_reply(path, nfs.NFDIR, 0)

    def _rmdir(self, args: Unpacker) -> bytes:
        self.server.storage.rmdir(self.user, self._child_of(args))
        return self._status_only(nfs.NFS_OK)

    def _readdir(self, args: Unpacker) -> bytes:
        entries = self.server.storage.listdir(self.user, self._path_of(args))
        p = Packer()
        p.pack_uint(nfs.NFS_OK)
        p.pack_uint(len(entries))
        for entry in entries:
            p.pack_string(entry["name"])
            p.pack_uint(_NFS_FTYPE[entry["type"]])
        return p.get_buffer()

    #: NFS procedure number -> (request-op label, procedure); the label
    #: set is bounded by construction.
    _PROCEDURES = {
        nfs.PROC_NULL: ("null", _null),
        nfs.PROC_GETATTR: ("getattr", _getattr),
        nfs.PROC_LOOKUP: ("lookup", _lookup),
        nfs.PROC_READ: ("read", _read),
        nfs.PROC_WRITE: ("write", _write),
        nfs.PROC_CREATE: ("create", _create),
        nfs.PROC_REMOVE: ("remove", _remove),
        nfs.PROC_MKDIR: ("mkdir", _mkdir),
        nfs.PROC_RMDIR: ("rmdir", _rmdir),
        nfs.PROC_READDIR: ("readdir", _readdir),
    }
    _MOUNT_PROCEDURES = {nfs.MOUNTPROC_MNT: _mnt, nfs.MOUNTPROC_UMNT: _null}


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
            with self.request_scope(verb) as sp:
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


#: Namespace entry type -> NFS ftype.
_NFS_FTYPE = {"dir": nfs.NFDIR, "file": nfs.NFREG}

_STATUS_TO_NFS = {
    Status.NOT_FOUND: nfs.NFSERR_NOENT,
    Status.DENIED: nfs.NFSERR_ACCES,
    Status.NOT_AUTHENTICATED: nfs.NFSERR_PERM,
    Status.EXISTS: nfs.NFSERR_EXIST,
    Status.NO_SPACE: nfs.NFSERR_NOSPC,
    Status.NOT_DIR: nfs.NFSERR_NOTDIR,
    Status.IS_DIR: nfs.NFSERR_ISDIR,
    Status.NOT_EMPTY: nfs.NFSERR_NOTEMPTY,
    Status.BAD_REQUEST: nfs.NFSERR_IO,
    Status.SERVER_ERROR: nfs.NFSERR_IO,
    Status.STALE: nfs.NFSERR_STALE,
}


#: Handler class per protocol name (the dispatcher's routing table).
HANDLERS = {
    "chirp": ChirpHandler,
    "http": HttpHandler,
    "ftp": FtpHandler,
    "gridftp": GridFtpHandler,
    "nfs": NfsHandler,
    "ibp": IbpHandler,
}
