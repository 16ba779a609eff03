"""FTP subset (RFC 765/959 lineage).

Control connection: text commands with three-digit numeric replies.
Data connections: passive mode (``PASV``) only, stream mode, binary
type.  Supported commands: USER, PASS, TYPE, PASV, RETR, STOR, LIST,
MKD, RMD, DELE, SIZE, CWD, PWD, NOOP, QUIT.

FTP permits anonymous access only (paper, section 3); GridFTP layers
GSI authentication and extended transfer modes on this dialect (see
:mod:`repro.protocols.gridftp`).
"""

from __future__ import annotations

import socket
from contextlib import closing, contextmanager

from repro.protocols import common
from repro.protocols.common import (
    ProtocolError,
    Response,
    Status,
    StorageError,
)
from repro.protocols.runtime import tuned

#: Default control-connection ports in this reproduction.
DEFAULT_PORT = 9021
GRIDFTP_DEFAULT_PORT = 9022

# Reply codes used by the servers.
READY = 220
GOODBYE = 221
TRANSFER_OK = 226
PASSIVE = 227
LOGGED_IN = 230
ACTION_OK = 250
PATH_CREATED = 257
NEED_PASSWORD = 331
OPENING_DATA = 150
AUTH_OK = 234
AUTH_CONTINUE = 335
SYNTAX_ERROR = 500
NOT_IMPLEMENTED = 502
BAD_SEQUENCE = 503
NOT_LOGGED_IN = 530
ACTION_FAILED = 550
NO_SPACE = 552

#: Mapping from common Status to the FTP failure reply to send.
STATUS_TO_REPLY = {
    Status.OK: ACTION_OK,
    Status.NOT_FOUND: ACTION_FAILED,
    Status.DENIED: ACTION_FAILED,
    Status.NOT_AUTHENTICATED: NOT_LOGGED_IN,
    Status.EXISTS: ACTION_FAILED,
    Status.NO_SPACE: NO_SPACE,
    Status.NOT_DIR: ACTION_FAILED,
    Status.IS_DIR: ACTION_FAILED,
    Status.NOT_EMPTY: ACTION_FAILED,
    Status.BAD_REQUEST: SYNTAX_ERROR,
    Status.SERVER_ERROR: ACTION_FAILED,
}


def parse_command(line: str) -> tuple[str, str]:
    """Split a control line into (VERB, argument)."""
    if not line:
        raise ProtocolError("empty FTP command")
    parts = line.split(" ", 1)
    return parts[0].upper(), parts[1] if len(parts) > 1 else ""


def format_reply(code: int, text: str) -> str:
    """Render a single-line reply."""
    return f"{code} {text}"


def parse_reply(line: str) -> tuple[int, str]:
    """Parse a single-line reply into (code, text)."""
    if len(line) < 3 or not line[:3].isdigit():
        raise ProtocolError(f"malformed FTP reply {line!r}")
    code = int(line[:3])
    text = line[4:] if len(line) > 4 else ""
    return code, text


def format_pasv_reply(host: str, port: int) -> str:
    """Render the 227 reply advertising the passive data endpoint."""
    h = host.split(".")
    if len(h) != 4:
        h = ["127", "0", "0", "1"]
    p1, p2 = port // 256, port % 256
    return format_reply(
        PASSIVE, f"Entering Passive Mode ({h[0]},{h[1]},{h[2]},{h[3]},{p1},{p2})"
    )


def parse_pasv_reply(text: str) -> tuple[str, int]:
    """Extract (host, port) from a 227 reply's text."""
    start = text.find("(")
    end = text.find(")", start)
    if start < 0 or end < 0:
        raise ProtocolError(f"malformed PASV reply {text!r}")
    fields = text[start + 1 : end].split(",")
    if len(fields) != 6:
        raise ProtocolError(f"malformed PASV reply {text!r}")
    try:
        nums = [int(f.strip()) for f in fields]
    except ValueError:
        raise ProtocolError(f"malformed PASV reply {text!r}") from None
    host = ".".join(str(n) for n in nums[:4])
    port = nums[4] * 256 + nums[5]
    return host, port


def failure_reply(resp: Response) -> str:
    """Render a failed common Response as an FTP reply line."""
    code = STATUS_TO_REPLY.get(resp.status, ACTION_FAILED)
    return format_reply(code, resp.message or resp.status.value)


# ---------------------------------------------------------------------------
# the server side of a connection
# ---------------------------------------------------------------------------


class FtpSession:
    """The FTP session: greeting, command loop, verb table (``cmd_*``)
    and PASV/PORT data channels, written once against
    the host contract (:mod:`repro.protocols`).  Anonymous only."""

    protocol = "ftp"
    #: the 220 line; named by the class the session is mixed into.
    greeting: str
    #: Verbs that move bytes over a data connection.
    DATA_VERBS = frozenset({"RETR", "STOR", "LIST"})
    #: Seconds a data connection may take to open (PASV accept, PORT
    #: connect) before the transfer fails.
    data_timeout = 10.0

    cwd = "/"
    logged_in = False
    _pasv_listener: socket.socket | None = None
    _port_target: tuple[str, int] | None = None

    def reply(self, code: int, text: str) -> None:
        common.write_line(self.wfile, format_reply(code, text))

    def resolve(self, path: str) -> str:
        if not path.startswith("/"):
            path = self.cwd.rstrip("/") + "/" + path
        return path

    def serve(self) -> None:
        try:
            self.reply(READY, self.greeting)
            while True:
                try:
                    line = common.read_line(self.rfile)
                except ProtocolError:
                    return
                try:
                    verb, arg = parse_command(line)
                except ProtocolError:
                    self.reply(SYNTAX_ERROR, "bad command")
                    continue
                handler = getattr(self, f"cmd_{verb.lower()}", None)
                # A verb not in the table is the client's word, not an
                # op: one label for all of them keeps the request
                # counter's series bounded whatever a client sends.
                with self.request_scope(verb.lower() if handler
                                        else "unknown"):
                    keep = self.dispatch(verb, arg, handler)
                if not keep:
                    return
        finally:
            self.close_data_state()

    def dispatch(self, verb: str, arg: str, handler) -> bool:
        if handler is None:
            self.reply(NOT_IMPLEMENTED, f"{verb} not implemented")
            return True
        if verb in self.DATA_VERBS and not self.data_channel_configured():
            # Refused before any approval: nothing charged, journaled
            # or opened that a missing data channel could strand.
            self.mark_request_error()
            self.reply(BAD_SEQUENCE, "use PASV or PORT first")
            return True
        try:
            return handler(arg)
        except StorageError as exc:
            self.mark_request_error()
            common.write_line(self.wfile, failure_reply(
                Response(exc.status, message=exc.message)))
            return True

    # -- session -------------------------------------------------------------
    def cmd_user(self, arg: str) -> bool:
        if arg.lower() in ("anonymous", "ftp"):
            self.reply(NEED_PASSWORD, "anonymous ok, send email as pass")
        else:
            self.reply(NOT_LOGGED_IN, "anonymous only")
        return True

    def cmd_pass(self, arg: str) -> bool:
        self.logged_in = True
        self.reply(LOGGED_IN, "logged in anonymously")
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
        self.reply(GOODBYE, "goodbye")
        return False

    # -- navigation -----------------------------------------------------------
    def cmd_cwd(self, arg: str) -> bool:
        target = self.resolve(arg)
        stat = self.files.stat(self.user, target) if target != "/" else {
            "type": "dir"
        }
        if stat["type"] != "dir":
            self.reply(ACTION_FAILED, "not a directory")
            return True
        self.cwd = target
        self.reply(ACTION_OK, f"cwd {self.cwd}")
        return True

    def cmd_pwd(self, arg: str) -> bool:
        self.reply(PATH_CREATED, f'"{self.cwd}"')
        return True

    def cmd_mkd(self, arg: str) -> bool:
        self.files.mkdir(self.user, self.resolve(arg))
        self.reply(PATH_CREATED, f'"{arg}" created')
        return True

    def cmd_rmd(self, arg: str) -> bool:
        self.files.rmdir(self.user, self.resolve(arg))
        self.reply(ACTION_OK, "removed")
        return True

    def cmd_dele(self, arg: str) -> bool:
        self.files.delete(self.user, self.resolve(arg))
        self.reply(ACTION_OK, "deleted")
        return True

    def cmd_size(self, arg: str) -> bool:
        stat = self.files.stat(self.user, self.resolve(arg))
        self.reply(213, str(stat["size"]))
        return True

    # -- data connections -----------------------------------------------------
    def cmd_pasv(self, arg: str) -> bool:
        if self._pasv_listener is not None:
            self._pasv_listener.close()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind((self.host, 0))
        listener.listen(4)
        self._pasv_listener = listener
        self._port_target = None
        host, port = listener.getsockname()
        common.write_line(self.wfile, format_pasv_reply(host, port))
        return True

    def cmd_port(self, arg: str) -> bool:
        try:
            nums = [int(x) for x in arg.split(",")]
            host = ".".join(str(n) for n in nums[:4])
            port = nums[4] * 256 + nums[5]
        except (ValueError, IndexError):
            self.reply(SYNTAX_ERROR, "bad PORT")
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

    def wrap_data_socket(self, conn: socket.socket, label: str):
        """A just-opened data socket as the fault plan sees it."""
        if self.faults is not None:
            conn = self.faults.wrap_socket(conn, label=label)
        return conn

    def open_data_connection(self) -> socket.socket:
        if self._pasv_listener is not None:
            self._pasv_listener.settimeout(self.data_timeout)
            conn, _ = self._pasv_listener.accept()
        elif self._port_target is not None:
            conn = socket.create_connection(self._port_target,
                                            timeout=self.data_timeout)
        else:
            raise ProtocolError("no data connection configured")
        return self.wrap_data_socket(tuned(conn), f"{self.protocol}-data")

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
        ticket = self.files.approve_get(self.user, self.resolve(arg))
        self.reply(OPENING_DATA, "opening data connection")
        with ticket, self.data_channel("wb") as data_out:
            self.send(ticket, data_out)
        self.reply(TRANSFER_OK, "transfer complete")
        return True

    def cmd_stor(self, arg: str) -> bool:
        ticket = self.files.approve_put(self.user, self.resolve(arg), 0)
        self.reply(OPENING_DATA, "opening data connection")
        with ticket, self.data_channel("rb") as data_in:
            moved, _ = self.receive(ticket, data_in)
        self.reply(TRANSFER_OK, f"received {moved} bytes")
        return True

    def cmd_list(self, arg: str) -> bool:
        path = self.resolve(arg) if arg else self.cwd
        entries = self.files.listdir(self.user, path)
        listing = "".join(
            f"{e['type']:<4} {e['size']:>12} {e['name']}\r\n" for e in entries
        ).encode()
        self.reply(OPENING_DATA, "here comes the listing")
        with self.data_channel("wb") as data_out:
            data_out.write(listing)
        self.reply(TRANSFER_OK, "listing sent")
        return True
