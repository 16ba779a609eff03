"""Chirp: NeST's native protocol.

Chirp is a simple text line protocol (one request per line, arguments
percent-encoded) and is the only protocol exposing NeST's full feature
set: lot management, ACL manipulation, and ClassAd status queries
(paper, sections 3 and 5).  Bulk data follows ``get``/``put`` exchanges
as raw bytes with an announced length.

Wire grammar::

    request   := verb (' ' arg)* CRLF
    response  := 'ok' (' ' arg)* CRLF [payload]
              |  'err' status (' ' message)? CRLF

``get`` replies ``ok <size>`` then streams ``size`` bytes; ``put
<path> <size>`` replies ``ok`` (go ahead), the client streams ``size``
bytes, and the server confirms with a final ``ok``.

**Trace context.**  A request line may end with one tagged argument
``tc=<trace_id>:<span_id>`` carrying the caller's distributed trace
context.  The tag is stripped before positional parsing, so servers
that understand it adopt the caller's span as the request parent and
everything else ignores it: a traced request to an old server is just
a request with one extra trailing argument (harmless to every
fixed-arity verb), and an untraced request parses exactly as before.
"""

from __future__ import annotations

import base64
import json
from typing import Any
from urllib.parse import quote, unquote

from repro.nest import io as fastio
from repro.nest.auth import AuthError
from repro.obs import spans as _spans
from repro.protocols.common import (
    ProtocolError,
    Request,
    RequestType,
    Response,
    Status,
    StorageError,
    read_line,
    write_line,
)

#: Default TCP port for Chirp in this reproduction.
DEFAULT_PORT = 9094

_VERB_TO_TYPE = {
    "get": RequestType.GET,
    "put": RequestType.PUT,
    "read": RequestType.READ,
    "write": RequestType.WRITE,
    "mkdir": RequestType.MKDIR,
    "rmdir": RequestType.RMDIR,
    "ls": RequestType.LIST,
    "stat": RequestType.STAT,
    "unlink": RequestType.DELETE,
    "rename": RequestType.RENAME,
    "lot_create": RequestType.LOT_CREATE,
    "lot_delete": RequestType.LOT_DELETE,
    "lot_renew": RequestType.LOT_RENEW,
    "lot_stat": RequestType.LOT_STAT,
    "lot_list": RequestType.LOT_LIST,
    "lot_attach": RequestType.LOT_ATTACH,
    "acl_set": RequestType.ACL_SET,
    "acl_get": RequestType.ACL_GET,
    "thirdput": RequestType.THIRDPUT,
    "checksum": RequestType.CHECKSUM,
    "query": RequestType.QUERY,
    "auth": RequestType.AUTH,
    "quit": RequestType.QUIT,
}
_TYPE_TO_VERB = {v: k for k, v in _VERB_TO_TYPE.items()}

_STATUS_CODES = {status: status.value for status in Status}
_CODE_TO_STATUS = {status.value: status for status in Status}


def encode_args(args: list[str]) -> str:
    """Percent-encode arguments so paths with spaces survive the wire."""
    return " ".join(quote(a, safe="/:.,=_-") for a in args)


def decode_args(text: str) -> list[str]:
    """Inverse of :func:`encode_args`."""
    return [unquote(part) for part in text.split(" ") if part]


#: Tag prefixing the optional trailing trace-context argument.
TRACE_TAG = "tc="


def _strip_trace(args: list[str]) -> tuple[list[str], str | None]:
    """Split off a trailing ``tc=<token>`` argument, if present.

    Only the *last* argument is considered and only when it parses as
    a well-formed trace context, so a path or ACL subject that happens
    to start with ``tc=`` still reaches the positional parser intact.
    """
    if args and args[-1].startswith(TRACE_TAG):
        from repro.obs.spans import parse_trace_context

        token = args[-1][len(TRACE_TAG):]
        if parse_trace_context(token) is not None:
            return args[:-1], token
    return args, None


def encode_request(req: Request) -> str:
    """Render a :class:`Request` as one Chirp command line."""
    verb = _TYPE_TO_VERB.get(req.rtype)
    if verb is None:
        raise ProtocolError(f"chirp cannot carry request type {req.rtype}")
    args: list[str] = []
    if req.rtype in (RequestType.GET, RequestType.STAT, RequestType.LIST,
                     RequestType.MKDIR, RequestType.RMDIR, RequestType.DELETE,
                     RequestType.ACL_GET, RequestType.CHECKSUM):
        args = [req.path]
    elif req.rtype is RequestType.PUT:
        args = [req.path, str(req.length)]
    elif req.rtype in (RequestType.READ, RequestType.WRITE):
        args = [req.path, str(req.offset), str(req.length)]
    elif req.rtype is RequestType.RENAME:
        args = [req.path, str(req.params.get("new_path", ""))]
    elif req.rtype is RequestType.LOT_CREATE:
        args = [str(req.params.get("capacity", 0)), str(req.params.get("duration", 0))]
        if req.params.get("owner"):
            args.append(str(req.params["owner"]))
    elif req.rtype in (RequestType.LOT_DELETE, RequestType.LOT_STAT):
        args = [str(req.params.get("lot_id", ""))]
    elif req.rtype is RequestType.LOT_RENEW:
        args = [str(req.params.get("lot_id", "")), str(req.params.get("duration", 0))]
    elif req.rtype is RequestType.LOT_ATTACH:
        args = [str(req.params.get("lot_id", "")), req.path]
    elif req.rtype is RequestType.LOT_LIST:
        args = []
    elif req.rtype is RequestType.ACL_SET:
        args = [req.path, str(req.params.get("subject", "")),
                str(req.params.get("rights", ""))]
    elif req.rtype is RequestType.THIRDPUT:
        args = [req.path, str(req.params.get("host", "")),
                str(req.params.get("port", 0)),
                str(req.params.get("remote_path", ""))]
    elif req.rtype is RequestType.QUERY:
        args = []
    elif req.rtype is RequestType.AUTH:
        args = [str(req.params.get("mechanism", "gsi"))]
    elif req.rtype is RequestType.QUIT:
        args = []
    trace = req.params.get("trace")
    if trace:
        args = [*args, f"{TRACE_TAG}{trace}"]
    return verb if not args else f"{verb} {encode_args(args)}"


def _count(arg: str) -> int:
    """A byte count or offset off the wire: the peer's number, so never
    negative (further down, a negative length means "to EOF")."""
    count = int(arg)
    if count < 0:
        raise ValueError(f"negative count {count}")
    return count


def decode_request(line: str) -> Request:
    """Parse one Chirp command line into a :class:`Request`."""
    parts = line.split(" ", 1)
    verb = parts[0].lower()
    rtype = _VERB_TO_TYPE.get(verb)
    if rtype is None:
        raise ProtocolError(f"unknown chirp verb {verb!r}")
    args = decode_args(parts[1]) if len(parts) > 1 else []
    args, trace = _strip_trace(args)
    req = Request(rtype=rtype, protocol="chirp")
    if trace is not None:
        req.params["trace"] = trace
    try:
        if rtype in (RequestType.GET, RequestType.STAT, RequestType.LIST,
                     RequestType.MKDIR, RequestType.RMDIR, RequestType.DELETE,
                     RequestType.ACL_GET, RequestType.CHECKSUM):
            req.path = args[0]
        elif rtype is RequestType.PUT:
            req.path = args[0]
            req.length = _count(args[1])
        elif rtype in (RequestType.READ, RequestType.WRITE):
            req.path = args[0]
            req.offset = _count(args[1])
            req.length = _count(args[2])
        elif rtype is RequestType.RENAME:
            req.path = args[0]
            req.params["new_path"] = args[1]
        elif rtype is RequestType.LOT_CREATE:
            req.params["capacity"] = int(args[0])
            req.params["duration"] = float(args[1])
            if len(args) > 2:
                req.params["owner"] = args[2]
        elif rtype in (RequestType.LOT_DELETE, RequestType.LOT_STAT):
            req.params["lot_id"] = args[0]
        elif rtype is RequestType.LOT_RENEW:
            req.params["lot_id"] = args[0]
            req.params["duration"] = float(args[1])
        elif rtype is RequestType.LOT_ATTACH:
            req.params["lot_id"] = args[0]
            req.path = args[1]
        elif rtype is RequestType.ACL_SET:
            req.path = args[0]
            req.params["subject"] = args[1]
            req.params["rights"] = args[2]
        elif rtype is RequestType.THIRDPUT:
            req.path = args[0]
            req.params["host"] = args[1]
            req.params["port"] = int(args[2])
            req.params["remote_path"] = args[3]
        elif rtype is RequestType.AUTH:
            req.params["mechanism"] = args[0] if args else "gsi"
    except (IndexError, ValueError) as exc:
        raise ProtocolError(f"malformed chirp request {line!r}") from exc
    return req


def encode_response(resp: Response, extra_args: list[str] | None = None) -> str:
    """Render a :class:`Response` as one Chirp status line."""
    if resp.ok:
        args = [str(a) for a in (extra_args or [])]
        return "ok" if not args else f"ok {encode_args(args)}"
    code = _STATUS_CODES[resp.status]
    if resp.message:
        return f"err {code} {encode_args([resp.message])}"
    return f"err {code}"


def decode_response(line: str) -> tuple[Response, list[str]]:
    """Parse a Chirp status line; returns (response, positional args)."""
    parts = line.split(" ", 1)
    head = parts[0].lower()
    rest = decode_args(parts[1]) if len(parts) > 1 else []
    if head == "ok":
        return Response(Status.OK), rest
    if head == "err":
        if not rest:
            raise ProtocolError(f"malformed chirp error {line!r}")
        status = _CODE_TO_STATUS.get(rest[0], Status.SERVER_ERROR)
        message = rest[1] if len(rest) > 1 else ""
        return Response(status, message=message), rest[1:]
    raise ProtocolError(f"malformed chirp response {line!r}")


def encode_stat(stat: dict[str, Any]) -> list[str]:
    """Flatten a stat dict into response args (size, type, owner)."""
    return [str(stat.get("size", 0)), str(stat.get("type", "file")),
            str(stat.get("owner", ""))]


def decode_stat(args: list[str]) -> dict[str, Any]:
    """Inverse of :func:`encode_stat`.  A directory has no owner, and
    an empty last argument does not survive the wire."""
    if len(args) < 2:
        raise ProtocolError("malformed stat reply")
    return {"size": int(args[0]), "type": args[1],
            "owner": args[2] if len(args) > 2 else ""}


# ---------------------------------------------------------------------------
# the server side of a connection
# ---------------------------------------------------------------------------


class ChirpSession:
    """The Chirp session: request loop, verb table and reply encoding,
    written once against the host contract (:mod:`repro.protocols`)."""

    protocol = "chirp"

    def serve(self) -> None:
        while self.serve_one():
            pass

    def serve_one(self) -> bool:
        """One Chirp request: read a line, decode, dispatch.  False at
        EOF/quit."""
        try:
            line = read_line(self.rfile)
        except ProtocolError:
            return False
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            self._respond(Response(Status.BAD_REQUEST, message=str(exc)))
            return True
        with self.request_scope(request.rtype.value, request.path):
            return self._handle(request)

    def _handle(self, request: Request) -> bool:
        request.user = self.user
        if request.rtype is RequestType.QUIT:
            write_line(self.wfile, "ok")
            return False
        verb = self._VERBS.get(request.rtype)
        try:
            if verb is None:
                self._reply(request, self.files.execute(request))
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
        write_line(self.wfile, encode_response(response, args), flush=False)
        if payload is not None:
            self.wfile.write(payload)
        if flush:
            self.wfile.flush()

    def _authenticate(self, request: Request) -> None:
        mechanism = request.params.get("mechanism", "gsi")
        if mechanism != "gsi" or self.gsi is None:
            self._respond(Response(Status.BAD_REQUEST,
                                   message="only gsi supported"))
            return
        write_line(self.wfile, "ok")
        auth_span = _spans.maybe_span("auth", mechanism=mechanism)
        try:
            cert = base64.b64decode(read_line(self.rfile))
            challenge = self.gsi.challenge()
            write_line(self.wfile, base64.b64encode(challenge).decode())
            response = base64.b64decode(read_line(self.rfile))
            subject = self.gsi.accept(cert, challenge, response)
        except (AuthError, ProtocolError, ValueError) as exc:
            auth_span.end(status="error")
            self.mark_request_error()
            self._respond(Response(Status.NOT_AUTHENTICATED,
                                   message=str(exc)))
            return
        self.user = self.map_subject(subject)
        auth_span.set(user=self.user).end()
        self._respond(Response(Status.OK), [self.user])

    def _get(self, request: Request) -> None:
        # Approve (permissions + existence) before promising data.
        ticket = self.files.approve_get(self.user, request.path)
        self._respond(Response(Status.OK), [str(ticket.size)], flush=False)
        self.send(ticket)

    def _put(self, request: Request) -> None:
        # Approve before telling the client to send.
        ticket = self.files.approve_put(self.user, request.path,
                                        request.length)
        write_line(self.wfile, "ok")
        self.receive(ticket, length=request.length)
        write_line(self.wfile, "ok")

    def _block_read(self, request: Request) -> None:
        """Chirp ``read <path> <offset> <len>``: partial-file read."""
        ticket = self.files.approve_read(
            self.user, request.path, request.offset, request.length)
        self._respond(Response(Status.OK), [str(ticket.size)], flush=False)
        self.send(ticket)

    def _block_write(self, request: Request) -> None:
        """Chirp ``write <path> <offset> <len>``: partial-file write."""
        ticket = self.files.approve_write(
            self.user, request.path, request.offset, request.length)
        write_line(self.wfile, "ok")
        moved, crc = self.receive(ticket, length=request.length)
        # Ack with the CRC32 folded into the receive loop: the client
        # verifies its upload end to end with zero extra read passes.
        write_line(self.wfile, f"ok {'-' if crc is None else crc} {moved}")

    def _checksum(self, request: Request) -> None:
        """Chirp ``checksum <path>``: CRC32 over the file's contents.

        Runs the contents through the same read-approval gate as a GET
        (permissions and existence checked first), so a replica manager
        can verify a third-party copy end to end without pulling the
        bytes over the wide area.  Replies ``ok <crc32> <size>``.
        """
        ticket = self.files.approve_get(self.user, request.path)

        def fold(ticket):
            crc, nbytes = fastio.stream_crc32(ticket.stream, ticket.size)
            return nbytes, crc

        _, crc = self.send(ticket, mover=fold)
        self._respond(Response(Status.OK), [str(crc), str(ticket.size)])

    def _reply(self, request: Request, response: Response) -> None:
        if not response.ok:
            self.mark_request_error()
            self._respond(response)
        elif request.rtype is RequestType.STAT:
            self._respond(response, encode_stat(response.data))
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
    #: operation ``files.execute`` runs synchronously.
    _VERBS = {
        RequestType.AUTH: _authenticate,
        RequestType.GET: _get,
        RequestType.PUT: _put,
        RequestType.READ: _block_read,
        RequestType.WRITE: _block_write,
        RequestType.CHECKSUM: _checksum,
    }
