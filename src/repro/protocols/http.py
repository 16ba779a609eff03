"""HTTP/1.0 subset (RFC 1945 / 2068 lineage).

NeST serves GET, PUT, HEAD, and DELETE with ``Content-Length`` framing
and connection-per-request or keep-alive semantics.  HTTP clients are
*file-based*: one request retrieves a whole file -- the property that
makes byte-based stride accounting necessary (paper, section 4.2).

Only anonymous access is allowed over HTTP (paper, section 3: GSI is
available only for Chirp and GridFTP).

**Trace context.**  Clients may send an ``X-Repro-Trace:
<trace_id>:<span_id>`` header; a server that understands it adopts the
caller's span as the request parent, and any other server ignores the
unknown header -- both directions stay wire-compatible.
"""

from __future__ import annotations

from typing import BinaryIO

from repro.protocols.common import (
    ProtocolError,
    Request,
    RequestType,
    Response,
    Status,
    StorageError,
    read_line,
)

#: Default TCP port for HTTP in this reproduction.
DEFAULT_PORT = 9080

#: Header carrying the distributed trace context.
TRACE_HEADER = "X-Repro-Trace"

_STATUS_LINE = {
    Status.OK: (200, "OK"),
    Status.NOT_FOUND: (404, "Not Found"),
    Status.DENIED: (403, "Forbidden"),
    Status.NOT_AUTHENTICATED: (401, "Unauthorized"),
    Status.EXISTS: (409, "Conflict"),
    Status.NO_SPACE: (507, "Insufficient Storage"),
    Status.BAD_REQUEST: (400, "Bad Request"),
    Status.NOT_DIR: (400, "Bad Request"),
    Status.IS_DIR: (400, "Bad Request"),
    Status.NOT_EMPTY: (409, "Conflict"),
    Status.SERVER_ERROR: (500, "Internal Server Error"),
}

_CODE_TO_STATUS = {
    200: Status.OK,
    201: Status.OK,
    204: Status.OK,
    400: Status.BAD_REQUEST,
    401: Status.NOT_AUTHENTICATED,
    403: Status.DENIED,
    404: Status.NOT_FOUND,
    409: Status.EXISTS,
    500: Status.SERVER_ERROR,
    507: Status.NO_SPACE,
}


def read_request(stream: BinaryIO) -> Request | None:
    """Parse one HTTP request head; returns None on clean EOF.

    The body (for PUT) is *not* consumed: its length is recorded in
    ``request.length`` and the transfer manager streams it.
    """
    raw = stream.readline(65538)
    if not raw:
        return None
    line = raw.rstrip(b"\r\n").decode("latin-1")
    parts = line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(f"malformed request line {line!r}")
    method, target, _version = parts
    headers = read_headers(stream)
    method = method.upper()
    if method in ("GET", "HEAD"):
        rtype = RequestType.GET if method == "GET" else RequestType.STAT
        req = Request(rtype=rtype, path=target, protocol="http")
    elif method == "PUT":
        try:
            length = int(headers.get("content-length", ""))
        except ValueError:
            raise ProtocolError("PUT without valid Content-Length") from None
        req = Request(rtype=RequestType.PUT, path=target, length=length,
                      protocol="http")
    elif method == "DELETE":
        req = Request(rtype=RequestType.DELETE, path=target, protocol="http")
    else:
        raise ProtocolError(f"unsupported method {method!r}")
    req.params["headers"] = headers
    req.params["keep_alive"] = headers.get("connection", "").lower() == "keep-alive"
    return req


def read_headers(stream: BinaryIO) -> dict[str, str]:
    """Read header lines until the blank separator; keys lower-cased."""
    headers: dict[str, str] = {}
    while True:
        line = read_line(stream)
        if not line:
            return headers
        if ":" not in line:
            raise ProtocolError(f"malformed header {line!r}")
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()


def write_request(stream: BinaryIO, req: Request,
                  flush: bool = True) -> None:
    """Serialize a request head (client side); ``flush=False`` when a
    body follows (see :func:`repro.protocols.common.write_line`)."""
    if req.rtype is RequestType.GET:
        method = "GET"
    elif req.rtype is RequestType.STAT:
        method = "HEAD"
    elif req.rtype is RequestType.PUT:
        method = "PUT"
    elif req.rtype is RequestType.DELETE:
        method = "DELETE"
    else:
        raise ProtocolError(f"http cannot carry request type {req.rtype}")
    lines = [f"{method} {req.path} HTTP/1.0", "Connection: keep-alive"]
    if req.rtype is RequestType.PUT:
        lines.append(f"Content-Length: {req.length}")
    trace = req.params.get("trace")
    if trace:
        lines.append(f"{TRACE_HEADER}: {trace}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    stream.write(head.encode("latin-1"))
    if flush:
        stream.flush()


def write_response_head(
    stream: BinaryIO, resp: Response, content_length: int = 0,
    keep_alive: bool = True, flush: bool = True,
) -> None:
    """Serialize a response status line + headers (server side);
    ``flush=False`` when a body follows."""
    code, reason = _STATUS_LINE.get(resp.status, (500, "Internal Server Error"))
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.0 {code} {reason}\r\n"
        f"Server: NeST/0.9\r\n"
        f"Content-Length: {content_length}\r\n"
        f"Connection: {connection}\r\n\r\n"
    )
    stream.write(head.encode("latin-1"))
    if flush:
        stream.flush()


def read_response_head(stream: BinaryIO) -> tuple[Response, dict[str, str]]:
    """Parse a response status line + headers (client side)."""
    line = read_line(stream)
    parts = line.split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ProtocolError(f"malformed status line {line!r}")
    try:
        code = int(parts[1])
    except ValueError:
        raise ProtocolError(f"malformed status code in {line!r}") from None
    headers = read_headers(stream)
    status = _CODE_TO_STATUS.get(code, Status.SERVER_ERROR)
    return Response(status, message=parts[2] if len(parts) > 2 else ""), headers


# ---------------------------------------------------------------------------
# the server side of a connection
# ---------------------------------------------------------------------------


class HttpSession:
    """The HTTP session: request loop, method table and status
    mapping, written once against
    the host contract (:mod:`repro.protocols`).  Anonymous only."""

    protocol = "http"

    def serve(self) -> None:
        while self.serve_one():
            pass

    def serve_one(self) -> bool:
        """One HTTP request/response exchange.  False when the
        connection should close."""
        try:
            request = read_request(self.rfile)
        except ProtocolError:
            return False
        if request is None:
            return False
        with self.request_scope(request.rtype.value, request.path):
            return self._handle(request)

    def _handle(self, request: Request) -> bool:
        request.user = self.user
        keep_alive = bool(request.params.get("keep_alive", False))
        try:
            self._serve(request, keep_alive)
        except StorageError as exc:
            self.mark_request_error()
            write_response_head(
                self.wfile, Response(exc.status, message=exc.message),
                keep_alive=keep_alive)
        return keep_alive

    def _serve(self, request: Request, keep_alive: bool) -> None:
        files = self.files
        if request.rtype is RequestType.GET:
            # Approve before the status line goes out, so a denial is a
            # clean 403 rather than a corrupted body.
            ticket = files.approve_get(self.user, request.path)
            write_response_head(self.wfile, Response(Status.OK),
                                content_length=ticket.size,
                                keep_alive=keep_alive, flush=False)
            self.send(ticket)
        elif request.rtype is RequestType.STAT:  # HEAD
            size = files.stat(self.user, request.path)["size"]
            write_response_head(self.wfile, Response(Status.OK),
                                content_length=size, keep_alive=keep_alive)
        elif request.rtype is RequestType.PUT:
            if request.length < 0:
                # The peer's number: further down it would read "to EOF".
                raise StorageError(Status.BAD_REQUEST,
                                   "negative Content-Length")
            ticket = files.approve_put(self.user, request.path,
                                       request.length)
            self.receive(ticket, length=request.length)
            write_response_head(self.wfile, Response(Status.OK),
                                keep_alive=keep_alive)
        elif request.rtype is RequestType.DELETE:
            files.delete(self.user, request.path)
            write_response_head(self.wfile, Response(Status.OK),
                                keep_alive=keep_alive)
        else:
            write_response_head(self.wfile, Response(Status.BAD_REQUEST),
                                keep_alive=keep_alive)
