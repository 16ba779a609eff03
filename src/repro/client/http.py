"""HTTP client (GET/PUT/HEAD/DELETE with keep-alive).

Stateless protocol, so retries are simple: any transient wire failure
reconnects and replays the request under the retry policy.  Non-2xx
responses raise :class:`HttpError`, a fatal (non-retried) error.
"""

from __future__ import annotations

from typing import Any

from repro.client.base import SessionClient
from repro.client.errors import FatalError
from repro.protocols import http
from repro.protocols.common import (
    Request,
    RequestType,
    Status,
    read_exact,
)


class HttpError(FatalError):
    """Non-2xx response."""

    def __init__(self, status: Status, message: str = ""):
        super().__init__(f"{status.value}: {message}" if message else status.value)
        self.status = status


class HttpClient(SessionClient):
    """A keep-alive HTTP session against one server."""

    protocol = "http"

    def _check(self, resp) -> None:
        if not resp.ok:
            raise HttpError(resp.status, resp.message)

    def _send(self, request: Request, flush: bool = True) -> None:
        """Inject the trace context and write one request head
        (``flush=False``: the body's flush carries it)."""
        self._inject_trace(request)
        http.write_request(self.wfile, request, flush=flush)

    def get(self, path: str) -> bytes:
        """GET a whole file."""

        def do() -> bytes:
            self._send(Request(rtype=RequestType.GET, path=path))
            resp, headers = http.read_response_head(self.rfile)
            self._check(resp)
            return read_exact(self.rfile,
                              int(headers.get("content-length", "0")))

        return self._op(f"get {path}", do)

    def put(self, path: str, data: bytes) -> None:
        """PUT a whole file (idempotent: a replay overwrites)."""

        def do() -> None:
            self._send(Request(rtype=RequestType.PUT, path=path,
                               length=len(data)), flush=False)
            self.wfile.write(data)
            self.wfile.flush()
            resp, headers = http.read_response_head(self.rfile)
            self._check(resp)
            read_exact(self.rfile, int(headers.get("content-length", "0")))

        self._op(f"put {path}", do)

    def head(self, path: str) -> dict[str, Any]:
        """HEAD: size without the body."""

        def do() -> dict[str, Any]:
            self._send(Request(rtype=RequestType.STAT, path=path))
            resp, headers = http.read_response_head(self.rfile)
            self._check(resp)
            return {"size": int(headers.get("content-length", "0"))}

        return self._op(f"head {path}", do)

    def delete(self, path: str) -> None:
        """DELETE a file."""

        def do() -> None:
            self._send(Request(rtype=RequestType.DELETE, path=path))
            resp, headers = http.read_response_head(self.rfile)
            self._check(resp)
            read_exact(self.rfile, int(headers.get("content-length", "0")))

        self._op(f"delete {path}", do)
