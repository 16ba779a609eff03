"""Session plumbing shared by every protocol client.

Each client is a *session* over one TCP connection: dial, optional
handshake (login / GSI / mount), then request-response operations.
:class:`SessionClient` centralises the parts PR 2 hardened:

* **dialling** through the optional ``faults=`` hook so chaos tests can
  refuse or sabotage connections deterministically;
* **typed errors** -- no public operation leaks a bare ``OSError``;
* **retry with reconnect** -- a transient failure mid-operation tears
  the connection down, re-dials, replays the session handshake
  (:meth:`_setup_session`), and retries the operation under the
  client's :class:`~repro.client.retry.RetryPolicy`, respecting
  per-operation idempotency.

Subclasses implement :meth:`_setup_session` for their handshake and
wrap public operations in :meth:`_op`.
"""

from __future__ import annotations

import socket
from typing import BinaryIO, Callable, Optional, TypeVar

from repro.client.errors import FatalError, TransientError, is_transient
from repro.client.retry import RetryPolicy
from repro.faults import FaultPlan
from repro.obs.spans import current_trace_context
from repro.protocols.common import tuned

T = TypeVar("T")

__all__ = ["SessionClient"]


class SessionClient:
    """Base class: one retryable TCP session against one server."""

    protocol = "base"

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self.sock = None
        self.rfile: BinaryIO | None = None
        self.wfile: BinaryIO | None = None
        self._closed = False
        # The initial connect runs under the retry policy too:
        # dialling plus the session handshake is idempotent, so a
        # refused dial or a reset mid-banner is retried like any
        # other transient failure.
        self._op("connect", lambda: None)

    # -- connection lifecycle ----------------------------------------------
    def _dial(self, host: str, port: int, timeout: float | None = None):
        """Open one (possibly fault-wrapped) TCP connection."""
        timeout = self.timeout if timeout is None else timeout

        def dial():
            return tuned(
                socket.create_connection((host, port), timeout=timeout))

        if self.faults is not None:
            return self.faults.wrap_connect(
                dial, label=f"{self.protocol}-client")
        return dial()

    def _ensure_connected(self) -> None:
        if self.sock is not None:
            return
        if self._closed:
            raise FatalError(f"{self.protocol} client is closed")
        self.sock = self._dial(self.host, self.port)
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")
        try:
            self._setup_session()
        except BaseException:
            self._teardown()
            raise

    def _setup_session(self) -> None:
        """Per-protocol handshake after (re)connect; default: none."""

    def _teardown(self) -> None:
        """Drop the connection quietly (before a reconnect or close)."""
        for stream in (self.wfile, self.rfile):
            if stream is None:
                continue
            try:
                stream.close()
            except (OSError, ValueError):
                pass
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
        self.sock = self.rfile = self.wfile = None

    def _goodbye(self) -> None:
        """Best-effort protocol farewell before close; default: none."""

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.sock is not None:
            try:
                self._goodbye()
            except Exception:  # noqa: BLE001 - farewell is best-effort
                pass
            self._teardown()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _inject_trace(request) -> None:
        """Stamp the thread's active span onto an outgoing request.

        Protocol encoders forward ``params["trace"]`` as the wire
        trace-context field (Chirp tagged argument, HTTP header); when
        nothing is being traced this is one thread-local read and no
        wire bytes at all.
        """
        token = current_trace_context()
        if token:
            request.params["trace"] = token

    # -- retryable operations ----------------------------------------------
    def _op(self, label: str, fn: Callable[[], T], *,
            idempotent: bool = True) -> T:
        """Run one protocol operation under the retry policy.

        Reconnects (with session handshake) before each attempt if the
        previous one tore the connection down.
        """

        def attempt() -> T:
            self._ensure_connected()
            return fn()

        return self.retry.call(
            attempt,
            idempotent=idempotent,
            reset=self._teardown,
            label=f"{self.protocol} {label}",
        )
