"""The live socket and thread runtime every server part shares.

:func:`tuned` gives each stream socket its options at birth,
:class:`Acceptor` is the one accept loop and :class:`Periodic` the one
periodic loop (``scripts/lint_datapath.py`` rules 3, 4 and 6).  The
request interface the protocol sessions speak is
:mod:`repro.protocols.common`, which the simulated substrate shares;
this module is what only a live process needs.
"""

from __future__ import annotations

import selectors
import socket
import threading
from typing import Any, Callable

from repro.obs.log import get_logger

logger = get_logger(__name__)


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


class Periodic:
    """The periodic loop: ``fn()`` every ``interval`` seconds on a thread
    named ``name``, from :meth:`start` until :meth:`stop`.

    ``interval <= 0`` means no thread at all (the owner calls ``fn`` by
    hand), so a zero period can never become a hot spin.  :meth:`start`
    reads ``interval``; a running loop keeps the period it started
    with.  The thread sleeps in ``Event.wait``, which :meth:`stop` sets,
    so stopping never waits out a period; an exception from ``fn`` is
    logged and the loop goes on.  A second :meth:`start`, and a
    :meth:`stop` of a loop that is not running, are no-ops.
    """

    def __init__(self, name: str, interval: float, fn: Callable[[], Any]):
        self.interval = float(interval)
        self._name = name
        self._fn = fn
        self._thread: threading.Thread | None = None
        self._wake = threading.Event()

    def start(self):
        if self._thread is None and self.interval > 0:
            self._wake.clear()
            self._thread = threading.Thread(
                target=self._run, args=(self.interval,),
                name=self._name, daemon=True)
            self._thread.start()
        return self

    def stop(self, grace: float | None = None) -> None:
        """Wake the thread and join it.  ``grace`` is the server-part
        signature (``NestServer._parts``); a loop has nothing to drain."""
        if self._thread is not None:
            self._wake.set()
            self._thread.join()
            self._thread = None

    def _run(self, interval: float) -> None:
        while not self._wake.wait(interval):
            try:
                self._fn()
            except Exception:  # noqa: BLE001 - the loop must survive
                logger.exception("%s: periodic call failed; continuing",
                                 self._name)
