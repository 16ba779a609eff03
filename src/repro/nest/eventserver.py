"""Event-driven connection serving: the live "events" architecture.

The paper's Fig. 5 argument needs a real alternative to
thread-per-connection, and this is it: one selector thread *parks*
idle connections -- holding no thread, no stack, nothing but an epoll
registration -- and a small bounded worker pool serves requests as
they become readable.  The resource bound is therefore
``workers`` threads regardless of how many thousands of
connections sit connected, which is exactly the regime (many mostly
idle Grid clients) where threads collapse and events win.

The loop is deliberately protocol-agnostic: it drives any handler
exposing ``fileno`` / ``step`` (serve exactly one request, return
whether to re-park) / ``finish`` / ``force_close``.  All protocol
knowledge stays in :mod:`repro.nest.handlers`; handlers built with
``unbuffered=True`` keep pipelined request bytes in the kernel socket
buffer, so a parked connection with work pending always re-triggers
the selector.
"""

from __future__ import annotations

import os
import selectors
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.obs.log import get_logger

logger = get_logger(__name__)


class EventLoop:
    """Selector-driven connection server shared by every listener.

    The acceptor hands connections over with :meth:`adopt`; the loop
    registers the socket for readability and parks it.  When bytes
    arrive, the fd is unregistered (so no second dispatch can fire for
    the same connection) and ``handler.step()`` runs on the pool; the
    connection is then re-parked or retired.

    Shutdown is two-phase, mirroring the threaded drain:
    :meth:`begin_shutdown` synchronously retires every *idle* (parked)
    connection and stops the loop thread; dispatches already running
    keep going until :meth:`finish_shutdown` force-closes them.
    """

    def __init__(self, workers: int = 8, name: str = "nest",
                 registry=None):
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, workers),
            thread_name_prefix=f"{name}-event")
        self._lock = threading.Lock()
        #: adopted or re-parked handlers awaiting selector registration
        #: (only the loop thread touches the selector).
        self._park_requests: deque = deque()
        self._parked: dict[int, object] = {}  #: fd -> parked handler
        self._busy: set = set()  #: handlers currently on the pool
        self._stopping = False
        self._closed = False
        #: lifetime counters (monotonic; surfaced as gauges).
        self.adopted = 0
        self.dispatches = 0
        self.retired = 0
        self._thread = threading.Thread(
            target=self._run, name=f"{name}-eventloop", daemon=True)
        self._thread.start()
        if registry is not None:
            registry.gauge_callback(
                "nest_event_connections", self.live,
                "Connections owned by the event loop (parked + busy).")
            registry.gauge_callback(
                "nest_event_dispatches_busy", lambda: len(self._busy),
                "Event-loop request dispatches currently executing.")
            registry.gauge_callback(
                "nest_event_dispatches_total", lambda: self.dispatches,
                "Requests dispatched by the event loop, ever.")

    # ------------------------------------------------------------------
    # ownership
    # ------------------------------------------------------------------
    def adopt(self, handler) -> bool:
        """Take ownership of an accepted connection.

        Returns False when the loop is shutting down -- the caller
        still owns the connection and must close it.
        """
        with self._lock:
            if self._stopping:
                return False
            self.adopted += 1
            self._park_requests.append(handler)
        self._wake()
        return True

    def live(self) -> int:
        """Connections this loop owns right now (parked + busy)."""
        with self._lock:
            return (len(self._parked) + len(self._busy)
                    + len(self._park_requests))

    def busy_count(self) -> int:
        """Dispatches currently executing on the worker pool."""
        with self._lock:
            return len(self._busy)

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"\0")
        except OSError:
            pass

    # ------------------------------------------------------------------
    # loop thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._lock:
                if self._stopping:
                    break
                requests = list(self._park_requests)
                self._park_requests.clear()
            for handler in requests:
                self._park(handler)
            try:
                # No timeout: adopt, re-park and shutdown each write
                # the wake pipe, so an idle loop never wakes.
                events = self._selector.select()
            except OSError:
                break
            with self._lock:
                stopping = self._stopping
            if stopping:
                # Leave readable handlers parked: the idle drain below
                # retires them, same as the threaded path's idle close.
                break
            for key, _mask in events:
                if key.data is None:
                    self._drain_wake_pipe()
                    continue
                self._dispatch_ready(key)
        self._drain_idle()

    def _park(self, handler) -> None:
        try:
            fd = handler.fileno()
            self._selector.register(fd, selectors.EVENT_READ, handler)
        except (OSError, ValueError, KeyError):
            # Closed while waiting to park (client reset, drain).
            self._retire(handler)
            return
        with self._lock:
            self._parked[fd] = handler

    def _dispatch_ready(self, key) -> None:
        handler = key.data
        try:
            self._selector.unregister(key.fd)
        except (OSError, ValueError, KeyError):
            pass
        with self._lock:
            self._parked.pop(key.fd, None)
            self._busy.add(handler)
        self.dispatches += 1
        self._pool.submit(self._dispatch, handler)

    def _drain_wake_pipe(self) -> None:
        try:
            os.read(self._wake_r, 4096)
        except (BlockingIOError, OSError):
            pass

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _dispatch(self, handler) -> None:
        keep = False
        try:
            keep = handler.step()
        except Exception:  # noqa: BLE001 - a broken handler must not
            # kill the worker; step() already absorbs wire errors, so
            # anything here is a handler bug worth a loud log line.
            logger.exception("event dispatch failed")
        with self._lock:
            self._busy.discard(handler)
            repark = keep and not self._stopping
            if repark:
                self._park_requests.append(handler)
        if repark:
            self._wake()
        else:
            self._retire(handler)

    def _retire(self, handler) -> None:
        self.retired += 1
        try:
            handler.finish()
        except Exception:  # noqa: BLE001 - teardown is best-effort
            logger.warning("event handler teardown failed", exc_info=True)

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def begin_shutdown(self) -> None:
        """Drain step 1: refuse new adoptions/re-parks and retire every
        idle connection.  Synchronous -- when this returns, only busy
        dispatches remain (poll :meth:`busy_count` for the drain)."""
        with self._lock:
            self._stopping = True
        self._wake()
        self._thread.join(timeout=5)

    def finish_shutdown(self, timeout: float = 2.0) -> int:
        """Drain step 2: force-close still-busy connections, join the
        pool, release the selector.  Returns how many connections had
        to be forced."""
        with self._lock:
            if self._closed:
                return 0
            stragglers = list(self._busy)
        for handler in stragglers:
            try:
                handler.force_close()
            except Exception:  # noqa: BLE001 - already going down
                pass
        deadline = time.monotonic() + max(timeout, 0.0)
        while time.monotonic() < deadline:
            with self._lock:
                if not self._busy:
                    break
            time.sleep(0.005)
        self._pool.shutdown(wait=True)
        with self._lock:
            self._closed = True
            leftovers = (list(self._parked.values())
                         + list(self._park_requests))
            self._parked.clear()
            self._park_requests.clear()
        for handler in leftovers:  # loop thread died without draining
            self._retire(handler)
        try:
            self._selector.close()
        except OSError:
            pass
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass
        return len(stragglers)

    def _drain_idle(self) -> None:
        """Loop-thread exit path: retire everything still parked."""
        with self._lock:
            idle = list(self._parked.items())
            queued = list(self._park_requests)
            self._parked.clear()
            self._park_requests.clear()
        for fd, handler in idle:
            try:
                self._selector.unregister(fd)
            except (OSError, ValueError, KeyError):
                pass
            self._retire(handler)
        for handler in queued:
            self._retire(handler)
