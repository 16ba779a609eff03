"""Deterministic fault injection for the live stack.

A :class:`FaultPlan` is a seedable, thread-safe schedule of connection
faults.  Servers (:class:`repro.nest.server.NestServer`,
:class:`repro.jbos.base.NativeServer`) and every protocol client accept
an optional ``faults=`` hook; when present, each accepted or dialled
socket is wrapped so the plan can inject

* **resets** -- the connection dies with ``ECONNRESET`` mid-transfer;
* **short reads** -- the stream ends early (the peer sees a clean EOF
  with bytes still owed);
* **stalls** -- I/O freezes for a configured interval, long enough to
  trip the peer's socket timeout or a retry deadline;
* **accept failures** -- the server tears a connection down immediately
  after ``accept()``;
* **connect failures** -- the client's dial fails outright.

Faults are matched per *connection ordinal* (1st, 2nd, ... socket the
plan sees) and per byte threshold within a connection, so a plan like
``FaultPlan.reset_once()`` is fully deterministic: the first connection
resets after N bytes, every later connection is clean.  That is the
substrate the retry layer (:mod:`repro.client.retry`) is tested
against, and the seed only matters for rules with ``probability < 1``.

The plan records every fault it fires in :attr:`FaultPlan.events` so
tests can assert not just the outcome but that the intended fault
actually happened.
"""

from __future__ import annotations

import itertools
import random
import socket as _socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.obs import spans as _spans
from repro.obs.metrics import global_registry

__all__ = [
    "FaultAction",
    "FaultEvent",
    "FaultRule",
    "FaultPlan",
    "FaultInjected",
    "FaultySocket",
    "FaultyStream",
]

# Fault actions understood by :class:`FaultRule`.
RESET = "reset"
SHORT = "short"
STALL = "stall"
DROP = "drop"  # accept/connect-time: kill the connection outright


class FaultAction:
    """Namespace of action names (strings, so plans serialise trivially)."""

    RESET = RESET
    SHORT = SHORT
    STALL = STALL
    DROP = DROP


def _observe_fault(op: str, action: str) -> None:
    """Publish one fired fault: a process-wide counter (fault plans
    have no server context) plus an annotation on whatever request
    span the victim I/O is running under."""
    global_registry().counter(
        "repro_faults_injected_total",
        "Faults fired by fault plans, by I/O op and action.",
        labelnames=("op", "action"),
    ).inc(op=op, action=action)
    _spans.annotate("faults", 1)


class FaultInjected(ConnectionResetError):
    """A reset injected by a :class:`FaultPlan` (subclass of the real
    thing so victim code cannot tell it from a genuine peer reset)."""


@dataclass
class FaultEvent:
    """One fault the plan actually fired (for test assertions)."""

    conn: int  #: connection ordinal (1-based)
    op: str  #: "accept", "connect", "read", or "write"
    action: str  #: RESET / SHORT / STALL / DROP
    at_bytes: int  #: bytes moved in that direction before the fault


@dataclass
class FaultRule:
    """One deterministic fault trigger.

    ``op`` selects the I/O direction the rule watches: ``"read"`` and
    ``"write"`` fire inside data movement, ``"accept"`` fires as the
    server takes the connection, ``"connect"`` as the client dials.
    ``connections`` names the connection ordinals (1-based) the rule
    applies to -- an iterable, or ``None`` for "every connection".
    ``after_bytes`` delays a read/write fault until that many bytes
    have moved in the watched direction on that connection.  ``times``
    bounds how often the rule fires across the whole plan (``None`` =
    unlimited, at most once per connection either way).
    ``probability`` gates each candidate firing through the plan's
    seeded RNG, so anything below 1.0 is still reproducible per seed.
    """

    op: str
    action: str
    connections: Optional[frozenset[int]] = None
    after_bytes: int = 0
    times: Optional[int] = 1
    stall_seconds: float = 0.5
    probability: float = 1.0
    fired: int = field(default=0, compare=False)
    #: connections this rule already fired on (one fault per conn).
    _done_conns: set[int] = field(default_factory=set, compare=False)

    def __post_init__(self) -> None:
        if self.op not in ("read", "write", "accept", "connect"):
            raise ValueError(f"unknown fault op {self.op!r}")
        if self.action not in (RESET, SHORT, STALL, DROP):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.connections is not None:
            self.connections = frozenset(self.connections)

    def wants(self, conn: int, op: str, moved: int) -> bool:
        """Would this rule fire for this conn/op/byte-count? (no RNG)"""
        if op != self.op:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        if conn in self._done_conns:
            return False
        if self.connections is not None and conn not in self.connections:
            return False
        return moved >= self.after_bytes

    def mark_fired(self, conn: int) -> None:
        self.fired += 1
        self._done_conns.add(conn)


class FaultPlan:
    """A seeded, shareable schedule of injected connection faults."""

    def __init__(self, rules: Iterable[FaultRule] = (), seed: int = 0,
                 sleep: Callable[[float], None] | None = None):
        self.rules: list[FaultRule] = list(rules)
        self.seed = seed
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._conn_ids = itertools.count(1)
        self.events: list[FaultEvent] = []

    # -- convenience constructors -----------------------------------------
    @classmethod
    def clean(cls) -> "FaultPlan":
        """A plan that never injects anything (useful as a default)."""
        return cls()

    @classmethod
    def reset_once(cls, after_bytes: int = 0, connection: int = 1,
                   op: str = "read", seed: int = 0) -> "FaultPlan":
        """Reset exactly one connection (the ``connection``-th one the
        plan sees), leaving retries on fresh connections clean."""
        return cls([FaultRule(op=op, action=RESET,
                              connections=frozenset({connection}),
                              after_bytes=after_bytes, times=1)], seed=seed)

    @classmethod
    def reset_each_first_attempt(cls, count: int = 1, after_bytes: int = 0,
                                 seed: int = 0) -> "FaultPlan":
        """Reset the first ``count`` connections once each -- the
        "reset-once-per-connection" plan of the acceptance criteria:
        each initial attempt dies, each retry (a later connection)
        succeeds."""
        conns = frozenset(range(1, count + 1))
        return cls([
            FaultRule(op="read", action=RESET, connections=conns,
                      after_bytes=after_bytes, times=count),
            FaultRule(op="write", action=RESET, connections=conns,
                      after_bytes=after_bytes, times=count),
        ], seed=seed)

    @classmethod
    def short_read(cls, after_bytes: int, connection: int | None = 1,
                   seed: int = 0) -> "FaultPlan":
        """End the stream early after ``after_bytes`` (a short read for
        whoever is receiving)."""
        conns = frozenset({connection}) if connection is not None else None
        return cls([FaultRule(op="write", action=SHORT, connections=conns,
                              after_bytes=after_bytes, times=1)], seed=seed)

    @classmethod
    def stall(cls, seconds: float, op: str = "write",
              connections: Iterable[int] | None = None,
              times: Optional[int] = None, seed: int = 0) -> "FaultPlan":
        """Freeze I/O for ``seconds`` on matching connections."""
        conns = frozenset(connections) if connections is not None else None
        return cls([FaultRule(op=op, action=STALL, connections=conns,
                              stall_seconds=seconds, times=times)], seed=seed)

    @classmethod
    def fail_accept(cls, count: int = 1, seed: int = 0) -> "FaultPlan":
        """Kill the first ``count`` accepted connections immediately."""
        return cls([FaultRule(op="accept", action=DROP,
                              connections=frozenset(range(1, count + 1)),
                              times=count)], seed=seed)

    @classmethod
    def fail_connect(cls, count: int = 1, seed: int = 0) -> "FaultPlan":
        """Refuse the first ``count`` client dials."""
        return cls([FaultRule(op="connect", action=DROP,
                              connections=frozenset(range(1, count + 1)),
                              times=count)], seed=seed)

    # -- wiring ------------------------------------------------------------
    #
    # Every connection attempt the plan sees -- an accept, a dial, or a
    # bare wrap -- consumes exactly one ordinal, so rules addressed to
    # "connection 1" mean the first attempt regardless of which side
    # created it or whether it survived its accept/connect gate.

    def wrap_socket(self, sock, label: str = "") -> "FaultySocket":
        """Wrap an established socket (no accept/connect gating); all
        I/O through the wrapper is subject to the read/write rules."""
        return FaultySocket(sock, self, self._next_conn(), label=label)

    def wrap_accept(self, sock, label: str = "") -> "FaultySocket | None":
        """Gate + wrap a just-accepted socket.  Returns None when an
        accept fault fires -- the socket is already closed and the
        caller must not hand it to a handler."""
        conn = self._next_conn()
        if self._fire_conn_event(conn, "accept"):
            try:
                sock.close()
            except OSError:
                pass
            return None
        return FaultySocket(sock, self, conn, label=label)

    def wrap_connect(self, dial: Callable[[], Any], label: str = "") -> "FaultySocket":
        """Gate + dial + wrap an outbound connection.  ``dial`` is only
        invoked when no connect fault fires; otherwise
        :exc:`FaultInjected` is raised (a ``ConnectionResetError``)."""
        conn = self._next_conn()
        if self._fire_conn_event(conn, "connect"):
            raise FaultInjected(f"connect refused by fault plan (conn {conn})")
        return FaultySocket(dial(), self, conn, label=label)

    def _next_conn(self) -> int:
        with self._lock:
            return next(self._conn_ids)

    def _fire_conn_event(self, conn: int, op: str) -> bool:
        with self._lock:
            for rule in self.rules:
                if rule.wants(conn, op, 0) and self._roll(rule):
                    rule.mark_fired(conn)
                    self.events.append(FaultEvent(conn, op, rule.action, 0))
                    _observe_fault(op, rule.action)
                    return True
        return False

    def _roll(self, rule: FaultRule) -> bool:
        return rule.probability >= 1.0 or self._rng.random() < rule.probability

    # -- wrapper callbacks --------------------------------------------------
    def before_io(self, conn: int, op: str, moved: int,
                  wait: Callable[[float], Any] = time.sleep) -> str | None:
        """The wrapper asks, before each read/write, whether a fault
        fires.  Returns the action (handled by the wrapper) or None.
        Stalls sleep *here* (outside the lock) and then let the I/O
        proceed -- through the plan's injected ``sleep`` if it has one,
        else through ``wait``, which the wrapper can cut short."""
        with self._lock:
            for rule in self.rules:
                if rule.wants(conn, op, moved) and self._roll(rule):
                    rule.mark_fired(conn)
                    self.events.append(FaultEvent(conn, op, rule.action, moved))
                    action = rule.action
                    stall = rule.stall_seconds
                    break
            else:
                return None
        _observe_fault(op, action)
        if action == STALL:
            (self._sleep or wait)(stall)
            return None
        return action

    # -- introspection -----------------------------------------------------
    def fired(self, action: str | None = None) -> int:
        """How many faults fired (optionally of one action)."""
        with self._lock:
            if action is None:
                return len(self.events)
            return sum(1 for e in self.events if e.action == action)

    def describe(self) -> dict[str, Any]:
        """A JSON-able summary (for logs and failure reports)."""
        with self._lock:
            return {
                "seed": self.seed,
                "rules": [
                    {"op": r.op, "action": r.action,
                     "connections": sorted(r.connections) if r.connections else None,
                     "after_bytes": r.after_bytes, "times": r.times,
                     "fired": r.fired}
                    for r in self.rules
                ],
                "events": len(self.events),
            }


#: Fault-accounting granularity for stream writes.  Large writes are
#: guarded and accounted in slices of this size so an ``after_bytes``
#: threshold *inside* a big write still fires (a real kernel accepts
#: part of a large write before the connection dies); without slicing,
#: a data path that moves a whole payload in one ``write`` would jump
#: over every mid-stream threshold.
_WRITE_SLICE = 16 * 1024


class FaultyStream:
    """A file-object wrapper (the ``makefile`` side of a FaultySocket)."""

    def __init__(self, raw, fsock: "FaultySocket", direction: str):
        self._raw = raw
        self._fsock = fsock
        self._direction = direction  # "read" or "write"

    # -- reads -------------------------------------------------------------
    def read(self, n: int = -1) -> bytes:
        data = self._fsock._guard_read(lambda: self._raw.read(n))
        self._fsock._account("read", len(data))
        return data

    def readinto(self, buffer) -> int:
        # ``or 0``: a forced EOF comes back from the guard as ``b""``.
        got = self._fsock._guard_read(
            lambda: self._raw.readinto(buffer)) or 0
        self._fsock._account("read", got)
        return got

    def readline(self, limit: int = -1) -> bytes:
        data = self._fsock._guard_read(lambda: self._raw.readline(limit))
        self._fsock._account("read", len(data))
        return data

    # -- writes ------------------------------------------------------------
    def write(self, data) -> int:
        view = memoryview(data)
        total = len(view)
        done = 0
        while True:
            chunk = view[done:done + _WRITE_SLICE]
            self._fsock._guard_write(len(chunk))
            self._raw.write(chunk)
            self._fsock._account("write", len(chunk))
            done += len(chunk)
            if done >= total:
                return total

    def flush(self) -> None:
        self._raw.flush()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self._raw.close()

    @property
    def closed(self) -> bool:
        return self._raw.closed

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name):
        return getattr(self._raw, name)


class FaultySocket:
    """A socket proxy that consults a :class:`FaultPlan` on every I/O.

    Covers both access styles the stack uses: raw ``recv``/``sendall``
    (FTP data channels) and buffered ``makefile`` streams (everything
    else).  Byte counters are shared across both so ``after_bytes``
    thresholds see the connection's true totals.
    """

    def __init__(self, sock, plan: FaultPlan, conn: int, label: str = ""):
        self._sock = sock
        self._plan = plan
        self.conn = conn
        self.label = label
        self._moved = {"read": 0, "write": 0}
        self._io_lock = threading.Lock()
        self._forced_eof = False
        #: set by close()/shutdown(): ends a stall in progress, so the
        #: thread frozen on a torn-down socket finds out at once.
        self._closed = threading.Event()

    # -- fault machinery ---------------------------------------------------
    def _account(self, op: str, n: int) -> None:
        with self._io_lock:
            self._moved[op] += n

    def _check(self, op: str) -> None:
        with self._io_lock:
            moved = self._moved[op]
        action = self._plan.before_io(self.conn, op, moved,
                                      wait=self._closed.wait)
        if action is None:
            return
        if action == RESET:
            self._hard_close()
            raise FaultInjected(
                f"connection reset by fault plan (conn {self.conn}, {op})")
        if action == SHORT:
            # End of stream: the peer (and we) see clean EOF early.
            self._forced_eof = True
            self._hard_close()

    def _guard_read(self, do_read):
        self._check("read")
        if self._forced_eof:
            return b""
        try:
            return do_read()
        except (ValueError, OSError):
            if self._forced_eof:
                return b""
            raise

    def _guard_write(self, nbytes: int) -> None:
        self._check("write")
        if self._forced_eof:
            raise FaultInjected(
                f"stream shorted by fault plan (conn {self.conn})")

    def _hard_close(self) -> None:
        try:
            self._sock.shutdown(_socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    # -- socket surface ----------------------------------------------------
    def makefile(self, mode: str = "r", *args, **kwargs):
        direction = "read" if "r" in mode else "write"
        return FaultyStream(self._sock.makefile(mode, *args, **kwargs),
                            self, direction)

    def recv(self, bufsize: int, *flags) -> bytes:
        data = self._guard_read(lambda: self._sock.recv(bufsize, *flags))
        self._account("read", len(data))
        return data

    def send(self, data: bytes, *flags) -> int:
        self._guard_write(len(data))
        n = self._sock.send(data, *flags)
        self._account("write", n)
        return n

    def sendall(self, data: bytes, *flags) -> None:
        self._guard_write(len(data))
        self._sock.sendall(data, *flags)
        self._account("write", len(data))

    def close(self) -> None:
        self._closed.set()
        try:
            self._sock.close()
        except OSError:
            pass

    def shutdown(self, how: int) -> None:
        self._closed.set()
        self._sock.shutdown(how)

    def settimeout(self, value) -> None:
        self._sock.settimeout(value)

    def gettimeout(self):
        return self._sock.gettimeout()

    def getsockname(self):
        return self._sock.getsockname()

    def getpeername(self):
        return self._sock.getpeername()

    def fileno(self) -> int:
        return self._sock.fileno()

    def setsockopt(self, *args) -> None:
        self._sock.setsockopt(*args)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name):
        return getattr(self._sock, name)
