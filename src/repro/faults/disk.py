"""Disk-fault injection: the persistence twin of the socket plan.

:mod:`repro.faults.plan` breaks *connections*; this module breaks
*storage*.  A :class:`DiskFaultPlan` is a deterministic schedule of
persistence faults consumed by the metadata journal
(:mod:`repro.durability.journal`), the snapshot store, and the
:class:`FaultyStore` backend wrapper:

* **torn writes** -- only a prefix of the payload reaches the platter
  before the process "dies" (:class:`SimulatedCrash`); recovery must
  detect and discard the fragment;
* **short writes** -- a prefix lands and the call *reports success*,
  the nastiest variant: the corruption is only discovered at the next
  recovery, which must still yield a consistent prefix of history;
* **EIO / ENOSPC** -- the write fails typed (``OSError`` with the real
  errno) and the appliance must degrade, not die;
* **crash-at-record-N** -- the process dies exactly before the N-th
  journal record becomes durable, the primitive under the
  "crash at every journal boundary, then recover" sweeps.

Rules are matched per *call ordinal* (or, for journal appends, per
record sequence number), so a plan like
``DiskFaultPlan.crash_at_record(17)`` is fully deterministic.  Like
the socket plan, every fired fault is recorded in
:attr:`DiskFaultPlan.events` so tests can assert the intended fault
actually happened.
"""

from __future__ import annotations

import errno as _errno
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.obs.metrics import global_registry

__all__ = [
    "TORN",
    "SHORT",
    "EIO",
    "ENOSPC",
    "CRASH",
    "SimulatedCrash",
    "DiskFaultEvent",
    "DiskFaultRule",
    "DiskFaultPlan",
    "FaultyFile",
    "FaultyStore",
]

# Disk fault actions.
TORN = "torn"
SHORT = "short"
EIO = "eio"
ENOSPC = "enospc"
CRASH = "crash"

_ACTIONS = (TORN, SHORT, EIO, ENOSPC, CRASH)

#: I/O operations a rule can watch.  ``append`` is one journal record,
#: ``snapshot`` one snapshot save, ``write``/``close`` are data-store
#: stream operations (via :class:`FaultyStore`).
_OPS = ("append", "snapshot", "write", "close")


class SimulatedCrash(BaseException):
    """The process "dies" at this point.

    Deliberately a ``BaseException``: crash points must never be
    swallowed by a broad ``except Exception`` along the I/O path --
    a real SIGKILL cannot be caught either.  Test harnesses catch it
    explicitly, then rebuild the appliance from its ``state_dir``.
    """


def _observe_disk_fault(op: str, action: str) -> None:
    global_registry().counter(
        "repro_disk_faults_injected_total",
        "Disk faults fired by disk-fault plans, by op and action.",
        labelnames=("op", "action"),
    ).inc(op=op, action=action)


@dataclass
class DiskFaultEvent:
    """One disk fault the plan actually fired."""

    op: str
    action: str
    at: int  #: call ordinal (or journal record seq) the rule matched


@dataclass
class DiskFaultRule:
    """One deterministic disk-fault trigger.

    ``at`` names the 1-based ordinal of the matching call the rule
    fires on (for journal appends, the record sequence number); None
    means "every matching call".  ``keep_bytes`` bounds how much of
    the payload actually lands for torn/short writes (None = half).
    ``times`` caps total firings across the plan.
    """

    op: str
    action: str
    at: Optional[int] = None
    keep_bytes: Optional[int] = None
    times: Optional[int] = 1
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown disk fault op {self.op!r}")
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown disk fault action {self.action!r}")

    def wants(self, op: str, ordinal: int) -> bool:
        if op != self.op:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        return self.at is None or ordinal == self.at


class DiskFaultPlan:
    """A deterministic, shareable schedule of injected disk faults."""

    def __init__(self, rules: Iterable[DiskFaultRule] = ()):
        self.rules: list[DiskFaultRule] = list(rules)
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self.events: list[DiskFaultEvent] = []

    # -- convenience constructors ------------------------------------------
    @classmethod
    def clean(cls) -> "DiskFaultPlan":
        """A plan that never injects anything."""
        return cls()

    @classmethod
    def crash_at_record(cls, seq: int) -> "DiskFaultPlan":
        """Die exactly before journal record ``seq`` becomes durable
        (records ``< seq`` are on disk, ``seq`` and later are lost)."""
        return cls([DiskFaultRule(op="append", action=CRASH, at=seq)])

    @classmethod
    def torn_record(cls, seq: int, keep_bytes: int | None = None) -> "DiskFaultPlan":
        """Die mid-write of journal record ``seq``: a fragment lands."""
        return cls([DiskFaultRule(op="append", action=TORN, at=seq,
                                  keep_bytes=keep_bytes)])

    @classmethod
    def short_record(cls, seq: int, keep_bytes: int | None = None) -> "DiskFaultPlan":
        """Journal record ``seq`` lands only partially but the append
        *reports success* (silent corruption, found at recovery)."""
        return cls([DiskFaultRule(op="append", action=SHORT, at=seq,
                                  keep_bytes=keep_bytes)])

    @classmethod
    def eio_at_record(cls, seq: int) -> "DiskFaultPlan":
        """Journal record ``seq`` fails with ``EIO``."""
        return cls([DiskFaultRule(op="append", action=EIO, at=seq)])

    @classmethod
    def enospc_at_record(cls, seq: int) -> "DiskFaultPlan":
        """Journal record ``seq`` fails with ``ENOSPC``."""
        return cls([DiskFaultRule(op="append", action=ENOSPC, at=seq)])

    @classmethod
    def crash_on_store_write(cls, at_call: int = 1) -> "DiskFaultPlan":
        """Die on the ``at_call``-th data-store stream write -- the
        SIGKILL-mid-PUT primitive for :class:`FaultyStore`."""
        return cls([DiskFaultRule(op="write", action=CRASH, at=at_call)])

    # -- matching ----------------------------------------------------------
    def check(self, op: str, at: int | None = None) -> DiskFaultRule | None:
        """Would a fault fire for this call?  Counts the call, matches
        rules, records the event, and returns the winning rule (the
        caller enacts the action) or None."""
        with self._lock:
            if at is None:
                at = self._counts.get(op, 0) + 1
                self._counts[op] = at
            for rule in self.rules:
                if rule.wants(op, at):
                    rule.fired += 1
                    self.events.append(DiskFaultEvent(op, rule.action, at))
                    _observe_disk_fault(op, rule.action)
                    return rule
        return None

    # -- introspection -----------------------------------------------------
    def fired(self, action: str | None = None) -> int:
        """How many disk faults fired (optionally of one action)."""
        with self._lock:
            if action is None:
                return len(self.events)
            return sum(1 for e in self.events if e.action == action)

    def describe(self) -> dict[str, Any]:
        """A JSON-able summary (for logs and failure reports)."""
        with self._lock:
            return {
                "rules": [
                    {"op": r.op, "action": r.action, "at": r.at,
                     "keep_bytes": r.keep_bytes, "times": r.times,
                     "fired": r.fired}
                    for r in self.rules
                ],
                "events": len(self.events),
            }


def raise_for(rule: DiskFaultRule, what: str) -> None:
    """Enact a rule's errno/crash action (torn/short are the caller's
    job since they need the payload)."""
    if rule.action == CRASH:
        raise SimulatedCrash(f"crash point: {what}")
    if rule.action == EIO:
        raise OSError(_errno.EIO, f"injected EIO: {what}")
    if rule.action == ENOSPC:
        raise OSError(_errno.ENOSPC, f"injected ENOSPC: {what}")


class FaultyFile:
    """A writable-stream wrapper consulting a :class:`DiskFaultPlan`.

    Wraps whatever :meth:`DataStore.open_write` returned; every
    ``write`` (and the final ``close``) is a fault point.  A CRASH on
    write leaves the underlying stream unclosed -- with the atomic
    :class:`~repro.nest.backends.LocalFSStore` writer that means the
    PUT never becomes visible, exactly like a process killed mid-PUT.
    """

    def __init__(self, raw, plan: DiskFaultPlan):
        self._raw = raw
        self._plan = plan

    def write(self, data: bytes) -> int:
        rule = self._plan.check("write")
        if rule is not None:
            if rule.action in (TORN, SHORT):
                keep = rule.keep_bytes
                if keep is None:
                    keep = len(data) // 2
                self._raw.write(data[:keep])
                if rule.action == TORN:
                    raise SimulatedCrash("torn data-store write")
                return len(data)  # short write reporting success
            raise_for(rule, "data-store write")
        return self._raw.write(data)

    def close(self) -> None:
        rule = self._plan.check("close")
        if rule is not None:
            raise_for(rule, "data-store close")
        self._raw.close()

    def flush(self) -> None:
        self._raw.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name):
        return getattr(self._raw, name)


class FaultyStore:
    """A :class:`~repro.nest.backends.DataStore` wrapper whose write
    streams consult a :class:`DiskFaultPlan` -- the disk counterpart
    of wrapping a socket in a :class:`~repro.faults.plan.FaultySocket`.
    Reads and the metadata calls (``rename``, ``delete``, ``size``,
    ``exists``) reach ``inner`` unchanged through ``__getattr__``.
    """

    def __init__(self, inner, plan: DiskFaultPlan):
        self.inner = inner
        self.plan = plan

    def open_write(self, path: str):
        return FaultyFile(self.inner.open_write(path), self.plan)

    def open_update(self, path: str):
        return FaultyFile(self.inner.open_update(path), self.plan)

    def __getattr__(self, name):
        return getattr(self.inner, name)
