"""Two-level hierarchical storage: fast front tier, slow cold tier.

:class:`TieredStore` implements the :class:`~repro.nest.backends.DataStore`
protocol, so the storage manager (and everything above it) is oblivious
to tiering -- exactly how CASTOR hides tape behind its disk pools.  The
cold backend is any ``DataStore``; :class:`RateLimitedStore` wraps one
with a bandwidth throttle and a per-open mount latency, standing in for
tape or remote object storage the way :class:`~repro.faults.disk.FaultyStore`
stands in for a failing disk.

**Residency** is the per-file state machine::

    HOT --(migrate: journal MIGRATING, copy, journal COLD, drop fast)--> COLD
    COLD --(recall: journal RECALLING, copy, journal HOT, drop cold)--> HOT

Every transition is journaled *before* the bytes move, through the same
durability sink the storage manager uses, so a crash at any point
leaves a record from which :meth:`TieredStore.reconcile` can decide
which tier is authoritative: MIGRATING means the fast copy still is,
RECALLING means the cold copy still is.  Data is therefore never lost
between tiers -- at worst a completed copy is redone.

Reads of COLD files **recall on miss**: the bytes stream cold -> fast
through :func:`repro.nest.io.copy_stream` (pooled buffers, in-stream
CRC) before the read is served from the fast tier.  Writes always land
in the fast tier; a write over a COLD path invalidates the cold copy
only after the new bytes are safely landed.
"""

from __future__ import annotations

import threading
import time
from typing import Any, BinaryIO, Callable, Optional

from repro.nest.backends import DataStore
from repro.nest.io import BufferPool, copy_stream
from repro.obs import spans as _spans
from repro.obs.log import get_logger

logger = get_logger(__name__)

__all__ = ["HOT", "COLD", "MIGRATING", "RECALLING",
           "RateLimitedStore", "TieredStore", "TierError"]

#: Residency states (journaled; strings so records stay JSON-able).
HOT = "hot"
COLD = "cold"
MIGRATING = "migrating"
RECALLING = "recalling"

_STATES = (HOT, COLD, MIGRATING, RECALLING)


class TierError(Exception):
    """A tier transition could not be completed."""


class _ThrottledStream:
    """Wraps a stream so reads/writes pay a bandwidth delay.

    The throttle models a shared slow device: each operation sleeps
    ``nbytes / bandwidth`` (plus the one-time ``latency`` charged at
    open).  Sleeps are capped per call so tests with tiny bandwidths
    stay bounded.
    """

    MAX_SLEEP_PER_CALL = 0.2

    def __init__(self, raw: BinaryIO, bandwidth_bps: float,
                 sleep: Callable[[float], None] = time.sleep):
        self._raw = raw
        self._bandwidth = float(bandwidth_bps)
        self._sleep = sleep

    def _pay(self, nbytes: int) -> None:
        if self._bandwidth > 0 and nbytes > 0:
            self._sleep(min(nbytes / self._bandwidth,
                            self.MAX_SLEEP_PER_CALL))

    def read(self, size: int = -1) -> bytes:
        data = self._raw.read(size)
        self._pay(len(data))
        return data

    def readinto(self, buffer) -> int:
        got = self._raw.readinto(buffer)
        self._pay(got)
        return got

    def write(self, data) -> int:
        self._pay(len(data))
        return self._raw.write(data)

    def close(self) -> None:
        self._raw.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name):
        return getattr(self._raw, name)


class RateLimitedStore:
    """A ``DataStore`` wrapper standing in for tape / object storage.

    Every opened stream is throttled to ``bandwidth_bps`` and charged
    ``latency`` seconds up front (the mount/seek).  Deliberately the
    same wrapper shape as :class:`~repro.faults.disk.FaultyStore`, so a
    cold tier can be both slow *and* faulty by stacking the two.
    """

    def __init__(self, inner: DataStore, bandwidth_bps: float = 8e6,
                 latency: float = 0.0,
                 sleep: Callable[[float], None] = time.sleep):
        self.inner = inner
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency = float(latency)
        self._sleep = sleep

    def _mount(self) -> None:
        if self.latency > 0:
            self._sleep(self.latency)

    def open_read(self, path: str) -> BinaryIO:
        self._mount()
        return _ThrottledStream(self.inner.open_read(path),
                                self.bandwidth_bps, self._sleep)

    def open_write(self, path: str, append: bool = False) -> BinaryIO:
        self._mount()
        return _ThrottledStream(self.inner.open_write(path, append=append),
                                self.bandwidth_bps, self._sleep)

    def open_update(self, path: str) -> BinaryIO:
        self._mount()
        return _ThrottledStream(self.inner.open_update(path),
                                self.bandwidth_bps, self._sleep)

    def delete(self, path: str) -> None:
        self.inner.delete(path)

    def size(self, path: str) -> int:
        return self.inner.size(path)

    def exists(self, path: str) -> bool:
        exists = getattr(self.inner, "exists", None)
        if exists is not None:
            return exists(path)
        return self.inner.size(path) > 0

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _exists(store, path: str) -> bool:
    exists = getattr(store, "exists", None)
    if exists is not None:
        return bool(exists(path))
    return store.size(path) > 0


class _PromotingWriter:
    """A fast-tier write stream that settles residency on close: the
    path becomes HOT and any cold copy is invalidated -- but only
    *after* the new bytes landed, so a crash mid-write leaves the old
    cold copy authoritative instead of losing the file."""

    def __init__(self, raw: BinaryIO, store: "TieredStore", path: str):
        self._raw = raw
        self._store = store
        self._path = path
        self._settled = False

    def write(self, data) -> int:
        return self._raw.write(data)

    def close(self) -> None:
        self._raw.close()
        if not self._settled:
            self._settled = True
            self._store._promote_written(self._path)

    def flush(self) -> None:
        self._raw.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name):
        return getattr(self._raw, name)


class TieredStore:
    """Fast tier over cold tier with journaled per-file residency."""

    def __init__(self, fast: DataStore, cold: DataStore, *,
                 registry=None, pool: BufferPool | None = None):
        self.fast = fast
        self.cold = cold
        self.pool = pool
        #: path -> residency state; absent means HOT-or-nonexistent
        #: (files never migrated carry no entry, keeping the map and
        #: the journal traffic proportional to *tiered* data).
        self.residency: dict[str, str] = {}
        self._lock = threading.RLock()
        #: durability sink ``(rtype, **fields) -> Any``; bound by
        #: DurabilityManager.recover_into(tier=...)/attach_tier, or
        #: directly by tests.  None journals nothing (memory-only).
        self.journal: Callable[..., Any] | None = None
        #: bytes currently resident in the cold tier (gauge feed).
        self._cold_bytes = 0
        self._m_migrations = None
        self._m_recalls = None
        self._m_migrated_bytes = None
        self._m_recalled_bytes = None
        if registry is not None:
            self.register_metrics(registry)

    def register_metrics(self, registry) -> None:
        """Tier occupancy gauges + migration/recall counters."""
        self._m_migrations = registry.counter(
            "tier_migrations_total",
            "Fast->cold migrations attempted, by outcome.",
            labelnames=("outcome",))
        self._m_recalls = registry.counter(
            "tier_recalls_total",
            "Cold->fast recalls attempted, by outcome.",
            labelnames=("outcome",))
        self._m_migrated_bytes = registry.counter(
            "tier_migrated_bytes_total",
            "Bytes demoted into the cold tier.")
        self._m_recalled_bytes = registry.counter(
            "tier_recalled_bytes_total",
            "Bytes recalled back into the fast tier.")
        registry.gauge_callback(
            "tier_cold_used_bytes", lambda: float(self._cold_bytes),
            "Bytes currently resident in the cold tier.")
        registry.gauge_callback(
            "tier_cold_files",
            lambda: float(sum(1 for s in self.residency.values()
                              if s == COLD)),
            "Files whose authoritative copy is in the cold tier.")

    # ------------------------------------------------------------------
    # residency bookkeeping (journaled)
    # ------------------------------------------------------------------
    def state_of(self, path: str) -> str:
        """Residency of ``path`` (HOT when never tiered)."""
        with self._lock:
            return self.residency.get(path, HOT)

    def _set_state(self, path: str, state: str) -> None:
        """Journal, then apply, one residency transition.  Journal
        first: a crash after the append but before the map update is
        identical (for recovery) to one right after both."""
        if state not in _STATES:
            raise ValueError(f"unknown residency state {state!r}")
        if self.journal is not None:
            self.journal("tier_state", path=path, state=state)
        if state == HOT:
            self.residency.pop(path, None)
        else:
            self.residency[path] = state

    def _drop_state(self, path: str) -> None:
        if path in self.residency or self.journal is not None:
            if self.journal is not None:
                self.journal("tier_drop", path=path)
            self.residency.pop(path, None)

    # ------------------------------------------------------------------
    # DataStore protocol
    # ------------------------------------------------------------------
    def open_read(self, path: str) -> BinaryIO:
        with self._lock:
            state = self.residency.get(path, HOT)
            if state == COLD:
                self.recall(path)
            elif state == RECALLING:
                # A previous recall died mid-copy (live code recalls
                # synchronously under the lock, so this is only ever
                # recovered state): the cold copy is authoritative.
                self._set_state(path, COLD)
                self.recall(path)
            return self.fast.open_read(path)

    def open_write(self, path: str, append: bool = False) -> BinaryIO:
        with self._lock:
            state = self.residency.get(path, HOT)
            if append and state in (COLD, RECALLING):
                # Appending needs the existing bytes in the fast tier.
                self._set_state(path, COLD)
                self.recall(path)
            return _PromotingWriter(
                self.fast.open_write(path, append=append), self, path)

    def open_update(self, path: str) -> BinaryIO:
        with self._lock:
            if self.residency.get(path, HOT) in (COLD, RECALLING):
                self._set_state(path, COLD)
                self.recall(path)
            return self.fast.open_update(path)

    def delete(self, path: str) -> None:
        with self._lock:
            state = self.residency.get(path, HOT)
            if state != HOT:
                self._cold_bytes -= self.cold.size(path)
            self._drop_state(path)
            self.fast.delete(path)
            self.cold.delete(path)

    def size(self, path: str) -> int:
        with self._lock:
            if self.residency.get(path, HOT) in (COLD, RECALLING):
                size = self.cold.size(path)
                if size:
                    return size
            size = self.fast.size(path)
            if size:
                return size
            return self.cold.size(path)

    def exists(self, path: str) -> bool:
        with self._lock:
            return _exists(self.fast, path) or _exists(self.cold, path)

    def sweep_temp(self) -> int:
        """Forward the recovery temp sweep to whichever tiers have one."""
        swept = 0
        for store in (self.fast, self.cold):
            sweep = getattr(store, "sweep_temp", None)
            if sweep is not None:
                swept += sweep()
        return swept

    # ------------------------------------------------------------------
    # tier transitions
    # ------------------------------------------------------------------
    def migrate(self, path: str) -> int:
        """Demote one HOT file to the cold tier; returns bytes moved.

        Journals MIGRATING before the copy and COLD after it, so the
        fast copy stays authoritative until the cold bytes are fully
        landed and verified.  Raises :class:`TierError` if the file is
        not demotable (absent, or already migrating/cold).
        """
        with self._lock:
            if self.residency.get(path, HOT) != HOT:
                raise TierError(f"{path!r} is not HOT")
            if not _exists(self.fast, path):
                raise TierError(f"{path!r} has no fast-tier bytes")
            expected = self.fast.size(path)
            with _spans.maybe_span("tier.migrate", path=path,
                                   nbytes=expected):
                self._set_state(path, MIGRATING)
                try:
                    src = self.fast.open_read(path)
                    dst = self.cold.open_write(path)
                    try:
                        moved, _crc = copy_stream(src, dst, pool=self.pool)
                    finally:
                        src.close()
                        dst.close()
                    if moved != expected or self.cold.size(path) != expected:
                        raise TierError(
                            f"cold copy of {path!r} incomplete: "
                            f"{moved}/{expected}")
                except BaseException:
                    # Crash exceptions must propagate untouched; any
                    # failure reverts to HOT (fast copy never left).
                    self._abort_migrate(path)
                    raise
                self._set_state(path, COLD)
                self.fast.delete(path)
                self._cold_bytes += expected
            if self._m_migrations is not None:
                self._m_migrations.inc(outcome="ok")
                self._m_migrated_bytes.inc(expected)
            return expected

    def _abort_migrate(self, path: str) -> None:
        try:
            self.cold.delete(path)
            self._set_state(path, HOT)
        except OSError:
            pass  # recovery will resolve the MIGRATING record
        if self._m_migrations is not None:
            self._m_migrations.inc(outcome="error")

    def recall(self, path: str) -> int:
        """Promote one COLD file back to the fast tier (recall on miss);
        returns bytes moved.  The cold copy stays authoritative until
        the fast bytes are fully landed (journal order RECALLING ->
        copy -> HOT -> drop cold)."""
        with self._lock:
            if self.residency.get(path) != COLD:
                raise TierError(f"{path!r} is not COLD")
            expected = self.cold.size(path)
            with _spans.maybe_span("tier.recall", path=path,
                                   nbytes=expected):
                self._set_state(path, RECALLING)
                try:
                    src = self.cold.open_read(path)
                    dst = self.fast.open_write(path)
                    try:
                        moved, _crc = copy_stream(src, dst, pool=self.pool)
                    finally:
                        src.close()
                        dst.close()
                    if moved != expected or self.fast.size(path) != expected:
                        raise TierError(
                            f"recall of {path!r} incomplete: "
                            f"{moved}/{expected}")
                except BaseException:
                    try:
                        self.fast.delete(path)
                        self._set_state(path, COLD)
                    except OSError:
                        pass
                    if self._m_recalls is not None:
                        self._m_recalls.inc(outcome="error")
                    raise
                self._set_state(path, HOT)
                self.cold.delete(path)
                self._cold_bytes -= expected
            if self._m_recalls is not None:
                self._m_recalls.inc(outcome="ok")
                self._m_recalled_bytes.inc(expected)
            return expected

    def _promote_written(self, path: str) -> None:
        """A fast-tier write completed: the path is HOT now; drop any
        stale cold copy (called by :class:`_PromotingWriter`)."""
        with self._lock:
            state = self.residency.get(path, HOT)
            if state == HOT and not _exists(self.cold, path):
                return  # plain hot write, nothing tiered: no journal
            self._cold_bytes -= self.cold.size(path)
            self._set_state(path, HOT)
            self.cold.delete(path)

    # ------------------------------------------------------------------
    # durability (snapshot serialization + replay + reconciliation)
    # ------------------------------------------------------------------
    def serialize(self) -> dict[str, Any]:
        """JSON-able residency state for a compacted snapshot."""
        with self._lock:
            return {"residency": dict(self.residency)}

    def restore(self, state: dict[str, Any]) -> None:
        """Replace residency from a snapshot (replay runs after)."""
        with self._lock:
            self.residency.clear()
            for path, st in state.get("residency", {}).items():
                if st in _STATES and st != HOT:
                    self.residency[path] = st

    def apply_record(self, rec: dict[str, Any]) -> bool:
        """Apply one replayed journal record; True when it was ours."""
        rtype = str(rec.get("type", ""))
        if rtype == "tier_state":
            state = rec.get("state")
            path = rec.get("path", "")
            with self._lock:
                if state == HOT:
                    self.residency.pop(path, None)
                elif state in _STATES:
                    self.residency[path] = state
            return True
        if rtype == "tier_drop":
            with self._lock:
                self.residency.pop(rec.get("path", ""), None)
            return True
        return False

    def reconcile(self) -> list[dict[str, Any]]:
        """Resolve in-flight transitions after replay: decide, per
        journaled residency entry, which tier's bytes are authoritative
        and make the world match.

        * MIGRATING: the fast copy is authoritative (COLD was never
          journaled) -- drop any cold partial, revert to HOT;
        * RECALLING: the cold copy is authoritative -- drop any fast
          partial, revert to COLD;
        * COLD with a leftover fast copy (crash between journaling COLD
          and deleting the fast bytes): drop the fast copy;
        * COLD with no cold bytes but fast bytes present (shouldn't
          happen with ordered journaling; tolerated): back to HOT;
        * entries whose bytes are gone everywhere are dropped.

        Rebuilds the cold-occupancy gauge.  Returns one action record
        per adjusted path (recovery-report material).
        """
        actions: list[dict[str, Any]] = []
        with self._lock:
            for path in sorted(self.residency):
                state = self.residency[path]
                in_fast = _exists(self.fast, path)
                in_cold = _exists(self.cold, path)
                if state == MIGRATING:
                    if in_cold:
                        self.cold.delete(path)
                    if in_fast:
                        self.residency.pop(path)
                        actions.append({"path": path, "was": state,
                                        "now": HOT})
                    else:
                        # fast bytes gone too: nothing to serve; the
                        # storage-level reconcile settles the metadata.
                        self.residency.pop(path)
                        actions.append({"path": path, "was": state,
                                        "now": "absent"})
                elif state == RECALLING:
                    if in_cold:
                        if in_fast:
                            self.fast.delete(path)
                        self.residency[path] = COLD
                        actions.append({"path": path, "was": state,
                                        "now": COLD})
                    elif in_fast:
                        self.residency.pop(path)
                        actions.append({"path": path, "was": state,
                                        "now": HOT})
                    else:
                        self.residency.pop(path)
                        actions.append({"path": path, "was": state,
                                        "now": "absent"})
                elif state == COLD:
                    if in_cold:
                        if in_fast:
                            self.fast.delete(path)
                            actions.append({"path": path, "was": state,
                                            "now": COLD})
                    elif in_fast:
                        self.residency.pop(path)
                        actions.append({"path": path, "was": state,
                                        "now": HOT})
                    else:
                        self.residency.pop(path)
                        actions.append({"path": path, "was": state,
                                        "now": "absent"})
            self._cold_bytes = sum(
                self.cold.size(path) for path, st in self.residency.items()
                if st == COLD)
        if actions:
            logger.info("tier reconcile: %d path(s) settled", len(actions))
        return actions
