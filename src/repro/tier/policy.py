"""Declarative migration policy + the background migration loop.

:class:`TierPolicy` is the *what*: a small declarative predicate --
age, size, heat ceiling, lot-aware pinning -- deciding whether one file
is demotable.  :class:`TierManager` is the *when*: a background loop
(a :class:`~repro.protocols.runtime.Periodic`) that walks the namespace,
asks the policy, and executes demotions through
:meth:`~repro.tier.store.TieredStore.migrate`, at most
``max_per_scan`` per pass so a scan never monopolizes the appliance.

The policy reads the same :class:`~repro.tier.heat.HeatTracker` the
autoscaler does: a file is demoted only when it is old, big enough to
be worth a tape mount, *and* measurably cold -- and never when a pinned
lot holds it (the operator's "this stays on disk" knob).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.nest.storage import DirNode, FileNode, StorageManager
from repro.obs.log import get_logger
from repro.protocols.runtime import Periodic
from repro.tier.heat import HeatTracker
from repro.tier.store import HOT, TierError, TieredStore

logger = get_logger(__name__)

__all__ = ["TierPolicy", "TierManager", "walk_files"]


def walk_files(storage: StorageManager) -> list[tuple[str, int]]:
    """Every file in the namespace as ``(path, size)``, sorted by path.

    Takes the storage lock for a consistent snapshot; zero-size files
    (including in-flight puts, which have no committed bytes yet) are
    skipped -- there is nothing to move.
    """
    out: list[tuple[str, int]] = []

    def visit(node: DirNode, prefix: str) -> None:
        for name, child in node.children.items():
            path = f"{prefix}/{name}" if prefix else f"/{name}"
            if isinstance(child, DirNode):
                visit(child, path)
            elif isinstance(child, FileNode) and child.size > 0:
                out.append((path, child.size))

    with storage._lock:
        visit(storage.root, "")
    out.sort()
    return out


@dataclass
class TierPolicy:
    """When may a file leave the fast tier?

    A file is demotable when **all** hold:

    * no read for at least ``demote_after`` seconds (files never read
      age from when the scanner first saw them);
    * at least ``min_size`` bytes (tiny files aren't worth a mount);
    * decayed heat at most ``heat_ceiling`` (a file in an active burst
      stays put even if its last read is marginally old);
    * not covered by a pinned lot (when ``respect_pins``).
    """

    demote_after: float = 300.0
    min_size: int = 1
    heat_ceiling: float = 0.5
    respect_pins: bool = True

    def __post_init__(self) -> None:
        if self.demote_after < 0:
            raise ValueError("demote_after must be >= 0")
        if self.min_size < 0:
            raise ValueError("min_size must be >= 0")
        if self.heat_ceiling < 0:
            raise ValueError("heat_ceiling must be >= 0")

    def should_demote(self, *, age: float, size: int, heat: float,
                      pinned: bool) -> bool:
        if self.respect_pins and pinned:
            return False
        if size < self.min_size:
            return False
        if age < self.demote_after:
            return False
        return heat <= self.heat_ceiling

    def describe(self) -> dict[str, Any]:
        return {
            "demote_after": self.demote_after,
            "min_size": self.min_size,
            "heat_ceiling": self.heat_ceiling,
            "respect_pins": self.respect_pins,
        }


class TierManager(Periodic):
    """Background demotion loop: namespace walk -> policy -> migrate.

    A :class:`~repro.protocols.runtime.Periodic` (thread ``tier-manager``)
    calling :meth:`scan_once` every ``interval`` seconds; 0 leaves the
    loop off (:meth:`scan_once` is then driven by hand).  ``interval``
    and ``policy`` may be set before :meth:`start`."""

    def __init__(self, storage: StorageManager, tiered: TieredStore,
                 heat: HeatTracker, policy: TierPolicy | None = None, *,
                 interval: float = 30.0, max_per_scan: int = 8,
                 clock: Callable[[], float] = time.monotonic,
                 tracer=None, registry=None):
        if interval < 0:
            raise ValueError("interval must be >= 0")
        super().__init__("tier-manager", interval, self.scan_once)
        self.storage = storage
        self.tiered = tiered
        self.heat = heat
        self.policy = policy if policy is not None else TierPolicy()
        self.max_per_scan = max_per_scan
        self.clock = clock
        self.tracer = tracer
        #: when the scanner first saw each path; the age baseline for
        #: files that have never been read.
        self._first_seen: dict[str, float] = {}
        self.scans = 0
        self.migrated_files = 0
        self.migrated_bytes = 0
        self._m_scans = None
        if registry is not None:
            self._m_scans = registry.counter(
                "tier_scans_total", "Migration-policy scans completed.")
            registry.gauge_callback(
                "tier_candidate_files",
                lambda: float(len(self._first_seen)),
                "Files currently known to the migration scanner.")

    # ------------------------------------------------------------------
    def _pinned(self, path: str) -> bool:
        is_pinned = getattr(self.storage.lots, "is_pinned", None)
        if is_pinned is None:
            return False
        return bool(is_pinned(path))

    def candidates(self) -> list[tuple[str, int]]:
        """Demotable files right now, coldest (oldest access) first."""
        now = self.clock()
        files = walk_files(self.storage)
        live = {path for path, _size in files}
        for path in list(self._first_seen):
            if path not in live:
                del self._first_seen[path]
        out: list[tuple[float, str, int]] = []
        for path, size in files:
            if self.tiered.state_of(path) != HOT:
                continue
            first = self._first_seen.setdefault(path, now)
            last = self.heat.last_access(path)
            age = now - (last if last is not None else first)
            if self.policy.should_demote(
                    age=age, size=size, heat=self.heat.heat(path),
                    pinned=self._pinned(path)):
                out.append((age, path, size))
        out.sort(key=lambda item: (-item[0], item[1]))
        return [(path, size) for _age, path, size in out]

    def scan_once(self) -> list[str]:
        """One policy pass; returns the paths demoted this pass."""
        span = (self.tracer.span("tier.scan")
                if self.tracer is not None else None)
        migrated: list[str] = []
        try:
            for path, size in self.candidates()[:self.max_per_scan]:
                try:
                    moved = self.tiered.migrate(path)
                except TierError as exc:
                    # Raced a write/read that changed residency; the
                    # file just stays hot until the next pass.
                    logger.debug("demotion of %s skipped: %s", path, exc)
                    continue
                migrated.append(path)
                self.migrated_files += 1
                self.migrated_bytes += moved
            self.scans += 1
            if self._m_scans is not None:
                self._m_scans.inc()
            if span is not None:
                span.set(migrated=len(migrated))
        except BaseException:
            if span is not None:
                span.end("error")
            raise
        else:
            if span is not None:
                span.end()
        if migrated:
            logger.info("tier scan demoted %d file(s)", len(migrated))
        return migrated

    def describe(self) -> dict[str, Any]:
        return {
            "policy": self.policy.describe(),
            "scans": self.scans,
            "migrated_files": self.migrated_files,
            "migrated_bytes": self.migrated_bytes,
        }
