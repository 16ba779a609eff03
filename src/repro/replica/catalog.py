"""The replica catalog: logical names -> physical replica locations.

Allcock et al.'s replica-management architecture pairs a *catalog*
(logical file name -> the storage systems holding a copy) with a
*selection* step that ranks those copies; NeST's contribution is that
each location is a discoverable appliance that already advertises into
a ClassAd collector.  :class:`ReplicaCatalog` is that catalog for a
fleet of NeSTs: every logical name maps to a set of per-site
:class:`Replica` records carrying the replica's lifecycle state

* ``copying`` -- a transfer to this site is in flight (not readable);
* ``valid``   -- the copy verified against the source checksum;
* ``suspect`` -- a transfer fault or dead-site signal implicates it;
  the repair loop re-verifies or re-replicates.

The catalog advertises one ``ReplicaSet`` ClassAd per logical name into
the same :class:`~repro.grid.discovery.Collector` the appliances
advertise into, so an execution manager can matchmake on
``ReplicaCount`` / ``Locations`` exactly as it matches on
``GrantableSpace`` -- "where can I run this job near a copy of its
input?" becomes a ClassAd query.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.classads import ClassAd
from repro.classads.parser import parse_expression
from repro.obs.metrics import MetricsRegistry, global_registry

__all__ = [
    "COPYING",
    "VALID",
    "SUSPECT",
    "Replica",
    "ReplicaCatalog",
    "replica_request_ad",
]

#: Replica lifecycle states.
COPYING = "copying"
VALID = "valid"
SUSPECT = "suspect"

_STATES = (COPYING, VALID, SUSPECT)


@dataclass
class Replica:
    """One physical copy of a logical file on one appliance."""

    site: str  #: the NeST's advertised Name
    path: str  #: path of the copy on that site
    state: str = COPYING
    size: int = 0
    checksum: Optional[int] = None  #: CRC32 (Chirp ``checksum`` verb)
    registered_at: float = 0.0
    state_changed_at: float = field(default=0.0, compare=False)

    def describe(self) -> dict[str, Any]:
        """JSON-able record (status rendering, tests)."""
        return {
            "site": self.site,
            "path": self.path,
            "state": self.state,
            "size": self.size,
            "checksum": self.checksum,
        }


class ReplicaCatalog:
    """Thread-safe mapping of logical names to replica locations."""

    def __init__(
        self,
        collector=None,
        clock: Callable[[], float] = time.time,
        registry: MetricsRegistry | None = None,
        ad_ttl: float | None = None,
    ):
        self.collector = collector
        self.clock = clock
        self.ad_ttl = ad_ttl
        self._lock = threading.Lock()
        #: logical name -> {site name -> Replica}
        self._sets: dict[str, dict[str, Replica]] = {}
        #: metadata-journal sink (see :mod:`repro.durability`); None
        #: keeps the catalog memory-only.
        self.journal: Callable[..., Any] | None = None
        reg = registry if registry is not None else global_registry()
        self._m_transitions = reg.counter(
            "replica_state_transitions_total",
            "Replica lifecycle transitions recorded by the catalog.",
            labelnames=("state",))
        reg.gauge_callback(
            "replica_logical_files", self._count_logicals,
            "Logical names tracked by the replica catalog.")
        reg.gauge_callback(
            "replica_valid_copies", self._count_valid,
            "Replica copies currently in the valid state.")

    # -- mutation ----------------------------------------------------------
    def _commit(self, rtype: str, **fields) -> None:
        """Apply one mutation through :meth:`apply_record`, then journal
        it: replay applies the same record through the same function.
        The catalog lock is released before the sink runs (a snapshot
        it triggers serializes the catalog)."""
        self.apply_record({"type": rtype, **fields})
        if self.journal is not None:
            self.journal(rtype, **fields)

    def register(self, logical: str, site: str, path: str, *,
                 size: int = 0, state: str = COPYING) -> Replica:
        """Record a (new or replacing) replica of ``logical`` on ``site``."""
        if state not in _STATES:
            raise ValueError(f"unknown replica state {state!r}")
        self._commit("replica_register", logical=logical, site=site,
                     path=path, size=size, state=state)
        with self._lock:
            replica = self._sets.get(logical, {}).get(site)
        self._m_transitions.inc(state=state)
        self._readvertise(logical)
        return replica

    def _transition(self, logical: str, site: str, state: str,
                    checksum: Optional[int] = None,
                    size: Optional[int] = None) -> Replica:
        with self._lock:
            replica = self._sets.get(logical, {}).get(site)
        if replica is None:
            raise KeyError(f"no replica of {logical!r} on {site!r}")
        self._commit("replica_state", logical=logical, site=site,
                     state=state, checksum=checksum, size=size)
        self._m_transitions.inc(state=state)
        self._readvertise(logical)
        return replica

    def mark_valid(self, logical: str, site: str,
                   checksum: Optional[int] = None,
                   size: Optional[int] = None) -> Replica:
        """The copy on ``site`` verified; it is now readable."""
        return self._transition(logical, site, VALID, checksum, size)

    def mark_suspect(self, logical: str, site: str) -> Replica:
        """A fault implicated the copy on ``site``; stop reading it."""
        return self._transition(logical, site, SUSPECT)

    def drop(self, logical: str, site: str) -> None:
        """Remove the record of ``logical``'s copy on ``site``."""
        self._commit("replica_drop", logical=logical, site=site)
        self._readvertise(logical)

    def drop_site(self, site: str) -> int:
        """Remove every replica recorded on ``site`` (site decommission);
        returns how many were dropped."""
        with self._lock:
            touched = [logical for logical, replicas in self._sets.items()
                       if site in replicas]
        for logical in touched:
            self.drop(logical, site)
        return len(touched)

    # -- durability (snapshot + journal replay; see repro.durability) ------
    def serialize(self) -> dict[str, Any]:
        """Full catalog state, JSON-able, for compacted snapshots."""
        with self._lock:
            return {
                logical: [
                    {"site": r.site, "path": r.path, "state": r.state,
                     "size": r.size, "checksum": r.checksum,
                     "registered_at": r.registered_at}
                    for r in replicas.values()
                ]
                for logical, replicas in sorted(self._sets.items())
            }

    def restore(self, data: dict[str, Any]) -> None:
        """Replace catalog contents with a snapshot's (no ads emitted;
        recovery advertises once the whole catalog is rebuilt)."""
        with self._lock:
            self._sets.clear()
            for logical, replicas in data.items():
                for rec in replicas:
                    at = float(rec.get("registered_at", 0.0))
                    self._sets.setdefault(logical, {})[rec["site"]] = Replica(
                        site=rec["site"], path=rec.get("path", ""),
                        state=rec.get("state", COPYING),
                        size=int(rec.get("size", 0)),
                        checksum=rec.get("checksum"),
                        registered_at=at, state_changed_at=at)

    def apply_record(self, rec: dict[str, Any]) -> bool:
        """Apply one journal record -- committed live by :meth:`_commit`,
        or replayed after a crash; returns whether the type was ours.
        Never journals or advertises: the live verb does both around
        it, and replay is silent."""
        rtype = rec.get("type")
        if rtype == "replica_register":
            at = self.clock()
            with self._lock:
                self._sets.setdefault(rec["logical"], {})[rec["site"]] = (
                    Replica(site=rec["site"], path=rec.get("path", ""),
                            state=rec.get("state", COPYING),
                            size=int(rec.get("size", 0)),
                            registered_at=at, state_changed_at=at))
            return True
        if rtype == "replica_state":
            with self._lock:
                replica = self._sets.get(rec["logical"], {}).get(rec["site"])
                if replica is not None:
                    replica.state = rec.get("state", replica.state)
                    replica.state_changed_at = self.clock()
                    if rec.get("checksum") is not None:
                        replica.checksum = rec["checksum"]
                    if rec.get("size") is not None:
                        replica.size = int(rec["size"])
            return True
        if rtype == "replica_drop":
            with self._lock:
                replicas = self._sets.get(rec["logical"])
                if replicas is not None:
                    replicas.pop(rec["site"], None)
                    if not replicas:
                        del self._sets[rec["logical"]]
            return True
        return False

    # -- queries -----------------------------------------------------------
    def logicals(self) -> list[str]:
        with self._lock:
            return sorted(self._sets)

    def locations(self, logical: str) -> list[Replica]:
        """Every recorded replica of ``logical`` (any state)."""
        with self._lock:
            return list(self._sets.get(logical, {}).values())

    def valid_locations(self, logical: str) -> list[Replica]:
        """Readable replicas only."""
        return [r for r in self.locations(logical) if r.state == VALID]

    def sites(self, logical: str) -> set[str]:
        """Sites holding any copy of ``logical`` -- placement must not
        put a second copy on any of these."""
        with self._lock:
            return set(self._sets.get(logical, {}))

    def replica_count(self, logical: str) -> int:
        return len(self.valid_locations(logical))

    def deficits(self, target: int) -> dict[str, int]:
        """Logical names short of ``target`` valid copies -> how many
        more each needs (the repair loop's worklist)."""
        out: dict[str, int] = {}
        for logical in self.logicals():
            missing = target - self.replica_count(logical)
            if missing > 0:
                out[logical] = missing
        return out

    def snapshot(self) -> dict[str, list[dict[str, Any]]]:
        """A JSON-able view of the whole catalog."""
        with self._lock:
            return {
                logical: [r.describe() for r in replicas.values()]
                for logical, replicas in sorted(self._sets.items())
            }

    def _count_logicals(self) -> float:
        with self._lock:
            return float(len(self._sets))

    def _count_valid(self) -> float:
        with self._lock:
            return float(sum(
                1 for replicas in self._sets.values()
                for r in replicas.values() if r.state == VALID))

    # -- advertisement ------------------------------------------------------
    def ad_for(self, logical: str) -> ClassAd:
        """This logical name's ``ReplicaSet`` ClassAd."""
        replicas = self.locations(logical)
        valid = [r for r in replicas if r.state == VALID]
        ad = ClassAd({
            "Type": "ReplicaSet",
            "Name": f"replica::{logical}",
            "LogicalName": logical,
            "ReplicaCount": len(valid),
            "Locations": sorted(r.site for r in valid),
            "AllLocations": sorted(r.site for r in replicas),
            "Size": max((r.size for r in valid), default=0),
        })
        ad["Requirements"] = parse_expression(
            'other.Type == "ReplicaQuery"')
        return ad

    def advertise(self, logical: str | None = None) -> None:
        """Publish ``ReplicaSet`` ads (one logical, or all of them)."""
        if self.collector is None:
            return
        targets = [logical] if logical is not None else self.logicals()
        for name in targets:
            if self.locations(name):
                self.collector.advertise(self.ad_for(name), ttl=self.ad_ttl)
            else:
                self.collector.withdraw(f"replica::{name}")

    def _readvertise(self, logical: str) -> None:
        """Keep the collector in sync after any mutation."""
        self.advertise(logical)


def replica_request_ad(logical: str | None = None,
                       min_replicas: int = 1) -> ClassAd:
    """A request ad an execution manager submits to find replica sets.

    Constrains to one logical name when given, requires at least
    ``min_replicas`` valid copies, and ranks by copy count (more
    replicas = more scheduling freedom).
    """
    requirements = (f'other.Type == "ReplicaSet" '
                    f"&& other.ReplicaCount >= my.MinReplicas")
    if logical is not None:
        requirements += f' && other.LogicalName == "{logical}"'
    ad = ClassAd({"Type": "ReplicaQuery", "MinReplicas": int(min_replicas)})
    ad["Requirements"] = parse_expression(requirements)
    ad["Rank"] = parse_expression("other.ReplicaCount")
    return ad
