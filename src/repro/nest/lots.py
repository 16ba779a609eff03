"""Lots: guaranteed storage space (paper, section 5).

A *lot* is NeST's storage-space reservation, "similar to reservations
for network bandwidth".  Each lot has four characteristics: **owner**,
**capacity**, **duration**, and **files**.  The number of files in a
lot is unbounded, and a file may span multiple lots if it cannot fit
within one.  When a lot's duration expires its files are *not* deleted;
the lot becomes **best-effort** and its data survives until the space
is needed for a new lot (reclamation policies below).

Two enforcement modes, both from the paper:

* ``"quota"`` -- lots ride the filesystem quota mechanism.  Cheap and
  lets clients bypass NeST for local access, but enforcement is only
  per-*user*: "a user may overfill a single lot and then not be able to
  fill another lot to capacity".  We reproduce that caveat faithfully.
* ``"nest"`` -- NeST-managed enforcement (the paper's future work):
  every write is charged against specific lots, so per-lot capacity is
  exact.  The overhead comparison is an ablation bench.

Reclamation policies for best-effort space: ``"expired-first"`` (oldest
expiry first), ``"largest-first"`` (frees space fastest), and ``"lru"``
(least recently used lot first).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.nest.backends import TEMP_SUFFIX


class LotError(Exception):
    """Lot operation failed (no space, unknown lot, not owner...)."""


class LotState(enum.Enum):
    """Lifecycle: ACTIVE while within duration, then BEST_EFFORT."""

    ACTIVE = "active"
    BEST_EFFORT = "best_effort"


@dataclass
class Lot:
    """One storage-space guarantee."""

    lot_id: str
    owner: str
    capacity: int
    expires_at: float
    state: LotState = LotState.ACTIVE
    #: Volatile lots (serving IBP volatile allocations) reserve no
    #: space: they accept charges while active but may be reclaimed at
    #: any time, like best-effort data.
    volatile: bool = False
    #: Pinned lots keep their files in the fast storage tier: the
    #: migration policy never demotes a file charged to (or attached
    #: under) a pinned lot.  The operator's "this stays on disk" knob.
    pinned: bool = False
    #: bytes charged to this lot, per file path (files may span lots).
    charges: dict[str, int] = field(default_factory=dict)
    last_used: float = 0.0

    @property
    def used(self) -> int:
        """Bytes currently charged against this lot."""
        return sum(self.charges.values())

    @property
    def free(self) -> int:
        """Capacity remaining in this lot."""
        return self.capacity - self.used

    def describe(self) -> dict:
        """Stat output for ``lot_stat``."""
        return {
            "lot_id": self.lot_id,
            "owner": self.owner,
            "capacity": self.capacity,
            "used": self.used,
            "expires_at": self.expires_at,
            "state": self.state.value,
            "pinned": self.pinned,
            "files": sorted(self.charges),
        }


class LotManager:
    """Manages all lots on one NeST, with pluggable clock and enforcement.

    ``clock`` abstracts time so the same code runs live (``time.time``)
    and on the DES (``lambda: env.now``).  :meth:`create_lot` returns
    the file paths whose space it reclaimed from best-effort lots, so
    the storage manager can delete the actual data; the lot manager
    holds no reference back to it.
    """

    def __init__(
        self,
        capacity_bytes: int,
        clock: Callable[[], float],
        enforcement: str = "quota",
        reclaim_policy: str = "expired-first",
        groups: dict[str, set[str]] | None = None,
    ):
        if enforcement not in ("quota", "nest"):
            raise ValueError(f"unknown enforcement mode {enforcement!r}")
        if reclaim_policy not in ("expired-first", "largest-first", "lru"):
            raise ValueError(f"unknown reclaim policy {reclaim_policy!r}")
        self.capacity_bytes = int(capacity_bytes)
        self.clock = clock
        self.enforcement = enforcement
        self.reclaim_policy = reclaim_policy
        #: group name -> members, for **group lots** (a lot owned by
        #: ``group:<name>`` is usable by every member -- the paper's
        #: "group lots will be included in the next release").
        self.groups = groups if groups is not None else {}
        self.lots: dict[str, Lot] = {}
        #: path prefix -> lot_id: charges for files under the prefix go
        #: to the attached lot first (Chirp's ``lot_attach``).
        self.attachments: dict[str, str] = {}
        self._next_id = 1
        #: optional metadata-journal sink ``(rtype, **fields)``;
        #: :meth:`_commit` publishes every durable mutation here so the
        #: durability layer can rebuild lots after a crash
        #: (:mod:`repro.durability`).
        self.journal: Callable[..., Any] | None = None
        self._m_expired = None
        self._m_reclaimed_files = None
        self._m_reclaimed_bytes = None

    def register_metrics(self, registry) -> None:
        """Publish lot lifecycle counters + live gauges on ``registry``
        (a :class:`repro.obs.metrics.MetricsRegistry`)."""
        self._m_expired = registry.counter(
            "nest_lots_expired_total",
            "Lots whose guarantee lapsed to best-effort.")
        self._m_reclaimed_files = registry.counter(
            "nest_lot_reclaimed_files_total",
            "Files deleted by best-effort reclamation.")
        self._m_reclaimed_bytes = registry.counter(
            "nest_lot_reclaimed_bytes_total",
            "Bytes freed by best-effort reclamation.")
        registry.gauge_callback(
            "nest_lots_active",
            lambda: sum(1 for l in self.lots.values()
                        if l.state is LotState.ACTIVE),
            "Lots currently holding a guarantee.")
        registry.gauge_callback(
            "nest_lot_used_bytes", self.total_used,
            "Bytes charged across all lots.")

    def _commit(self, rtype: str, **fields) -> None:
        """Apply one lot mutation through :meth:`apply_record`, then
        publish it to the bound journal sink -- the one place either
        happens, so replay runs the code the live verb ran.

        Expiry is deliberately *not* journaled: it is a pure function
        of ``expires_at`` vs the clock, so recovery re-derives it
        lazily -- which is exactly how a lot that expired while the
        server was down comes back BEST_EFFORT.
        """
        self.apply_record({"type": rtype, **fields})
        if self.journal is not None:
            self.journal(rtype, **fields)

    def apply_record(self, rec: dict[str, Any]) -> bool:
        """Apply one lot record -- committed live, or replayed after a
        crash; True when the type is a lot record."""
        handler = getattr(self, "_r_" + str(rec.get("type")), None)
        if handler is None:
            return False
        handler(rec)
        return True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def expire_lots(self) -> list[Lot]:
        """Flip expired ACTIVE lots to BEST_EFFORT; returns those flipped.

        Expiry is checked lazily on every entry point, which keeps the
        manager clock-agnostic (no timers needed).
        """
        now = self.clock()
        flipped = []
        for lot in self.lots.values():
            if lot.state is LotState.ACTIVE and now >= lot.expires_at:
                lot.state = LotState.BEST_EFFORT
                flipped.append(lot)
        if flipped and self._m_expired is not None:
            self._m_expired.inc(len(flipped))
        return flipped

    def _guaranteed_bytes(self) -> int:
        """Space promised to ACTIVE non-volatile lots (full capacity)."""
        return sum(l.capacity for l in self.lots.values()
                   if l.state is LotState.ACTIVE and not l.volatile)

    def _best_effort_used(self) -> int:
        """Space occupied by reclaimable data: best-effort lots plus
        active volatile lots."""
        return sum(l.used for l in self.lots.values()
                   if l.state is LotState.BEST_EFFORT
                   or (l.state is LotState.ACTIVE and l.volatile))

    def available_for_new_lot(self) -> int:
        """Bytes a new lot could be granted *without* reclamation."""
        self.expire_lots()
        return self.capacity_bytes - self._guaranteed_bytes() - self._best_effort_used()

    def reclaimable_bytes(self) -> int:
        """Best-effort bytes that could be reclaimed if needed."""
        self.expire_lots()
        return self._best_effort_used()

    def create_lot(self, owner: str, capacity: int, duration: float,
                   volatile: bool = False) -> tuple[Lot, list[str]]:
        """Create a lot, reclaiming best-effort space if necessary.

        Returns the lot and the paths reclamation took a charge from:
        the caller deletes those no lot backs any more
        (:meth:`StorageManager.create_lot
        <repro.nest.storage.StorageManager.create_lot>`).  A
        ``volatile`` lot (IBP volatile allocations) makes no space
        guarantee: nothing is reclaimed for it, and its own data is
        reclaimable at any time.

        Raises :exc:`LotError`, before reclaiming anything, when the
        arguments are bad or the guarantee cannot be met even after
        reclaiming every best-effort byte.
        """
        if capacity <= 0 or duration <= 0:
            raise LotError("capacity and duration must be positive")
        self.expire_lots()
        reclaimed: list[str] = []
        if not volatile:
            shortfall = capacity - self.available_for_new_lot()
            if shortfall > 0:
                if shortfall > self.reclaimable_bytes():
                    raise LotError(
                        f"cannot guarantee {capacity} bytes: "
                        f"{self.available_for_new_lot()} free, "
                        f"{self.reclaimable_bytes()} reclaimable"
                    )
                reclaimed = self._reclaim(shortfall)
        now = self.clock()
        lot_id = f"lot{self._next_id}"
        self._commit("lot_create", lot_id=lot_id, owner=owner,
                     capacity=int(capacity), expires_at=now + duration,
                     volatile=volatile, last_used=now)
        return self.lots[lot_id], reclaimed

    def renew(self, lot_id: str, duration: float, owner: str | None = None) -> Lot:
        """Extend a lot's duration; best-effort lots reactivate if the
        guarantee still fits (the paper allows indefinite renewal)."""
        lot = self._get(lot_id, owner)
        self.expire_lots()
        if lot.state is LotState.BEST_EFFORT:
            others = self.capacity_bytes - self._guaranteed_bytes() - (
                self._best_effort_used() - lot.used
            )
            if lot.capacity > others:
                raise LotError(f"cannot reactivate {lot_id}: space since promised away")
        self._commit("lot_renew", lot_id=lot.lot_id,
                     expires_at=self.clock() + duration,
                     state=LotState.ACTIVE.value)
        return lot

    def delete_lot(self, lot_id: str, owner: str | None = None) -> list[str]:
        """Terminate a lot; returns paths whose only charge was here
        (candidates for deletion by the storage manager)."""
        lot = self._get(lot_id, owner)
        self._commit("lot_delete", lot_id=lot.lot_id)
        orphans = []
        for path in lot.charges:
            if not any(path in other.charges for other in self.lots.values()):
                orphans.append(path)
        return orphans

    def stat(self, lot_id: str) -> dict:
        """Describe one lot."""
        self.expire_lots()
        return self._get(lot_id).describe()

    def list_lots(self, owner: str | None = None) -> list[dict]:
        """Describe all lots, optionally filtered by owner."""
        self.expire_lots()
        return [
            lot.describe()
            for lot in self.lots.values()
            if owner is None or lot.owner == owner
        ]

    def _get(self, lot_id: str, owner: str | None = None) -> Lot:
        lot = self.lots.get(lot_id)
        if lot is None:
            raise LotError(f"no such lot {lot_id!r}")
        if owner is not None and not self._usable_by(owner, lot):
            raise LotError(f"lot {lot_id!r} not owned by {owner!r}")
        return lot

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def _usable_by(self, user: str, lot: Lot) -> bool:
        """A lot is usable by its owner and, for group lots, by every
        member of the owning group."""
        if lot.owner == user:
            return True
        if lot.owner.startswith("group:"):
            members = self.groups.get(lot.owner[len("group:"):], set())
            return user in members
        return False

    def user_limit(self, owner: str) -> int:
        """Total bytes ``owner`` may store (the quota-mode limit),
        including group lots they can use."""
        self.expire_lots()
        return sum(l.capacity for l in self.lots.values()
                   if self._usable_by(owner, l) and l.state is LotState.ACTIVE)

    def attach(self, lot_id: str, prefix: str, owner: str | None = None) -> None:
        """Bind a path prefix to a lot: future charges for files under
        ``prefix`` are packed into that lot first."""
        lot = self._get(lot_id, owner)
        self._commit("lot_attach", lot_id=lot.lot_id,
                     prefix=prefix.rstrip("/") or "/")

    def pin_lot(self, lot_id: str, pinned: bool = True,
                owner: str | None = None) -> Lot:
        """Pin (or unpin) a lot: pinned lots' files are excluded from
        storage-tier demotion.  Journaled, so pins survive a crash."""
        lot = self._get(lot_id, owner)
        self._commit("lot_pin", lot_id=lot.lot_id, pinned=bool(pinned))
        return lot

    def is_pinned(self, path: str) -> bool:
        """Is ``path`` held in the fast tier by a pinned lot -- either
        charged against one, or under a prefix attached to one?"""
        for lot in self.lots.values():
            if lot.pinned and path in lot.charges:
                return True
        attached = self._attached_lot(path)
        return attached is not None and attached.pinned

    def _attached_lot(self, path: str) -> Lot | None:
        best: str | None = None
        for prefix in self.attachments:
            if path == prefix or path.startswith(prefix.rstrip("/") + "/"):
                if best is None or len(prefix) > len(best):
                    best = prefix
        if best is None:
            return None
        return self.lots.get(self.attachments[best])

    def charge(self, owner: str, path: str, nbytes: int) -> None:
        """Charge a file's growth against the lots ``owner`` can use
        (an attached lot for the path first, then their own, then
        group lots).

        In ``nest`` mode the bytes are packed into specific active lots
        (spanning as needed); in ``quota`` mode only the per-user total
        is enforced and charges are recorded against the first active
        lot for bookkeeping -- including its overfill caveat.
        """
        if nbytes <= 0:
            return
        self.expire_lots()
        now = self.clock()
        mine = [l for l in self.lots.values()
                if self._usable_by(owner, l) and l.state is LotState.ACTIVE]
        attached = self._attached_lot(path)
        mine.sort(key=lambda l: (l is not attached, l.owner != owner, l.lot_id))
        if not mine:
            raise LotError(f"user {owner!r} has no active lot")
        if self.enforcement == "quota":
            limit = sum(l.capacity for l in mine)
            used = sum(l.used for l in mine)
            if used + nbytes > limit:
                raise LotError(
                    f"user {owner!r} over quota: {used}+{nbytes} > {limit}"
                )
            self._commit("lot_charge", lot_id=mine[0].lot_id, path=path,
                         nbytes=nbytes, last_used=now)
            return
        # nest-managed: pack into lots with room, spanning if needed.
        # Check first so a failed charge leaves no partial state.
        total_free = sum(lot.free for lot in mine)
        if nbytes > total_free:
            raise LotError(
                f"user {owner!r} out of lot space: {nbytes - total_free} bytes over"
            )
        remaining = nbytes
        for lot in mine:
            room = lot.free
            if room <= 0:
                continue
            take = min(room, remaining)
            self._commit("lot_charge", lot_id=lot.lot_id, path=path,
                         nbytes=take, last_used=now)
            remaining -= take
            if remaining == 0:
                return

    def rename_charges(self, path: str, new_path: str) -> None:
        """Re-key the charges (and attachments) of a renamed path and of
        every path under it, for a directory.

        Not journaled: the storage-level ``rename`` record replays
        this re-keying deterministically.
        A staged name under a renamed directory keeps its charge: it
        is an in-flight put's reservation, which that put settles by
        the name it charged, and its bytes do not move either.
        """
        prefix = path.rstrip("/") + "/"
        new_prefix = new_path.rstrip("/") + "/"
        for table in [lot.charges for lot in self.lots.values()] + [
                self.attachments]:
            for old in [p for p in table
                        if p == path or (p.startswith(prefix)
                                         and not p.endswith(TEMP_SUFFIX))]:
                renamed = (new_path if old == path
                           else new_prefix + old[len(prefix):])
                table[renamed] = table.pop(old)

    def merge_charges(self, path: str, into: str) -> None:
        """Add ``path``'s charges in every lot to ``into``'s, leaving
        ``path`` with none -- how a committed put's reservation, held
        under its staged name, joins the file's charge.

        Not journaled: the ``put_commit`` record replays it."""
        for lot in self.lots.values():
            nbytes = lot.charges.pop(path, 0)
            if nbytes:
                lot.charges[into] = lot.charges.get(into, 0) + nbytes

    def charges_of(self, path: str) -> dict[str, int]:
        """``path``'s charge in each lot that holds one, by lot id."""
        return {lot.lot_id: lot.charges[path] for lot in self.lots.values()
                if path in lot.charges}

    def set_charges(self, path: str, charges: dict[str, int]) -> None:
        """Put ``path``'s charges back to ``charges`` (from
        :meth:`charges_of`) in memory only, journaling nothing."""
        for lot in self.lots.values():
            nbytes = charges.get(lot.lot_id, 0)
            if nbytes:
                lot.charges[path] = nbytes
            else:
                lot.charges.pop(path, None)

    def release(self, path: str, nbytes: int | None = None) -> None:
        """Release a file's charges (all of them when ``nbytes`` is None)."""
        for lot_id, take in self._takes(path, nbytes):
            self._commit("lot_release", lot_id=lot_id, path=path,
                         nbytes=take)

    def trim_charges(self, path: str, nbytes: int) -> None:
        """Release ``nbytes`` of ``path``'s charges, lot by lot as
        :meth:`release` does.

        Not journaled: the ``put_commit`` record of a shrinking
        overwrite replays it."""
        for lot_id, take in self._takes(path, nbytes):
            self._r_lot_release({"lot_id": lot_id, "path": path,
                                 "nbytes": take})

    def _takes(self, path: str, nbytes: int | None):
        """``(lot_id, bytes)`` to release from each lot holding a charge
        for ``path``, in lot order, until ``nbytes`` (all, when None)."""
        remaining = nbytes
        for lot in self.lots.values():
            if path not in lot.charges:
                continue
            take = lot.charges[path]
            if remaining is not None:
                take = min(take, remaining)
                remaining -= take
            yield lot.lot_id, take
            if remaining == 0:
                return

    # ------------------------------------------------------------------
    # reclamation
    # ------------------------------------------------------------------
    def _victim_order(self) -> list[Lot]:
        best_effort = [
            l for l in self.lots.values()
            if l.state is LotState.BEST_EFFORT
            or (l.state is LotState.ACTIVE and l.volatile)
        ]
        if self.reclaim_policy == "expired-first":
            best_effort.sort(key=lambda l: l.expires_at)
        elif self.reclaim_policy == "largest-first":
            best_effort.sort(key=lambda l: -l.used)
        else:  # lru
            best_effort.sort(key=lambda l: l.last_used)
        return best_effort

    def _reclaim(self, needed: int) -> list[str]:
        """Release best-effort charges until ``needed`` bytes are free;
        returns the paths whose charges it took, each once."""
        freed = 0
        reclaimed_files = 0
        taken: dict[str, None] = {}
        for lot in self._victim_order():
            if freed >= needed:
                break
            for path in list(lot.charges):
                nbytes = lot.charges[path]
                self._commit("lot_reclaim", lot_id=lot.lot_id, path=path,
                             nbytes=nbytes)
                freed += nbytes
                reclaimed_files += 1
                taken[path] = None
                if freed >= needed:
                    break
            if not lot.charges:
                self._commit("lot_delete", lot_id=lot.lot_id)
        if reclaimed_files and self._m_reclaimed_files is not None:
            self._m_reclaimed_files.inc(reclaimed_files)
            self._m_reclaimed_bytes.inc(freed)
        return list(taken)

    def total_used(self) -> int:
        """Bytes charged across all lots."""
        return sum(l.used for l in self.lots.values())

    # ------------------------------------------------------------------
    # durability: one apply function per lot record type, run by
    # _commit live and by crash replay; snapshot serialize + restore
    # ------------------------------------------------------------------
    def serialize(self) -> dict:
        """JSON-able full state for a compacted snapshot."""
        return {
            "next_id": self._next_id,
            "attachments": dict(self.attachments),
            "lots": [
                {
                    "lot_id": l.lot_id,
                    "owner": l.owner,
                    "capacity": l.capacity,
                    "expires_at": l.expires_at,
                    "state": l.state.value,
                    "volatile": l.volatile,
                    "pinned": l.pinned,
                    "last_used": l.last_used,
                    "charges": dict(l.charges),
                }
                for l in sorted(self.lots.values(), key=lambda l: l.lot_id)
            ],
        }

    def restore(self, data: dict) -> None:
        """Replace all lot state from a snapshot (in place, so shared
        references -- gauges, the storage manager -- stay valid)."""
        self.lots.clear()
        for doc in data["lots"]:
            self._r_lot_create(doc)
        self.attachments.clear()
        self.attachments.update(data.get("attachments", {}))
        self._next_id = max(self._next_id, int(data.get("next_id", 1)))

    def _r_lot_create(self, rec: dict) -> None:
        """Create one lot exactly as recorded -- a ``lot_create`` record
        or a snapshot's lot document (no space checks: the live
        ``create_lot`` made them before committing)."""
        lot = Lot(
            lot_id=rec["lot_id"], owner=rec["owner"],
            capacity=int(rec["capacity"]),
            expires_at=float(rec["expires_at"]),
            state=LotState(rec.get("state", LotState.ACTIVE.value)),
            volatile=bool(rec.get("volatile", False)),
            pinned=bool(rec.get("pinned", False)),
            last_used=float(rec.get("last_used", 0.0)),
            charges={p: int(n) for p, n in rec.get("charges", {}).items()},
        )
        self.lots[lot.lot_id] = lot
        # Never re-mint an id that history already used.
        if lot.lot_id.startswith("lot"):
            try:
                self._next_id = max(self._next_id, int(lot.lot_id[3:]) + 1)
            except ValueError:
                pass

    def _r_lot_renew(self, rec: dict) -> None:
        lot = self.lots.get(rec["lot_id"])
        if lot is not None:
            lot.expires_at = float(rec["expires_at"])
            lot.state = LotState(rec.get("state", LotState.ACTIVE.value))

    def _r_lot_delete(self, rec: dict) -> None:
        self.lots.pop(rec["lot_id"], None)

    def _r_lot_pin(self, rec: dict) -> None:
        lot = self.lots.get(rec["lot_id"])
        if lot is not None:
            lot.pinned = bool(rec.get("pinned", False))

    def _r_lot_attach(self, rec: dict) -> None:
        self.attachments[rec["prefix"]] = rec["lot_id"]

    def _r_lot_charge(self, rec: dict) -> None:
        lot = self.lots.get(rec["lot_id"])
        if lot is not None:
            path = rec["path"]
            lot.charges[path] = lot.charges.get(path, 0) + int(rec["nbytes"])
            lot.last_used = float(rec.get("last_used", lot.last_used))

    def _r_lot_release(self, rec: dict) -> None:
        lot = self.lots.get(rec["lot_id"])
        if lot is None:
            return
        path = rec["path"]
        left = lot.charges.get(path, 0) - int(rec["nbytes"])
        if left > 0:
            lot.charges[path] = left
        else:
            lot.charges.pop(path, None)

    _r_lot_reclaim = _r_lot_release
