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

#: A slot's pre-image when the slot held nothing.
_ABSENT = object()


def keep(undo: list | None, slots: dict, key) -> None:
    """Note ``slots[key]``'s pre-image in ``undo`` before a record's
    apply function writes it.  ``slots`` is a dict, or an object's
    ``vars()`` for an attribute.  ``undo`` is the committing op's list;
    it is None on replay and when no journal is bound, and then nothing
    is kept."""
    if undo is not None:
        undo.append((slots, key, slots.get(key, _ABSENT)))


def restore(undo: list) -> None:
    """Put back every slot ``undo`` noted, newest first."""
    for slots, key, old in reversed(undo):
        if old is _ABSENT:
            slots.pop(key, None)
        else:
            slots[key] = old


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
    and on the DES (``lambda: env.now``).  :meth:`lot_record` lists the
    charges a new lot reclaims from best-effort lots, so the storage
    manager can drop the files they leave unbacked in the same record;
    the lot manager holds no reference back to it.
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
        #: optional metadata-journal sink ``(rtype, fields, undo)``;
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
        publish it, with the pre-images its apply kept, to the bound
        journal sink -- the one place either happens, so replay runs
        the code the live verb ran.

        Expiry is deliberately *not* journaled: it is a pure function
        of ``expires_at`` vs the clock, so recovery re-derives it
        lazily -- which is exactly how a lot that expired while the
        server was down comes back BEST_EFFORT.
        """
        rec = {"type": rtype, **fields}
        if self.journal is None:
            self.apply_record(rec)
            return
        undo: list = []
        self.apply_record(rec, undo)
        self.journal(rtype, fields, undo)

    def apply_record(self, rec: dict[str, Any],
                     undo: list | None = None) -> bool:
        """Apply one lot record -- committed live, keeping the
        pre-image of each slot it writes in ``undo``, or replayed after
        a crash; True when the type is a lot record."""
        handler = getattr(self, "_r_" + str(rec.get("type")), None)
        if handler is None:
            return False
        handler(rec, undo)
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
        """Create a lot, reclaiming best-effort space if necessary, in
        one ``lot_create`` record (:meth:`lot_record`).  Returns the lot
        and the paths reclamation took a charge from, each once: the
        storage manager's ``create_lot`` drops the files among them."""
        rec = self.lot_record(owner, capacity, duration, volatile)
        self._commit("lot_create", **rec)
        return (self.lots[rec["lot_id"]],
                list(dict.fromkeys(path for _, path, _ in rec["reclaimed"])))

    def lot_record(self, owner: str, capacity: int, duration: float,
                   volatile: bool = False) -> dict[str, Any]:
        """The fields of the ``lot_create`` record that makes a new
        lot: the lot itself, the best-effort charges reclaiming space
        for it takes (``reclaimed``: ``[lot_id, path, bytes]`` each)
        and the lots that leaves empty (``emptied``).  A ``volatile``
        lot (IBP volatile allocations) makes no space guarantee:
        nothing is reclaimed for it, and its own data is reclaimable at
        any time.  Changes nothing.

        Raises :exc:`LotError` when the arguments are bad or the
        guarantee cannot be met even after reclaiming every
        best-effort byte.
        """
        if capacity <= 0 or duration <= 0:
            raise LotError("capacity and duration must be positive")
        self.expire_lots()
        reclaimed: list[list] = []
        emptied: list[str] = []
        if not volatile:
            shortfall = capacity - self.available_for_new_lot()
            if shortfall > 0:
                if shortfall > self.reclaimable_bytes():
                    raise LotError(
                        f"cannot guarantee {capacity} bytes: "
                        f"{self.available_for_new_lot()} free, "
                        f"{self.reclaimable_bytes()} reclaimable"
                    )
                reclaimed, emptied = self._reclaim(shortfall)
        now = self.clock()
        return {"lot_id": f"lot{self._next_id}", "owner": owner,
                "capacity": int(capacity), "expires_at": now + duration,
                "volatile": volatile, "last_used": now,
                "reclaimed": reclaimed, "emptied": emptied}

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

    def charge(self, owner: str, path: str, nbytes: int) -> dict[str, int]:
        """Charge ``path`` ``nbytes`` more (:meth:`plan_charge`) in
        memory only, and return the bytes taken from each lot: a PUT's
        reservation, under a staged name no restart keeps.  What a
        commit charges a file rides in its record (``charges``)."""
        takes = self.plan_charge(owner, path, nbytes)
        self.add_charges(path, takes)
        return takes

    def plan_charge(self, owner: str, path: str,
                    nbytes: int) -> dict[str, int]:
        """The bytes to charge ``path`` in each lot, by lot id, for
        ``nbytes`` of growth against the lots ``owner`` can use (an
        attached lot for the path first, then their own, then group
        lots).  Changes nothing but lazy expiry; raises
        :exc:`LotError` when they have no room.

        In ``nest`` mode the bytes are packed into specific active lots
        (spanning as needed); in ``quota`` mode only the per-user total
        is enforced and charges are recorded against the first active
        lot for bookkeeping -- including its overfill caveat.
        """
        if nbytes <= 0:
            return {}
        self.expire_lots()
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
            return {mine[0].lot_id: nbytes}
        # nest-managed: pack into lots with room, spanning if needed.
        total_free = sum(lot.free for lot in mine)
        if nbytes > total_free:
            raise LotError(
                f"user {owner!r} out of lot space: {nbytes - total_free} bytes over"
            )
        takes: dict[str, int] = {}
        remaining = nbytes
        for lot in mine:
            if remaining and lot.free > 0:
                takes[lot.lot_id] = min(lot.free, remaining)
                remaining -= takes[lot.lot_id]
        return takes

    def add_charges(self, path: str, charges: dict[str, int],
                    last_used: float | None = None,
                    undo: list | None = None) -> None:
        """Add ``charges`` (bytes by lot id) to ``path``'s, stamping
        each lot's ``last_used`` when given -- how a record's
        ``charges`` land, live and on replay."""
        for lot_id, nbytes in charges.items():
            lot = self.lots.get(lot_id)
            if lot is None:
                continue
            keep(undo, lot.charges, path)
            lot.charges[path] = lot.charges.get(path, 0) + int(nbytes)
            if last_used is not None:
                keep(undo, vars(lot), "last_used")
                lot.last_used = float(last_used)

    def rename_charges(self, path: str, new_path: str,
                       undo: list | None = None) -> None:
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
                keep(undo, table, old)
                keep(undo, table, renamed)
                table[renamed] = table.pop(old)

    def charges_of(self, path: str) -> dict[str, int]:
        """``path``'s charge in each lot that holds one, by lot id."""
        return {lot.lot_id: lot.charges[path] for lot in self.lots.values()
                if path in lot.charges}

    def release(self, path: str, nbytes: int | None = None,
                undo: list | None = None) -> None:
        """Release ``nbytes`` of ``path``'s charges (all of them when
        None), lot by lot in lot order.

        Journals nothing: a record that releases (``delete``, a
        shrinking ``put_commit``) calls it from its apply function, and
        a PUT that does not land gives back a reservation its approval
        took in memory only."""
        remaining = nbytes
        for lot in self.lots.values():
            held = lot.charges.get(path)
            if held is None:
                continue
            take = held if remaining is None else min(held, remaining)
            self._take(lot, path, take, undo)
            if remaining is not None:
                remaining -= take
                if remaining == 0:
                    return

    @staticmethod
    def _take(lot: Lot, path: str, nbytes: int, undo: list | None) -> None:
        keep(undo, lot.charges, path)
        left = lot.charges.get(path, 0) - nbytes
        if left > 0:
            lot.charges[path] = left
        else:
            lot.charges.pop(path, None)

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

    def _reclaim(self, needed: int) -> tuple[list[list], list[str]]:
        """The best-effort charges to take until ``needed`` bytes are
        free, as ``[lot_id, path, bytes]``, and the lots that leaves
        empty; changes nothing but the reclamation counters."""
        freed = 0
        taken: list[list] = []
        emptied: list[str] = []
        for lot in self._victim_order():
            if freed >= needed:
                break
            took = len(taken)
            for path, nbytes in lot.charges.items():
                taken.append([lot.lot_id, path, nbytes])
                freed += nbytes
                if freed >= needed:
                    break
            if len(taken) - took == len(lot.charges):
                emptied.append(lot.lot_id)
        if taken and self._m_reclaimed_files is not None:
            self._m_reclaimed_files.inc(len(taken))
            self._m_reclaimed_bytes.inc(freed)
        return taken, emptied

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

    def _r_lot_create(self, rec: dict, undo: list | None = None) -> None:
        """Create one lot exactly as recorded -- a ``lot_create`` record,
        with the charges it reclaimed and the lots it emptied, or a
        snapshot's lot document (no space checks: the live
        ``lot_record`` made them)."""
        for lot_id, path, nbytes in rec.get("reclaimed", ()):
            victim = self.lots.get(lot_id)
            if victim is not None:
                self._take(victim, path, int(nbytes), undo)
        for lot_id in rec.get("emptied", ()):
            keep(undo, self.lots, lot_id)
            self.lots.pop(lot_id, None)
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
        keep(undo, self.lots, lot.lot_id)
        self.lots[lot.lot_id] = lot
        # Never re-mint an id that history already used.
        if lot.lot_id.startswith("lot") and lot.lot_id[3:].isdigit():
            keep(undo, vars(self), "_next_id")
            self._next_id = max(self._next_id, int(lot.lot_id[3:]) + 1)

    def _r_lot_renew(self, rec: dict, undo: list | None = None) -> None:
        lot = self.lots.get(rec["lot_id"])
        if lot is not None:
            keep(undo, vars(lot), "expires_at")
            keep(undo, vars(lot), "state")
            lot.expires_at = float(rec["expires_at"])
            lot.state = LotState(rec.get("state", LotState.ACTIVE.value))

    def _r_lot_delete(self, rec: dict, undo: list | None = None) -> None:
        keep(undo, self.lots, rec["lot_id"])
        self.lots.pop(rec["lot_id"], None)

    def _r_lot_pin(self, rec: dict, undo: list | None = None) -> None:
        lot = self.lots.get(rec["lot_id"])
        if lot is not None:
            keep(undo, vars(lot), "pinned")
            lot.pinned = bool(rec.get("pinned", False))

    def _r_lot_attach(self, rec: dict, undo: list | None = None) -> None:
        keep(undo, self.attachments, rec["prefix"])
        self.attachments[rec["prefix"]] = rec["lot_id"]
