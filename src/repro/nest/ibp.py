"""IBP depot support inside NeST: allocations mapped onto lots.

The paper's §8 comparison writes itself into this design: "IBP
reservations are allocations for byte arrays" while "lots in NeST
provide the same functionality with more client flexibility"; IBP's
*volatile* allocations "are analogous to" NeST's best-effort lots.  So
NeST serves IBP by translation:

* a **stable** allocation becomes an ACTIVE lot of the allocation's
  size and duration -- the space guarantee is the lot's;
* a **volatile** allocation becomes a lot that is *immediately*
  best-effort: the data persists until some new guarantee reclaims the
  space, which is exactly IBP's volatile semantics;
* each allocation owns a hidden backing file, and a synthetic user
  identity (``ibp:<alloc-id>``) ties the file's charges to exactly its
  lot.

Capabilities are unguessable secrets; possession is authorization
(IBP's trust model -- no GSI here, matching how IBP depots worked).
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.nest.lots import LotError
from repro.nest.storage import StorageError, StorageManager
from repro.protocols.ibp import (
    MANAGE,
    READ,
    STABLE,
    VOLATILE,
    WRITE,
    Capability,
    IbpError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.ibp import ALLOCATION_TYPES  # noqa: F401

#: Namespace directory for allocation backing files.
IBP_ROOT = "/.ibp"


class _IbpIdentities(set):
    """A virtual group: every ``ibp:<alloc>`` identity is a member."""

    def __contains__(self, user: object) -> bool:
        return isinstance(user, str) and user.startswith("ibp:")


@dataclass
class Allocation:
    """One live IBP allocation on this depot."""

    alloc_id: str
    size: int
    atype: str
    secrets: dict[str, str]  #: kind -> secret
    lot_id: str
    path: str
    used: int = 0
    refcount: int = 1

    @property
    def owner(self) -> str:
        return f"ibp:{self.alloc_id}"


class IbpDepot:
    """Allocation registry + translation onto the storage manager."""

    def __init__(self, storage: StorageManager, host: str = "localhost"):
        self.storage = storage
        self.host = host
        self._lock = threading.RLock()
        self._allocations: dict[str, Allocation] = {}
        self._ids = itertools.count(1)
        self._ensure_root()

    def _ensure_root(self) -> None:
        if not self.storage.exists(IBP_ROOT):
            self.storage.mkdir("admin", IBP_ROOT)
            # Backing files are reachable only through capabilities: no
            # rights for anonymous; full data rights for the synthetic
            # per-allocation identities (a virtual group whose members
            # are exactly the "ibp:*" users).
            self.storage.acl_set("admin", IBP_ROOT, "*", "none")
            self.storage.groups["ibp"] = _IbpIdentities()
            self.storage.acl_set("admin", IBP_ROOT, "group:ibp", "rwid")

    # ------------------------------------------------------------------
    # capability checking
    # ------------------------------------------------------------------
    def _resolve(self, cap: Capability, kind: str) -> Allocation:
        with self._lock:
            alloc = self._allocations.get(cap.alloc_id)
        if alloc is None:
            raise IbpError("no-allocation", cap.alloc_id)
        if cap.kind != kind or alloc.secrets.get(kind) != cap.secret:
            raise IbpError("bad-capability", f"not a valid {kind} capability")
        # Volatile data may have been reclaimed under space pressure.
        if not self.storage.exists(alloc.path) and alloc.used > 0:
            with self._lock:
                self._allocations.pop(alloc.alloc_id, None)
            raise IbpError("reclaimed", "volatile allocation was reclaimed")
        return alloc

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def allocate(self, size: int, duration: float, atype: str) -> Allocation:
        """Create an allocation; returns it with fresh capabilities."""
        if size <= 0:
            raise IbpError("bad-size", str(size))
        if duration <= 0:
            raise IbpError("bad-duration", str(duration))
        if atype not in (STABLE, VOLATILE):
            raise IbpError("bad-type", atype)
        alloc_id = f"a{next(self._ids)}"
        owner = f"ibp:{alloc_id}"
        try:
            # A stable allocation is a space guarantee (an ACTIVE lot);
            # a volatile one is a reclaimable lot -- the §8 analogy
            # between IBP volatility and NeST's best-effort semantics.
            lot = self.storage.lots.create_lot(
                owner, size, duration, volatile=(atype == VOLATILE)
            )
        except LotError as exc:
            raise IbpError("no-space", str(exc)) from exc
        path = f"{IBP_ROOT}/{alloc_id}"
        with self.storage.approve_put("admin", path, 0):
            pass  # the empty backing file
        alloc = Allocation(
            alloc_id=alloc_id,
            size=size,
            atype=atype,
            secrets={kind: os.urandom(12).hex()
                     for kind in (READ, WRITE, MANAGE)},
            lot_id=lot.lot_id,
            path=path,
        )
        with self._lock:
            self._allocations[alloc_id] = alloc
        return alloc

    def capability(self, alloc: Allocation, kind: str) -> str:
        """Render one of the allocation's capability strings."""
        return Capability(self.host, alloc.alloc_id,
                          alloc.secrets[kind], kind).render()

    @staticmethod
    def _require_room(alloc: Allocation, nbytes: int) -> None:
        if alloc.used + nbytes > alloc.size:
            raise IbpError("over-allocation",
                           f"{alloc.used}+{nbytes} > {alloc.size}")

    def check_store(self, cap: Capability, nbytes: int) -> None:
        """Raise the :exc:`IbpError` a store of ``nbytes`` would get
        right now.  The handler asks before reading the body, so a
        hostile length is refused without buffering anything."""
        self._require_room(self._resolve(cap, WRITE), nbytes)

    def store(self, cap: Capability, data: bytes) -> int:
        """Append ``data`` (IBP stores are appends); returns new used."""
        alloc = self._resolve(cap, WRITE)
        with self._lock:
            self._require_room(alloc, len(data))
            offset = alloc.used
            alloc.used += len(data)
        try:
            ticket = self.storage.approve_write(alloc.owner, alloc.path,
                                                offset, len(data))
        except StorageError as exc:
            with self._lock:
                alloc.used = offset
            raise IbpError("no-space", exc.message) from exc
        with ticket:
            ticket.stream.write(data)
            ticket.moved = len(data)
        return alloc.used

    def load(self, cap: Capability, offset: int, nbytes: int) -> bytes:
        """Read a range of the allocation."""
        alloc = self._resolve(cap, READ)
        if offset < 0 or offset > alloc.used:
            raise IbpError("bad-offset", str(offset))
        nbytes = min(nbytes, alloc.used - offset)
        if nbytes <= 0:
            return b""
        with self.storage.approve_read(alloc.owner, alloc.path,
                                       offset, nbytes) as ticket:
            return ticket.stream.read(nbytes)

    def probe(self, cap: Capability) -> dict:
        """Manage op: allocation status."""
        alloc = self._resolve(cap, MANAGE)
        lot = self.storage.lots.lots.get(alloc.lot_id)
        expires = lot.expires_at if lot else 0.0
        return {
            "size": alloc.size,
            "used": alloc.used,
            "expires_at": expires,
            "type": alloc.atype,
            "refcount": alloc.refcount,
        }

    def extend(self, cap: Capability, duration: float) -> float:
        """Manage op: extend a *stable* allocation's duration.

        The §8 observation holds by construction: a volatile (=
        best-effort) allocation cannot be promoted back to stable --
        "there does not appear to be a mechanism in IBP for switching
        an allocation from permanent to volatile" and NeST lots only
        flow the other way.
        """
        alloc = self._resolve(cap, MANAGE)
        if alloc.atype == VOLATILE:
            raise IbpError("is-volatile", "cannot extend a volatile allocation")
        try:
            lot = self.storage.lots.renew(alloc.lot_id, duration)
        except LotError as exc:
            raise IbpError("no-space", str(exc)) from exc
        return lot.expires_at

    def increment(self, cap: Capability) -> int:
        """Manage op: add a reference."""
        alloc = self._resolve(cap, MANAGE)
        with self._lock:
            alloc.refcount += 1
            return alloc.refcount

    def decrement(self, cap: Capability) -> int:
        """Manage op: drop a reference; at zero the allocation dies."""
        alloc = self._resolve(cap, MANAGE)
        with self._lock:
            alloc.refcount -= 1
            remaining = alloc.refcount
            if remaining <= 0:
                self._allocations.pop(alloc.alloc_id, None)
        if remaining <= 0:
            try:
                self.storage.lots.delete_lot(alloc.lot_id)
            except LotError:
                pass
            try:
                self.storage.delete("admin", alloc.path)
            except StorageError:
                pass
        return max(remaining, 0)

    def status(self) -> dict:
        """Depot-level numbers for the ``status`` command."""
        with self._lock:
            volatile = sum(1 for a in self._allocations.values()
                           if a.atype == VOLATILE)
            return {
                "total": self.storage.capacity_bytes,
                "used": self.storage.used_bytes,
                "volatile": volatile,
            }
