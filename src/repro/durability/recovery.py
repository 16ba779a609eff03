"""Crash recovery: rebuild appliance metadata from snapshot + journal.

Recovery is three passes over durable state:

1. **install** the latest compacted snapshot (if any) into the storage
   manager -- namespace, ACLs, groups, lots, accounting;
2. **replay** every intact journal record with ``seq`` beyond the
   snapshot, applying each mutation *directly* onto the in-memory
   structures (no ACL checks, no re-journaling -- history already
   passed both);
3. **reconcile** what the journal could not know: a ``put_begin``
   without a matching ``put_commit`` is an interrupted transfer, so
   the file's true size is whatever the (atomic-write) backend holds
   -- the complete new file, the untouched old one, or nothing.  Lot
   charges and accounting are settled to that truth; orphaned
   atomic-write temp files are swept.

Lot *expiry* is deliberately absent from the journal: it is a pure
function of ``expires_at`` vs the clock, re-derived lazily on the next
lot operation -- which is exactly how a lot that expired while the
server was down comes back ``BEST_EFFORT`` rather than ``ACTIVE``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.nest.acl import Rights, default_acl
from repro.nest.lots import LotError, LotState
from repro.nest.storage import DirNode, FileNode, StorageError, StorageManager

__all__ = ["RecoveryReport", "StorageReplayer", "backend_size"]


@dataclass
class RecoveryReport:
    """What one recovery pass found and did (CLI + metrics surface)."""

    state_dir: str = ""
    snapshot_seq: int = 0  #: journal seq the installed snapshot covered
    replayed_records: int = 0  #: intact journal records applied
    skipped_records: int = 0  #: records replay could not apply
    corrupt_tail: bool = False  #: journal ended in a torn/corrupt record
    interrupted_puts: list[dict[str, Any]] = field(default_factory=list)
    recovered_lots: list[str] = field(default_factory=list)
    recovered_replicas: int = 0
    reconciled_charges: int = 0  #: dangling lot charges released/trimmed
    swept_temp_files: int = 0
    #: tier residency settlements (in-flight migrations/recalls resolved)
    tier_actions: list[dict[str, Any]] = field(default_factory=list)
    epoch: int = 0  #: file-handle epoch after this restart
    duration_seconds: float = 0.0

    def describe(self) -> dict[str, Any]:
        return {
            "state_dir": self.state_dir,
            "snapshot_seq": self.snapshot_seq,
            "replayed_records": self.replayed_records,
            "skipped_records": self.skipped_records,
            "corrupt_tail": self.corrupt_tail,
            "interrupted_puts": list(self.interrupted_puts),
            "recovered_lots": list(self.recovered_lots),
            "recovered_replicas": self.recovered_replicas,
            "reconciled_charges": self.reconciled_charges,
            "swept_temp_files": self.swept_temp_files,
            "tier_actions": list(self.tier_actions),
            "epoch": self.epoch,
            "duration_seconds": self.duration_seconds,
        }


def backend_size(store, path: str) -> int | None:
    """Bytes the backend actually holds for ``path`` (None if absent)."""
    exists = getattr(store, "exists", None)
    try:
        if exists is not None:
            if not exists(path):
                return None
            return store.size(path)
        size = store.size(path)
        return size if size > 0 else None
    except OSError:
        return None


class StorageReplayer:
    """Applies replayed journal records onto a storage manager.

    One record type -> one ``_r_<type>`` method; unknown types return
    False so the caller can route them elsewhere (replica records go
    to the catalog).  Tracks ``put_begin`` brackets so unmatched ones
    can be reconciled against the backend afterwards.
    """

    def __init__(self, storage: StorageManager):
        self.storage = storage
        #: path -> its unmatched put_begin record
        self.pending_puts: dict[str, dict[str, Any]] = {}

    def apply(self, rec: dict[str, Any]) -> bool:
        """Apply one record; True when the type was a storage record."""
        handler = getattr(self, "_r_" + str(rec.get("type")), None)
        if handler is None:
            return False
        handler(rec)
        return True

    # -- namespace ---------------------------------------------------------
    def _node(self, path: str) -> tuple[DirNode, str, Any]:
        parent, name = self.storage._parent_and_name(path)
        return parent, name, parent.children.get(name)

    def _r_mkdir(self, rec: dict) -> None:
        parent, name, node = self._node(rec["path"])
        if node is None:
            parent.children[name] = DirNode(
                name=name,
                acl=default_acl(rec.get("user", "admin"), self.storage.groups,
                                self.storage.anonymous_rights))

    def _r_rmdir(self, rec: dict) -> None:
        parent, name, node = self._node(rec["path"])
        if isinstance(node, DirNode):
            del parent.children[name]

    def _r_delete(self, rec: dict) -> None:
        parent, name, node = self._node(rec["path"])
        if isinstance(node, FileNode):
            self.storage.used_bytes -= node.size
            del parent.children[name]
        self.pending_puts.pop(rec["path"], None)

    def _r_rename(self, rec: dict) -> None:
        parent, name, node = self._node(rec["path"])
        if node is None:
            return
        new_parent, new_name = self.storage._parent_and_name(rec["new_path"])
        del parent.children[name]
        node.name = new_name
        new_parent.children[new_name] = node
        self.storage.lots.rename_charges(rec["path"], rec["new_path"])
        if isinstance(node, FileNode):
            self._redo_move(rec["path"], rec["new_path"])

    def _redo_move(self, path: str, new_path: str) -> None:
        """Finish an interrupted backend move.

        ``rename`` journals before touching the backend, so a crash
        between the two leaves the record durable but the bytes under
        the old path.  The record wins: carry the data over (the
        atomic writer keeps this safe) and drop the old copy.
        """
        store = self.storage.store
        try:
            if backend_size(store, path) is None:
                return
            if backend_size(store, new_path) is None:
                src = store.open_read(path)
                dst = store.open_write(new_path)
                try:
                    while True:
                        chunk = src.read(1 << 20)
                        if not chunk:
                            break
                        dst.write(chunk)
                finally:
                    src.close()
                    dst.close()
            store.delete(path)
        except OSError:
            pass  # a sick disk must not abort recovery

    def _r_file_reclaim(self, rec: dict) -> None:
        parent, name, node = self._node(rec["path"])
        if isinstance(node, FileNode):
            self.storage.used_bytes -= node.size
            del parent.children[name]

    # -- ACLs and groups ---------------------------------------------------
    def _r_acl_set(self, rec: dict) -> None:
        node = self.storage._lookup(rec["path"])
        if isinstance(node, DirNode):
            node.acl.set_entry(rec["subject"], Rights.parse(rec["rights"]))

    def _r_group_set(self, rec: dict) -> None:
        self.storage.groups[rec["name"]] = set(rec.get("members", []))

    # -- transfers ---------------------------------------------------------
    def _r_put_begin(self, rec: dict) -> None:
        parent, name, node = self._node(rec["path"])
        old_size = node.size if isinstance(node, FileNode) else 0
        if isinstance(node, FileNode):
            node.size = int(rec["size"])
        else:
            parent.children[name] = FileNode(
                name=name, owner=rec.get("user", ""), size=int(rec["size"]))
        self.storage.used_bytes += int(rec["size"]) - old_size
        self.pending_puts[rec["path"]] = rec

    def _r_put_commit(self, rec: dict) -> None:
        parent, name, node = self._node(rec["path"])
        if isinstance(node, FileNode):
            actual = int(rec["size"])
            self.storage.used_bytes += actual - node.size
            node.size = actual
        self.pending_puts.pop(rec["path"], None)

    def _r_write(self, rec: dict) -> None:
        parent, name, node = self._node(rec["path"])
        if not isinstance(node, FileNode):
            node = FileNode(name=name, owner=rec.get("user", ""), size=0)
            parent.children[name] = node
        size = int(rec["size"])
        if size > node.size:
            self.storage.used_bytes += size - node.size
            node.size = size

    # -- lots --------------------------------------------------------------
    def _r_lot_create(self, rec: dict) -> None:
        self.storage.lots.restore_lot(
            lot_id=rec["lot_id"], owner=rec["owner"],
            capacity=int(rec["capacity"]),
            expires_at=float(rec["expires_at"]),
            volatile=bool(rec.get("volatile", False)),
            last_used=float(rec.get("last_used", 0.0)))

    def _r_lot_renew(self, rec: dict) -> None:
        lot = self.storage.lots.lots.get(rec["lot_id"])
        if lot is not None:
            lot.expires_at = float(rec["expires_at"])
            lot.state = LotState(rec.get("state", "active"))

    def _r_lot_delete(self, rec: dict) -> None:
        self.storage.lots.lots.pop(rec["lot_id"], None)

    def _r_lot_pin(self, rec: dict) -> None:
        lot = self.storage.lots.lots.get(rec["lot_id"])
        if lot is not None:
            lot.pinned = bool(rec.get("pinned", False))

    def _r_lot_attach(self, rec: dict) -> None:
        self.storage.lots.attachments[rec["prefix"]] = rec["lot_id"]

    def _r_lot_charge(self, rec: dict) -> None:
        lot = self.storage.lots.lots.get(rec["lot_id"])
        if lot is not None:
            path = rec["path"]
            lot.charges[path] = lot.charges.get(path, 0) + int(rec["nbytes"])
            lot.last_used = float(rec.get("last_used", lot.last_used))

    def _release(self, rec: dict) -> None:
        lot = self.storage.lots.lots.get(rec["lot_id"])
        if lot is None:
            return
        path = rec["path"]
        left = lot.charges.get(path, 0) - int(rec["nbytes"])
        if left > 0:
            lot.charges[path] = left
        else:
            lot.charges.pop(path, None)

    _r_lot_release = _release
    _r_lot_reclaim = _release

    # -- reconciliation ----------------------------------------------------
    def reconcile_pending_puts(self) -> list[dict[str, Any]]:
        """Settle every unmatched ``put_begin`` against the backend.

        With atomic-write backends the data is either complete (the
        writer's final rename happened) or entirely the pre-put
        content (or absent); a torn file is impossible.  Metadata is
        adjusted to that truth: size and accounting settle to the
        backend's bytes, and charges for bytes that never landed are
        released.
        """
        out: list[dict[str, Any]] = []
        storage = self.storage
        for path in sorted(self.pending_puts):
            try:
                parent, name, node = self._node(path)
            except StorageError:
                continue
            if not isinstance(node, FileNode):
                continue
            actual = backend_size(storage.store, path)
            if actual is None:
                storage.used_bytes -= node.size
                storage.lots.release(path)
                del parent.children[name]
                out.append({"path": path, "disposition": "absent",
                            "size": 0})
            else:
                delta = actual - node.size
                node.size = actual
                storage.used_bytes += delta
                if delta < 0:
                    storage.lots.release(path, -delta)
                elif delta > 0 and storage.require_lots:
                    # An overwrite with less that never landed: the
                    # old, larger content survived, and its shrinkage
                    # was released at approval.  Charge it back.
                    try:
                        storage.lots.charge(
                            self.pending_puts[path].get("user", node.owner),
                            path, delta)
                    except LotError:
                        pass  # no room any more: the bytes stay, uncharged
                out.append({"path": path, "disposition": "settled",
                            "size": actual})
        self.pending_puts.clear()
        return out

    def reconcile_charges(self) -> int:
        """Release lot charges the journal left dangling.

        Two crash windows produce them: a ``lot_charge`` journaled
        before its ``put_begin`` (the file never materialised in the
        namespace), and a ``delete`` record whose ``lot_release``
        never landed.  Either way the durable namespace is the truth:
        charges for paths without a file node are dropped entirely,
        and per-path charge totals above the node's size are trimmed
        to it.  Returns how many paths were adjusted.
        """
        sizes: dict[str, int] = {}

        def walk(dirnode: DirNode, prefix: str) -> None:
            for name, child in dirnode.children.items():
                path = prefix.rstrip("/") + "/" + name
                if isinstance(child, FileNode):
                    sizes[path] = child.size
                else:
                    walk(child, path)

        walk(self.storage.root, "")
        lots = self.storage.lots
        totals: dict[str, int] = {}
        for lot in lots.lots.values():
            for path, nbytes in lot.charges.items():
                totals[path] = totals.get(path, 0) + nbytes
        fixed = 0
        for path, total in sorted(totals.items()):
            size = sizes.get(path)
            if size is None:
                lots.release(path)
                fixed += 1
            elif total > size:
                lots.release(path, total - size)
                fixed += 1
        return fixed
