"""Crash recovery: rebuild appliance metadata from snapshot + journal.

Recovery is three passes over durable state:

1. **install** the latest compacted snapshot (if any) into the storage
   manager -- namespace, ACLs, groups, lots, accounting;
2. **replay** every intact journal record with ``seq`` beyond the
   snapshot through the components' own ``apply_record`` -- the
   function each live mutation committed through (no ACL checks, no
   re-journaling: history already passed both);
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

from repro.nest.storage import (
    DirNode,
    FileNode,
    StorageManager,
    move_bytes,
)

__all__ = ["RecoveryReport", "StorageReplayer"]


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


class StorageReplayer:
    """Replays journal records into a storage manager.

    Each record is applied by :meth:`StorageManager.apply_record`, the
    function the live mutation committed through; types it does not own
    return False so the caller can route them elsewhere (replica
    records go to the catalog).  What only recovery needs stays here:
    the ``put_begin`` brackets left open, and the replayed renames whose
    byte moves wait for the final namespace.
    """

    def __init__(self, storage: StorageManager):
        self.storage = storage
        #: path -> its unmatched put_begin record
        self.pending_puts: dict[str, dict[str, Any]] = {}
        #: replayed renames as (node, path, new_path), oldest first;
        #: their byte moves wait for the final namespace.
        self.moves: list[tuple[Any, str, str]] = []

    def apply(self, rec: dict[str, Any]) -> bool:
        """Apply one record; True when the type was a storage record."""
        rtype, path = rec.get("type"), rec.get("path", "")
        renamed = self._node(path)[2] if rtype == "rename" else None
        if not self.storage.apply_record(rec):
            return False
        if rtype == "put_begin":
            self.pending_puts[path] = rec
        elif rtype in ("put_commit", "delete"):
            self.pending_puts.pop(path, None)
        elif renamed is not None:
            self.moves.append((renamed, path, rec["new_path"]))
        return True

    def _node(self, path: str) -> tuple[DirNode, str, Any]:
        parent, name = self.storage._parent_and_name(path)
        return parent, name, parent.children.get(name)

    def finish_moves(self) -> None:
        """Finish the replayed renames' store renames, oldest first,
        once the namespace is final.

        ``rename`` commits before touching the backend, so a crash
        between the two leaves the record durable but the bytes under
        the old path: the record wins, and the old name is renamed
        through the same :func:`move_bytes` the live rename runs.  A
        rename that landed before the crash is skipped (no old copy),
        and so is one whose old name a later record re-used: the bytes
        there are that later file's.
        """
        for node, path, new_path in self.moves:
            if self.storage.exists(path):
                continue
            try:
                move_bytes(self.storage.store, node, path, new_path)
            except OSError:
                pass  # a sick disk must not abort recovery
        self.moves.clear()

    # -- reconciliation ----------------------------------------------------
    def reconcile_pending_puts(self) -> list[dict[str, Any]]:
        """Settle every unmatched ``put_begin`` against the backend.

        With atomic-write backends the data is either complete (the
        writer's final rename happened) or entirely the pre-put
        content (or absent); a torn file is impossible.  Metadata is
        adjusted to that truth by
        :meth:`StorageManager.settle_to_backend` -- the function that
        settles an aborted put live.
        """
        out: list[dict[str, Any]] = []
        storage = self.storage
        for path in sorted(self.pending_puts):
            found = storage._file(path)
            if found is None:
                continue
            size = storage.settle_to_backend(
                path, self.pending_puts[path].get("user", found[2].owner))
            out.append({"path": path,
                        "disposition": "absent" if size is None else "settled",
                        "size": size or 0})
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
