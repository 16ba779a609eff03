"""Crash recovery: rebuild appliance metadata from snapshot + journal.

Recovery is three passes over durable state:

1. **install** the latest compacted snapshot (if any) into the storage
   manager -- namespace, ACLs, groups, lots, accounting;
2. **replay** every intact journal record with ``seq`` beyond the
   snapshot through the components' own ``apply_record`` -- the
   function each live mutation committed through (no ACL checks, no
   re-journaling: history already passed both);
3. **finish** what a crash cut between a durable record and its byte
   effect: a ``rename``'s store rename, and a ``put_commit``'s rename
   of its staged file over the path -- the same store call.  A PUT
   with no durable commit never happened: its staged file is swept
   with the other orphans, and a reservation a snapshot caught is
   released (:meth:`StorageReplayer.reconcile_charges`).

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
    the byte moves of replayed renames and PUT commits, which wait for
    the final namespace.
    """

    def __init__(self, storage: StorageManager):
        self.storage = storage
        #: replayed byte moves as (node, path, new_path), oldest first:
        #: a rename's, or a PUT commit's from its staged name.
        self.moves: list[tuple[Any, str, str]] = []

    def apply(self, rec: dict[str, Any]) -> bool:
        """Apply one record; True when the type was a storage record."""
        rtype, path = rec.get("type"), rec.get("path", "")
        renamed = self._node(path)[2] if rtype == "rename" else None
        if not self.storage.apply_record(rec):
            return False
        if renamed is not None:
            self.moves.append((renamed, path, rec["new_path"]))
        elif rtype == "put_commit":
            self.moves.append((self._node(path)[2], rec["staged"], path))
        return True

    def _node(self, path: str) -> tuple[DirNode, str, Any]:
        parent, name = self.storage._parent_and_name(path)
        return parent, name, parent.children.get(name)

    def finish_moves(self) -> None:
        """Finish the replayed moves' store renames, oldest first, once
        the namespace is final.

        A rename and a PUT commit each journal before touching the
        backend, so a crash between the two leaves the record durable
        but the bytes under the old (or staged) name: the record wins,
        and the old name is renamed through the same
        :func:`move_bytes` the live verb runs.  A move that landed
        before the crash is skipped (no old copy), and so is a rename
        whose old name a later record re-used: the bytes there are that
        later file's.  A staged name is never in the namespace.
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
    def reconcile_charges(self) -> int:
        """Release the lot charges of paths with no file: the
        reservations of PUTs in flight when a snapshot was taken, which
        died with the process.  (Every other charge rides in the record
        of the verb that made its file.)  Returns how many paths were
        released."""
        files: set[str] = set()

        def walk(dirnode: DirNode, prefix: str) -> None:
            for name, child in dirnode.children.items():
                path = prefix.rstrip("/") + "/" + name
                if isinstance(child, FileNode):
                    files.add(path)
                else:
                    walk(child, path)

        walk(self.storage.root, "")
        lots = self.storage.lots
        dangling = {path for lot in lots.lots.values()
                    for path in lot.charges if path not in files}
        for path in dangling:
            lots.release(path)
        return len(dangling)
