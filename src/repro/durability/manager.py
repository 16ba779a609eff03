"""The durability manager: one ``state_dir``, one journal, one snapshot.

Ties the pieces together for a live appliance:

* **record** -- the sink bound to the replica catalog and the tiered
  store; appends to the write-ahead journal and counts the record
  toward the next snapshot.  The storage manager is handed the manager
  itself and uses the split form (**record_async** under its lock,
  **wait_durable** before any backing-store side effect, or after
  releasing the lock) so concurrent mutators share group-commit
  flushes;
* **after_op** -- the op-exit hook: once ``snapshot_every`` records
  are counted, the next storage operation to succeed takes the
  snapshot on its way out, its records' byte effects done and the
  storage lock released -- never between a record and its effect;
* **snapshot** -- serialize full state (under the storage lock, so the
  captured journal ``seq`` is consistent), save atomically, then
  truncate the journal *only if* nothing was appended meanwhile;
* **recover_into** -- snapshot install + journal replay + the byte
  moves of replayed renames and PUT commits + temp-file sweep +
  file-handle epoch bump, then bind the journal so the restarted
  appliance records new mutations.

The restart **epoch** is a small integer persisted in
``state_dir/epoch`` and incremented by every recovery; the NFS
file-handle registry folds it into each handle token so handles minted
before a crash fail typed (stale) instead of silently resolving to
whatever lives at the same path now.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Optional

from repro.durability.journal import MetadataJournal, check_format
from repro.durability.recovery import RecoveryReport, StorageReplayer
from repro.durability.snapshot import SnapshotStore, fsync_dir
from repro.nest.lots import LotError
from repro.nest.storage import StorageError, StorageManager
from repro.obs.log import get_logger

__all__ = ["DurabilityManager"]

logger = get_logger(__name__)


class DurabilityManager:
    """Journal + snapshots + recovery over one ``state_dir``."""

    def __init__(self, state_dir: str, *, fsync: bool = True,
                 snapshot_every: int = 512, faults=None, registry=None):
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        self.state_dir = str(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self.journal = MetadataJournal(
            os.path.join(self.state_dir, "journal.log"),
            fsync=fsync, faults=faults, registry=registry)
        self.snapshots = SnapshotStore(
            os.path.join(self.state_dir, "snapshot.json"), faults=faults)
        self.snapshot_every = int(snapshot_every)
        self._since_snapshot = 0
        self._lock = threading.Lock()
        self.storage: StorageManager | None = None
        self.catalog = None
        self.tier = None
        self.epoch = self._load_epoch()
        self.last_report: Optional[RecoveryReport] = None
        #: replica records replayed before any catalog existed; applied
        #: when :meth:`attach_catalog` runs.
        self._deferred_replica: list[dict[str, Any]] = []
        self._snapshot_catalog_state: dict[str, Any] | None = None
        self._m_recoveries = None
        self._m_replayed = None
        if registry is not None:
            self._m_recoveries = registry.counter(
                "recovery_runs_total",
                "Crash-recovery passes completed over this state_dir.")
            self._m_replayed = registry.counter(
                "recovery_replayed_records_total",
                "Journal records applied during crash recovery.")
            registry.gauge_callback(
                "recovery_duration_seconds",
                lambda: (self.last_report.duration_seconds
                         if self.last_report is not None else 0.0),
                "Wall-clock duration of the most recent recovery pass.")
            registry.gauge_callback(
                "journal_size_bytes", lambda: float(self.journal.size_bytes()),
                "Current on-disk size of the metadata journal.")

    # ------------------------------------------------------------------
    # the live sink
    # ------------------------------------------------------------------
    def record(self, rtype: str, **fields) -> int:
        """Durably journal one mutation (counted toward the next
        snapshot, as :meth:`wait_durable` counts)."""
        seq = self.record_async(rtype, **fields)
        self.wait_durable(seq)
        return seq

    def record_async(self, rtype: str, **fields) -> int:
        """Assign and enqueue one mutation record without touching the
        disk; the record is durable only once :meth:`wait_durable` has
        returned for its seq.  The storage manager calls this under
        its own lock and mostly waits after releasing it, so
        concurrent mutators share group-commit flushes instead of
        serializing one fsync each."""
        return self.journal.append_async(rtype, fields)

    def wait_durable(self, seq: int) -> None:
        """Block until record ``seq`` is on disk (raising the typed
        failure if its flush failed), and count it toward the next
        snapshot -- which :meth:`after_op` takes, never this call: it
        runs between a record and its byte effect."""
        self.journal.wait_durable(seq)
        with self._lock:
            self._since_snapshot += 1

    def after_op(self) -> None:
        """The op-exit hook: a storage operation that succeeded calls it
        last, its wait over and the storage lock released, so no record
        it wrote stands without its byte effect.  Takes the snapshot
        once ``snapshot_every`` records have been counted."""
        with self._lock:
            due = (self.snapshot_every
                   and self._since_snapshot >= self.snapshot_every)
            if due:
                self._since_snapshot = 0
        if due:
            self.snapshot()

    def snapshot(self) -> bool:
        """Fold the journal into a compacted snapshot.

        Serialization happens under the storage lock, so the captured
        ``seq`` -- the last one handed out, durable or still queued --
        exactly covers every storage record in the state: each is
        applied before it gets its seq, so replay must not apply it
        again.  (Replica records emitted concurrently are idempotent
        on replay, so the catalog needs no such fence.)  The journal is
        truncated only when nothing newer was appended meanwhile --
        otherwise compaction simply waits for the next snapshot.
        """
        storage = self.storage
        if storage is None:
            return False
        with storage._lock:
            seq = self.journal.tail_seq
            state: dict[str, Any] = {"storage": storage.serialize_state()}
        if self.catalog is not None:
            state["catalog"] = self.catalog.serialize()
        if self.tier is not None:
            state["tier"] = self.tier.serialize()
        try:
            self.snapshots.save(state, seq)
        except OSError:
            return False  # disk trouble: keep journaling, try later
        self.journal.reset_if_quiescent(seq)
        return True

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover_into(self, storage: StorageManager,
                     catalog=None, tier=None) -> RecoveryReport:
        """Rebuild ``storage`` (and ``catalog`` and the ``tier``
        residency map) from durable state, then bind the journal so
        new mutations are recorded.  A snapshot or journal record in a
        format this code cannot read raises
        :class:`~repro.durability.journal.FormatVersionError` before
        anything is installed."""
        t0 = time.perf_counter()
        report = RecoveryReport(state_dir=self.state_dir)
        # Read everything before changing anything: state in a format
        # this code cannot read is refused whole, its files untouched.
        state, snap_seq = self.snapshots.load()
        replay = self.journal.replay()
        for rec in replay.records:
            check_format(rec, f"journal record {rec['seq']}")
        if state is not None:
            storage.install_state(state.get("storage", {}))
            cat_state = state.get("catalog")
            if catalog is not None and cat_state is not None:
                catalog.restore(cat_state)
            else:
                self._snapshot_catalog_state = cat_state
            tier_state = state.get("tier")
            if tier is not None and tier_state is not None:
                tier.restore(tier_state)
        report.snapshot_seq = snap_seq

        if replay.corrupt_tail:
            self.journal.truncate_to(replay.valid_bytes)
        replayer = StorageReplayer(storage)
        max_seq = snap_seq
        for rec in replay.records:
            seq = int(rec.get("seq", 0))
            if seq <= snap_seq:
                continue  # already folded into the snapshot
            max_seq = max(max_seq, seq)
            try:
                if replayer.apply(rec):
                    report.replayed_records += 1
                elif str(rec.get("type", "")).startswith("replica_"):
                    if catalog is not None:
                        catalog.apply_record(rec)
                    else:
                        self._deferred_replica.append(rec)
                    report.replayed_records += 1
                elif (tier is not None
                      and str(rec.get("type", "")).startswith("tier_")):
                    tier.apply_record(rec)
                    report.replayed_records += 1
                else:
                    report.skipped_records += 1
            except (StorageError, LotError, KeyError, ValueError):
                report.skipped_records += 1
        # New appends must continue past everything history has used,
        # including seqs the snapshot folded away.
        self.journal.last_seq = max(self.journal.last_seq, max_seq, snap_seq)
        report.corrupt_tail = replay.corrupt_tail

        replayer.finish_moves()
        report.reconciled_charges = replayer.reconcile_charges()
        if tier is not None:
            # Settle in-flight migrations/recalls *before* the temp
            # sweep and the post-recovery snapshot, so both see final
            # residency.
            report.tier_actions = tier.reconcile()
        sweep = getattr(storage.store, "sweep_temp", None)
        if sweep is not None:
            report.swept_temp_files = sweep()

        self.epoch = self.epoch + 1
        self._store_epoch(self.epoch)
        report.epoch = self.epoch
        report.recovered_lots = sorted(storage.lots.lots)
        if catalog is not None:
            report.recovered_replicas = sum(
                len(replicas) for replicas in catalog.serialize().values())

        self.storage = storage
        self.catalog = catalog
        self.tier = tier
        storage.set_journal(self)
        if catalog is not None:
            catalog.journal = self.record
            catalog.advertise()
        if tier is not None:
            tier.journal = self.record
        report.duration_seconds = time.perf_counter() - t0
        self.last_report = report
        if self._m_recoveries is not None:
            self._m_recoveries.inc()
            self._m_replayed.inc(report.replayed_records)
        # Fold reconciliation results into a fresh compacted snapshot,
        # so the next crash replays from here instead of re-deriving.
        self.snapshot()
        logger.info(
            "%s recovered: %d records replayed, %d lots, epoch %d",
            self.state_dir, report.replayed_records,
            len(report.recovered_lots), report.epoch)
        return report

    def attach_catalog(self, catalog) -> int:
        """Late-bind a replica catalog (federation layers construct it
        after the server): install its snapshot state, apply deferred
        replayed records, bind the sink, re-advertise.  Returns how
        many deferred records were applied."""
        if self._snapshot_catalog_state is not None:
            catalog.restore(self._snapshot_catalog_state)
            self._snapshot_catalog_state = None
        applied = 0
        for rec in self._deferred_replica:
            if catalog.apply_record(rec):
                applied += 1
        self._deferred_replica.clear()
        self.catalog = catalog
        catalog.journal = self.record
        catalog.advertise()
        return applied

    # ------------------------------------------------------------------
    # epoch persistence
    # ------------------------------------------------------------------
    def _epoch_path(self) -> str:
        return os.path.join(self.state_dir, "epoch")

    def _load_epoch(self) -> int:
        try:
            with open(self._epoch_path(), "r", encoding="utf-8") as f:
                return int(f.read().strip() or 0)
        except (OSError, ValueError):
            return 0

    def _store_epoch(self, epoch: int) -> None:
        tmp = self._epoch_path() + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(str(int(epoch)))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._epoch_path())
        fsync_dir(self.state_dir)

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def close(self, *, snapshot: bool = True) -> None:
        """Graceful shutdown: final compaction (unless simulating a
        crash), then release the journal file."""
        if snapshot:
            self.snapshot()
        self.journal.close()
