"""The write-ahead metadata journal.

One append-only file of CRC-framed JSON records.  Every record is one
line::

    <crc32 of payload, 8 hex chars> <payload JSON>\\n

where the payload carries a monotonically increasing ``seq``, a
``type`` tag, the format version ``v`` (:data:`FORMAT_VERSION`), and
the event's fields.  Appends are fsync'd by default
(``fsync=False`` skips only the ``os.fsync`` -- used by the
crash-sweep tests, whose "disk" is the same process).

Every append goes through **group commit**: appenders enqueue framed
records; whoever reaches the flush lock first becomes the flusher and
writes every queued record (up to :data:`BATCH_RECORDS`) with a
*single* write+fsync, and each caller returns only once its record's
batch is durable.  Under concurrency the fsync count collapses from
one-per-record to one-per-batch while every acknowledged record is on
disk -- the classic WAL group commit.  There is no other write path:
a :class:`~repro.faults.disk.DiskFaultPlan` is consulted per record
inside the flush, so the crash sweeps exercise the code production
runs.

The framing makes every corruption mode the disk-fault layer can
inject *detectable*: a torn tail (no trailing newline), a short write
(CRC mismatch), or a crash between records (file simply ends) all
terminate :meth:`MetadataJournal.replay` at the last durable record
boundary instead of propagating garbage into recovery.

Append failures surface as :class:`JournalError` -- an ``OSError``
subclass carrying the real errno -- so callers can degrade typed
(``ENOSPC`` becomes a no-space response, not a dead connection).
"""

from __future__ import annotations

import errno as _errno
import json
import os
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Optional

from repro.faults.disk import CRASH, SHORT, TORN, SimulatedCrash

__all__ = ["BATCH_RECORDS", "FORMAT_VERSION", "FormatVersionError",
           "JournalError", "ReplayResult", "MetadataJournal",
           "check_format"]

#: Most records one flush writes; a longer queue takes several flushes.
BATCH_RECORDS = 64

#: Format of the durable state, stamped as ``"v"`` into every journal
#: record and every snapshot document.  State written before stamping
#: carries none and reads as version 1.  Version 2 journals a PUT as
#: one ``put_commit`` naming its staged file; version 1 also opened it
#: with a begin record.  Version 3 journals every verb as one record:
#: a PUT's reservation and an aborted PUT's release journal nothing,
#: the commit (or an NFS ``write``) carries its lot charges, and a
#: ``lot_create`` lists the charges it reclaimed, the lots it emptied
#: and the files it dropped.  This code reads neither older version.
FORMAT_VERSION = 3


class JournalError(OSError):
    """A journal append (or sync) failed; ``errno`` says why."""


class FormatVersionError(Exception):
    """Durable state is stamped with a format this code cannot read
    (a newer appliance wrote it); recovery refuses it untouched."""


def check_format(doc: dict, what: str) -> None:
    """Raise :class:`FormatVersionError` unless ``doc`` (a journal
    record or snapshot document) is in :data:`FORMAT_VERSION`."""
    version = doc.get("v", 1)
    if version != FORMAT_VERSION:
        raise FormatVersionError(
            f"{what} has format version {version!r}; this appliance "
            f"reads version {FORMAT_VERSION}")


@dataclass
class ReplayResult:
    """What a journal replay found on disk."""

    records: list[dict]  #: every intact record, in append order
    valid_bytes: int  #: length of the intact prefix of the file
    corrupt_tail: bool  #: True when replay stopped at a torn/corrupt record


class MetadataJournal:
    """Append-fsync-replay over one journal file."""

    def __init__(self, path: str, *, fsync: bool = True, faults=None,
                 registry=None):
        self.path = str(path)
        self._fsync = fsync
        self._faults = faults
        self._lock = threading.RLock()
        self._file = None
        #: sequence number of the last record acknowledged (durable or
        #: folded into a snapshot); the next append gets ``last_seq+1``.
        self.last_seq = 0
        self._flush_lock = threading.RLock()
        self._tail_seq = 0  #: highest seq handed out (>= last_seq)
        self._pending: list[tuple[int, bytes]] = []
        self._batch_errors: dict[int, BaseException] = {}
        #: plain hot-path counters (the bench reads these directly).
        self.fsync_count = 0
        self.records_appended = 0
        self._h_fsync = None
        self._h_batch = None
        self._m_records = None
        self._m_errors = None
        if registry is not None:
            self._h_fsync = registry.histogram(
                "journal_fsync_seconds",
                "Wall-clock latency of each metadata-journal fsync.")
            self._h_batch = registry.histogram(
                "journal_batch_records",
                "Records made durable per group-commit flush.",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128))
            self._m_records = registry.counter(
                "journal_records_total",
                "Records appended to the metadata journal.")
            self._m_errors = registry.counter(
                "journal_append_errors_total",
                "Journal appends that failed (EIO, ENOSPC, closed file).")
            registry.gauge_callback(
                "journal_records_per_fsync",
                lambda: (self.records_appended / self.fsync_count
                         if self.fsync_count else 0.0),
                "Fsync amortization: records made durable per fsync "
                "(1.0 = no group-commit batching).")

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append(self, rtype: str, fields: dict[str, Any]) -> int:
        """Durably append one record; returns its sequence number once
        the batch holding it is on disk."""
        seq = self.append_async(rtype, fields)
        self.wait_durable(seq)
        return seq

    def append_async(self, rtype: str, fields: dict[str, Any]) -> int:
        """Assign a seq and enqueue the framed record *without* waiting
        for the disk.

        This is the WAL split that lets group commit actually batch:
        callers that hold some coarser lock (the storage manager's, in
        this appliance) enqueue under it and call :meth:`wait_durable`
        only after releasing it, so concurrent mutators overlap in the
        queue and share one flush.  The record is not durable until
        ``wait_durable(seq)`` returns; acknowledging before that is a
        durability lie.
        """
        with self._lock:
            self._tail_seq = max(self._tail_seq, self.last_seq) + 1
            seq = self._tail_seq
            rec = {"seq": seq, "type": rtype, "v": FORMAT_VERSION,
                   **fields}
            data = json.dumps(rec, sort_keys=True,
                              separators=(",", ":")).encode()
            line = b"%08x " % (zlib.crc32(data) & 0xFFFFFFFF,) + data + b"\n"
            self._pending.append((seq, line))
        return seq

    def wait_durable(self, seq: int) -> None:
        """Drive/await the flush that makes record ``seq`` durable;
        raise its :class:`JournalError` (or :class:`SimulatedCrash`)
        when the flush that carried it failed.

        Whoever acquires the flush lock becomes the flusher for every
        record queued at that moment (up to :data:`BATCH_RECORDS`).
        Followers that arrive while a flush is in progress block on
        the lock; by the time they get it their record is usually
        already durable (``last_seq`` has passed their seq) and they
        return without touching the disk.  Batching therefore emerges
        from fsync backpressure -- no background thread, no timers, no
        idle latency.
        """
        while True:
            with self._flush_lock:
                with self._lock:
                    error = self._batch_errors.pop(seq, None)
                    if error is None and self.last_seq >= seq:
                        return
                if error is not None:
                    if self._m_errors is not None:
                        self._m_errors.inc()
                    raise error
                with self._lock:
                    batch = self._pending[:BATCH_RECORDS]
                    del self._pending[:len(batch)]
                if batch:
                    self._flush_batch(batch)

    def _flush_batch(self, batch: list[tuple[int, bytes]]) -> None:
        """The one place records reach the file: one write+fsync for
        the whole batch.

        A fault plan is consulted per record.  Records ahead of a
        faulted one are written and synced first, so they are
        durable; the faulted record and every record behind it --
        the rest of the batch and everything still queued -- never
        reach the file, and each waiter gets the failure (a typed
        :class:`JournalError`, or :class:`SimulatedCrash`) instead of
        an ack.
        """
        done = 0  # records of ``batch`` on disk
        error: BaseException | None = None
        try:
            self._open()
            for i, (seq, line) in enumerate(batch):
                rule = (self._faults.check("append", at=seq)
                        if self._faults is not None else None)
                if rule is not None:
                    self._file.write(b"".join(r for _, r in batch[done:i]))
                    self._do_fsync()
                    done = i
                    self._faulty_write(rule, line)
                    done = i + 1  # SHORT: the fragment counts as written
            self._file.write(b"".join(line for _, line in batch[done:]))
            self._do_fsync()
            done = len(batch)
        except (SimulatedCrash, JournalError) as exc:
            error = exc
        except (OSError, ValueError) as exc:  # ValueError: closed file
            error = JournalError(
                getattr(exc, "errno", None) or _errno.EIO,
                f"journal append failed: {exc}")
            error.__cause__ = exc
        with self._lock:
            if done:
                self.last_seq = max(self.last_seq, batch[done - 1][0])
            if error is not None:
                failed = batch[done:] + self._pending
                self._pending = []
                for seq, _ in failed:
                    self._batch_errors[seq] = error
        if done:
            self.records_appended += done
            if self._m_records is not None:
                self._m_records.inc(done)
            if self._h_batch is not None:
                self._h_batch.observe(float(done))

    def _faulty_write(self, rule, line: bytes) -> None:
        """Enact an injected append fault (torn/short land a fragment)."""
        if rule.action in (TORN, SHORT):
            keep = rule.keep_bytes
            if keep is None:
                keep = max(1, len(line) // 2)
            self._file.write(line[:keep])
            self._do_fsync()
            if rule.action == TORN:
                raise SimulatedCrash("torn journal append")
            return  # SHORT: partial record on disk, caller sees success
        if rule.action == CRASH:
            raise SimulatedCrash("crash point before journal append")
        if rule.action in ("eio", "enospc"):
            code = _errno.EIO if rule.action == "eio" else _errno.ENOSPC
            raise JournalError(code, f"injected {rule.action} on journal append")

    def _open(self) -> None:
        if self._file is None or self._file.closed:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            # Unbuffered: every write hits the OS immediately, so the
            # only volatile layer left for fsync to flush is the page
            # cache (and torn fragments from injected faults really
            # land on "disk").
            self._file = open(self.path, "ab", buffering=0)

    def _do_fsync(self) -> None:
        if not self._fsync:
            return
        t0 = time.perf_counter()
        os.fsync(self._file.fileno())
        self.fsync_count += 1
        if self._h_fsync is not None:
            self._h_fsync.observe(time.perf_counter() - t0)

    @property
    def tail_seq(self) -> int:
        """The last seq handed out, whether or not it is durable yet."""
        return max(self._tail_seq, self.last_seq)

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def replay(self) -> ReplayResult:
        """Parse the journal from disk, stopping at the first record
        that is torn, short, or CRC-corrupt.  Never raises on bad
        data: a damaged tail simply ends history early."""
        try:
            with open(self.path, "rb") as f:
                raw = f.read()
        except FileNotFoundError:
            return ReplayResult([], 0, False)
        records: list[dict] = []
        pos = 0
        valid = 0
        corrupt = False
        while pos < len(raw):
            nl = raw.find(b"\n", pos)
            if nl < 0:
                corrupt = True  # torn tail: record never finished
                break
            line = raw[pos:nl]
            rec = self._parse_line(line)
            if rec is None:
                corrupt = True
                break
            records.append(rec)
            pos = nl + 1
            valid = pos
        return ReplayResult(records, valid, corrupt)

    @staticmethod
    def _parse_line(line: bytes) -> Optional[dict]:
        if len(line) < 10 or line[8:9] != b" ":
            return None
        try:
            crc = int(line[:8], 16)
        except ValueError:
            return None
        data = line[9:]
        if zlib.crc32(data) & 0xFFFFFFFF != crc:
            return None
        try:
            rec = json.loads(data)
        except ValueError:
            return None
        if not isinstance(rec, dict) or "seq" not in rec or "type" not in rec:
            return None
        return rec

    # ------------------------------------------------------------------
    # rotation
    # ------------------------------------------------------------------
    def reset_if_quiescent(self, upto_seq: int) -> bool:
        """Truncate the journal *iff* no record newer than ``upto_seq``
        has been appended (i.e. everything on disk is covered by the
        snapshot just written).  Returns whether truncation happened;
        a concurrent append simply defers compaction to the next
        snapshot -- replay skips records ``<= snapshot.seq`` anyway."""
        with self._flush_lock, self._lock:
            if self.last_seq != upto_seq or self._pending:
                return False
            self.close()
            open(self.path, "wb").close()
            return True

    def truncate_to(self, nbytes: int) -> None:
        """Cut a torn/corrupt tail off the journal so future appends
        extend the intact prefix instead of following garbage."""
        with self._flush_lock, self._lock:
            self.close()
            try:
                with open(self.path, "r+b") as f:
                    f.truncate(max(0, nbytes))
            except FileNotFoundError:
                pass

    def size_bytes(self) -> int:
        """Current on-disk journal size."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def close(self) -> None:
        with self._flush_lock:
            # Flush stragglers enqueued by async appenders that never
            # reached wait_durable (e.g. an op that failed mid-flight);
            # _flush_batch parks any error per-seq rather than raising.
            with self._lock:
                batch = self._pending
                self._pending = []
            if batch:
                self._flush_batch(batch)
            with self._lock:
                if self._file is not None and not self._file.closed:
                    self._file.close()
                self._file = None
