"""The live transfer manager: scheduler-ordered data movement (paper, §4).

The transfer manager owns every on-going transfer, which is what lets
one scheduler order every protocol's bytes (§4.2).  It is the live
twin of the simulated substrate's :class:`repro.simnest.gate.PumpGate`
and creates no thread of its own: a protocol handler ``submit()``s a
storage-manager-approved ticket, which only registers the job with the
scheduler (FCFS / stride / cache-aware -- the same pure policy objects
the simulated substrate uses), and then calls :meth:`Transfer.wait` on
the thread that owns the socket -- a handler thread or an ``EventLoop``
worker.  That thread loops *acquire a grant, pump one quantum, release*:

* at most ``config.transfer_workers`` grants are out at once;
* whichever thread asks for or returns a grant runs the arbitration
  under the manager's lock and wakes exactly the owner it granted;
* a grant is sized by *slot* contention: while every registered
  transfer can hold a slot at once (``scheduler.depth() <=
  transfer_workers``) nobody is ever kept waiting, the scheduler orders
  nothing, and each grant is :data:`BURST_BYTES`; the moment there are
  more unfinished transfers than slots every new grant is
  ``config.quantum_bytes``, so shares keep their granularity exactly
  where they are enforced;
* a burst stays revocable where control is in Python anyway: the pooled
  pump ends its grant at the next buffer boundary once a transfer is
  waiting.  The ``sendfile`` pump is one ``os.sendfile`` call per grant,
  so when transfer number ``transfer_workers + 1`` arrives it waits for
  at most one in-flight burst of one holder -- the bound
  ``transfer_workers = 1`` always lived with;
* when non-work-conserving stride would rather wait for a job that is
  not ready, waiters idle for :data:`IDLE_WAIT` and then the best ready
  job is granted anyway (bounded anticipatory idling).

Which concurrency architecture serves a connection is decided once per
accept, by ``ServerModelSwitcher``; the transfer manager has no say in
it (the per-transfer selector of Fig. 5 lives on the simulated
substrate only).
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from typing import Any, BinaryIO, Optional

from repro.nest import io as fastio
from repro.nest.config import NestConfig
from repro.nest.scheduling import Scheduler, TransferJob, make_job, make_scheduler
from repro.obs import spans as _spans

#: Per-transfer pumping strategies, chosen once at submission and
#: never mixed mid-stream (mixing buffered reads with descriptor-level
#: sendfile would desynchronize the fd offset from the buffer).
SENDFILE = "sendfile"
POOLED = "pooled"

#: Bytes granted per quantum while no transfer can be kept waiting
#: (there is a slot for every registered one): a big quantum then costs
#: no fairness and saves hundreds of arbitration passes.
BURST_BYTES = 4 * 1024 * 1024

#: Recent per-transfer failure causes kept for ``failures()``.
FAILURE_HISTORY = 64

#: Seconds waiters idle when non-work-conserving stride holds a slot
#: for a job that is not ready, before the best ready job is granted
#: anyway (``PumpGate``'s ``idle_wait``).
IDLE_WAIT = 0.002


class TransferError(Exception):
    """A transfer failed mid-flight (stream error, short read...)."""


class Transfer:
    """One scheduled data movement between two byte streams.

    A transfer has one owner: the thread that calls :meth:`wait` moves
    every byte of it.
    """

    def __init__(
        self,
        manager: "TransferManager",
        job: TransferJob,
        source: BinaryIO,
        sink: BinaryIO,
        total: int,
        span: Optional["_spans.Span"] = None,
    ):
        self.manager = manager
        self.job = job
        self.source = source
        self.sink = sink
        self.total = total
        self.moved = 0
        self.error: Optional[BaseException] = None
        self.started_at = time.monotonic()
        #: when the scheduler first granted this transfer a quantum.
        self.granted_at: Optional[float] = None
        #: parent request span, when the submitter is being traced, and
        #: the open child of it: "queue" until the first grant, then
        #: "transfer".
        self.span = span
        self._stage = (span.child("queue", protocol=job.protocol)
                       if span is not None else None)
        #: bytes of the grant this transfer holds (0: none); written
        #: under the manager's lock, which ``_granted`` shares.
        self._grant = 0
        self._granted = threading.Condition(manager._lock)
        self._finished = False
        #: incremental CRC32 of the bytes moved, or None when the
        #: transfer went (even partly) through sendfile -- those bytes
        #: never surface into Python, so there is nothing to fold.
        self.crc: Optional[int] = 0
        self._buffer: Optional[bytearray] = None
        self._view: Optional[memoryview] = None
        self.strategy = self._choose_strategy()

    def _choose_strategy(self) -> str:
        """Pick the pumping strategy for this source/sink pair.

        ``sendfile`` needs a real descriptor on *both* ends -- checked
        at class level so fault-injection wrappers (which forward
        ``fileno`` via ``__getattr__``) stay on the guarded
        ``readinto``/``write`` path.  Everything else is ``pooled``,
        which asks of the source only ``readinto``; a source without
        one fails its transfer at the first quantum.
        """
        if (fastio.sendfile_available and self.total > 0
                and fastio.real_fileno(self.source) is not None
                and fastio.real_fileno(self.sink) is not None):
            try:
                # sendfile writes at the descriptor; drain any
                # buffered protocol header first so ordering holds.
                self.sink.flush()
                return SENDFILE
            except (OSError, ValueError):
                pass
        return POOLED

    # -- pumping (on the thread that called wait) ---------------------------
    def pump_chunk(self, nbytes: int) -> int:
        """Move up to ``nbytes``; returns bytes moved (0 at EOF)."""
        want = nbytes if self.total < 0 else min(nbytes, self.total - self.moved)
        if want <= 0:
            return 0
        if self.strategy == SENDFILE:
            moved = self._pump_sendfile(want)
            if moved is not None:
                return moved
            # fell through: sendfile refused this pair; demoted.
        return self._pump_pooled(want)

    def _pump_sendfile(self, want: int) -> Optional[int]:
        try:
            sent = fastio.sendfile(self.sink.fileno(), self.source.fileno(),
                                   want)
        except OSError:
            # Descriptor pair sendfile cannot serve (or a stalled
            # socket): demote permanently; the buffered path resumes
            # from the current descriptor offsets.
            self.strategy = POOLED
            return None
        if not sent:
            if self.moved < self.total:
                raise TransferError(
                    f"source ended {self.total - self.moved} bytes early"
                )
            return 0
        self.crc = None
        self.moved += sent
        return sent

    def _pump_pooled(self, want: int) -> int:
        if self._buffer is None:
            self._buffer = fastio.DEFAULT_POOL.acquire()
            self._view = memoryview(self._buffer)
        view = self._view
        waiting = self.manager._waiting
        moved_now = 0
        while moved_now < want:
            if moved_now and waiting:
                # Someone is being kept waiting: hand the rest of a
                # burst back at this buffer boundary.
                break
            step = min(len(view), want - moved_now)
            got = self.source.readinto(view[:step])
            if not got:
                break
            chunk = view[:got]
            if self.crc is not None:
                self.crc = zlib.crc32(chunk, self.crc)
            self.sink.write(chunk)
            self.moved += got
            moved_now += got
            fastio.COUNTERS.count_fallback(got, self.crc is not None)
        if not moved_now and self.total >= 0 and self.moved < self.total:
            raise TransferError(
                f"source ended {self.total - self.moved} bytes early"
            )
        return moved_now

    def _release_buffer(self) -> None:
        if self._view is not None:
            self._view.release()
            self._view = None
        if self._buffer is not None:
            fastio.DEFAULT_POOL.release(self._buffer)
            self._buffer = None

    # -- owner side --------------------------------------------------------
    def wait(self, timeout: float | None = 30.0) -> int:
        """Move the transfer to completion on the calling thread, one
        scheduler-granted quantum at a time; returns bytes moved.

        Raises the transfer's error.  ``timeout`` bounds the waits for
        a grant and is checked between quanta: past it the transfer is
        withdrawn and fails with ``TransferError("transfer timed out")``.
        """
        if not self._finished:
            self.manager._pump(self, timeout)
        if self.error is not None:
            raise self.error
        return self.moved


class TransferManager:
    """Orders every transfer's quanta under one NestConfig."""

    def __init__(self, config: NestConfig, residency=None, obs=None):
        config.validate()
        self.config = config
        #: optional repro.obs.observability.Observability bundle; when
        #: present every transfer feeds the metrics registry, the health
        #: monitor's rolling throughput, and (for traced requests)
        #: queue-wait and transfer child spans.
        self.obs = obs
        if obs is not None:
            reg = obs.registry
            self._m_bytes = reg.counter(
                "nest_transfer_bytes_total",
                "Bytes moved through the transfer manager.", ("protocol",))
            self._m_transfers = reg.counter(
                "nest_transfers_total",
                "Transfers completed.", ("protocol", "outcome"))
            self._m_failures = reg.counter(
                "nest_transfer_failures_total",
                "Transfer failures by cause.", ("protocol", "cause"))
            self._m_seconds = reg.histogram(
                "nest_transfer_seconds",
                "Transfer duration, submit to completion.", ("protocol",))
            self._m_queue_wait = reg.histogram(
                "nest_queue_wait_seconds",
                "Time from submit to first scheduler grant.",
                ("protocol",))
            reg.gauge_callback("nest_transfer_queue_depth", self.queue_depth,
                               "Transfers waiting for a scheduler grant.")
            reg.gauge_callback("nest_transfers_in_flight", self.in_flight,
                               "Transfer quanta currently executing.")
            reg.gauge_callback("nest_transfer_failure_ring",
                               lambda: len(self._failures),
                               "Failure causes currently retained.")
            reg.gauge_callback("nest_transfer_grants",
                               lambda: float(self.grants),
                               "Scheduler grants issued (quanta and bursts).")
            reg.gauge_callback("nest_transfer_burst_grants",
                               lambda: float(self.burst_grants),
                               "Grants of BURST_BYTES: issued while every "
                               "registered transfer had a slot.")
            fastio.register_metrics(reg)
        self.scheduler: Scheduler = make_scheduler(
            config.scheduling,
            shares=config.shares,
            residency=residency or (lambda path, size: 0.0),
            work_conserving=config.work_conserving,
            share_by=config.share_by,
        )
        self._lock = threading.Lock()
        #: transfers whose owner is blocked awaiting a grant, by job id.
        self._waiting: dict[int, Transfer] = {}
        #: grants currently out (at most ``config.transfer_workers``).
        self._active = 0
        #: grants issued, and how many of them were bursts (plain ints
        #: bumped under the lock; ``PumpGate.grants`` is the simulated
        #: twin).
        self.grants = 0
        self.burst_grants = 0
        #: monotonic time at which idling waiters force a grant, while
        #: non-work-conserving stride is holding a slot back.
        self._idle_until: Optional[float] = None
        #: ring of recent per-transfer failure causes (newest last);
        #: each entry is timestamped ("at", epoch seconds).
        self._failures: deque[dict[str, Any]] = deque(
            maxlen=FAILURE_HISTORY)
        self._enqueue_seq = 0
        self._running = True

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        source: BinaryIO,
        sink: BinaryIO,
        total: int,
        protocol: str,
        user: str = "anonymous",
        path: str = "",
        span: Optional["_spans.Span"] = None,
    ) -> Transfer:
        """Register a transfer with the scheduler; no byte moves until
        its owner calls :meth:`Transfer.wait`.

        ``span`` (or, failing that, the submitting thread's active
        span) becomes the parent of the queue-wait and transfer child
        spans.
        """
        job = make_job(protocol, user=user, path=path, total_bytes=total)
        job.ready = False  # ready only while its owner awaits a grant
        transfer = Transfer(self, job, source, sink, total,
                            span=span or _spans.current_span())
        with self._lock:
            self.scheduler.add(job)
        return transfer

    def failures(self) -> list[dict[str, Any]]:
        """Recent transfer failures, oldest first.

        Each entry records protocol, user, path, bytes moved vs.
        expected, the error, and a timestamp ("at", epoch seconds) --
        the manageability counterpart of the paper's "storage
        appliances must be observable": a failed transfer leaves a
        cause an operator can read, not just a closed socket.  The
        ring keeps the most recent :data:`FAILURE_HISTORY` entries;
        its live size and per-cause totals are also registry metrics.
        """
        with self._lock:
            return list(self._failures)

    def queue_depth(self) -> int:
        """Transfers whose owner is blocked awaiting a scheduler grant."""
        return len(self._waiting)

    def in_flight(self) -> int:
        """Granted quanta currently being pumped."""
        return self._active

    def shutdown(self) -> None:
        """Refuse every further grant and fail whatever is unfinished.

        Owners blocked awaiting a grant wake at once and fail their
        transfer with a typed ``TransferError("manager shut down")``
        instead of sitting out their ``wait()`` timeout; an owner in
        the middle of a quantum fails the same way when it asks for
        the next one.  Either way pooled buffers go back to
        ``DEFAULT_POOL``.  Calling it again changes nothing.
        """
        with self._lock:
            self._running = False
            for transfer in self._waiting.values():
                transfer._granted.notify()

    # ------------------------------------------------------------------
    # the data path: acquire grant -> pump_chunk -> charge/release
    # ------------------------------------------------------------------
    def _pump(self, transfer: Transfer, timeout: float | None) -> None:
        """Move ``transfer`` to completion on the calling thread."""
        deadline = None if timeout is None else time.monotonic() + timeout
        obs = self.obs
        moved = 0
        error: BaseException | None = None
        try:
            more = transfer.total != 0
            while more:
                grant = self._acquire(transfer, deadline)
                if transfer.granted_at is None:
                    self._observe_first_grant(transfer)
                moved = 0  # what _finish charges if pump_chunk raises
                moved = transfer.pump_chunk(grant)
                if obs is not None and moved:
                    self._m_bytes.inc(moved, protocol=transfer.job.protocol)
                    obs.health.record_bytes(moved)
                # EOF (nothing moved) or the declared total ends it;
                # the last grant goes back inside _finish.
                more = moved > 0 and not 0 <= transfer.total <= transfer.moved
                if more:
                    self._release(transfer, moved)
        except BaseException as exc:  # noqa: BLE001 - wait() re-raises it
            error = exc
        self._finish(transfer, moved, error)

    def _acquire(self, transfer: Transfer, deadline: float | None) -> int:
        """Block until the scheduler grants ``transfer`` a quantum;
        returns its size in bytes."""
        job = transfer.job
        if deadline is not None and time.monotonic() >= deadline:
            raise TransferError("transfer timed out")
        with self._lock:
            if not self._running:
                raise TransferError("manager shut down")
            self._enqueue_seq += 1
            job.enqueue_seq = self._enqueue_seq
            job.ready = True
            self._waiting[job.job_id] = transfer
            try:
                self._arbitrate_locked()
                while not transfer._grant:
                    if not self._running:
                        raise TransferError("manager shut down")
                    now = time.monotonic()
                    wake = deadline
                    if self._idle_until is not None:
                        if now >= self._idle_until:
                            self._idle_until = None
                            self._force_grant_locked()
                            continue
                        if wake is None or self._idle_until < wake:
                            wake = self._idle_until
                    if deadline is not None and now >= deadline:
                        raise TransferError("transfer timed out")
                    transfer._granted.wait(
                        None if wake is None else wake - now)
            finally:
                if not transfer._grant:
                    # Leaving empty-handed: withdraw the request.
                    self._waiting.pop(job.job_id, None)
                    job.ready = False
            return transfer._grant

    def _release(self, transfer: Transfer, moved: int) -> None:
        """Return the grant after moving ``moved`` bytes."""
        with self._lock:
            self._release_locked(transfer, moved)
            if self._waiting:
                self._arbitrate_locked()

    def _release_locked(self, transfer: Transfer, moved: int) -> None:
        transfer._grant = 0
        self._active -= 1
        self.scheduler.charge(transfer.job, moved)

    def _finish(self, transfer: Transfer, moved: int,
                error: BaseException | None) -> None:
        """Unregister ``transfer`` and publish its outcome."""
        job = transfer.job
        with self._lock:
            if transfer._grant:
                self._release_locked(transfer, moved)
            self.scheduler.remove(job)
            if error is not None:
                self._failures.append({
                    "protocol": job.protocol,
                    "user": job.user,
                    "path": job.path,
                    "moved": transfer.moved,
                    "total": transfer.total,
                    "error": error,
                    "at": time.time(),
                })
            if self._waiting:
                self._arbitrate_locked()
        transfer.error = error
        transfer._finished = True
        transfer._release_buffer()
        self._observe_finish(transfer, error)

    # -- arbitration (PumpGate._try_grant / _force_grant, live) ------------
    def _arbitrate_locked(self) -> None:
        """Grant free slots in scheduler order."""
        waiting = self._waiting
        workers = self.config.transfer_workers
        while waiting and self._active < workers:
            job = self.scheduler.select()
            transfer = waiting.get(job.job_id) if job is not None else None
            if transfer is None:
                # Non-work-conserving idling: the rightful job is not
                # ready.  One waiter is woken to keep the time; whoever
                # wakes first past ``_idle_until`` force-grants.
                if self._idle_until is None:
                    self._idle_until = time.monotonic() + IDLE_WAIT
                next(iter(waiting.values()))._granted.notify()
                return
            self._grant_locked(transfer)

    def _force_grant_locked(self) -> None:
        """After idling, grant the best *ready* jobs even though the
        scheduler would rather keep waiting (bounded idling)."""
        waiting = self._waiting
        workers = self.config.transfer_workers
        while waiting and self._active < workers:
            self._grant_locked(min(
                waiting.values(),
                key=lambda t: (t.job.pass_value, t.job.enqueue_seq)))

    def _grant_locked(self, transfer: Transfer) -> None:
        del self._waiting[transfer.job.job_id]
        transfer.job.ready = False
        self._active += 1
        self.grants += 1
        # A slot for every transfer submitted and unfinished: nobody
        # can be kept waiting, so a small quantum would buy no fairness.
        if self.scheduler.depth() <= self.config.transfer_workers:
            self.burst_grants += 1
            transfer._grant = BURST_BYTES
        else:
            transfer._grant = self.config.quantum_bytes
        transfer._granted.notify()

    # -- telemetry ---------------------------------------------------------
    def _observe_first_grant(self, transfer: Transfer) -> None:
        """The queue-wait ends here: one histogram observation, and the
        ``queue`` child span gives way to the ``transfer`` one."""
        transfer.granted_at = time.monotonic()
        protocol = transfer.job.protocol
        if self.obs is not None:
            self._m_queue_wait.observe(
                transfer.granted_at - transfer.started_at, protocol=protocol)
        if transfer._stage is not None:
            transfer._stage.end()
            transfer._stage = transfer.span.child("transfer",
                                                  protocol=protocol)

    def _observe_finish(self, transfer: Transfer,
                        error: BaseException | None) -> None:
        """Publish one finished transfer's telemetry."""
        if transfer.granted_at is None:
            # Empty, or failed before any grant: all of it was queue.
            self._observe_first_grant(transfer)
        if self.obs is not None:
            outcome = "error" if error is not None else "ok"
            protocol = transfer.job.protocol
            self._m_transfers.inc(1, protocol=protocol, outcome=outcome)
            self._m_seconds.observe(time.monotonic() - transfer.started_at,
                                    protocol=protocol)
            if error is not None:
                self._m_failures.inc(1, protocol=protocol,
                                     cause=type(error).__name__)
        stage = transfer._stage
        if stage is not None:
            stage.set(bytes=transfer.moved)
            if error is not None:
                stage.set(error=type(error).__name__)
            stage.end("error" if error is not None else None)
