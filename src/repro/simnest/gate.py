"""The pump gate: enforcing scheduler decisions over concurrent transfers.

The transfer manager owns every on-going request, which is what lets
NeST schedule across protocols at all (paper, section 4.2).  In the
simulated server this control point is the :class:`PumpGate`: a
transfer must acquire the gate before moving each scheduling unit of
data (one chunk of a whole-file stream, one block RPC of an NFS flow),
and the gate consults the :class:`~repro.nest.scheduling.Scheduler` to
decide who goes next.  A job may have several service requests pending
at once (e.g. an NFS connection's request window); they are granted
oldest-first.

``grant_cost`` models the CPU the fine-grained arbitration burns
(scheduler run + extra context switches + lost pipelining); the
arbitration is *serialized* -- one decision at a time -- which is the
mechanism behind Fig. 4's observation that the proportional-share
scheduler delivers 24-28 MB/s against FIFO's 33 MB/s.

For non-work-conserving stride (the paper's future-work policy), a
select() that returns None while ready jobs exist makes the gate idle
for ``idle_wait`` before granting the best *ready* job anyway --
bounded anticipatory idling [Iyer & Druschel].
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque

from repro.nest.scheduling import Scheduler, TransferJob
from repro.sim.core import Environment, Event

_enqueue_counter = itertools.count(1)


class PumpGate:
    """Scheduler-ordered admission of transfer service units."""

    def __init__(
        self,
        env: Environment,
        scheduler: Scheduler,
        workers: int,
        grant_cost: float = 0.0,
        idle_wait: float = 2e-3,
    ):
        self.env = env
        self.scheduler = scheduler
        self.workers = workers
        self.grant_cost = grant_cost
        self.idle_wait = idle_wait
        self._active = 0
        #: per-job FIFO of pending (event, nbytes) service requests.
        self._waiters: dict[int, tuple[TransferJob, Deque[tuple[Event, int]]]] = {}
        self._idle_timer_pending = False
        #: serialized-arbitration bookkeeping: when the arbiter frees up.
        self._arbiter_free_at = 0.0
        #: perf counters (experiment and perf-layer introspection)
        self.grants = 0
        self.arbitrations = 0

    # -- transfer side -------------------------------------------------------
    def acquire(self, job: TransferJob, nbytes: int) -> Event:
        """Queue a request for ``job`` to move ``nbytes``; the returned
        event fires when the scheduler grants it a slot (a process
        ``yield``s it)."""
        ev = Event(self.env)
        entry = self._waiters.get(job.job_id)
        if entry is None:
            self._waiters[job.job_id] = (job, deque([(ev, nbytes)]))
            job.available = nbytes
        else:
            entry[1].append((ev, nbytes))
            job.available = entry[1][0][1]
        # The job is ready, offering its oldest request.
        job.ready = True
        job.enqueue_seq = next(_enqueue_counter)
        if self._active < self.workers:
            self._try_grant()
        return ev

    def release(self, job: TransferJob, moved: int) -> None:
        """Return the slot after moving ``moved`` bytes."""
        self._active -= 1
        self.scheduler.charge(job, moved)
        if self._waiters:
            self._try_grant()

    def withdraw(self, job: TransferJob) -> None:
        """Cancel all of a job's pending requests (connection aborted)."""
        self._waiters.pop(job.job_id, None)
        job.ready = False
        job.available = 0

    def _dispatch(self, job: TransferJob) -> None:
        """Grant ``job``'s oldest request, serializing through the
        arbiter's CPU cost."""
        queue = self._waiters[job.job_id][1]
        ev = queue.popleft()[0]
        if queue:
            job.available = queue[0][1]
        else:
            del self._waiters[job.job_id]
            job.ready = False
            job.available = 0
        self._active += 1
        self.grants += 1
        if self.grant_cost <= 0:
            ev.succeed()
            return
        env = self.env
        now = env.now
        free_at = self._arbiter_free_at = (max(now, self._arbiter_free_at)
                                           + self.grant_cost)
        # The grant fires where a timeout of ``free_at - now`` would:
        # the same float, one event instead of a timeout and its grant.
        env.schedule(ev, now + (free_at - now))

    # -- arbitration -----------------------------------------------------------
    def _try_grant(self) -> None:
        waiters = self._waiters
        workers = self.workers
        select = self.scheduler.select
        now = self.env.now
        while self._active < workers and waiters:
            self.arbitrations += 1
            choice = select(now)
            if choice is None or choice.job_id not in waiters:
                # Non-work-conserving idling: the rightful job is not
                # ready; re-arbitrate shortly.
                if waiters and not self._idle_timer_pending:
                    self._idle_timer_pending = True
                    timer = self.env.timeout(self.idle_wait)
                    timer.callbacks.append(self._idle_expired)
                return
            self._dispatch(choice)

    def _idle_expired(self, _event: Event) -> None:
        self._idle_timer_pending = False
        self._force_grant()

    def _force_grant(self) -> None:
        """After idling, grant the best *ready* job even if the
        scheduler would prefer to keep waiting (bounded idling)."""
        while self._active < self.workers and self._waiters:
            candidates = [job for job, q in self._waiters.values() if q]
            if not candidates:
                return
            job = min(candidates, key=lambda j: (j.pass_value, j.enqueue_seq))
            self._dispatch(job)
        self._try_grant()
