"""Transfer-manager scheduling policies (paper, section 4.2).

The transfer manager controls *all* on-going requests, so it can
reorder them: the paper implements FCFS, **proportional-share stride
scheduling** across protocol classes with *byte-based* strides, and
**cache-aware** scheduling using a gray-box estimate of the kernel
buffer cache.  Because these policies are pure data structures here,
the identical code drives the live threaded server and the simulated
substrate -- the reproduction's embodiment of the paper's observation
that one transfer-manager optimization serves every protocol at once.

Model: a :class:`TransferJob` is one data stream (one whole-file get,
or one NFS connection's flow of block requests).  A *pump* (a worker in
some concurrency model) repeatedly asks the scheduler to
:meth:`~Scheduler.select` the next ready job, moves one quantum of its
bytes, and reports the amount via :meth:`~Scheduler.charge`.

Byte-based strides: "an NFS client who reads a large file in its
entirety issues multiple requests while an HTTP client reading the same
file issues only one; therefore ... the transfer manager schedules NFS
requests N times more frequently, where N is the ratio between the
average file size and the NFS block size."  Charging *bytes moved*
against the job's pass value achieves exactly this: a job's progress
through the schedule is proportional to bandwidth received, regardless
of how its protocol frames requests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, Optional

#: The classic stride constant (Waldspurger & Weihl); any large number.
STRIDE1 = 1 << 20


@dataclass(eq=False)
class TransferJob:
    """One scheduled data stream, equal only to itself (a scheduler
    finds and removes a job by identity, not by comparing fields).

    ``ready`` is maintained by the harness: a whole-file job is ready
    until it completes; a block-based (NFS) job is ready only while a
    client request is outstanding.  ``available`` caps the next quantum
    (e.g. to the pending NFS block size).
    """

    job_id: int
    protocol: str
    user: str = "anonymous"
    path: str = ""
    total_bytes: int = -1  #: -1 = unknown until EOF
    bytes_moved: int = 0
    ready: bool = True
    available: int = 1 << 62  #: bytes movable right now
    arrival_seq: int = 0

    # scheduler bookkeeping (owned by the scheduler, not the harness)
    tickets: int = 1
    pass_value: float = 0.0
    remaining_estimate: float = float("inf")
    enqueue_seq: int = 0  #: stamped by the pump gate per service request


_seq = itertools.count()

#: a ``min`` key read in C, with no Python frame per job
_PASS = attrgetter("pass_value")


def make_job(protocol: str, **kwargs) -> TransferJob:
    """Create a job with a fresh id and arrival sequence number."""
    n = next(_seq)
    kwargs.setdefault("arrival_seq", n)
    return TransferJob(job_id=n, protocol=protocol, **kwargs)


class Scheduler:
    """Interface all transfer schedulers implement."""

    name = "base"

    def add(self, job: TransferJob) -> None:
        """Register a new job."""
        raise NotImplementedError

    def remove(self, job: TransferJob) -> None:
        """Unregister a completed/aborted job."""
        raise NotImplementedError

    def select(self, now: float = 0.0) -> Optional[TransferJob]:
        """Pick the next job to receive a quantum, or None to idle.

        Returning None when ready jobs exist is allowed only for
        non-work-conserving policies (the harness will wait briefly and
        retry).
        """
        raise NotImplementedError

    def charge(self, job: TransferJob, nbytes: int) -> None:
        """Account ``nbytes`` actually moved for ``job``."""
        job.bytes_moved += nbytes

    def has_ready(self) -> bool:
        """True if any registered job is ready."""
        raise NotImplementedError

    def depth(self) -> int:
        """Number of registered jobs (the scheduler's queue depth)."""
        jobs = getattr(self, "_jobs", None)
        return len(jobs) if jobs is not None else 0


class FCFSScheduler(Scheduler):
    """First-come first-served over the transfer manager's run queue.

    This is NeST's default.  The queue holds *service units* -- one
    whole-file transfer enqueues a unit per data chunk as it streams, a
    block protocol enqueues a unit per client RPC -- and units are
    served strictly in arrival order (``enqueue_seq``, stamped by the
    pump gate each time a job asks for service).

    Note the paper's Fig. 3 observation: FIFO order *disfavours NFS*.
    An NFS flow contributes one 8 KB unit per client round trip, while
    every whole-file stream keeps a large unit in the queue
    continuously, so NFS receives a tiny fraction of the service cycle.
    """

    name = "fcfs"

    def __init__(self) -> None:
        self._jobs: list[TransferJob] = []

    def add(self, job: TransferJob) -> None:
        self._jobs.append(job)

    def remove(self, job: TransferJob) -> None:
        if job in self._jobs:
            self._jobs.remove(job)

    def select(self, now: float = 0.0) -> Optional[TransferJob]:
        # Single manual pass, as StrideScheduler.select: the first
        # ready job with the least (enqueue_seq, arrival_seq).
        best = None
        best_key = None
        for j in self._jobs:
            if j.ready and j.available > 0:
                key = (j.enqueue_seq, j.arrival_seq)
                if best is None or key < best_key:
                    best = j
                    best_key = key
        return best

    def has_ready(self) -> bool:
        return any(j.ready and j.available > 0 for j in self._jobs)


class StrideScheduler(Scheduler):
    """Byte-based proportional-share stride scheduling.

    ``shares`` maps protocol class to tickets (e.g. ``{"chirp": 1,
    "gridftp": 2, "http": 1, "nfs": 1}``); jobs of a class split its
    tickets equally.  Each charge advances the job's pass by
    ``bytes * STRIDE1 / tickets``; select returns the minimum-pass
    ready job.

    ``work_conserving=True`` (the paper's implementation) schedules a
    competitor whenever the minimum-pass job is not ready -- which is
    precisely why the 1:1:1:4 NFS allocation falls short (Fig. 4).
    ``work_conserving=False`` implements the paper's proposed fix
    (anticipatory idling [Iyer & Druschel]): if the globally
    minimum-pass job is merely *not ready yet*, the scheduler returns
    None so the pump idles briefly instead of giving the slot away.
    """

    name = "stride"

    def __init__(
        self,
        shares: dict[str, float] | None = None,
        work_conserving: bool = True,
        default_share: float = 1.0,
        share_by: str = "protocol",
    ):
        if share_by not in ("protocol", "user"):
            raise ValueError(f"unknown share key {share_by!r}")
        self.shares = dict(shares or {})
        self.default_share = default_share
        self.work_conserving = work_conserving
        #: "protocol" (the paper's implementation: preferences per
        #: protocol class) or "user" (its stated extension: "in the
        #: future, we plan to extend this to provide preferences on a
        #: per-user basis").
        self.share_by = share_by
        self._jobs: list[TransferJob] = []
        self._global_pass = 0.0

    # -- ticket management ----------------------------------------------------
    def _class_of(self, job: TransferJob) -> str:
        return job.user if self.share_by == "user" else job.protocol

    def _class_share(self, key: str) -> float:
        return self.shares.get(key, self.default_share)

    def _retickets(self) -> None:
        """Split each class's tickets among its active jobs."""
        by_class: dict[str, list[TransferJob]] = {}
        for job in self._jobs:
            by_class.setdefault(self._class_of(job), []).append(job)
        for key, jobs in by_class.items():
            share = self._class_share(key) / len(jobs)
            for job in jobs:
                job.tickets = max(share, 1e-9)

    def add(self, job: TransferJob) -> None:
        job.pass_value = self._min_pass()
        self._jobs.append(job)
        self._retickets()

    def remove(self, job: TransferJob) -> None:
        if job in self._jobs:
            self._jobs.remove(job)
            self._retickets()

    def _min_pass(self) -> float:
        if not self._jobs:
            return self._global_pass
        return min(self._jobs, key=_PASS).pass_value

    def select(self, now: float = 0.0) -> Optional[TransferJob]:
        # Single manual pass: same first-minimum tie-breaking as
        # ``min(..., key=...)`` without per-job lambda frames.
        best = None
        best_key = None
        for j in self._jobs:
            if j.ready and j.available > 0:
                key = (j.pass_value, j.arrival_seq)
                if best is None or key < best_key:
                    best = j
                    best_key = key
        if best is None:
            return None
        if not self.work_conserving:
            overall = min(self._jobs, key=lambda j: (j.pass_value, j.arrival_seq))
            if not (overall.ready and overall.available > 0):
                return None  # idle and wait for the rightful owner
        return best

    def charge(self, job: TransferJob, nbytes: int) -> None:
        super().charge(job, nbytes)
        old = job.pass_value
        job.pass_value = old + nbytes * STRIDE1 / (job.tickets * STRIDE1)
        # A charge only ever *raises* one job's pass value, so the
        # global minimum moves only if that job was at the minimum.
        if old <= self._global_pass:
            self._global_pass = self._min_pass()

    def has_ready(self) -> bool:
        return any(j.ready and j.available > 0 for j in self._jobs)


class CacheAwareScheduler(Scheduler):
    """Schedule cache-resident requests before disk-bound ones.

    "By modeling the kernel buffer cache using gray-box techniques,
    NeST is able to predict which requested files are likely to be
    cache resident and can schedule them before requests for files
    which will need to be fetched from secondary storage."  This
    approximates shortest-job-first (better response time) and reduces
    disk contention (better throughput) -- paper, section 4.2.

    ``residency`` is the gray-box predictor: ``(path, size) -> float``
    fraction of the file estimated resident.  Jobs whose estimated
    residency meets ``threshold`` are scheduled first (FIFO within a
    tier).  A job already started keeps priority so streams are not
    starved mid-file.
    """

    name = "cache-aware"

    def __init__(
        self,
        residency: Callable[[str, int], float],
        threshold: float = 0.9,
    ):
        self.residency = residency
        self.threshold = threshold
        self._jobs: list[TransferJob] = []

    def add(self, job: TransferJob) -> None:
        self._jobs.append(job)

    def remove(self, job: TransferJob) -> None:
        if job in self._jobs:
            self._jobs.remove(job)

    def _tier(self, job: TransferJob) -> int:
        if job.bytes_moved > 0:
            return 0  # keep in-flight streams flowing
        size = job.total_bytes if job.total_bytes >= 0 else 0
        resident = self.residency(job.path, size)
        return 0 if resident >= self.threshold else 1

    def select(self, now: float = 0.0) -> Optional[TransferJob]:
        ready = [j for j in self._jobs if j.ready and j.available > 0]
        if not ready:
            return None
        return min(ready, key=lambda j: (self._tier(j), j.arrival_seq))

    def has_ready(self) -> bool:
        return any(j.ready and j.available > 0 for j in self._jobs)


def make_scheduler(
    policy: str,
    shares: dict[str, float] | None = None,
    residency: Callable[[str, int], float] | None = None,
    work_conserving: bool = True,
    share_by: str = "protocol",
) -> Scheduler:
    """Factory used by server configuration.

    ``policy`` is one of ``"fcfs"``, ``"stride"``, ``"cache-aware"``.
    """
    if policy == "fcfs":
        return FCFSScheduler()
    if policy == "stride":
        return StrideScheduler(shares=shares, work_conserving=work_conserving,
                               share_by=share_by)
    if policy == "cache-aware":
        if residency is None:
            raise ValueError("cache-aware scheduling needs a residency predictor")
        return CacheAwareScheduler(residency)
    raise ValueError(f"unknown scheduling policy {policy!r}")
