"""Simulated NeST and JBOS servers.

:class:`SimNest` binds the pure policy code -- the storage manager,
the transfer schedulers of :mod:`repro.nest.scheduling`, and the
adaptive concurrency selector of :mod:`repro.simnest.concurrency` -- to
the modelled testbed (filesystem, buffer cache, disk, fair-share link).
Client processes call its ``serve_*`` generator methods, which spend
simulated time exactly where the real server spends real time: protocol
parsing, scheduling arbitration, concurrency-model overheads, cache or
disk reads, and network transmission.

:class:`SimJbos` is the paper's baseline, "Just a Bunch Of Servers":
one independent native server per protocol, sharing only the hardware.
Structurally it is a set of single-protocol ``SimNest`` instances with
*separate* transfer managers and no virtual-protocol translation cost
-- precisely the difference the paper argues about: no JBOS
configuration can schedule across protocols, because no component sees
more than one of them.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Generator, Sequence

from repro.models.filesystem import FileSystemModel
from repro.models.network import FairShareLink
from repro.models.platform import PlatformProfile
from repro.nest.concurrency import EVENTS, THREADS
from repro.nest import graybox
from repro.nest.config import NestConfig
from repro.nest.scheduling import TransferJob, make_job, make_scheduler
from repro.nest.storage import StorageManager, StorageError
from repro.protocols.common import Status
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.simnest.concurrency import (PROCESSES, SEDA, Selector,
                                       make_selector)
from repro.simnest.gate import PumpGate
from repro.simnest.protocolspec import DEFAULT_SPECS, ProtocolSpec


def _tally() -> defaultdict[str, int]:
    return defaultdict(int)


@dataclass
class ServerStats:
    """Counters a simulated server accumulates for the benches."""

    bytes_by_protocol: defaultdict[str, int] = field(default_factory=_tally)
    bytes_by_user: defaultdict[str, int] = field(default_factory=_tally)
    requests_by_protocol: defaultdict[str, int] = field(default_factory=_tally)
    latencies: list[float] = field(default_factory=list)
    model_assignments: defaultdict[str, int] = field(default_factory=_tally)

    #: bytes actually moved so far, per protocol (updated per chunk,
    #: so windowed bandwidth measurement sees partial transfers).
    progress_by_protocol: defaultdict[str, int] = field(default_factory=_tally)

    def moved(self, protocol: str, nbytes: int) -> None:
        self.progress_by_protocol[protocol] += nbytes

    def account(self, protocol: str, nbytes: int, latency: float, model: str,
                user: str = "anonymous") -> None:
        self.bytes_by_protocol[protocol] += nbytes
        self.bytes_by_user[user] += nbytes
        self.requests_by_protocol[protocol] += 1
        self.latencies.append(latency)
        self.model_assignments[model] += 1


class Connection:
    """One client session: per-flow scheduling state for block protocols."""

    _ids = itertools.count(1)

    def __init__(self, protocol: str, user: str = "anonymous"):
        self.conn_id = next(self._ids)
        self.protocol = protocol
        self.user = user
        self.flow_job: TransferJob | None = None  #: persistent stride job


class SimNest:
    """One simulated storage appliance."""

    #: Extra CPU the virtual protocol layer spends translating a request
    #: into the common format (NeST only; native JBOS servers skip it).
    VPL_TRANSLATE_COST = 20e-6

    #: Serialized arbitration overhead per stride quantum (scheduler
    #: pass + context switches + lost pipelining) -- the Fig. 4
    #: total-bandwidth cost of proportional sharing.
    STRIDE_GRANT_COST = 0.45e-3

    def __init__(
        self,
        env: Environment,
        platform: PlatformProfile,
        config: NestConfig | None = None,
        fs: FileSystemModel | None = None,
        link: FairShareLink | None = None,
        specs: dict[str, ProtocolSpec] | None = None,
        is_native: bool = False,
        concurrency: str = "adaptive",
        models: Sequence[str] = (THREADS, EVENTS),
    ):
        self.env = env
        self.platform = platform
        self.config = config or NestConfig()
        self.config.validate()
        self.specs = dict(specs or DEFAULT_SPECS)
        self.is_native = is_native
        quotas_on = self.config.require_lots and self.config.lot_enforcement == "quota"
        self.fs = fs if fs is not None else FileSystemModel(
            env, platform, capacity_bytes=self.config.capacity_bytes,
            quotas_enabled=quotas_on,
        )
        self.link = link if link is not None else FairShareLink(
            env, platform.link_bw, name=f"{self.config.name}-port"
        )
        self.storage = StorageManager(
            capacity_bytes=self.config.capacity_bytes,
            clock=lambda: env.now,
            require_lots=self.config.require_lots,
            lot_enforcement=self.config.lot_enforcement,
        )
        #: the gray-box shadow cache, for the cache-aware scheduler
        #: only (None under every other policy; see :meth:`_observe`).
        self.graybox = graybox.model_for(self.config.scheduling,
                                         block_size=platform.block_size)
        self.scheduler = make_scheduler(
            self.config.scheduling,
            shares=self.config.shares,
            residency=(self.graybox.predict_residency
                       if self.graybox is not None else None),
            work_conserving=self.config.work_conserving,
            share_by=self.config.share_by,
        )
        grant_cost = (
            self.STRIDE_GRANT_COST if self.config.scheduling == "stride" else 0.0
        )
        self.gate = PumpGate(
            env, self.scheduler, workers=self.config.transfer_workers,
            grant_cost=grant_cost,
        )
        #: per-transfer concurrency model (Fig. 5): "adaptive" deals
        #: transfers among ``models``; a model name pins every transfer
        #: to it.
        self.concurrency = concurrency
        self.selector: Selector = make_selector(concurrency, models=models)
        #: the event loop: capacity-1 -- a single-threaded loop can do
        #: exactly one thing at a time (this is what hurts events on
        #: disk-bound work in Fig. 5).
        self._event_loop = Resource(env, capacity=1)
        #: SEDA stages: small bounded pools per resource class.  The
        #: bounded disk stage is the point -- admission control keeps
        #: the disk from thrashing under unbounded concurrency.
        self._seda_disk_stage = Resource(env, capacity=2)
        #: thread-per-request degrades under load: scheduling and
        #: memory pressure grow with the number of live service threads
        #: (the overload behaviour SEDA was designed to avoid).
        self._active_threads = 0
        self.THREAD_OVERLOAD_THRESHOLD = 32
        self.THREAD_OVERLOAD_SLOPE = 0.15
        self.stats = ServerStats()
        # Protocol-implementation aggregate limits (e.g. the 2001
        # GridFTP stack's ~half-of-link ceiling) become group caps on
        # the shared link.
        for proto, spec in self.specs.items():
            if spec.flow_cap_fraction < 1.0:
                self.link.set_group_cap(
                    proto, spec.flow_cap_fraction * platform.link_bw
                )

    # ------------------------------------------------------------------
    # setup helpers
    # ------------------------------------------------------------------
    def populate(self, path: str, size: int, owner: str = "admin",
                 resident: bool = True) -> None:
        """Pre-load a file (optionally warming the buffer cache), the
        way the paper's experiments start from in-cache files."""
        parts = [p for p in path.split("/") if p]
        prefix = ""
        for part in parts[:-1]:
            prefix += "/" + part
            if not self.storage.exists(prefix):
                self.storage.mkdir(owner, prefix)
        ticket = self.storage.approve_put(owner, path, size)
        ticket.settle(size)
        if path not in self.fs.files:
            self.fs.create(path, owner)
        self.fs.files[path].size = size
        self.fs.used_bytes += size
        if resident:
            self.fs.cache.access_read(path, 0, size)
            self._observe(False, path, 0, size)

    def _observe(self, write: bool, path: str, offset: int,
                 nbytes: int) -> None:
        """Feed the gray-box shadow, when this server has one."""
        if self.graybox is not None:
            (self.graybox.observe_write if write
             else self.graybox.observe_read)(path, offset, nbytes)

    def rtt(self) -> float:
        """One network round trip."""
        return 2 * self.platform.net_latency

    def _parse_cost(self, spec: ProtocolSpec) -> float:
        cost = spec.parse_cost_factor * self.platform.request_parse_cost
        if not self.is_native:
            cost += self.VPL_TRANSLATE_COST
        return cost

    # ------------------------------------------------------------------
    # session setup
    # ------------------------------------------------------------------
    def connect(self, protocol: str, user: str = "anonymous") -> Generator:
        """Process step: open a session (control dialogue, auth RTTs).

        Returns a :class:`Connection` via the generator's value.
        """
        spec = self.specs[protocol]
        if spec.setup_rtts:
            # One sleep for the whole control dialogue (bit-identical
            # end time to sleeping each RTT in turn).
            yield (self.rtt(),) * spec.setup_rtts
        conn = Connection(protocol, user)
        return conn

    # ------------------------------------------------------------------
    # whole-file transfers (chirp / http / ftp / gridftp)
    # ------------------------------------------------------------------
    def serve_get(
        self, conn: Connection, path: str, client_cap: float | None = None
    ) -> Generator:
        """Process step: serve one whole-file retrieve to the client.

        Returns (bytes_moved, service_latency) via the generator value.
        """
        spec = self.specs[conn.protocol]
        cap = client_cap or self.platform.client_nic_bw
        env = self.env
        # Request travel + parse as one sleep; ``start`` is the
        # post-travel instant, computed with the same float add the
        # kernel uses (bit-identical to sleeping each in turn).
        start = env.now + self.platform.net_latency
        yield (self.platform.net_latency, self._parse_cost(spec))
        try:
            size = self.storage.check_get(conn.user, path)
        except StorageError as exc:
            raise SimRequestError(exc.status, path) from exc
        model = self.selector.choose()
        job = make_job(conn.protocol, user=conn.user, path=path, total_bytes=size)
        self.scheduler.add(job)
        threads = model == THREADS
        if threads:
            self._active_threads += 1
        # The transfer manager's service cycle, in this frame: move
        # ``size`` bytes server -> client, one gate-scheduled chunk at
        # a time.
        gate = self.gate
        link = self.link
        protocol = conn.protocol
        chunk = self._chunk_size(model)
        per_chunk_cpu = spec.per_chunk_cpu
        read = self._reader(model)
        offset = 0
        first = True
        pending_send = None
        try:
            while offset < size:
                n = min(chunk, size - offset)
                yield gate.acquire(job, n)
                try:
                    yield self._overhead_delays(model, first) + (per_chunk_cpu,)
                    yield from read(path, offset, n)
                    if model == EVENTS:
                        # Async sends: overlap this chunk's send with the
                        # next chunk's read; bound buffering to one chunk.
                        if pending_send is not None:
                            yield pending_send
                        pending_send = link.transfer(n, cap, protocol)
                    else:
                        yield link.transfer(n, cap, protocol)
                finally:
                    gate.release(job, n)
                self.stats.moved(protocol, n)
                offset += n
                first = False
            if pending_send is not None:
                yield pending_send
        finally:
            if threads:
                self._active_threads -= 1
            self.scheduler.remove(job)
        self._observe(False, path, 0, size)
        yield self.platform.net_latency  # last ack back
        elapsed = self.env.now - start
        self.selector.report(model, size, elapsed)
        self.stats.account(conn.protocol, size, elapsed, model, user=conn.user)
        return size, elapsed

    def serve_put(
        self, conn: Connection, path: str, size: int,
        client_cap: float | None = None,
    ) -> Generator:
        """Process step: receive one whole file from the client."""
        spec = self.specs[conn.protocol]
        cap = client_cap or self.platform.client_nic_bw
        env = self.env
        start = env.now + self.platform.net_latency
        yield (self.platform.net_latency, self._parse_cost(spec))
        try:
            ticket = self.storage.approve_put(conn.user, path, size)
        except StorageError as exc:
            raise SimRequestError(exc.status, path) from exc
        if path not in self.fs.files:
            self.fs.create(path, conn.user)
        model = self.selector.choose()
        job = make_job(conn.protocol, user=conn.user, path=path, total_bytes=size)
        self.scheduler.add(job)
        try:
            yield from self._pump_in(job, spec, path, size, cap, model)
        finally:
            self.scheduler.remove(job)
            ticket.settle(size)
        self._observe(True, path, 0, size)
        yield self.platform.net_latency
        elapsed = self.env.now - start
        self.selector.report(model, size, elapsed)
        self.stats.account(conn.protocol, size, elapsed, model, user=conn.user)
        return size, elapsed

    # ------------------------------------------------------------------
    # block transfers (NFS)
    # ------------------------------------------------------------------
    def serve_block_read(
        self, conn: Connection, path: str, offset: int, nbytes: int,
        client_cap: float | None = None,
    ) -> Generator:
        """Process step: one NFS READ rpc."""
        protocol = conn.protocol
        spec = self.specs[protocol]
        cap = client_cap or self.platform.client_nic_bw
        env = self.env
        net_latency = self.platform.net_latency
        start = env.now + net_latency
        yield (net_latency, self._parse_cost(spec))
        job = self._block_job(conn, path)
        gate = self.gate
        yield gate.acquire(job, nbytes)
        model = self._fixed_model()
        try:
            # Concurrency overhead + protocol per-chunk CPU as one
            # sleep (bit-identical end time, fewer events).
            yield (self._overhead_delays(model, first=job.bytes_moved == 0)
                   + (spec.per_chunk_cpu,))
            yield from self._reader(model)(path, offset, nbytes)
            yield self.link.transfer(nbytes, cap, protocol)
        finally:
            gate.release(job, nbytes)
            if job is not conn.flow_job:
                self.scheduler.remove(job)
        self.stats.moved(protocol, nbytes)
        self._observe(False, path, offset, nbytes)
        yield net_latency
        elapsed = env.now - start
        self.stats.account(protocol, nbytes, elapsed, model, user=conn.user)
        return nbytes, elapsed

    def serve_block_write(
        self, conn: Connection, path: str, offset: int, nbytes: int,
        client_cap: float | None = None,
    ) -> Generator:
        """Process step: one NFS WRITE rpc."""
        spec = self.specs[conn.protocol]
        cap = client_cap or self.platform.client_nic_bw
        env = self.env
        start = env.now + self.platform.net_latency
        yield (self.platform.net_latency, self._parse_cost(spec))
        try:
            ticket = self.storage.approve_write(conn.user, path, offset, nbytes)
            ticket.settle(nbytes)
        except StorageError as exc:
            raise SimRequestError(exc.status, path) from exc
        if path not in self.fs.files:
            self.fs.create(path, conn.user)
        job = self._block_job(conn, path)
        yield self.gate.acquire(job, nbytes)
        try:
            yield self.link.transfer(nbytes, cap=cap, group=conn.protocol)
            yield spec.per_chunk_cpu
            yield from self.fs.write(path, offset, nbytes)
        finally:
            self.gate.release(job, nbytes)
            if job is not conn.flow_job:
                self.scheduler.remove(job)
        self.stats.moved(conn.protocol, nbytes)
        self._observe(True, path, offset, nbytes)
        yield self.platform.net_latency
        elapsed = self.env.now - start
        self.stats.account(conn.protocol, nbytes, elapsed, self._fixed_model(),
                           user=conn.user)
        return nbytes, elapsed

    def _block_job(self, conn: Connection, path: str) -> TransferJob:
        """Stride keeps one persistent job per flow (pass accumulates
        across blocks, which is how proportional shares throttle NFS);
        admission-ordered policies queue each block as a fresh request
        (which is how FIFO ends up disfavouring NFS, Fig. 3)."""
        if self.config.scheduling == "stride":
            if conn.flow_job is None:
                conn.flow_job = make_job(conn.protocol, user=conn.user, path=path)
                self.scheduler.add(conn.flow_job)
            return conn.flow_job
        job = make_job(conn.protocol, user=conn.user, path=path)
        self.scheduler.add(job)
        return job

    # ------------------------------------------------------------------
    # pumping under a concurrency model
    # ------------------------------------------------------------------
    def _fixed_model(self) -> str:
        if self.concurrency in (THREADS, EVENTS, PROCESSES, SEDA):
            return self.concurrency
        return THREADS

    def _thread_overload_factor(self) -> float:
        excess = max(0, self._active_threads - self.THREAD_OVERLOAD_THRESHOLD)
        return 1.0 + excess * self.THREAD_OVERLOAD_SLOPE

    def _chunk_size(self, model: str) -> int:
        if model == EVENTS:
            base = self.platform.event_chunk
        else:
            base = self.platform.thread_chunk
        if self.config.scheduling == "stride":
            return min(base, self.config.quantum_bytes)
        return base

    def _overhead_delays(self, model: str, first: bool) -> tuple[float, ...]:
        """Per-chunk concurrency-model CPU delays, in the order the
        model pays them.  Returned as a tuple so the hot loops can
        coalesce them (plus the protocol's per-chunk CPU) into one
        sleep, ``yield delays`` -- same simulated end time, one kernel
        event instead of up to three."""
        p = self.platform
        if model == THREADS:
            factor = self._thread_overload_factor()
            if first:
                return (p.thread_create_cost * factor,
                        p.thread_switch_cost * factor)
            return (p.thread_switch_cost * factor,)
        if model == PROCESSES:
            if first:
                return (p.process_create_cost, p.process_switch_cost)
            return (p.process_switch_cost,)
        if model == SEDA:
            # Two stage handoffs per chunk (enqueue + dispatch), each
            # about as cheap as an event-loop dispatch.
            return (2 * p.event_dispatch_cost,)
        return (p.event_dispatch_cost,)  # events

    def _reader(self, model: str) -> Callable[[str, int, int], Generator]:
        """The fs read under the model's blocking semantics: a model
        with no stage to pass reads straight from the fs."""
        if model == EVENTS or model == SEDA:
            return functools.partial(self._staged_read, model)
        return self.fs.read

    def _staged_read(self, model: str, path: str, offset: int,
                     nbytes: int) -> Generator:
        """Read through the event loop or a SEDA stage."""
        if model == EVENTS:
            # The single-threaded loop is busy for the whole read.
            with self._event_loop.request() as grant:
                yield grant
                yield from self.fs.read(path, offset, nbytes)
        elif model == SEDA:
            # Stage routing: cache-resident reads take the fast
            # event-driven path; only disk-bound work enters the
            # bounded disk stage (admission control over the spindle).
            if self.fs.cache.is_resident(path, offset, nbytes):
                yield from self.fs.read(path, offset, nbytes)
            else:
                with self._seda_disk_stage.request() as grant:
                    yield grant
                    yield from self.fs.read(path, offset, nbytes)

    def _pump_in(self, job: TransferJob, spec: ProtocolSpec, path: str,
                 size: int, cap: float, model: str) -> Generator:
        """Move ``size`` bytes client -> server."""
        env = self.env
        chunk = self._chunk_size(model)
        offset = 0
        first = True
        while offset < size:
            n = min(chunk, size - offset)
            yield self.gate.acquire(job, n)
            try:
                yield self._overhead_delays(model, first)
                yield self.link.transfer(n, cap=cap, group=job.protocol)
                yield spec.per_chunk_cpu
                yield from self.fs.write(path, offset, n)
            finally:
                self.gate.release(job, n)
            self.stats.moved(job.protocol, n)
            offset += n
            first = False


class SimRequestError(Exception):
    """A simulated request failed at the storage manager."""

    def __init__(self, status: Status, path: str):
        super().__init__(f"{status.value}: {path}")
        self.status = status
        self.path = path


class SimJbos:
    """"Just a Bunch Of Servers": one native server per protocol.

    All servers share the machine (one filesystem/cache/disk, one
    network port) but nothing else -- separate schedulers, separate
    gates, no cross-protocol control.  Per-server configs default to
    FCFS with the same worker count NeST uses, which is what a stock
    wu-ftpd / Apache / nfsd deployment looks like.
    """

    def __init__(
        self,
        env: Environment,
        platform: PlatformProfile,
        protocols: list[str] | tuple[str, ...] = ("chirp", "gridftp", "http", "nfs"),
        specs: dict[str, ProtocolSpec] | None = None,
        workers_per_server: int = 8,
        throttle: dict[str, float] | None = None,
    ):
        self.env = env
        self.platform = platform
        self.fs = FileSystemModel(env, platform)
        self.link = FairShareLink(env, platform.link_bw, name="jbos-port")
        self.servers: dict[str, SimNest] = {}
        #: Optional Apache-style per-server bandwidth throttles
        #: (bytes/s); applies within one server only -- the point of the
        #: paper's comparison with mod_throttle.
        self.throttle = dict(throttle or {})
        for proto in protocols:
            cfg = NestConfig(
                name=f"native-{proto}", protocols=(proto,),
                scheduling="fcfs", transfer_workers=workers_per_server,
            )
            self.servers[proto] = SimNest(
                env, platform, cfg, fs=self.fs, link=self.link,
                specs=specs, is_native=True, concurrency="threads",
            )

    def __getitem__(self, protocol: str) -> SimNest:
        return self.servers[protocol]

    def connect(self, protocol: str, user: str = "anonymous") -> Generator:
        """Open a session against the native server for ``protocol``."""
        conn = yield from self.servers[protocol].connect(protocol, user)
        return conn

    def effective_cap(self, protocol: str, client_cap: float | None = None) -> float:
        """Client cap combined with any per-server throttle."""
        cap = client_cap if client_cap is not None else self.platform.client_nic_bw
        if protocol in self.throttle:
            cap = min(cap, self.throttle[protocol])
        return cap

    def total_stats(self) -> ServerStats:
        """Aggregate stats across the bunch."""
        agg = ServerStats()
        for server in self.servers.values():
            for proto, nbytes in server.stats.bytes_by_protocol.items():
                agg.bytes_by_protocol[proto] += nbytes
            for proto, count in server.stats.requests_by_protocol.items():
                agg.requests_by_protocol[proto] += count
            agg.latencies.extend(server.stats.latencies)
        return agg
