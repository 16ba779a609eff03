"""The live NeST server: dispatcher + listeners for every protocol.

One :class:`NestServer` binds a TCP listener per configured protocol
(Figure 1's protocol layer), accepts connections on all of them from
one thread, and hands each to the matching handler from
:mod:`repro.nest.handlers`.  All handlers share
the single storage manager (synchronous metadata path), the single
transfer manager (asynchronous data path, cross-protocol scheduling),
the gray-box cache model (built only for cache-aware scheduling), and
the GSI context -- that sharing is what
distinguishes NeST from JBOS.

Ports default to 0 (ephemeral) so tests and examples can run many
servers side by side; the bound ports are available as ``server.ports``
after :meth:`NestServer.start`.
"""

from __future__ import annotations

import functools
import socket
import threading
import time
from types import SimpleNamespace

from repro.classads import ClassAd
from repro.faults import FaultPlan
from repro.nest import graybox
from repro.nest.advertise import Advertiser, build_advertisement
from repro.nest.auth import CertificateAuthority, GSIContext
from repro.nest.backends import DataStore, MemoryStore
from repro.nest.concurrency import EVENTS, THREADS, ServerModelSwitcher
from repro.nest.config import NestConfig
from repro.nest.eventserver import EventLoop
from repro.nest.handlers import HANDLERS
from repro.nest.storage import StorageManager
from repro.nest.transfer import TransferManager
from repro.obs.observability import Observability
from repro.obs.log import get_logger
from repro.obs.metrics import global_registry
from repro.obs.mgmt import ManagementEndpoint
from repro.obs.slo import SloEngine
from repro.protocols.runtime import Acceptor
from repro.protocols.nfs import FileHandleRegistry
from repro.tier.heat import HeatTracker

logger = get_logger(__name__)

#: Seconds between ClassAd re-advertisements when ``advertise_to`` is
#: not given a heartbeat period of its own.
ADVERTISE_INTERVAL = 30.0


class NestServer:
    """A complete, running NeST appliance on localhost TCP."""

    def __init__(
        self,
        config: NestConfig | None = None,
        store: DataStore | None = None,
        ca: CertificateAuthority | None = None,
        host: str = "127.0.0.1",
        ports: dict[str, int] | None = None,
        subject_map: dict[str, str] | None = None,
        faults: FaultPlan | None = None,
        disk_faults=None,
        cold_store: DataStore | None = None,
    ):
        """``cold_store``, when given, turns hierarchical storage on:
        it becomes the slow tier behind ``store`` (wrap it in a
        ``RateLimitedStore`` to throttle it like tape)."""
        self.config = config or NestConfig()
        self.config.validate()
        self.host = host
        self.faults = faults
        self.disk_faults = disk_faults
        #: this appliance's telemetry: metrics registry, tracer, span
        #: recorder, and live-health consolidation, private per server
        #: so side-by-side instances stay isolated.
        self.obs = Observability(service=self.config.name)
        reg = self.obs.registry
        self.fhandles = FileHandleRegistry()
        #: shadow of the kernel buffer cache; None unless the
        #: cache-aware scheduler is there to read it.
        self.graybox = graybox.model_for(self.config.scheduling)
        #: per-file access heat: every approved read feeds it, the
        #: migration policy and the autoscaler read it, and its top-N
        #: surfaces as the ClassAd ``HotFiles`` block.
        self.heat = HeatTracker(registry=reg)
        #: hierarchical storage: with a cold store, the storage
        #: manager's backend is a TieredStore fronting it with the fast
        #: local one; residency journals through the durability layer
        #: like every other metadata mutation.
        self.tiered = None
        if cold_store is not None:
            from repro.tier.store import TieredStore

            self.tiered = store = TieredStore(
                store if store is not None else MemoryStore(), cold_store,
                registry=reg)
        self.storage = StorageManager(
            store=store,
            capacity_bytes=self.config.capacity_bytes,
            clock=time.time,
            require_lots=self.config.require_lots,
            lot_enforcement=self.config.lot_enforcement,
            invalidate=self._invalidate,
            registry=reg,
            heat=self.heat,
        )
        #: Durable state: when the config names a ``state_dir``, recover
        #: whatever a previous incarnation journaled there -- lots,
        #: ACLs, namespace, accounting -- and bind the journal sinks so
        #: this incarnation's mutations are recorded too.  The restart
        #: epoch invalidates every pre-crash NFS file handle.
        self.durability: "DurabilityManager | None" = None
        self.recovery_report = None
        if self.config.state_dir:
            from repro.durability import DurabilityManager

            self.durability = DurabilityManager(
                self.config.state_dir,
                fsync=self.config.journal_fsync,
                faults=disk_faults,
                registry=reg,
            )
            self.recovery_report = self.durability.recover_into(
                self.storage, tier=self.tiered)
            self.fhandles.set_epoch(self.recovery_report.epoch)
        #: background migration loop, started and stopped with the
        #: server; its ``policy`` and ``interval`` may be set before
        #: ``start()``.
        self.tier_manager = None
        if self.tiered is not None:
            from repro.tier.policy import TierManager

            self.tier_manager = TierManager(
                self.storage, self.tiered, self.heat,
                tracer=self.obs.tracer, registry=reg)
        #: decentralized autoscaler; built by :meth:`attach_autoscaler`
        #: once a federation (catalog + replicator) exists.
        self.autoscaler = None
        self.transfers = TransferManager(
            self.config,
            residency=(self.graybox.predict_residency
                       if self.graybox is not None else None),
            obs=self.obs,
        )
        #: event-driven data path (paper §4.1's "events", live) and the
        #: adaptive server-model switcher -- created only when the
        #: configured ``concurrency_server`` can route to them, so the
        #: default threaded appliance carries no extra threads or fds.
        self._eventloop: EventLoop | None = None
        self._switcher: ServerModelSwitcher | None = None
        #: service-level objectives evaluated against this server's own
        #: registry; publishes slo_* gauges, feeds /slo, the ClassAd's
        #: SloDegraded attribute, and the adaptive switcher.
        self.slo = SloEngine(registry=reg)
        #: requests slower than this are traced whatever the sample
        #: (the SLO's own latency threshold).
        self.slow_request_s = self.slo.slow_request_s
        if self.config.concurrency_server in ("events", "adaptive"):
            self._eventloop = EventLoop(name=self.config.name, registry=reg)
        if self.config.concurrency_server == "adaptive":
            self._switcher = ServerModelSwitcher(
                connections=self.active_connections,
                queue_depth=self.transfers.queue_depth,
                throughput=lambda: self.obs.health.throughput_bps() / 1e6,
                slo_degraded=self.slo.degraded,
                registry=reg,
                tracer=self.obs.tracer,
            )
        self._m_connections = reg.counter(
            "nest_connections_total", "Accepted client connections.",
            labelnames=("protocol",))
        self._m_requests = reg.counter(
            "nest_requests_total",
            "Requests served, by protocol, operation, and outcome.",
            labelnames=("protocol", "op", "outcome"), max_series=256)
        self._m_request_seconds = reg.histogram(
            "nest_request_seconds", "End-to-end request latency.",
            labelnames=("protocol",))
        reg.gauge_callback("nest_active_connections",
                           self.active_connections,
                           "Live handler connections.")
        # The health document's probes are registry gauges too
        # (repro.obs.health.PROBES); queue depth and the failure ring
        # are the transfer manager's own.
        if self.faults is not None:
            reg.gauge_callback("nest_faults_injected", self.faults.fired,
                               "Faults the fault plan has injected.")
        reg.gauge_callback("nest_client_retries_observed",
                           _client_retries_observed,
                           "Retries recorded process-wide by the client "
                           "retry layer.")
        if self.config.require_lots and self.config.default_anonymous_lot_bytes:
            # Recovery may have brought the default lot back already; a
            # second one would double the anonymous guarantee.
            recovered_anonymous = any(
                lot.owner == "anonymous"
                for lot in self.storage.lots.lots.values())
            if not recovered_anonymous:
                self.storage.create_lot(
                    "anonymous", self.config.default_anonymous_lot_bytes,
                    duration=365 * 24 * 3600.0,
                )
        self.ca = ca or CertificateAuthority()
        self.gsi = GSIContext(self.ca)
        if "ibp" in self.config.protocols:
            from repro.nest.ibp import IbpDepot

            self.ibp_depot = IbpDepot(self.storage, host=host)
        else:
            self.ibp_depot = None
        #: GSI subject -> local user name; unmapped subjects map to
        #: themselves (the subject *is* the identity).
        self.subject_map = dict(subject_map or {})
        self._requested_ports = dict(ports or {})
        self.ports: dict[str, int] = {}
        #: one accept thread in front of every protocol's listener.
        self._acceptor = Acceptor(f"nest-accept-{self.config.name}")
        self._running = False
        self._stopped = False
        #: live handler connections: handler -> its thread.
        self._conn_lock = threading.Lock()
        self._connections: dict[object, threading.Thread] = {}
        #: the management endpoint (None when the config turns it off,
        #: and once the server has stopped).
        self.mgmt = ManagementEndpoint(
            metrics=self._metrics_snapshot, trace=self.obs.chrome_trace,
            health=self.obs.health.snapshot, slo=self.slo.report,
            ad=self.obs.health_attributes, host=host,
            port=self._requested_ports.get("mgmt", 0),
        ) if self.config.management else None
        #: this appliance's ClassAd in the collector :meth:`advertise_to`
        #: names, kept fresh by a heartbeat.
        self._advert = Advertiser(self.config.name, self.advertisement)
        #: The appliance's parts by name, in start order; each has
        #: ``start()`` and ``stop(grace)`` (None: absent).  stop(),
        #: crash() and a failed start() walk them backwards, so read
        #: upwards this is the drain order: the ad goes first, the
        #: management endpoint outlives the data path.
        #: attach_autoscaler() fills in the autoscaler.
        self._parts = {
            "mgmt": self.mgmt,
            "acceptor": SimpleNamespace(start=self._start_acceptor,
                                        stop=self._drain),
            "tier manager": self.tier_manager,
            "autoscaler": None,
            "advertisement": self._advert,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "NestServer":
        """Bring the appliance up, part by part (``self._parts``).

        All or nothing: if a part fails to come up (a port in use, the
        management endpoint), the parts that did are stopped again
        before the error is re-raised -- a failed start never leaves a
        half-appliance serving.  One shot: what :meth:`stop` shuts
        (journal, transfer manager, event loop) stays shut.
        """
        if self._running or self._stopped:
            raise RuntimeError(
                f"{self.config.name} was already started, stopped or "
                "crashed: build a new NestServer")
        self._running = True
        try:
            for part in self._parts.values():
                if part is not None:
                    part.start()
        except BaseException:
            self._teardown(0.0)
            raise
        logger.info("%s listening: %s", self.config.name, self.ports)
        return self

    def stop(self, drain_timeout: float = 5.0) -> dict[str, int]:
        """Graceful shutdown: every part stopped, last started first
        (``self._parts``), in-flight requests given ``drain_timeout``
        seconds to finish.  Returns ``{"drained": 0|1, "forced": n}`` so
        operators (and tests) can see whether the drain was clean; on a
        server that never started, or a second time, a quiet no-op.
        """
        forced = self._teardown(max(drain_timeout, 0.0))
        logger.info("%s stopped (drained=%s forced=%d)",
                    self.config.name, not forced, forced)
        return {"drained": int(not forced), "forced": forced}

    def crash(self) -> None:
        """Die like SIGKILL (tests, chaos drills): the journal is closed
        first and as it stands, so durable state stays as last fsync'd
        whatever the dying handlers do; then the same walk as
        :meth:`stop` without its courtesies -- no ad withdrawal, no
        drain window, no final snapshot.  Only OS resources are
        released so the same process can host the restarted appliance.
        """
        if self.durability is not None:
            self.durability.close(snapshot=False)
        self._teardown(None)
        logger.info("%s crashed (simulated)", self.config.name)

    def _teardown(self, grace: float | None) -> int:
        """:meth:`stop`, :meth:`crash` and a failed :meth:`start`: stop
        every part, last first, with ``grace`` seconds of drain
        (``None``: a crash).  A part's stop is a no-op when the part is
        not up, so the walk is safe wherever a start got to.  Returns
        how many connections had to be force-closed."""
        self._running = False
        if self._stopped:
            return 0
        self._stopped = True
        forced = 0
        for part in reversed(self._parts.values()):
            if part is not None:
                forced += part.stop(grace) or 0
        self.mgmt = None
        return forced

    # -- the acceptor part ---------------------------------------------------
    def _start_acceptor(self) -> None:
        """Every port the appliance serves goes into ``self.ports``: the
        management endpoint's (part 1, up already), then each
        protocol's listener."""
        if self.mgmt is not None:
            self.ports["mgmt"] = self.mgmt.port
        for proto in self.config.protocols:
            # Deep backlog: the event path is expected to absorb
            # thousands-of-connections ramps faster than a 32-deep
            # queue would tolerate.  reuse_port: shard workers share
            # one port.
            self.ports[proto] = self._acceptor.listen(
                self.host, self._requested_ports.get(proto, 0),
                functools.partial(self._on_connection, proto),
                backlog=1024, reuse_port=self.config.reuse_port)
        self._acceptor.start()

    def _drain(self, grace: float | None) -> int:
        """Stop of the acceptor and all behind it: no new connection,
        then the drain, then the transfer manager and the journal."""
        self._acceptor.stop()
        # Idle connections are parked on a blocking read between
        # requests: closing one as soon as it is seen idle is invisible
        # to correctness and keeps the window for handlers doing real
        # work.  The event loop's are parked in the selector:
        # begin_shutdown retires them all, leaving its busy dispatches
        # for the shared window.
        if self._eventloop is not None:
            self._eventloop.begin_shutdown()
        if grace is not None:
            deadline = time.monotonic() + grace
            while True:
                with self._conn_lock:
                    for handler in self._connections:
                        if not handler.busy:
                            handler.force_close()
                if (not self.active_connections()
                        or time.monotonic() >= deadline):
                    break
                time.sleep(0.01)

        with self._conn_lock:
            stragglers = list(self._connections.items())
        for handler, _thread in stragglers:
            handler.force_close()
        for handler, thread in stragglers:
            thread.join(timeout=2.0)
            with self._conn_lock:
                self._connections.pop(handler, None)
        forced = len(stragglers)
        if self._eventloop is not None:
            forced += self._eventloop.finish_shutdown()
        self.transfers.shutdown()
        if self.durability is not None and grace is not None:
            # Final compaction: a clean stop leaves a fresh snapshot and
            # an empty journal, so the next start recovers instantly.
            self.durability.close()
        return forced

    def attach_catalog(self, catalog) -> int:
        """Wire a replica catalog into the durability layer: restores
        catalog state recovered from this server's ``state_dir``,
        binds the journal sink, re-advertises.  Returns how many
        replayed replica records were applied (0 when memory-only)."""
        if self.durability is None:
            return 0
        return self.durability.attach_catalog(catalog)

    def attach_autoscaler(self, replicator, *, start: bool = True,
                          prefix: str | None = None, **policy):
        """Build this appliance's demand-driven autoscaler on top of an
        existing federation replicator.

        The scaler reads *this* server's health monitor, SLO engine,
        and heat tracker (decentralized: every appliance decides for
        itself) and replicates its hottest files through ``replicator``
        -- whose placement policy already refuses degraded peers.
        ``policy`` overrides the scaler's thresholds and tick
        ``interval`` (:class:`~repro.tier.autoscale.AutoScaler`'s
        keywords).  Returns the scaler, one of the server's parts from
        now on: stopped with it, and started with it when attached
        before :meth:`start`.  ``start=False`` on a running server
        leaves the loop to the caller (tests drive
        :meth:`~repro.tier.autoscale.AutoScaler.tick` by hand).
        """
        from repro.tier.autoscale import AutoScaler

        self.autoscaler = AutoScaler(
            self.config.name, self.obs.health, self.heat, replicator,
            slo=self.slo,
            prefix=prefix if prefix is not None else replicator.prefix,
            local_lookup=self._local_replica_lookup(replicator),
            tracer=self.obs.tracer,
            registry=self.obs.registry,
            **policy,
        )
        self._parts["autoscaler"] = self.autoscaler
        if start:
            self.autoscaler.start()
        return self.autoscaler

    def _local_replica_lookup(self, replicator):
        """A ``logical -> (size, crc32)`` probe over this appliance's
        own store, so the autoscaler can seed the catalog with a local
        copy the federation does not know about yet."""
        from repro.nest.io import stream_crc32

        def lookup(logical: str):
            try:
                path = replicator.path_for(logical)
            except ValueError:
                return None
            store = self.storage.store
            try:
                if not store.exists(path):
                    return None
                with store.open_read(path) as stream:
                    crc, size = stream_crc32(stream)
            except (OSError, KeyError):
                return None
            return size, crc

        return lookup

    def _invalidate(self, path: str) -> None:
        """The storage manager's hook: ``path`` no longer names what it
        did, so its NFS handles go, and so do its shadow cache blocks."""
        self.fhandles.forget(path)
        if self.graybox is not None:
            self.graybox.observe_delete(path)

    def active_connections(self) -> int:
        """How many handler connections are currently live (threaded
        handler threads plus connections owned by the event loop)."""
        with self._conn_lock:
            live = len(self._connections)
        if self._eventloop is not None:
            live += self._eventloop.live()
        return live

    @property
    def running(self) -> bool:
        """Whether the server is accepting connections."""
        return self._running

    def __enter__(self) -> "NestServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    def _on_connection(self, proto: str, conn: socket.socket, addr) -> None:
        """One accepted ``proto`` connection (the acceptor's callback):
        give it to the event loop or to a handler thread of its own."""
        if self.faults is not None:
            conn = self.faults.wrap_accept(conn, label=f"nest-{proto}")
            if conn is None:
                return  # accept fault: connection already closed
        self._m_connections.inc(protocol=proto)
        handler_cls = HANDLERS[proto]
        if self._route_model(proto) == EVENTS:
            # Event path: no thread -- the connection parks in the
            # selector until bytes arrive.
            handler = handler_cls(self, conn, addr)
            handler.concurrency_model = EVENTS
            if not self._eventloop.adopt(handler):
                handler.finish()  # loop already shutting down
            return
        handler = handler_cls(self, conn, addr)
        thread = threading.Thread(
            target=self._run_handler, args=(handler,),
            name=f"nest-{proto}-conn", daemon=True,
        )
        # Registered and started under the lock the drain lists the
        # table under: it never misses a live connection, and never
        # meets a thread it cannot join yet.
        with self._conn_lock:
            self._connections[handler] = thread
            thread.start()

    def _route_model(self, proto: str) -> str:
        """Which server architecture serves this accepted connection."""
        if self._eventloop is None or not HANDLERS[proto].event_capable:
            return THREADS
        if self.config.concurrency_server == "events":
            return EVENTS
        return self._switcher.choose()

    def _run_handler(self, handler) -> None:
        try:
            handler.run()
        finally:
            with self._conn_lock:
                self._connections.pop(handler, None)

    # ------------------------------------------------------------------
    # advertisement lifecycle
    # ------------------------------------------------------------------
    def advertise_to(self, collector, ttl: float | None = None,
                     readvertise_interval: float | None = None) -> None:
        """Publish this server's availability ad into ``collector`` and
        keep it fresh.

        ``ttl`` is the ad's collector lifetime (None: the collector's
        default); ``readvertise_interval`` is the heartbeat period that
        refreshes the ad *before* that TTL expires (None:
        :data:`ADVERTISE_INTERVAL`; 0 disables the heartbeat, leaving a
        one-shot ad).  :meth:`stop` withdraws the ad as the first step
        of the graceful drain, so a stopping appliance disappears from
        matchmaking immediately instead of lingering until TTL expiry.
        On a running server it publishes now, and a changed interval
        replaces the heartbeat.
        """
        interval = (ADVERTISE_INTERVAL
                    if readvertise_interval is None else readvertise_interval)
        self._advert.retarget(collector, ttl, max(float(interval), 0.0))
        if self._running:
            self._advert.start()

    # ------------------------------------------------------------------
    # identity and advertisement
    # ------------------------------------------------------------------
    def map_subject(self, subject: str) -> str:
        """Map an authenticated GSI subject to a local user."""
        return self.subject_map.get(subject, subject)

    def observe_request(self, protocol: str, op: str, ok: bool,
                        seconds: float, model: str | None = None) -> None:
        """Handler callback: one finished request's metrics (the health
        document reads them back from the registry).

        ``model`` names the server architecture that served the
        request ("threads"/"events"); successful requests feed the
        adaptive switcher's measured-goodput evidence.
        """
        self._m_requests.inc(protocol=protocol, op=op,
                             outcome="ok" if ok else "error")
        self._m_request_seconds.observe(seconds, protocol=protocol)
        if self._switcher is not None and model is not None and ok:
            # 1 request / elapsed = service rate, the low-load
            # regime's relative-goodput signal.
            self._switcher.report(model, 1, max(seconds, 1e-6))

    def _metrics_snapshot(self) -> dict:
        """``/metrics``: the registry at one point in time, with the SLO
        gauges evaluated just before it."""
        self.slo.evaluate()
        return self.obs.registry.snapshot()

    def advertisement(self) -> ClassAd:
        """Current resource/data availability as a ClassAd (§2.1),
        merged with the live measured-performance health block and the
        SLO verdict (``SloDegraded``), so matchmakers can steer load
        away from an appliance that is burning its error budget."""
        health = self.obs.health_attributes()
        health.update(self.slo.attributes())
        # What is hot *here*: peer autoscalers and future predictive
        # placement read this next to the load numbers.
        health.update(self.heat.ad_attributes())
        return build_advertisement(
            self.config.name, self.storage, list(self.config.protocols),
            host=self.host, ports=self.ports,
            health=health,
        )

    def endpoint(self, proto: str) -> tuple[str, int]:
        """(host, port) of a protocol's listener."""
        return self.host, self.ports[proto]


def _client_retries_observed() -> float:
    """Retries recorded process-wide by the client retry layer (the
    health feed surfaces them so an operator sees "clients are having
    to retry against this appliance")."""
    metric = global_registry().get("repro_client_retries_total")
    return metric.total() if metric is not None else 0.0
