"""Multi-process shard layer: N appliance workers behind one port.

Python threads share one GIL, so a single NeST process cannot use
multiple cores for request processing no matter which concurrency
architecture it picks.  The shard layer is the multi-core answer
(CASTOR's multi-daemon decomposition, applied to NeST): a
:class:`ShardGroup` spawns N worker *processes*, each a complete
appliance -- its own StorageManager, TransferManager, event loop --
all accepting Chirp on one shared ``SO_REUSEPORT`` port, so the kernel
spreads incoming connections across the workers with no userspace
proxy on the data path.

Each worker owns a namespace shard (``/shard-<i>``, world-writable),
and :func:`shard_for` computes a path's home shard client-side, so a
client that cares which worker holds a file can route itself by
connecting to that worker's *direct* (per-worker HTTP) port; clients
that don't care just use the shared port.

The control plane is deliberately tiny: one pipe per worker.  Upward
it carries ``ready`` at boot and then unsolicited ``telemetry`` pushes
-- each worker's MetricsRegistry snapshot, its SLO report and its
finished spans, shipped every ``telemetry_interval`` seconds; the
``ready`` message carries the first push.  Downward it carries only
``stop``, and a worker also treats a closed pipe as a stop order, so an
orphaned worker shuts down instead of lingering when the parent dies.

The parent aggregates what the workers ship: a collector thread blocks
on the pipes and drains each push into a per-worker store.  A worker's
health (pid, ports, live and total connections) is read from its
``ready`` message and its latest snapshot -- nothing asks a worker
anything.  When the base config has ``management`` on, the parent runs
the same :class:`repro.obs.mgmt.ManagementEndpoint` an appliance does,
given the *merged* documents: ``/metrics`` with counters summed and
gauges labelled ``shard="N"`` (:func:`repro.obs.fleet.merge_snapshots`),
``/trace`` as one Chrome document with a process row per worker,
``/slo`` with each worker's verdict, ``/healthz`` with each worker's
health.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import signal
import socket
import threading
import time
import zlib

from repro.nest.config import NestConfig
from repro.obs.log import get_logger

logger = get_logger(__name__)

#: Parent-side bound on retained span records per worker; the dedupe
#: store evicts oldest-first past this (workers re-ship their whole
#: ring, so anything recent comes straight back).
SPAN_STORE_LIMIT = 8192


def shard_for(path: str, shards: int) -> int:
    """Stable shard index for a path.

    Hashes the top-level name component with CRC32 (stable across
    processes and Python versions, unlike ``hash``), so every client
    and every worker agree on a file's home shard.
    """
    if shards <= 0:
        return 0
    name = path.strip("/").split("/", 1)[0]
    return zlib.crc32(name.encode("utf-8")) % shards


def shard_root(index: int) -> str:
    """The namespace directory worker ``index`` owns."""
    return f"/shard-{index}"


def _allocate_port(host: str) -> int:
    """Reserve an ephemeral port number (bind, read, release).

    SO_REUSEPORT listeners must all name the same concrete port, so
    an ephemeral request is resolved once in the parent and the
    number passed to every worker.
    """
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]
    finally:
        probe.close()


def _worker_main(index: int, config: NestConfig, host: str,
                 chirp_port: int, http_port: int, conn) -> None:
    """Worker-process entry: one full appliance plus the control pipe.

    Module-level on purpose -- the spawn start method pickles the
    callable by qualified name.
    """
    from repro.nest.server import NestServer

    # A terminal Ctrl-C signals the whole foreground process group;
    # shutdown is the parent's job (the "stop" order / closed pipe),
    # so the workers must not die mid-drain on the shared SIGINT.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (OSError, ValueError):
        pass
    try:
        server = NestServer(config, host=host,
                            ports={"chirp": chirp_port, "http": http_port})
        server.start()
        root = shard_root(index)
        server.storage.mkdir("admin", root)
        server.storage.acl_set("admin", root, "*", "rliwd")
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        try:
            conn.send({"type": "error", "index": index, "error": repr(exc)})
        except (OSError, BrokenPipeError):
            pass
        return
    interval = max(config.telemetry_interval, 0.05)
    try:
        _ship_telemetry(server, index, conn, "ready",
                        ports=dict(server.ports), shard_root=root)
        next_ship = time.monotonic() + interval
        while True:
            # Asleep on the pipe until the next push is due.
            if conn.poll(max(next_ship - time.monotonic(), 0.0)):
                conn.recv()
                break  # "stop": the only order that comes down the pipe
            _ship_telemetry(server, index, conn)
            next_ship = time.monotonic() + interval
    except (EOFError, OSError):
        pass  # parent died: treat as a stop order
    finally:
        server.stop(drain_timeout=1.0)
        try:
            conn.send({"type": "stopped", "index": index})
        except (OSError, BrokenPipeError):
            pass
        conn.close()


def _ship_telemetry(server, index: int, conn, kind: str = "telemetry",
                    **extra) -> None:
    """One telemetry push: the SLO report, the metrics snapshot taken
    right after it (so its slo_* gauges are that report's), and the
    worker's whole finished-span ring (the parent dedupes by span
    identity, so re-shipping is idempotent).  ``kind="ready"`` with
    the worker's ports is the first push; it goes out even if the
    telemetry in it could not be taken."""
    msg = {"type": kind, "index": index, "pid": os.getpid(), **extra}
    try:
        msg["slo"] = server.slo.report()
        msg.update(service=server.config.name,
                   metrics=server.obs.registry.snapshot(),
                   spans=[s.to_dict() for s in server.obs.recorder.spans()])
    except Exception:  # noqa: BLE001 - telemetry must never kill a worker
        logger.warning("shard %d: telemetry snapshot failed", index,
                       exc_info=True)
    conn.send(msg)  # a gone pipe raises: the main loop's stop order


@dataclasses.dataclass
class ShardWorker:
    """Parent-side record of one worker process."""

    index: int
    process: multiprocessing.Process
    conn: "multiprocessing.connection.Connection"
    http_port: int
    pid: int = 0
    shard_root: str = ""


class ShardGroup:
    """N appliance processes sharing one SO_REUSEPORT Chirp port."""

    def __init__(self, shards: int, config: NestConfig | None = None,
                 host: str = "127.0.0.1", chirp_port: int = 0):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self.host = host
        base = config or NestConfig()
        base.validate()
        self._base_config = base
        self.chirp_port = chirp_port or _allocate_port(host)
        self.workers: list[ShardWorker] = []
        self._ctx = multiprocessing.get_context("spawn")
        #: fleet telemetry aggregated from worker pushes, all guarded
        #: by one lock: shard label -> metrics snapshot / (service,
        #: pid) / span store (insertion-ordered dict for dedupe +
        #: oldest-first eviction) / last SLO report.
        self._telemetry_lock = threading.Lock()
        self._worker_metrics: dict[str, dict] = {}
        self._worker_meta: dict[str, tuple[str, int]] = {}
        self._worker_spans: dict[str, dict[tuple, dict]] = {}
        self._worker_slo: dict[str, dict] = {}
        self._collector_thread: threading.Thread | None = None
        #: stop()'s wake-up for the collector asleep on the pipes.
        self._wake = None
        self.mgmt = None  # the fleet's ManagementEndpoint, if any

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, ready_timeout: float = 30.0) -> "ShardGroup":
        """Spawn every worker and wait until all report ready."""
        if self.workers:
            raise RuntimeError("shard group already started")
        for index in range(self.shards):
            # Each worker is a full appliance: shared-port Chirp plus a
            # direct per-worker HTTP port for shard-addressed access.
            # The management endpoint is off -- telemetry flows up the
            # control pipe -- and the event-driven path is on, so one
            # worker carries thousands of connections per core.
            config = dataclasses.replace(
                self._base_config,
                name=f"{self._base_config.name}-shard{index}",
                protocols=("chirp", "http"),
                reuse_port=True,
                management=False,
                concurrency_server=(
                    self._base_config.concurrency_server
                    if self._base_config.concurrency_server != "threaded"
                    else "events"),
                state_dir=(os.path.join(self._base_config.state_dir,
                                        f"shard-{index}")
                           if self._base_config.state_dir else None),
            )
            parent_conn, child_conn = self._ctx.Pipe()
            http_port = _allocate_port(self.host)
            process = self._ctx.Process(
                target=_worker_main,
                args=(index, config, self.host, self.chirp_port,
                      http_port, child_conn),
                name=f"nest-shard-{index}", daemon=True)
            process.start()
            child_conn.close()
            self.workers.append(ShardWorker(
                index=index, process=process, conn=parent_conn,
                http_port=http_port))
        deadline = time.monotonic() + ready_timeout
        for worker in self.workers:
            remaining = max(deadline - time.monotonic(), 0.1)
            if not worker.conn.poll(remaining):
                self.stop()
                raise RuntimeError(
                    f"shard worker {worker.index} did not become ready")
            try:
                msg = worker.conn.recv()
            except (EOFError, OSError):
                self.stop()
                raise RuntimeError(
                    f"shard worker {worker.index} died during startup")
            if msg.get("type") != "ready":
                self.stop()
                raise RuntimeError(
                    f"shard worker {worker.index} failed: "
                    f"{msg.get('error', msg)}")
            worker.pid = msg["pid"]
            worker.shard_root = msg["shard_root"]
            worker.http_port = msg["ports"].get("http", worker.http_port)
            self._ingest(msg)
        wake_recv, self._wake = self._ctx.Pipe(duplex=False)
        self._collector_thread = threading.Thread(
            target=self._collect_loop, args=(wake_recv,),
            name="shard-telemetry", daemon=True)
        self._collector_thread.start()
        if self._base_config.management:
            from repro.obs.fleet import merge_fleet_trace, merge_snapshots
            from repro.obs.mgmt import ManagementEndpoint

            self.mgmt = ManagementEndpoint(
                metrics=lambda: merge_snapshots(self.fleet_snapshots()),
                trace=lambda: merge_fleet_trace(self.fleet_spans()),
                health=self.health, slo=self.fleet_slo, host=self.host,
            ).start()
        logger.info("shard group up: %d workers on %s:%d",
                    self.shards, self.host, self.chirp_port)
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop every worker: polite pipe order, then terminate.

        The fleet endpoint and the telemetry collector go down first
        (and are joined), so a stopped group leaks no threads -- the
        drain-hygiene contract the single-process server keeps.
        """
        if self.mgmt is not None:
            self.mgmt.stop()
            self.mgmt = None
        if self._collector_thread is not None:
            try:
                self._wake.send("stop")
            except OSError:
                pass  # the collector is gone already
            self._collector_thread.join(timeout=5.0)
            self._collector_thread = None
            self._wake.close()
        for worker in self.workers:
            try:
                worker.conn.send("stop")
            except (OSError, BrokenPipeError):
                pass
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            worker.process.join(max(deadline - time.monotonic(), 0.1))
            if worker.process.is_alive():
                logger.warning("shard worker %d unresponsive; terminating",
                               worker.index)
                worker.process.terminate()
                worker.process.join(2.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self.workers = []

    def __enter__(self) -> "ShardGroup":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def health(self) -> list[dict]:
        """One health dict per worker: pid, shard root and direct HTTP
        port from its ``ready`` message (beside the shared Chirp port),
        live and total connections from its latest telemetry push; a
        dead worker reports ``alive`` False."""
        with self._telemetry_lock:
            metrics = dict(self._worker_metrics)
        reports = []
        for worker in self.workers:
            snap = metrics.get(str(worker.index), {})
            active = snap.get("nest_active_connections", {}).get("series", {})
            total = snap.get("nest_connections_total", {}).get("series", {})
            reports.append({
                "index": worker.index, "alive": worker.process.is_alive(),
                "pid": worker.pid, "shard_root": worker.shard_root,
                "ports": {"chirp": self.chirp_port,
                          "http": worker.http_port},
                "active_connections": int(active.get((), 0)),
                "connections_total": int(sum(total.values())),
            })
        return reports

    # ------------------------------------------------------------------
    # fleet telemetry
    # ------------------------------------------------------------------
    def _collect_loop(self, wake) -> None:
        """Drain worker telemetry into the parent store: asleep on the
        pipes until a push (or stop()'s wake-up) arrives."""
        pipes = [worker.conn for worker in self.workers]
        with wake:
            while True:
                for conn in multiprocessing.connection.wait([*pipes, wake]):
                    if conn is wake:
                        return
                    try:
                        self._ingest(conn.recv())
                    except (EOFError, OSError):
                        pipes.remove(conn)  # worker gone; stop() reaps it

    def _ingest(self, msg) -> None:
        """Store one telemetry push (a ``ready`` message is the first)."""
        if not isinstance(msg, dict) or "metrics" not in msg:
            return
        label = str(msg.get("index", "?"))
        with self._telemetry_lock:
            self._worker_metrics[label] = msg.get("metrics", {})
            self._worker_meta[label] = (
                str(msg.get("service", f"shard{label}")),
                int(msg.get("pid", 0)))
            if msg.get("slo"):
                self._worker_slo[label] = msg["slo"]
            store = self._worker_spans.setdefault(label, {})
            for rec in msg.get("spans", ()):
                key = (rec.get("trace_id"), rec.get("span_id"))
                if key[0] is None or key[1] is None:
                    continue
                store[key] = rec
            overflow = len(store) - SPAN_STORE_LIMIT
            if overflow > 0:
                for key in list(store)[:overflow]:
                    del store[key]

    def fleet_snapshots(self) -> dict[str, dict]:
        """Latest metrics snapshot per shard label (for merging)."""
        with self._telemetry_lock:
            return dict(self._worker_metrics)

    def fleet_spans(self) -> dict[str, tuple[str, int, list[dict]]]:
        """Per-shard ``(service, pid, span dicts)`` for the merged
        Chrome trace (one process row per worker)."""
        with self._telemetry_lock:
            return {
                label: (meta[0], meta[1],
                        list(self._worker_spans.get(label, {}).values()))
                for label, meta in self._worker_meta.items()
            }

    def fleet_slo(self) -> dict[str, dict]:
        """Latest per-shard SLO report, keyed by shard label."""
        with self._telemetry_lock:
            return dict(self._worker_slo)

    def endpoint(self) -> tuple[str, int]:
        """(host, port) of the shared Chirp port."""
        return self.host, self.chirp_port

    def direct_http_endpoint(self, index: int) -> tuple[str, int]:
        """(host, port) of one worker's own HTTP listener (shard-
        addressed access; pair with :func:`shard_for`)."""
        return self.host, self.workers[index].http_port
