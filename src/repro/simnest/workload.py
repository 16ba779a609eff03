"""Workload builders and measurement for the paper's experiments.

The Fig. 3/4 workload: "four clients request 10 MB files for each
protocol", files in cache, closed loop.  These helpers build that
workload against either a :class:`~repro.simnest.server.SimNest` or a
:class:`~repro.simnest.server.SimJbos`, run the simulation, and report
per-protocol delivered bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

from repro.models.platform import PlatformProfile
from repro.nest.config import NestConfig
from repro.sim.core import Environment
from repro.simnest.clients import ClientLog, nfs_client, whole_file_client
from repro.simnest.protocolspec import DEFAULT_SPECS
from repro.simnest.server import SimJbos, SimNest

MB = 1_000_000


@dataclass
class WorkloadResult:
    """Per-protocol delivered bandwidth over the measured interval."""

    elapsed: float
    bytes_by_protocol: dict[str, int] = field(default_factory=dict)
    logs: list[ClientLog] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_protocol.values())

    def bandwidth(self, protocol: str | None = None) -> float:
        """Delivered bytes/second, total or for one protocol."""
        if self.elapsed <= 0:
            return 0.0
        if protocol is None:
            return self.total_bytes / self.elapsed
        return self.bytes_by_protocol.get(protocol, 0) / self.elapsed

    def bandwidth_mbps(self, protocol: str | None = None) -> float:
        """Delivered bandwidth in MB/s (the paper's unit)."""
        return self.bandwidth(protocol) / MB


def _spawn_clients(
    env: Environment,
    get_server: Callable[[str], SimNest],
    get_cap: Callable[[str], float | None],
    protocols: list[str],
    n_clients: int,
    file_bytes: int,
    files_per_client: int,
) -> list[ClientLog]:
    """Start the closed-loop client population; returns their logs."""
    logs: list[ClientLog] = []
    for protocol in protocols:
        server = get_server(protocol)
        for c in range(n_clients):
            # One file per client, fetched repeatedly: the paper's
            # closed-loop in-cache workload (the whole working set must
            # stay buffer-cache resident).  The request stream is an
            # iterator over that one path, so a client's memory does not
            # grow with how many requests it might issue.
            path = f"/data/{protocol}-{c}"
            if not server.storage.exists(path):
                server.populate(path, file_bytes, resident=True)
            paths = repeat(path, files_per_client)
            log = ClientLog(protocol=protocol)
            logs.append(log)
            cap = get_cap(protocol)
            if protocol == "nfs":
                spec = server.specs["nfs"]
                env.process(
                    nfs_client(env, server, paths, repeat(file_bytes),
                               log, spec, client_cap=cap)
                )
            else:
                env.process(
                    whole_file_client(env, server, protocol, paths, log,
                                      client_cap=cap)
                )
    return logs


def _collect(
    env: Environment,
    logs: list[ClientLog],
    servers: list[SimNest],
    horizon: float,
    warmup: float,
) -> WorkloadResult:
    """Measure steady-state delivered bandwidth in [warmup, horizon].

    Progress counters (bytes moved per chunk) are snapshotted at the
    window edges so partially complete transfers count -- completion
    quantization would otherwise hide up to one file per stream.
    """
    env.run(until=warmup)
    before: dict[str, int] = {}
    for server in servers:
        for proto, n in server.stats.progress_by_protocol.items():
            before[proto] = before.get(proto, 0) + n
    env.run(until=horizon)
    result = WorkloadResult(elapsed=horizon - warmup, logs=logs)
    for server in servers:
        for proto, n in server.stats.progress_by_protocol.items():
            result.bytes_by_protocol[proto] = (
                result.bytes_by_protocol.get(proto, 0)
                + n
                - before.get(proto, 0)
            )
    return result


def run_single_protocol(
    protocol: str,
    platform: PlatformProfile,
    server_kind: str = "nest",
    config: NestConfig | None = None,
    n_clients: int = 4,
    file_mb: int = 10,
    files_per_client: int = 10_000,
    horizon: float = 12.0,
    warmup: float = 2.0,
) -> WorkloadResult:
    """Fig. 3's single-protocol bars: one protocol, NeST or native."""
    with Environment() as env:
        file_bytes = file_mb * MB
        if server_kind == "nest":
            cfg = config or NestConfig()
            server = SimNest(env, platform, cfg)
            servers = [server]
            get_server = lambda _p: server
            get_cap = lambda _p: None
        elif server_kind == "jbos":
            jbos = SimJbos(env, platform, protocols=(protocol,))
            servers = list(jbos.servers.values())
            get_server = lambda p: jbos[p]
            get_cap = lambda p: jbos.effective_cap(p)
        else:
            raise ValueError(f"unknown server kind {server_kind!r}")
        logs = _spawn_clients(env, get_server, get_cap, [protocol], n_clients,
                              file_bytes, files_per_client)
        return _collect(env, logs, servers, horizon, warmup)


def run_mixed_protocols(
    platform: PlatformProfile,
    server_kind: str = "nest",
    config: NestConfig | None = None,
    protocols: tuple[str, ...] = ("chirp", "gridftp", "http", "nfs"),
    n_clients: int = 4,
    file_mb: int = 10,
    files_per_client: int = 10_000,
    horizon: float = 12.0,
    warmup: float = 2.0,
    throttle: dict[str, float] | None = None,
) -> WorkloadResult:
    """Fig. 3's mixed bars and the whole of Fig. 4: all protocols at once."""
    with Environment() as env:
        file_bytes = file_mb * MB
        if server_kind == "nest":
            cfg = config or NestConfig()
            server = SimNest(env, platform, cfg)
            servers = [server]
            get_server = lambda _p: server
            get_cap = lambda _p: None
        elif server_kind == "jbos":
            jbos = SimJbos(env, platform, protocols=protocols,
                           throttle=throttle)
            servers = list(jbos.servers.values())
            get_server = lambda p: jbos[p]
            get_cap = lambda p: jbos.effective_cap(p)
        else:
            raise ValueError(f"unknown server kind {server_kind!r}")
        logs = _spawn_clients(env, get_server, get_cap, list(protocols),
                              n_clients, file_bytes, files_per_client)
        return _collect(env, logs, servers, horizon, warmup)
