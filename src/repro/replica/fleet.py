"""A fleet of live NeSTs federated behind one replica catalog.

:class:`Fleet` is the deployment the paper gestures at in section 6 --
several appliances, each advertising into the shared discovery system
-- packaged for tests, the CLI demo, and the kill-and-heal acceptance
scenario.  :func:`run_demo` is the executable version of the
federation story: seed files at replication factor K, murder an
appliance mid-workload, and show every read still succeeding while the
repair loop restores the factor.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from repro.faults import FaultPlan
from repro.grid.discovery import Collector
from repro.nest.auth import CertificateAuthority, Credential
from repro.nest.config import NestConfig
from repro.nest.server import NestServer
from repro.obs.log import get_logger
from repro.replica.catalog import ReplicaCatalog
from repro.replica.federation import FederatedClient
from repro.replica.placement import make_policy
from repro.replica.replicator import Replicator

logger = get_logger(__name__)

#: default per-site capacity for demo fleets, small enough that the
#: space-weighted policy has something to weigh.
DEMO_CAPACITY = 256 * 1024 * 1024


class Fleet:
    """N live appliances + a collector + a shared toy-GSI domain."""

    def __init__(
        self,
        sites: int = 3,
        name_prefix: str = "nest",
        collector: Optional[Collector] = None,
        ca: Optional[CertificateAuthority] = None,
        ad_ttl: Optional[float] = None,
        readvertise_interval: float = 0.0,
        capacity_bytes: int = DEMO_CAPACITY,
        fault_plans: Optional[dict[str, FaultPlan]] = None,
        protocols: tuple[str, ...] = ("chirp", "ftp", "gridftp", "http"),
        config_overrides: Optional[dict[str, dict[str, Any]]] = None,
    ):
        self.collector = collector or Collector()
        self.ca = ca or CertificateAuthority("Federation CA")
        self.credential: Credential = self.ca.issue("/O=Fleet/CN=replicator")
        self.ad_ttl = ad_ttl
        self.readvertise_interval = readvertise_interval
        self.servers: dict[str, NestServer] = {}
        plans = fault_plans or {}
        #: per-site NestConfig field overrides keyed by server name
        #: (e.g. turn tiering on for one site, lower autoscale
        #: thresholds fleet-wide under the "*" key).
        overrides = config_overrides or {}
        for i in range(sites):
            name = f"{name_prefix}-{i}"
            fields: dict[str, Any] = {}
            fields.update(overrides.get("*", {}))
            fields.update(overrides.get(name, {}))
            config = NestConfig(name=name, protocols=protocols,
                                capacity_bytes=capacity_bytes, **fields)
            self.servers[name] = NestServer(config, ca=self.ca,
                                            faults=plans.get(name))
        self._started = False

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "Fleet":
        for server in self.servers.values():
            server.start()
            server.advertise_to(
                self.collector, ttl=self.ad_ttl,
                readvertise_interval=self.readvertise_interval)
        self._started = True
        return self

    def stop(self) -> None:
        for server in self.servers.values():
            if server.running:
                server.stop()
        self._started = False

    def __enter__(self) -> "Fleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- membership ----------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self.servers)

    def server(self, name: str) -> NestServer:
        return self.servers[name]

    def kill(self, name: str) -> NestServer:
        """Take a site down *abruptly*: no drain time for in-flight
        requests, and (if the site carries a :class:`FaultPlan`) any
        still-open connections are already being broken by it.  The
        stop path withdraws the ad, so the repair loop notices."""
        server = self.servers[name]
        server.stop(drain_timeout=0.0)
        return server

    # -- federation bundle ---------------------------------------------------
    def federate(
        self,
        target_count: int = 3,
        policy: str = "throughput",
        seed: int = 0,
        data_protocol: str = "chirp",
        repair_interval: Optional[float] = None,
    ) -> tuple[ReplicaCatalog, Replicator, FederatedClient]:
        """Stand up catalog + replicator (+ repair loop) + client."""
        # The catalog's own ReplicaSet ads use the collector's default
        # TTL: the catalog re-advertises on mutation, not on a
        # heartbeat, so the fleet's short server-ad TTL would starve
        # them between writes.
        catalog = ReplicaCatalog(collector=self.collector)
        replicator = Replicator(
            catalog, self.collector, self.credential,
            policy=make_policy(policy, seed=seed),
            target_count=target_count)
        if repair_interval is not None:
            replicator.start(interval=repair_interval)
        client = FederatedClient(
            catalog, self.collector, replicator,
            credential=self.credential, data_protocol=data_protocol)
        return catalog, replicator, client


def render_status(replicator: Replicator) -> str:
    """Human-readable federation status (the CLI prints this)."""
    status = replicator.status()
    lines = [
        f"policy={status['policy']} target_count={status['target_count']}",
        f"live sites: {', '.join(status['live_sites']) or '(none)'}",
    ]
    catalog: dict[str, list[dict[str, Any]]] = status["catalog"]
    if not catalog:
        lines.append("catalog: (empty)")
    for logical, replicas in catalog.items():
        marks = ", ".join(
            f"{r['site']}:{r['state']}" for r in replicas)
        lines.append(f"  {logical}: {marks}")
    deficits = status["deficits"]
    if deficits:
        lines.append(f"deficits: {deficits}")
    return "\n".join(lines)


def run_demo(
    sites: int = 4,
    files: int = 6,
    file_bytes: int = 64 * 1024,
    target_count: int = 3,
    policy: str = "throughput",
    seed: int = 7,
    kill: bool = True,
) -> dict[str, Any]:
    """The federation demo: seed, kill, heal, verify.

    Returns a JSON-able record (aggregate throughput included) that the
    CLI prints.
    """
    fleet = Fleet(sites=sites, readvertise_interval=0.2, ad_ttl=2.0)
    started = time.perf_counter()
    moved = 0
    with fleet:
        catalog, replicator, client = fleet.federate(
            target_count=target_count, policy=policy, seed=seed,
            repair_interval=0.25)
        with replicator, client:
            payloads = {
                f"demo-{i:03d}.dat": bytes([i % 251]) * file_bytes
                for i in range(files)
            }
            for logical, data in payloads.items():
                holders = client.write(logical, data)
                moved += len(data) * len(holders)
            victim = None
            if kill and sites > 1:
                # Kill the site carrying the most replicas: worst case.
                load: dict[str, int] = {}
                for logical in catalog.logicals():
                    for replica in catalog.locations(logical):
                        load[replica.site] = load.get(replica.site, 0) + 1
                victim = max(sorted(load), key=lambda s: load[s])
                logger.info("demo: killing %s (held %d replicas)",
                            victim, load[victim])
                fleet.kill(victim)
            # Every read must succeed throughout the outage.
            read_errors = 0
            for logical, data in payloads.items():
                got = client.read(logical)
                moved += len(got)
                if got != data:
                    read_errors += 1
            # Wait for the repair loop to restore the factor.
            deadline = time.monotonic() + 30.0
            while (catalog.deficits(target_count)
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            deficits = catalog.deficits(target_count)
            elapsed = time.perf_counter() - started
            record = {
                "benchmark": "replica_federation_demo",
                "sites": sites,
                "files": files,
                "file_bytes": file_bytes,
                "target_count": target_count,
                "policy": policy,
                "killed": victim,
                "read_errors": read_errors,
                "deficits_after_heal": sum(deficits.values()),
                "bytes_moved": moved,
                "seconds": round(elapsed, 4),
                "aggregate_mbps": round(
                    moved / max(elapsed, 1e-9) / 1e6, 3),
                "status": render_status(replicator),
            }
    return record
