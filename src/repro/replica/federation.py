"""The federated client: one namespace over a fleet of appliances.

``FederatedClient`` gives applications the paper's manageability story
from the *consumer* side: callers name **logical files**, the replica
catalog resolves them to physical copies, and the collector's
measured-throughput ranking (the machinery behind
:meth:`~repro.grid.discovery.Collector.fastest`) decides which copy to
read first.  A replica that fails with a :class:`TransientError` is
marked *suspect* -- feeding the repair loop -- and the read fails over
to the next-ranked copy, so a dying appliance is a performance blip,
not an application error.
"""

from __future__ import annotations

import threading
import zlib
from typing import Any, Optional

from repro.client.errors import ClientError, TransientError
from repro.client.highlevel import NestClient
from repro.client.retry import RetryPolicy
from repro.nest.auth import Credential
from repro.obs.observability import Observability
from repro.obs.log import get_logger
from repro.replica.catalog import ReplicaCatalog
from repro.replica.placement import SiteInfo, throughput_ranked_sites
from repro.replica.replicator import ReplicationError, Replicator

logger = get_logger(__name__)


class FederatedClient:
    """Read/write logical files against whichever replicas are alive."""

    def __init__(
        self,
        catalog: ReplicaCatalog,
        collector,
        replicator: Replicator,
        credential: Credential | None = None,
        data_protocol: str = "chirp",
        retry: RetryPolicy | None = None,
        obs: Observability | None = None,
    ):
        self.catalog = catalog
        self.collector = collector
        self.replicator = replicator
        self.credential = credential
        self.data_protocol = data_protocol
        self.retry = retry or RetryPolicy(max_attempts=2, base_delay=0.05,
                                          max_delay=0.2, deadline=10.0)
        self.obs = obs or replicator.obs
        self._clients: dict[str, NestClient] = {}
        self._lock = threading.Lock()
        reg = self.obs.registry
        self._m_reads = reg.counter(
            "federated_reads_total",
            "Federated logical reads, by outcome.", labelnames=("outcome",))
        self._m_failovers = reg.counter(
            "federated_failovers_total",
            "Reads that had to skip a failed replica and try the next.")

    # -- per-site sessions ---------------------------------------------------
    def _client(self, site: str) -> NestClient:
        with self._lock:
            cached = self._clients.get(site)
        if cached is not None:
            return cached
        ad = self.collector.lookup(site)
        if ad is None:
            raise TransientError(f"site {site!r} has no live advertisement")
        info = SiteInfo.from_ad(ad)
        client = NestClient(info.host, info.ports,
                            data_protocol=self.data_protocol,
                            credential=self.credential, retry=self.retry)
        with self._lock:
            self._clients[site] = client
        return client

    def _drop_client(self, site: str) -> None:
        with self._lock:
            client = self._clients.pop(site, None)
        if client is not None:
            try:
                client.close()
            except (ClientError, OSError):
                pass

    def close(self) -> None:
        with self._lock:
            clients, self._clients = dict(self._clients), {}
        for client in clients.values():
            try:
                client.close()
            except (ClientError, OSError):
                pass

    def __enter__(self) -> "FederatedClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- resolution ----------------------------------------------------------
    def resolve(self, logical: str) -> list[str]:
        """Valid replica sites, fastest (measured throughput) first.

        Sites with no live collector ad are excluded: they cannot be
        dialled and are already the repair loop's problem.
        """
        valid = self.catalog.valid_locations(logical)
        if not valid:
            raise ReplicationError(f"no valid replica of {logical!r}")
        return throughput_ranked_sites(self.collector,
                                       [r.site for r in valid])

    # -- reads ---------------------------------------------------------------
    def read(self, logical: str) -> bytes:
        """Fetch a logical file from the fastest live replica, failing
        over on transient faults.  Each fetched copy is verified
        against the catalog's CRC32 before being returned.

        The read runs inside a pushed span (a child of whatever the
        caller is tracing, or a fresh trace), so the per-site protocol
        clients inject its context onto the wire and the serving
        appliance's request span joins the same distributed trace.
        """
        span = self.obs.tracer.span("federated.read", logical=logical)
        with span:
            checksums = {r.site: r.checksum
                         for r in self.catalog.valid_locations(logical)}
            sites = self.resolve(logical)
            if not sites:
                raise ReplicationError(
                    f"no live replica of {logical!r} (all sites dark)")
            path = self.replicator.path_for(logical)
            errors: list[str] = []
            for attempt, site in enumerate(sites):
                if attempt:
                    self._m_failovers.inc()
                try:
                    data = self._client(site).read(path)
                except TransientError as exc:
                    # Dying site: implicate the copy and move on.
                    self.catalog.mark_suspect(logical, site)
                    self._drop_client(site)
                    errors.append(f"{site}: {exc}")
                    span.add("failovers")
                    continue
                want = checksums.get(site)
                if want is not None and zlib.crc32(data) & 0xFFFFFFFF != want:
                    self.catalog.mark_suspect(logical, site)
                    errors.append(f"{site}: checksum mismatch")
                    span.add("corrupt")
                    continue
                self._m_reads.inc(outcome="ok")
                span.set(site=site, nbytes=len(data))
                return data
            self._m_reads.inc(outcome="error")
            raise ReplicationError(
                f"every replica of {logical!r} failed: {'; '.join(errors)}")

    # -- writes --------------------------------------------------------------
    def write(self, logical: str, data: bytes,
              overwrite: bool = False) -> list[str]:
        """Store a logical file at the target replication factor.

        Delegates to the replicator: primary copy to the best-ranked
        appliance, then third-party fan-out.  Returns the sites that
        hold valid copies afterwards.
        """
        if self.catalog.locations(logical):
            if not overwrite:
                raise ReplicationError(
                    f"logical name {logical!r} already exists")
            for replica in self.catalog.locations(logical):
                self.catalog.drop(logical, replica.site)
        self.replicator.store(logical, data)
        return sorted(r.site for r in self.catalog.valid_locations(logical))

    # -- introspection -------------------------------------------------------
    def describe(self, logical: str) -> dict[str, Any]:
        """Where a logical file lives right now (dashboards, tests)."""
        return {
            "logical": logical,
            "replicas": [r.describe() for r in
                         self.catalog.locations(logical)],
            "ranked": throughput_ranked_sites(
                self.collector,
                [r.site for r in self.catalog.valid_locations(logical)]),
        }
