"""The replicator: make and keep K verified copies across the fleet.

This is the execution manager's six-step protocol (Fig. 2) turned into
a maintenance daemon.  For each copy it (1) asks placement for a site,
(2) reserves a lot there, (3) fans out a **third-party GridFTP**
transfer so the data flows appliance-to-appliance -- the orchestrator
never touches the bytes -- and (4) verifies the landed copy with the
Chirp ``checksum`` verb before the catalog marks it readable.

The **repair loop** closes the availability story: a site whose
collector ad disappears (heartbeat stopped, or a graceful stop
withdrew it) is presumed dead, its replicas are dropped, and every
logical name short of the target count is re-replicated from a
surviving valid copy.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.client.errors import ClientError
from repro.client.gridftp import GridFtpClient, third_party_transfer
from repro.client.chirp import ChirpClient
from repro.client.retry import RetryPolicy
from repro.nest.auth import Credential
from repro.obs.observability import Observability
from repro.obs.log import get_logger
from repro.protocols.runtime import Periodic
from repro.replica.catalog import COPYING, SUSPECT, VALID, ReplicaCatalog
from repro.replica.placement import (
    PlacementPolicy,
    PlacementTarget,
    SiteInfo,
    ThroughputWeightedPlacement,
    reserve,
    throughput_ranked_sites,
)

logger = get_logger(__name__)

_LOGICAL_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class ReplicationError(Exception):
    """The federation could not satisfy a replication request."""


@dataclass
class CopyReport:
    """Outcome of one attempted replica copy."""

    logical: str
    source: str
    target: str
    ok: bool
    nbytes: int = 0
    error: str = ""


@dataclass
class RepairReport:
    """Outcome of one repair pass over the whole catalog."""

    dead_sites: list[str] = field(default_factory=list)
    dropped: int = 0  #: replicas discarded because their site died
    recovered: int = 0  #: suspect replicas that re-verified as valid
    copies: list[CopyReport] = field(default_factory=list)
    unrecoverable: list[str] = field(default_factory=list)

    @property
    def healed(self) -> int:
        return sum(1 for c in self.copies if c.ok)


class Replicator:
    """Creates, verifies, and repairs replicas for a catalog."""

    def __init__(
        self,
        catalog: ReplicaCatalog,
        collector,
        credential: Credential,
        policy: PlacementPolicy | None = None,
        target_count: int = 3,
        prefix: str = "/replicas",
        lot_duration: float = 3600.0,
        retry: RetryPolicy | None = None,
        obs: Observability | None = None,
    ):
        self.catalog = catalog
        self.collector = collector
        self.credential = credential
        self.policy = policy or ThroughputWeightedPlacement()
        self.target_count = int(target_count)
        self.prefix = prefix.rstrip("/") or "/replicas"
        self.lot_duration = lot_duration
        self.retry = retry or RetryPolicy(max_attempts=3, base_delay=0.05,
                                          max_delay=0.5, deadline=30.0)
        self.obs = obs or Observability(service="federation")
        self._prepared: set[str] = set()
        #: the background repair loop (:meth:`start`).
        self._repair = Periodic("replica-repair", 0.0, self.repair_once)
        reg = self.obs.registry
        self._m_copies = reg.counter(
            "replica_copies_total",
            "Third-party replica copies attempted, by outcome.",
            labelnames=("outcome",))
        self._m_repairs = reg.counter(
            "replica_repair_passes_total",
            "Repair-loop passes, by whether anything needed healing.",
            labelnames=("outcome",))
        self._m_copy_bytes = reg.counter(
            "replica_copy_bytes_total",
            "Bytes moved appliance-to-appliance by the replicator.")
        # Repair lag feeds the replica-repair SLO objective: how stale
        # is the last completed repair pass.
        self._last_repair = time.time()
        reg.gauge_callback(
            "replica_repair_lag_seconds",
            lambda: time.time() - self._last_repair,
            "Seconds since the last completed repair pass.")

    # -- naming --------------------------------------------------------------
    def path_for(self, logical: str) -> str:
        """Where a logical file's copies live on every site."""
        if not _LOGICAL_NAME.match(logical):
            raise ValueError(f"invalid logical name {logical!r}")
        return f"{self.prefix}/{logical}"

    # -- site plumbing -------------------------------------------------------
    def _site_info(self, site: str) -> SiteInfo:
        ad = self.collector.lookup(site)
        if ad is None:
            raise ReplicationError(f"site {site!r} has no live advertisement")
        return SiteInfo.from_ad(ad)

    def _chirp(self, site: SiteInfo) -> ChirpClient:
        client = ChirpClient(site.host, site.ports["chirp"], retry=self.retry)
        client.authenticate(self.credential)
        return client

    def _prepare_site(self, site: SiteInfo) -> None:
        """Ensure the replica prefix exists (and is anonymously
        readable, so any data protocol can serve the copies)."""
        if site.name in self._prepared:
            return
        with self._chirp(site) as chirp:
            try:
                chirp.mkdir(self.prefix)
            except ClientError:
                pass  # already exists
            chirp.acl_set(self.prefix, "*", "rl")
        self._prepared.add(site.name)

    def _checksum_on(self, site: SiteInfo, path: str) -> dict[str, int]:
        with self._chirp(site) as chirp:
            return chirp.checksum(path)

    # -- seeding -------------------------------------------------------------
    def store(self, logical: str, data: bytes) -> list[CopyReport]:
        """Ingest ``data`` under ``logical``: write a primary copy to
        the best-ranked site, then fan out to the target count.

        Tries sites in placement order until one accepts the primary,
        so a site dying mid-write is survivable as long as any
        appliance is still up.
        """
        path = self.path_for(logical)
        # A pushed span (child of the caller's trace, if any): the
        # chirp sessions below inject its context, so the primary PUT
        # and checksum land in the same distributed trace.
        span = self.obs.tracer.span(
            "replica.store", logical=logical, nbytes=len(data))
        with span:
            candidates = self.policy.place(
                self.collector, len(data), self.target_count,
                exclude=self.catalog.sites(logical))
            if not candidates:
                raise ReplicationError(
                    f"no appliance can hold {len(data)} bytes")
            primary = None
            last_error: Exception | None = None
            for ad in candidates:
                site = SiteInfo.from_ad(ad)
                try:
                    self._prepare_site(site)
                    with self._chirp(site) as chirp:
                        chirp.lot_create(max(len(data), 1), self.lot_duration)
                        chirp.put(path, data)
                        sum_ = chirp.checksum(path)
                    primary = site
                    break
                except (ClientError, OSError, KeyError) as exc:
                    last_error = exc
                    logger.warning("store %s: primary on %s failed: %s",
                                   logical, site.name, exc)
            if primary is None:
                raise ReplicationError(
                    f"primary write of {logical!r} failed everywhere: "
                    f"{last_error}")
            self.catalog.register(logical, primary.name, path,
                                  size=len(data), state=COPYING)
            self.catalog.mark_valid(logical, primary.name,
                                    checksum=sum_["crc32"], size=sum_["size"])
            span.set(primary=primary.name)
            return self.replicate(logical)

    # -- replication ---------------------------------------------------------
    def replicate(self, logical: str, k: int | None = None) -> list[CopyReport]:
        """Fan out third-party copies until ``logical`` has ``k`` valid
        replicas (default: the target count).  Parallel across targets;
        returns one report per attempted copy."""
        want = self.target_count if k is None else int(k)
        valid = self.catalog.valid_locations(logical)
        if not valid:
            raise ReplicationError(
                f"no valid replica of {logical!r} to copy from")
        need = want - len(valid)
        if need <= 0:
            return []
        span = self.obs.tracer.span(
            "replica.replicate", logical=logical, need=need)
        with span:
            source = self._pick_source(logical, valid)
            size = max((r.size for r in valid), default=0)
            # Ask placement to order *every* candidate, then walk the
            # ordering reserving lots until enough sites accepted: a
            # site with a stale ad (just died, TTL not yet expired)
            # refuses its reservation and the next choice takes over.
            ordered = self.policy.place(self.collector, size, 2 ** 31,
                                        exclude=self.catalog.sites(logical))
            targets: list[PlacementTarget] = []
            for ad in ordered:
                if len(targets) >= need:
                    break
                targets.extend(reserve([ad], size, self.lot_duration,
                                       self.credential, retry=self.retry))
            if len(targets) < need:
                logger.warning(
                    "replicate %s: wanted %d target(s), reserved %d",
                    logical, need, len(targets))
            reports: list[CopyReport] = []
            threads = []
            lock = threading.Lock()

            def run(target: PlacementTarget) -> None:
                report = self._copy_one(logical, source, target, span)
                with lock:
                    reports.append(report)

            for target in targets:
                t = threading.Thread(target=run, args=(target,), daemon=True)
                t.start()
                threads.append(t)
            for t in threads:
                t.join()
            span.set(copies=len(reports),
                     ok=sum(1 for r in reports if r.ok))
            return reports

    def _pick_source(self, logical: str, valid) -> SiteInfo:
        """The fastest live site holding a valid copy."""
        ranked = throughput_ranked_sites(self.collector,
                                         [r.site for r in valid])
        if not ranked:
            raise ReplicationError(
                f"no live site holds a valid copy of {logical!r}")
        return self._site_info(ranked[0])

    def _copy_one(self, logical: str, source: SiteInfo,
                  target: PlacementTarget, span) -> CopyReport:
        """One third-party copy + checksum verification."""
        path = self.path_for(logical)
        site = target.site
        child = span.child("copy", source=source.name, target=site.name)
        self.catalog.register(logical, site.name, path, state=COPYING)

        def attempt() -> None:
            # Fresh control sessions per attempt: a retried transfer
            # must not inherit a connection the fault layer broke.
            with GridFtpClient(source.host, source.ports["gridftp"],
                               credential=self.credential) as src, \
                 GridFtpClient(site.host, site.ports["gridftp"],
                               credential=self.credential) as dst:
                third_party_transfer(src, path, dst, path)

        try:
            # The copy runs in its own worker thread; pushing the child
            # span here makes the control sessions (GridFTP third-party
            # setup, Chirp checksums on both ends) carry this trace's
            # context to every party of the three-way transfer.
            with child:
                self._prepare_site(site)
                self.retry.call(attempt, idempotent=True,
                                label=f"replicate {logical} -> {site.name}")
                want = self._checksum_on(source, path)
                got = self._checksum_on(site, path)
                if got != want:
                    raise ReplicationError(
                        f"checksum mismatch on {site.name}: "
                        f"{got} != {want}")
                self.catalog.mark_valid(logical, site.name,
                                        checksum=got["crc32"],
                                        size=got["size"])
                self._m_copies.inc(outcome="ok")
                self._m_copy_bytes.inc(got["size"])
                child.set(nbytes=got["size"])
            return CopyReport(logical=logical, source=source.name,
                              target=site.name, ok=True, nbytes=got["size"])
        except (ClientError, ReplicationError, OSError, KeyError) as exc:
            # The half-made copy must never be read: drop the record so
            # the next repair pass re-replicates from a valid source.
            self.catalog.drop(logical, site.name)
            self._m_copies.inc(outcome="error")
            child.set(error=str(exc)).end("error")
            logger.warning("copy %s -> %s failed: %s",
                           logical, site.name, exc)
            return CopyReport(logical=logical, source=source.name,
                              target=site.name, ok=False, error=str(exc))

    # -- verification --------------------------------------------------------
    def verify(self, logical: str, site: str) -> bool:
        """Re-checksum the copy on ``site`` against the catalog."""
        replicas = {r.site: r for r in self.catalog.locations(logical)}
        replica = replicas.get(site)
        if replica is None:
            return False
        reference = replica.checksum
        if reference is None:
            reference = next(
                (r.checksum for r in self.catalog.valid_locations(logical)
                 if r.checksum is not None), None)
        try:
            got = self._checksum_on(self._site_info(site), replica.path)
        except (ClientError, ReplicationError, OSError, KeyError):
            return False
        if reference is not None and got["crc32"] != reference:
            return False
        self.catalog.mark_valid(logical, site,
                                checksum=got["crc32"], size=got["size"])
        return True

    # -- repair --------------------------------------------------------------
    def repair_once(self) -> RepairReport:
        """One pass: bury the dead, re-verify the suspect, refill the
        deficits.  Safe to call concurrently with client traffic."""
        report = RepairReport()
        live = self.collector.names()
        for logical in self.catalog.logicals():
            for replica in self.catalog.locations(logical):
                if replica.site not in live:
                    if replica.site not in report.dead_sites:
                        report.dead_sites.append(replica.site)
                    self.catalog.drop(logical, replica.site)
                    self._prepared.discard(replica.site)
                    report.dropped += 1
                elif replica.state == SUSPECT:
                    if self.verify(logical, replica.site):
                        report.recovered += 1
                    # else: leave it suspect; if the site is dying its
                    # ad will expire and the next pass drops it.
        for logical, missing in self.catalog.deficits(self.target_count).items():
            try:
                report.copies.extend(self.replicate(logical, self.target_count))
            except ReplicationError as exc:
                logger.warning("repair %s: %s", logical, exc)
                report.unrecoverable.append(logical)
        healed = report.dropped or report.healed or report.recovered
        self._m_repairs.inc(outcome="healed" if healed else "idle")
        self._last_repair = time.time()
        if report.dead_sites:
            logger.info("repair: dead=%s dropped=%d healed=%d",
                        report.dead_sites, report.dropped, report.healed)
        return report

    def start(self, interval: float = 1.0) -> "Replicator":
        """Run :meth:`repair_once` every ``interval`` seconds until
        :meth:`stop` (``interval <= 0``: never)."""
        self._repair.interval = interval
        self._repair.start()
        return self

    def stop(self) -> None:
        self._repair.stop()

    def __enter__(self) -> "Replicator":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def status(self) -> dict[str, Any]:
        """JSON-able federation summary (CLI ``replica status``)."""
        return {
            "target_count": self.target_count,
            "policy": self.policy.name,
            "live_sites": sorted(
                n for n in self.collector.names()
                if not n.startswith("replica::")),
            "catalog": self.catalog.snapshot(),
            "deficits": self.catalog.deficits(self.target_count),
        }
