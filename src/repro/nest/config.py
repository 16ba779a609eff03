"""NeST server configuration.

One dataclass gathers every administrator-visible knob so the live
server, the simulated server, and the benches construct servers the
same way.  Defaults mirror the paper's release 0.9.  Forty fields, none
of them read by the simulated substrate alone (its per-transfer
concurrency selection is a ``SimNest`` constructor argument);
``transfer_workers`` bounds concurrent scheduler grants, not threads
-- the live transfer manager has none.

A field lives here only while something sets it.  Sizes and thresholds
nothing ever varied are the owning module's constructor default or a
named constant there: ``transfer.BURST_BYTES`` / ``FAILURE_HISTORY``,
``graybox.ASSUMED_CACHE_BYTES``, ``server.ADVERTISE_INTERVAL``, and the
defaults of ``Observability``, ``SloEngine``, ``EventLoop``,
``DurabilityManager``, ``TierPolicy`` / ``TierManager``,
``RateLimitedStore``, ``HeatTracker`` and ``AutoScaler``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class NestConfig:
    """Administrator-facing configuration for one NeST instance."""

    #: Server name (used in advertisements).
    name: str = "nest"

    #: Protocols to serve.  All five by default, as in the paper.
    protocols: Sequence[str] = ("chirp", "ftp", "gridftp", "http", "nfs")

    #: Scheduling policy: "fcfs" (default), "stride", or "cache-aware".
    scheduling: str = "fcfs"

    #: Proportional shares per protocol class (stride scheduling only),
    #: e.g. {"chirp": 1, "gridftp": 2, "http": 1, "nfs": 1}.
    shares: dict[str, float] = field(default_factory=dict)

    #: Work-conserving stride (the paper's implementation) or the
    #: anticipatory non-work-conserving variant (its future work).
    work_conserving: bool = True

    #: Stride shares keyed by "protocol" (the paper's implementation)
    #: or "user" (its stated per-user extension).
    share_by: str = "protocol"

    #: The live server's one concurrency decision -- how accepted
    #: connections are served: "threaded" dedicates one handler thread
    #: per connection (the original design), "events" parks idle
    #: connections in a selector-driven event loop and serves ready
    #: requests from a small bounded worker pool, and "adaptive" flips
    #: between the two per accept from live MetricsRegistry signals
    #: (Fig. 5: no single architecture wins at all loads).  Either
    #: way the thread serving a request pumps its own transfer.
    concurrency_server: str = "threaded"

    #: Adaptive server switching: at/above this many live connections
    #: the per-connection cost of threads dominates -> events.
    server_switch_high: int = 256

    #: Adaptive server switching: at/below this many live connections
    #: the measured per-request goodput picks the model (threads until
    #: the selector has evidence).  Between low and high the switcher
    #: holds its current choice (hysteresis).
    server_switch_low: int = 32

    #: Seconds between adaptive server-model re-evaluations (0
    #: re-evaluates on every accept; tests use that).
    server_switch_interval: float = 0.25

    #: Bind protocol listeners with SO_REUSEPORT so several processes
    #: (the shard layer) can share one port and let the kernel spread
    #: accepted connections across them.
    reuse_port: bool = False

    #: Multi-process shard fan-out used by the shard layer / CLI; 0
    #: runs the classic single-process appliance.
    shards: int = 0

    #: Scheduler grants out at once: how many transfers may be moving
    #: a quantum at the same moment.  Not a thread count -- the
    #: transfer manager has no threads; each connection's own thread
    #: pumps under a grant.  Up to this many registered transfers
    #: never wait for one another, so they are granted
    #: ``repro.nest.transfer.BURST_BYTES`` at a time.
    transfer_workers: int = 8

    #: Bytes moved per proportional-share scheduling quantum.  Small
    #: quanta give fine-grained control; each one costs an arbitration
    #: pass (the Fig. 4 overhead).  Applies when more transfers are
    #: registered than there are ``transfer_workers`` slots -- only
    #: then is a transfer kept waiting and a share enforced.
    quantum_bytes: int = 16 * 1024

    #: Total storage capacity managed by this NeST.
    capacity_bytes: int = 10 * (1 << 30)

    #: Require an active lot for writes (the paper's Grid deployment).
    require_lots: bool = False

    #: Lot enforcement: "quota" (paper's implementation) or "nest"
    #: (NeST-managed; the paper's future work).
    lot_enforcement: str = "quota"

    #: Best-effort reclamation policy: "expired-first", "largest-first",
    #: or "lru".
    reclaim_policy: str = "expired-first"

    #: Rights granted to anonymous users on fresh directories.
    anonymous_rights: str = "rl"

    #: If non-zero, the administrator pre-creates a default lot of this
    #: many bytes for "anonymous", so local-protocol clients (NFS,
    #: HTTP, FTP -- which the paper restricts to anonymous access) can
    #: write under ``require_lots`` (paper, §5: admins "can
    #: simultaneously make a set of default lots for users").
    default_anonymous_lot_bytes: int = 0

    #: Serve the observability management endpoint (/metrics, /healthz,
    #: /trace, /ad) next to the protocol listeners.
    management: bool = True

    #: Evaluate service-level objectives (repro.obs.slo) against this
    #: server's metrics: publishes slo_* gauges, serves /slo on the
    #: management endpoint, and stamps SloDegraded into the ClassAd.
    slo: bool = True

    #: Shard workers: seconds between telemetry snapshots shipped over
    #: the control pipe to the parent for fleet-wide aggregation.
    telemetry_interval: float = 0.5

    #: Directory for durable appliance state (metadata journal +
    #: compacted snapshots + restart epoch).  None runs memory-only,
    #: exactly as before durability existed.
    state_dir: str | None = None

    #: fsync the journal on every append (the durable default); False
    #: trades the tail of history for speed, for tests and benches.
    journal_fsync: bool = True

    #: Fold the journal into a compacted snapshot every N records.
    snapshot_every: int = 512

    #: Group commit: how long (seconds) the flusher may dally waiting
    #: for co-batching appenders before flushing a non-full batch.
    #: 0 flushes as soon as the flush lock is free; batching then
    #: arises naturally from fsync backpressure under concurrency.
    journal_batch_delay: float = 0.0

    # -- hierarchical storage tiers (repro.tier) -----------------------
    #: Front the local store with a slow cold tier: per-file residency
    #: is journaled, cold reads recall on miss, and the background
    #: policy loop demotes cold data.  Off by default.
    tiering: bool = False

    #: Directory backing the cold tier when ``state_dir`` is set (a
    #: sibling of the fast store); ignored for memory-only servers,
    #: which get a memory-backed cold tier.
    tier_cold_dir: str | None = None

    #: Cold-tier bandwidth (bytes/sec) of the rate-limited backend
    #: standing in for tape/object storage; 0 disables throttling.
    tier_cold_bandwidth: float = 0.0

    #: Migration policy: demote a file untouched for this many seconds.
    tier_demote_after: float = 300.0

    #: Migration policy: never demote files hotter than this (decayed
    #: read rate from the heat tracker).
    tier_heat_ceiling: float = 0.5

    #: Seconds between background migration scans; 0 disables the loop
    #: (scan_once() can still be driven by hand or by tests).
    tier_scan_interval: float = 30.0

    # -- per-file access heat (repro.tier.heat) ------------------------
    #: Half-life (seconds) of the per-file read-heat EWMA.
    heat_halflife: float = 30.0

    # -- decentralized autoscaler (repro.tier.autoscale) ---------------
    #: Seconds between autoscaler evaluations when the loop runs.
    autoscale_interval: float = 2.0

    #: Queue depth at/above which this appliance counts as overloaded.
    autoscale_queue_high: float = 4.0

    #: Request arrival rate (req/s between ticks) counting as overloaded.
    autoscale_rate_high: float = 50.0

    #: Ceiling on valid replicas per logical file the scaler will build.
    autoscale_max_replicas: int = 3

    #: Grace period after acting before the scaler re-evaluates.
    autoscale_cooldown: float = 10.0

    #: Consecutive overloaded ticks required before acting.
    autoscale_hysteresis: int = 2

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if self.scheduling not in ("fcfs", "stride", "cache-aware"):
            raise ValueError(f"unknown scheduling policy {self.scheduling!r}")
        if self.share_by not in ("protocol", "user"):
            raise ValueError(f"unknown share key {self.share_by!r}")
        if self.lot_enforcement not in ("quota", "nest"):
            raise ValueError(f"unknown lot enforcement {self.lot_enforcement!r}")
        known = {"chirp", "ftp", "gridftp", "http", "nfs", "ibp"}
        unknown = set(self.protocols) - known
        if unknown:
            raise ValueError(f"unknown protocols {sorted(unknown)!r}")
        if self.concurrency_server not in ("threaded", "events", "adaptive"):
            raise ValueError(
                f"unknown server concurrency {self.concurrency_server!r}")
        if self.server_switch_low < 0:
            raise ValueError("server_switch_low must be >= 0")
        if self.server_switch_high < self.server_switch_low:
            raise ValueError(
                "server_switch_high must be >= server_switch_low")
        if self.server_switch_interval < 0:
            raise ValueError("server_switch_interval must be >= 0")
        if self.shards < 0:
            raise ValueError("shards must be >= 0")
        if self.transfer_workers < 1:
            raise ValueError("transfer_workers must be >= 1")
        if self.quantum_bytes < 1:
            raise ValueError("quantum_bytes must be >= 1")
        if self.journal_batch_delay < 0:
            raise ValueError("journal_batch_delay must be >= 0")
        if self.telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be > 0")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if self.tier_cold_bandwidth < 0:
            raise ValueError("tier_cold_bandwidth must be >= 0")
        if self.tier_demote_after < 0:
            raise ValueError("tier_demote_after must be >= 0")
        if self.tier_heat_ceiling < 0:
            raise ValueError("tier_heat_ceiling must be >= 0")
        if self.tier_scan_interval < 0:
            raise ValueError("tier_scan_interval must be >= 0")
        if self.heat_halflife <= 0:
            raise ValueError("heat_halflife must be > 0")
        if self.autoscale_interval <= 0:
            raise ValueError("autoscale_interval must be > 0")
        if self.autoscale_queue_high < 0:
            raise ValueError("autoscale_queue_high must be >= 0")
        if self.autoscale_rate_high < 0:
            raise ValueError("autoscale_rate_high must be >= 0")
        if self.autoscale_max_replicas < 1:
            raise ValueError("autoscale_max_replicas must be >= 1")
        if self.autoscale_cooldown < 0:
            raise ValueError("autoscale_cooldown must be >= 0")
        if self.autoscale_hysteresis < 1:
            raise ValueError("autoscale_hysteresis must be >= 1")
