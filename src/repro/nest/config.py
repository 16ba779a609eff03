"""NeST server configuration.

One dataclass gathers every administrator-visible knob so the live
server, the simulated server, and the benches construct servers the
same way.  Defaults mirror the paper's release 0.9.  Eighteen fields,
none of them read by the simulated substrate alone (its per-transfer
concurrency selection is a ``SimNest`` constructor argument);
``transfer_workers`` bounds concurrent scheduler grants, not threads
-- the live transfer manager has none.

A field lives here only while something sets it.  A knob of one
component lives once, as that component's constructor default, and is
validated there: the adaptive switcher's ``high`` / ``low`` /
``interval`` (``ServerModelSwitcher``), the journal's
``snapshot_every`` (``DurabilityManager``), the demotion policy and scan
``interval`` (``TierPolicy`` / ``TierManager``), the heat half-life
(``HeatTracker``), the autoscaler's thresholds and ``interval``
(``AutoScaler``), and ``reclaim_policy`` / ``anonymous_rights``
(``StorageManager``).  A caller that needs another value sets it on
the server's component (``server.tier_manager.policy``,
``server.heat.halflife``, ...) before ``start()``, or passes it to
``attach_autoscaler``.  Tiering is on when ``NestServer`` is given a
``cold_store``; service-level objectives (``repro.obs.slo``) are
always evaluated -- the ``SloDegraded`` ad attribute, ``/slo`` and the
adaptive switcher all read them.  Sizes nothing ever varied are named constants:
``transfer.BURST_BYTES`` / ``FAILURE_HISTORY``,
``graybox.ASSUMED_CACHE_BYTES``, ``server.ADVERTISE_INTERVAL``.
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

    #: Bind protocol listeners with SO_REUSEPORT so several processes
    #: (the shard layer) can share one port and let the kernel spread
    #: accepted connections across them.
    reuse_port: bool = False

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

    #: If non-zero, the administrator pre-creates a default lot of this
    #: many bytes for "anonymous", so local-protocol clients (NFS,
    #: HTTP, FTP -- which the paper restricts to anonymous access) can
    #: write under ``require_lots`` (paper, §5: admins "can
    #: simultaneously make a set of default lots for users").
    default_anonymous_lot_bytes: int = 0

    #: Serve the observability management endpoint (/metrics, /healthz,
    #: /trace, /slo, /ad) next to the protocol listeners.
    management: bool = True

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
        if self.transfer_workers < 1:
            raise ValueError("transfer_workers must be >= 1")
        if self.quantum_bytes < 1:
            raise ValueError("quantum_bytes must be >= 1")
        if self.telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be > 0")
