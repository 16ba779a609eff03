"""Decentralized demand-driven auto-replication.

Each appliance runs its *own* :class:`AutoScaler`: a loop that reads
the appliance's health monitor and SLO engine -- queue depth, error
rates, request rate, burn-rate degradation -- and, when the appliance
is persistently overloaded, replicates its hottest files (per the
shared :class:`~repro.tier.heat.HeatTracker`) to under-loaded peers
through the existing replica federation.  There is no central
coordinator; saturated nodes spawn copies of what is making them hot,
which is how a fleet absorbs a flash crowd.

Stability knobs, because a fleet of independent scalers can thrash:

* **hysteresis** -- overload must persist for N consecutive ticks
  before anything replicates (one spiky sample does nothing);
* **cooldown** -- after acting, the scaler sits out a grace period so
  the new replicas can start taking load before it re-evaluates;
* **budget** -- at most N replication actions per sliding window,
  fleet-wide sanity even if the overload signal sticks.

Placement of the new copies goes through the placement policy, which
(as of this change) refuses peers advertising ``SloDegraded`` -- an
overloaded node must never dump load onto another struggling node.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Optional

from repro.obs.health import HealthMonitor
from repro.obs.log import get_logger
from repro.protocols.runtime import Periodic
from repro.replica.replicator import ReplicationError, Replicator
from repro.tier.heat import HeatTracker

logger = get_logger(__name__)

__all__ = ["AutoScaler"]


class AutoScaler(Periodic):
    """One appliance's overload-driven replication loop: a
    :class:`~repro.protocols.runtime.Periodic` (thread
    ``autoscale-<name>``) calling :meth:`tick` every ``interval``
    seconds."""

    def __init__(
        self,
        name: str,
        health: HealthMonitor,
        heat: HeatTracker,
        replicator: Replicator,
        slo,
        *,
        queue_high: float = 4.0,
        error_high: float = 0.05,
        rate_high: float = 50.0,
        max_files: int = 3,
        max_replicas: int = 3,
        budget: int = 6,
        window: float = 60.0,
        cooldown: float = 10.0,
        hysteresis: int = 2,
        interval: float = 2.0,
        prefix: str = "/replicas",
        local_lookup: Callable[[str], Optional[tuple[int, int]]] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer=None,
        registry=None,
    ):
        if hysteresis < 1:
            raise ValueError("hysteresis must be >= 1")
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if queue_high < 0 or rate_high < 0 or cooldown < 0:
            raise ValueError("queue_high, rate_high and cooldown must be >= 0")
        if max_replicas < 1:
            raise ValueError("max_replicas must be >= 1")
        if interval <= 0:
            raise ValueError("interval must be > 0")
        super().__init__(f"autoscale-{name}", interval, self.tick)
        self.name = name
        self.health = health
        self.heat = heat
        self.replicator = replicator
        self.slo = slo
        self.queue_high = float(queue_high)
        self.error_high = float(error_high)
        self.rate_high = float(rate_high)
        self.max_files = int(max_files)
        #: ceiling on copies per logical file -- the scaler adds one
        #: replica per trigger, never past this.
        self.max_replicas = int(max_replicas)
        self.budget = int(budget)
        self.window = float(window)
        self.cooldown = float(cooldown)
        self.hysteresis = int(hysteresis)
        self.prefix = prefix.rstrip("/") + "/"
        #: ``logical -> (size, crc32)`` for files this appliance holds
        #: locally but the catalog does not know about; lets the scaler
        #: seed the catalog before fanning out.  None disables seeding.
        self.local_lookup = local_lookup
        self.clock = clock
        self.tracer = tracer
        self._pressure = 0  #: consecutive overloaded ticks
        self._cooling_until = 0.0
        self._actions: deque[float] = deque()  #: action stamps in window
        self._prev_requests: int | None = None
        self._prev_stamp: float | None = None
        self.ticks = 0
        self.triggers = 0
        self.replicas_added = 0
        self._m_ticks = None
        self._m_replications = None
        if registry is not None:
            self.register_metrics(registry)

    def register_metrics(self, registry) -> None:
        self._m_ticks = registry.counter(
            "autoscale_ticks_total",
            "Autoscaler evaluations, by what the tick did.",
            labelnames=("action",))
        self._m_replications = registry.counter(
            "autoscale_replications_total",
            "Replica copies initiated by the autoscaler, by outcome.",
            labelnames=("outcome",))
        registry.gauge_callback(
            "autoscale_pressure",
            lambda: float(self._pressure),
            "Consecutive overloaded autoscaler ticks (hysteresis count).")
        registry.gauge_callback(
            "autoscale_budget_used",
            lambda: float(len(self._actions)),
            "Replication actions consumed in the current budget window.")

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------
    def signals(self) -> dict[str, Any]:
        """The overload signal vector this tick decides on."""
        doc = self.health.snapshot()
        now = self.clock()
        served = int(sum(doc["requests"].values()))
        rate = 0.0
        if self._prev_requests is not None and self._prev_stamp is not None:
            dt = max(now - self._prev_stamp, 1e-9)
            rate = max(served - self._prev_requests, 0) / dt
        self._prev_requests = served
        self._prev_stamp = now
        error_rate = max(doc["error_rates"].values(), default=0.0)
        degraded = bool(self.slo.degraded())
        return {
            "queue_depth": float(doc["probes"].get("queue_depth", 0.0)),
            "error_rate": error_rate,
            "request_rate": rate,
            "slo_degraded": degraded,
        }

    def overloaded(self, sig: dict[str, Any]) -> bool:
        return (sig["queue_depth"] >= self.queue_high
                or sig["error_rate"] >= self.error_high
                or sig["request_rate"] >= self.rate_high
                or sig["slo_degraded"])

    # ------------------------------------------------------------------
    # one evaluation
    # ------------------------------------------------------------------
    def tick(self) -> dict[str, Any]:
        """Evaluate once; replicate the hottest files if overload has
        persisted past the hysteresis and the budget allows.  Returns a
        JSON-able report of what the tick saw and did."""
        self.ticks += 1
        now = self.clock()
        sig = self.signals()
        report: dict[str, Any] = {"node": self.name, "signals": sig,
                                  "replicated": []}
        if not self.overloaded(sig):
            self._pressure = 0
            report["action"] = "idle"
        elif (self._pressure + 1) < self.hysteresis:
            self._pressure += 1
            report["action"] = "watching"
        elif now < self._cooling_until:
            self._pressure += 1
            report["action"] = "cooldown"
        elif not self._budget_ok(now):
            self._pressure += 1
            report["action"] = "budget"
        else:
            self._pressure += 1
            report["replicated"] = self._scale_out()
            report["action"] = ("replicated" if report["replicated"]
                                else "no_candidates")
            if report["replicated"]:
                self.triggers += 1
                self._actions.append(now)
                self._cooling_until = now + self.cooldown
        report["pressure"] = self._pressure
        if self._m_ticks is not None:
            self._m_ticks.inc(action=report["action"])
        return report

    def _budget_ok(self, now: float) -> bool:
        while self._actions and self._actions[0] <= now - self.window:
            self._actions.popleft()
        return len(self._actions) < self.budget

    # ------------------------------------------------------------------
    # the action: replicate the hottest files to under-loaded peers
    # ------------------------------------------------------------------
    def hottest_logicals(self) -> list[tuple[str, float]]:
        """The hottest replica-prefix files as ``(logical, heat)``."""
        return [(path[len(self.prefix):], heat)
                for path, heat in self.heat.hottest(self.max_files,
                                                    prefix=self.prefix)
                if "/" not in path[len(self.prefix):]]

    def _ensure_cataloged(self, logical: str) -> bool:
        """Make sure the catalog has a valid source copy of ``logical``
        (seeding this appliance's local copy if it can)."""
        catalog = self.replicator.catalog
        if catalog.valid_locations(logical):
            return True
        if self.local_lookup is None:
            return False
        found = self.local_lookup(logical)
        if found is None:
            return False
        size, crc = found
        path = self.replicator.path_for(logical)
        catalog.register(logical, self.name, path, size=size)
        catalog.mark_valid(logical, self.name, checksum=crc, size=size)
        return True

    def _scale_out(self) -> list[dict[str, Any]]:
        candidates = self.hottest_logicals()
        if not candidates:
            return []
        span = (self.tracer.span("autoscale.scale_out", node=self.name,
                                 candidates=len(candidates))
                if self.tracer is not None else None)
        results: list[dict[str, Any]] = []
        try:
            for logical, file_heat in candidates:
                if not self._ensure_cataloged(logical):
                    continue
                have = len(self.replicator.catalog.valid_locations(logical))
                want = min(have + 1, self.max_replicas)
                if want <= have:
                    continue  # already at ceiling
                try:
                    reports = self.replicator.replicate(logical, want)
                except ReplicationError as exc:
                    logger.warning("autoscale %s: replicate %s failed: %s",
                                   self.name, logical, exc)
                    if self._m_replications is not None:
                        self._m_replications.inc(outcome="error")
                    continue
                added = sum(1 for r in reports if r.ok)
                self.replicas_added += added
                if self._m_replications is not None:
                    for r in reports:
                        self._m_replications.inc(
                            outcome="ok" if r.ok else "error")
                results.append({"logical": logical, "heat": round(file_heat, 3),
                                "added": added,
                                "targets": [r.target for r in reports if r.ok]})
            if span is not None:
                span.set(replicated=len(results))
        except BaseException:
            if span is not None:
                span.end("error")
            raise
        else:
            if span is not None:
                span.end()
        if results:
            logger.info("autoscale %s: replicated %s", self.name,
                        [r["logical"] for r in results])
        return results

    def describe(self) -> dict[str, Any]:
        return {
            "node": self.name,
            "ticks": self.ticks,
            "triggers": self.triggers,
            "replicas_added": self.replicas_added,
            "pressure": self._pressure,
            "budget_used": len(self._actions),
            "thresholds": {
                "queue_high": self.queue_high,
                "error_high": self.error_high,
                "rate_high": self.rate_high,
            },
        }
