"""Declarative service-level objectives evaluated from metric snapshots.

The paper's manageability thesis is that an appliance must tell its
operator *whether it is meeting its job*, not just emit raw counters.
This module closes that gap: a handful of declarative
:class:`SloObjective` records (99% of requests under a latency bound,
99% of requests succeeding, replica repair lag bounded) are evaluated
periodically against :meth:`MetricsRegistry.snapshot` data, and the
engine reports the three numbers SRE practice actually uses:

* **compliance** -- is the objective currently met;
* **error budget remaining** -- what fraction of the allowed badness
  (``1 - target``) is still unspent over the long window;
* **burn rate** per window -- how many times faster than "exactly
  spending the budget" we are currently failing; a burn rate of 1.0
  spends the budget precisely at window expiry, >1 is trouble.

Everything is event-based: each objective reduces a snapshot to
cumulative ``(good, bad)`` event counts, windows are computed by
differencing the sample ring, and multi-window burn rates fall out of
the same arithmetic.  The engine publishes ``slo_compliant``,
``slo_error_budget_remaining`` and ``slo_burn_rate`` gauges back onto
the registry (so ``/metrics`` carries them), serves a JSON report for
the ``/slo`` endpoint, and exposes an ``SloDegraded`` attribute block
for the ClassAd advertisement -- which is how the Collector and the
ServerModelSwitcher get to react to *degradation* instead of raw
queue depth.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Callable, Mapping

__all__ = [
    "SloEngine",
    "SloObjective",
    "default_objectives",
]


@dataclasses.dataclass(frozen=True)
class SloObjective:
    """One declarative objective.

    ``kind`` selects the reduction from a metrics snapshot:

    * ``"latency"`` -- of the requests observed by histogram
      ``metric``, at least ``target`` (fraction) must complete within
      ``threshold`` seconds.  (Equivalently: p-``target`` latency is
      at most ``threshold``.)
    * ``"error_rate"`` -- of the requests counted by ``metric`` (a
      counter with an ``outcome`` label), at least ``target`` must
      have outcome ``ok``.
    * ``"value_under"`` -- the gauge ``metric`` (replica repair lag,
      say) must read at most ``threshold``; each evaluation is one
      good/bad event against ``target``.
    """

    name: str
    kind: str
    metric: str
    target: float = 0.99
    threshold: float = 0.0

    def __post_init__(self):
        if self.kind not in ("latency", "error_rate", "value_under"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be a fraction in (0, 1)")


def default_objectives() -> tuple[SloObjective, ...]:
    """The stock appliance objectives.

    The repair-lag objective only activates on appliances that run a
    replicator (the gauge is absent elsewhere, which reads as
    no-data = compliant).
    """
    return (
        SloObjective("request_latency_p99", kind="latency",
                     metric="nest_request_seconds",
                     target=0.99, threshold=1.0),
        SloObjective("request_error_rate", kind="error_rate",
                     metric="nest_requests_total", target=0.99),
        SloObjective("replica_repair_lag", kind="value_under",
                     metric="replica_repair_lag_seconds",
                     target=0.99, threshold=300.0),
    )


def _histogram_good_bad(entry: Mapping[str, Any],
                        threshold: float) -> tuple[float, float]:
    """Cumulative (within-threshold, over-threshold) event counts
    across every label series of a snapshot histogram entry."""
    bounds = list(entry.get("buckets") or ())
    # index of the tightest bucket bound that still covers threshold;
    # everything in buckets [0..idx] completed fast enough.
    idx = len(bounds)  # +Inf: threshold above every bound counts all
    for i, bound in enumerate(bounds):
        if bound >= threshold:
            idx = i
            break
    good = bad = 0.0
    for data in (entry.get("series") or {}).values():
        if not isinstance(data, Mapping):
            continue
        cumulative = data.get("buckets") or []
        count = data.get("count", 0)
        within = cumulative[min(idx, len(cumulative) - 1)] \
            if cumulative else 0
        good += within
        bad += max(count - within, 0)
    return good, bad


def _outcome_good_bad(entry: Mapping[str, Any]) -> tuple[float, float]:
    """Cumulative (ok, not-ok) totals of an outcome-labelled counter."""
    labels = tuple(entry.get("labels") or ())
    try:
        pos = labels.index("outcome")
    except ValueError:
        pos = len(labels) - 1 if labels else -1
    good = bad = 0.0
    for key, value in (entry.get("series") or {}).items():
        outcome = key[pos] if 0 <= pos < len(key) else "ok"
        if outcome == "ok":
            good += value
        else:
            bad += value
    return good, bad


def _gauge_value(entry: Mapping[str, Any]) -> float | None:
    """The largest series value of a snapshot gauge entry (fleet
    merges key gauge series per shard; worst shard governs)."""
    series = entry.get("series")
    if not series:
        return None
    try:
        return max(float(v) for v in series.values())
    except (TypeError, ValueError):
        return None


class SloEngine:
    """Evaluates objectives over a ring of snapshot-derived samples."""

    def __init__(self, registry=None,
                 objectives: tuple[SloObjective, ...] | None = None,
                 windows: tuple[float, ...] = (60.0, 600.0),
                 degraded_burn: float = 2.0,
                 clock: Callable[[], float] = time.time):
        self.objectives = tuple(objectives if objectives is not None
                                else default_objectives())
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError("objective names must be unique")
        self.windows = tuple(sorted(windows))
        if not self.windows:
            raise ValueError("need at least one window")
        self.degraded_burn = degraded_burn
        #: the slow tail head sampling always keeps: a request slower
        #: than the latency objective's threshold (none: nothing is slow).
        self.slow_request_s = next(
            (o.threshold for o in self.objectives
             if o.name == "request_latency_p99"), float("inf"))
        self.clock = clock
        self.registry = registry
        self._lock = threading.Lock()
        #: ring of (ts, {objective: (cumulative_good, cumulative_bad)})
        self._samples: list[tuple[float, dict[str, tuple[float, float]]]] = []
        #: running event counts for value objectives (one event/sample)
        self._value_events: dict[str, tuple[float, float]] = {}
        self._g_compliant = None
        self._g_budget = None
        self._g_burn = None
        if registry is not None:
            self._g_compliant = registry.gauge(
                "slo_compliant",
                "1 when the objective currently meets its target.",
                labelnames=("objective",))
            self._g_budget = registry.gauge(
                "slo_error_budget_remaining",
                "Fraction of the long-window error budget unspent.",
                labelnames=("objective",))
            self._g_burn = registry.gauge(
                "slo_burn_rate",
                "Error-budget burn rate per evaluation window.",
                labelnames=("objective", "window"),
                max_series=64)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _reduce(self, objective: SloObjective,
                snapshot: Mapping[str, Any]) -> tuple[float, float] | None:
        entry = snapshot.get(objective.metric)
        if not isinstance(entry, Mapping):
            return None
        if objective.kind == "latency":
            return _histogram_good_bad(entry, objective.threshold)
        if objective.kind == "error_rate":
            return _outcome_good_bad(entry)
        value = _gauge_value(entry)
        if value is None:
            return None
        good, bad = self._value_events.get(objective.name, (0.0, 0.0))
        if value <= objective.threshold:
            good += 1
        else:
            bad += 1
        self._value_events[objective.name] = (good, bad)
        return good, bad

    def sample(self, snapshot: Mapping[str, Any] | None = None) -> None:
        """Record one observation of every objective's event counts."""
        if snapshot is None:
            if self.registry is None:
                raise ValueError("no registry and no snapshot given")
            snapshot = self.registry.snapshot()
        now = self.clock()
        counts: dict[str, tuple[float, float]] = {}
        with self._lock:
            for objective in self.objectives:
                reduced = self._reduce(objective, snapshot)
                if reduced is not None:
                    counts[objective.name] = reduced
            self._samples.append((now, counts))
            horizon = now - self.windows[-1] * 2
            while len(self._samples) > 2 and self._samples[1][0] < horizon:
                self._samples.pop(0)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _window_bad_fraction(self, name: str,
                             window: float) -> tuple[float, float]:
        """(bad_fraction, events) for ``name`` over the trailing window."""
        newest_ts, newest = self._samples[-1]
        if name not in newest:
            return 0.0, 0.0
        base: tuple[float, float] | None = None
        for ts, counts in self._samples:
            if ts < newest_ts - window:
                if name in counts:
                    base = counts[name]
                continue
            break
        good1, bad1 = newest[name]
        good0, bad0 = base if base is not None else (0.0, 0.0)
        good = max(good1 - good0, 0.0)
        bad = max(bad1 - bad0, 0.0)
        events = good + bad
        return (bad / events if events else 0.0), events

    def evaluate(self, snapshot: Mapping[str, Any] | None = None
                 ) -> list[dict[str, Any]]:
        """Take a sample, score every objective, publish the gauges."""
        self.sample(snapshot)
        statuses: list[dict[str, Any]] = []
        with self._lock:
            for objective in self.objectives:
                budget = 1.0 - objective.target
                burn: dict[str, float] = {}
                for window in self.windows:
                    bad_frac, _ = self._window_bad_fraction(
                        objective.name, window)
                    burn[f"{window:g}s"] = bad_frac / budget if budget else 0.0
                long_bad, events = self._window_bad_fraction(
                    objective.name, self.windows[-1])
                remaining = max(0.0, 1.0 - (long_bad / budget)) \
                    if budget else 0.0
                no_data = objective.name not in self._samples[-1][1]
                compliant = no_data or long_bad <= budget
                fast_burn = burn[f"{self.windows[0]:g}s"]
                degraded = (not no_data) and (
                    remaining <= 0.0 or fast_burn >= self.degraded_burn)
                statuses.append({
                    "objective": objective.name,
                    "kind": objective.kind,
                    "metric": objective.metric,
                    "target": objective.target,
                    "threshold": objective.threshold,
                    "events": events,
                    "no_data": no_data,
                    "compliant": compliant,
                    "degraded": degraded,
                    "error_budget_remaining": round(remaining, 6),
                    "burn_rate": {k: round(v, 6) for k, v in burn.items()},
                })
        if self._g_compliant is not None:
            for status in statuses:
                name = status["objective"]
                self._g_compliant.set(
                    1.0 if status["compliant"] else 0.0, objective=name)
                self._g_budget.set(
                    status["error_budget_remaining"], objective=name)
                for window, rate in status["burn_rate"].items():
                    self._g_burn.set(rate, objective=name, window=window)
        return statuses

    def report(self, snapshot: Mapping[str, Any] | None = None
               ) -> dict[str, Any]:
        """The ``/slo`` endpoint document."""
        statuses = self.evaluate(snapshot)
        return {
            "degraded": any(s["degraded"] for s in statuses),
            "windows": [f"{w:g}s" for w in self.windows],
            "objectives": statuses,
        }

    def degraded(self) -> bool:
        """Whether any objective is burning budget dangerously fast
        (or has exhausted it).  Cheap enough for per-accept polling --
        one snapshot walk -- but callers on a hot path should rate-
        limit themselves."""
        return any(s["degraded"] for s in self.evaluate())

    def attributes(self) -> dict[str, Any]:
        """ClassAd attribute block for the advertisement."""
        statuses = self.evaluate()
        worst = min((s["error_budget_remaining"] for s in statuses
                     if not s["no_data"]), default=1.0)
        return {
            "SloDegraded": any(s["degraded"] for s in statuses),
            "SloWorstBudgetRemaining": round(worst, 6),
        }
