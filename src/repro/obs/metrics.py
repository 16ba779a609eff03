"""Thread-safe metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` is the single source of truth for every
measured quantity in an appliance -- request counts, bytes moved,
queue depth, fault and retry totals, and the re-homed ``repro.perf``
kernel counters all land here.  The paper's manageability argument
("the NeST periodically consolidates information about resource and
data availability", section 2.1) needs exactly this: one place an
operator, the management endpoint, and the ClassAd advertisement can
all read consistently.

Design points:

* **Bounded label sets.**  Every labelled metric caps how many
  distinct label combinations it will track (``max_series``); beyond
  the cap, updates collapse into a single ``{"...": "overflow"}``
  series instead of growing without bound.  Labels are things like
  protocol, operation, user-class, and outcome -- all low-cardinality
  by construction; the cap is a backstop against a bug (or an
  attacker) minting series from unbounded input.
* **Cheap hot path.**  An update is one dict lookup (the call site's
  label items, resolved to their series key once and cached per
  metric), one lock acquire and one add; the lock is per-metric so
  unrelated instruments never contend.  Every update still counts:
  the cache saves the key's construction, never the write.
* **Reads never mutate.**  ``value``/``count``/``sum`` of a label set
  that was never written read 0 even at the series cap; only writes
  collapse into the overflow series and count a dropped series.
* **Consistent snapshots.**  :meth:`MetricsRegistry.snapshot` walks
  every metric under its lock and returns plain dictionaries, so a
  scrape concurrent with updates sees each series at a single point
  in time (never a torn half-update).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Iterable, Mapping, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "reset_global_registry",
]

#: Default histogram buckets: latencies in seconds (and doubles nicely
#: for byte counts when scaled by the caller).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Series key used once a metric exceeds its label-set bound.
OVERFLOW = ("overflow",)


def _series_key(labelnames: tuple[str, ...],
                labels: Mapping[str, str]) -> tuple[str, ...]:
    try:
        return tuple(str(labels[name]) for name in labelnames)
    except KeyError as exc:
        raise ValueError(f"missing label {exc.args[0]!r}; "
                         f"expected {labelnames!r}") from exc


class _Metric:
    """Base: name, help text, label schema, bounded series map."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Iterable[str] = (), max_series: int = 64):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self.max_series = max_series
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], Any] = {}
        #: call-site label items -> admitted series key, bounded; only
        #: ever grows, and only with keys already in ``_series``'s
        #: admission (see :meth:`_admit`).  The unlabelled key is
        #: pre-seeded so an unlabelled update never takes the slow path.
        self._keys: dict[tuple, tuple[str, ...]] = (
            {} if self.labelnames else {(): ()})
        self.dropped_series = 0

    def _cached_key(self, labels: Mapping[str, str]
                    ) -> tuple[str, ...] | None:
        """The series key this call site resolved to before, or None.

        Safe outside the lock: the cache only ever gains entries, and
        a key it holds is already admitted, so it can never be one that
        would now overflow.  A label value that cannot be hashed takes
        the slow path, exactly as before the cache existed."""
        try:
            return self._keys.get(tuple(labels.items()))
        except TypeError:
            return None

    def _admit(self, labels: Mapping[str, str]) -> tuple[str, ...]:
        """Resolve a *write*'s series key (caller holds the lock): past
        ``max_series`` a new label set collapses into the overflow
        series and counts as dropped; an admitted key whose labels are
        all strings is cached for the next update from its call site."""
        key = self._read_key(labels)
        if key not in self._series and len(self._series) >= self.max_series:
            self.dropped_series += 1
            return ("overflow",) * len(self.labelnames)
        if (len(self._keys) < 2 * self.max_series
                and all(type(v) is str for v in labels.values())):
            self._keys[tuple(labels.items())] = key
        return key

    def _read_key(self, labels: Mapping[str, str]) -> tuple[str, ...]:
        """A *read*'s series key: never the overflow series (unless
        asked for by name) and never a dropped-series count."""
        if not self.labelnames:
            if labels:
                raise ValueError(f"metric {self.name!r} takes no labels")
            return ()
        return _series_key(self.labelnames, labels)

    def series(self) -> dict[tuple[str, ...], Any]:
        """Point-in-time copy of every series value."""
        with self._lock:
            return dict(self._series)


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._cached_key(labels)
        with self._lock:
            if key is None:
                key = self._admit(labels)
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        key = self._read_key(labels)
        with self._lock:
            return self._series.get(key, 0)

    def total(self) -> float:
        """Sum across every label combination."""
        with self._lock:
            return sum(self._series.values())


class Gauge(_Metric):
    """A value that can go up and down; optionally callback-backed."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str,
                 labelnames: Iterable[str] = (), max_series: int = 64,
                 callback: Optional[Callable[[], float]] = None):
        super().__init__(name, help_text, labelnames, max_series)
        if callback is not None and self.labelnames:
            raise ValueError("callback gauges cannot take labels")
        self.callback = callback

    def set(self, value: float, **labels: str) -> None:
        key = self._cached_key(labels)
        with self._lock:
            if key is None:
                key = self._admit(labels)
            self._series[key] = value

    def inc(self, amount: float = 1, **labels: str) -> None:
        key = self._cached_key(labels)
        with self._lock:
            if key is None:
                key = self._admit(labels)
            self._series[key] = self._series.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        if self.callback is not None:
            try:
                return float(self.callback())
            except Exception:  # noqa: BLE001 - a broken probe reads as 0
                return 0.0
        key = self._read_key(labels)
        with self._lock:
            return self._series.get(key, 0)

    def series(self) -> dict[tuple[str, ...], Any]:
        if self.callback is not None:
            return {(): self.value()}
        return super().series()


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "total")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 for +Inf
        self.count = 0
        self.total = 0.0


class Histogram(_Metric):
    """Bucketed distribution (durations, sizes)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 labelnames: Iterable[str] = (), max_series: int = 64,
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(name, help_text, labelnames, max_series)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")

    def observe(self, value: float, **labels: str) -> None:
        # first bucket whose bound is >= value; NaN compares false with
        # every bound, so it belongs in +Inf, where bisect cannot put it
        index = (bisect_left(self.buckets, value) if value == value
                 else len(self.buckets))
        key = self._cached_key(labels)
        with self._lock:
            if key is None:
                key = self._admit(labels)
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            series.count += 1
            series.total += value
            series.bucket_counts[index] += 1

    def count(self, **labels: str) -> int:
        key = self._read_key(labels)
        with self._lock:
            series = self._series.get(key)
            return series.count if series else 0

    def sum(self, **labels: str) -> float:
        key = self._read_key(labels)
        with self._lock:
            series = self._series.get(key)
            return series.total if series else 0.0

    def series(self) -> dict[tuple[str, ...], Any]:
        """Snapshot as {labels: {"count", "sum", "buckets"}} dicts."""
        with self._lock:
            out = {}
            for key, s in self._series.items():
                cumulative, acc = [], 0
                for c in s.bucket_counts:
                    acc += c
                    cumulative.append(acc)
                out[key] = {"count": s.count, "sum": s.total,
                            "buckets": cumulative}
            return out


class MetricsRegistry:
    """A named collection of metrics with get-or-create semantics."""

    def __init__(self, namespace: str = ""):
        self.namespace = namespace
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, cls, name: str, help_text: str, **kwargs) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}")
                return existing
            metric = cls(name, help_text, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = (),
                max_series: int = 64) -> Counter:
        return self._register(Counter, name, help_text,
                              labelnames=labelnames, max_series=max_series)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Iterable[str] = (),
              max_series: int = 64) -> Gauge:
        return self._register(Gauge, name, help_text,
                              labelnames=labelnames, max_series=max_series)

    def gauge_callback(self, name: str, callback: Callable[[], float],
                       help_text: str = "") -> Gauge:
        """A gauge whose value is probed at read time (queue depth...)."""
        with self._lock:
            existing = self._metrics.get(name)
            if isinstance(existing, Gauge):
                existing.callback = callback
                return existing
            if existing is not None:
                raise ValueError(f"metric {name!r} already registered as "
                                 f"{existing.kind}, not gauge")
            metric = Gauge(name, help_text, callback=callback)
            self._metrics[name] = metric
            return metric

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Iterable[str] = (), max_series: int = 64,
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help_text,
                              labelnames=labelnames, max_series=max_series,
                              buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> list[_Metric]:
        with self._lock:
            return list(self._metrics.values())

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Every metric's series as plain data, one point in time.

        The dict is picklable and self-describing (kind, label schema,
        help text, histogram bucket bounds), so shard workers can ship
        it over the control pipe and the parent can merge and re-render
        it without access to the live metric objects.
        """
        out: dict[str, dict[str, Any]] = {}
        for metric in self.metrics():
            entry: dict[str, Any] = {
                "kind": metric.kind,
                "labels": metric.labelnames,
                "help": metric.help,
                "series": {",".join(k) if k else "": v
                           for k, v in metric.series().items()},
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            out[metric.name] = entry
        return out

    def unregister(self, name: str) -> None:
        with self._lock:
            self._metrics.pop(name, None)


# ----------------------------------------------------------------------
# process-wide default registry
# ----------------------------------------------------------------------
#
# Components with no server context (the client retry layer, fault
# plans constructed in tests, the sim-kernel snapshot helpers) publish
# here; a NestServer owns its own private registry so side-by-side
# appliances stay isolated.
_global_lock = threading.Lock()
_global: MetricsRegistry | None = None


def global_registry() -> MetricsRegistry:
    """The process-wide default registry (created on first use)."""
    global _global
    registry = _global
    if registry is not None:
        return registry
    with _global_lock:
        if _global is None:
            _global = MetricsRegistry(namespace="repro")
        return _global


def reset_global_registry() -> MetricsRegistry:
    """Swap in a fresh process-wide registry (test isolation)."""
    global _global
    with _global_lock:
        _global = MetricsRegistry(namespace="repro")
        return _global
