"""Live-health consolidation: measured performance for the ClassAd feed.

The paper's dispatcher "periodically consolidates information about
resource and data availability" (section 2.1); related replica-selection
work ranks storage servers by *observed* transfer performance rather
than static capacity.  :class:`HealthMonitor` is that consolidation
point for one appliance.  The one thing it keeps itself is a
rolling-window throughput estimate; everything else it reads from a
:meth:`MetricsRegistry.snapshot` of the appliance's registry --
per-protocol request and error counts from ``nest_requests_total``,
and the probes (queue depth, failure ring size, fault/retry totals)
from the gauges named in :data:`PROBES` -- so the ad, ``/healthz`` and
``/metrics`` carry the same numbers.  It renders them both as ClassAd
attributes for :func:`repro.nest.advertise.build_advertisement` and as
a JSON health document for the management endpoint.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry

__all__ = ["HealthMonitor", "PROBES"]

#: Health-document probe name -> the registry gauge it reads.  A probe
#: whose gauge is not registered (no fault plan, say) is left out.
PROBES = {
    "queue_depth": "nest_transfer_queue_depth",
    "transfer_failures": "nest_transfer_failure_ring",
    "faults_injected": "nest_faults_injected",
    "retries": "nest_client_retries_observed",
}


class _RollingBytes:
    """Bytes-per-second over a sliding time window (bucketed)."""

    def __init__(self, window: float = 30.0, buckets: int = 30,
                 clock: Callable[[], float] = time.monotonic):
        self.window = window
        self.bucket_span = window / buckets
        self.clock = clock
        self._lock = threading.Lock()
        #: (bucket_index, bytes) pairs, oldest first.
        self._buckets: deque[tuple[int, float]] = deque()

    def record(self, nbytes: float) -> None:
        index = int(self.clock() / self.bucket_span)
        with self._lock:
            if self._buckets and self._buckets[-1][0] == index:
                old_index, total = self._buckets[-1]
                self._buckets[-1] = (old_index, total + nbytes)
            else:
                self._buckets.append((index, nbytes))
            self._trim(index)

    def _trim(self, now_index: int) -> None:
        horizon = now_index - int(self.window / self.bucket_span)
        while self._buckets and self._buckets[0][0] < horizon:
            self._buckets.popleft()

    def per_second(self) -> float:
        index = int(self.clock() / self.bucket_span)
        with self._lock:
            self._trim(index)
            total = sum(b for _i, b in self._buckets)
        return total / self.window


class HealthMonitor:
    """One appliance's measured-performance consolidation point."""

    def __init__(self, registry: MetricsRegistry,
                 window: float = 30.0,
                 clock: Callable[[], float] = time.monotonic):
        self.registry = registry
        self._throughput = _RollingBytes(window=window, clock=clock)

    def record_bytes(self, nbytes: float) -> None:
        """Feed data-path bytes into the rolling throughput window."""
        self._throughput.record(nbytes)

    def throughput_bps(self) -> float:
        return self._throughput.per_second()

    def snapshot(self) -> dict[str, Any]:
        """One health document (JSON-able): the throughput window plus
        what one snapshot of the registry counts."""
        metrics = self.registry.snapshot()
        requests: dict[str, int] = {}
        errors: dict[str, int] = {}
        counter = metrics.get("nest_requests_total", {})
        for (protocol, _op, outcome), count in counter.get(
                "series", {}).items():
            requests[protocol] = requests.get(protocol, 0) + count
            if outcome != "ok":
                errors[protocol] = errors.get(protocol, 0) + count
        probes = {probe: float(metrics[name]["series"].get((), 0.0))
                  for probe, name in PROBES.items() if name in metrics}
        return {
            "throughput_bps": self.throughput_bps(),
            "requests": requests,
            "errors": errors,
            "error_rates": {
                proto: errors.get(proto, 0) / count
                for proto, count in requests.items() if count
            },
            "probes": probes,
        }

    def ad_attributes(self) -> dict[str, Any]:
        """Health rendered as ClassAd attributes (§2.1's consolidation).

        ``ThroughputMBps`` is the measured rolling data-path rate the
        discovery layer ranks on; queue depth, error rates, and
        fault/retry totals give matchmakers (and operators) the "what
        is it doing right now" picture static space numbers cannot.
        """
        doc = self.snapshot()
        attrs: dict[str, Any] = {
            "ThroughputMBps": round(doc["throughput_bps"] / 1e6, 6),
            "QueueDepth": int(doc["probes"].get("queue_depth", 0)),
            "TransferFailures": int(doc["probes"].get("transfer_failures", 0)),
            "FaultsInjected": int(doc["probes"].get("faults_injected", 0)),
            "RetriesObserved": int(doc["probes"].get("retries", 0)),
            "RequestsServed": int(sum(doc["requests"].values())),
        }
        for proto, rate in sorted(doc["error_rates"].items()):
            attrs[f"{proto.capitalize()}ErrorRate"] = round(rate, 6)
        return attrs
