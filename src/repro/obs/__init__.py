"""``repro.obs``: one telemetry layer for the whole appliance.

Everything measured in the reproduction flows through this package:

* :mod:`repro.obs.metrics` -- the thread-safe registry (counters,
  gauges, histograms with bounded label sets);
* :mod:`repro.obs.spans` -- per-connection request traces with timed
  child spans (parse, authorize, queue-wait, transfer, commit);
* :mod:`repro.obs.log` -- the structured ``repro.*`` logger namespace
  and the CLI console channel;
* :mod:`repro.obs.export_prom` / :mod:`repro.obs.export_chrome` --
  Prometheus text exposition and Chrome trace-event JSON;
* :mod:`repro.obs.health` -- rolling throughput, queue depth, and
  error rates consolidated for the live-health ClassAd feed;
* :mod:`repro.obs.slo` -- service-level objectives and error budgets;
* :mod:`repro.obs.fleet` -- merging shard workers' snapshots and spans;
* :mod:`repro.obs.mgmt` -- the HTTP management endpoint.

A number is counted once, in the registry.  Every document built from
it -- ``/metrics``, ``/healthz``, the ClassAd health block, the SLO
report, a shard fleet's merged view -- is a function of a
:meth:`MetricsRegistry.snapshot`; only the rolling throughput window
and the span ring live elsewhere.

:class:`Observability` bundles one appliance's registry, tracer, span
recorder, and health monitor so the server wires a single object
through its layers.
"""

from __future__ import annotations

import os
from typing import Any

from repro.obs.export_chrome import (
    merge_chrome_traces,
    sim_trace_to_chrome,
    spans_to_chrome,
    validate_trace,
    write_trace,
)
from repro.obs.export_prom import render_prometheus
from repro.obs.health import HealthMonitor
from repro.obs.log import console, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    reset_global_registry,
)
from repro.obs.slo import SloEngine, SloObjective, default_objectives
from repro.obs.spans import (
    Span,
    SpanRecorder,
    Tracer,
    UnsampledSpan,
    annotate,
    current_span,
    current_trace_context,
    format_trace_context,
    maybe_span,
    parse_trace_context,
    spans_from_dicts,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HealthMonitor",
    "MetricsRegistry",
    "Observability",
    "SloEngine",
    "SloObjective",
    "Span",
    "SpanRecorder",
    "Tracer",
    "UnsampledSpan",
    "annotate",
    "console",
    "current_span",
    "current_trace_context",
    "default_objectives",
    "format_trace_context",
    "get_logger",
    "global_registry",
    "maybe_span",
    "merge_chrome_traces",
    "parse_trace_context",
    "render_prometheus",
    "reset_global_registry",
    "sim_trace_to_chrome",
    "spans_from_dicts",
    "spans_to_chrome",
    "validate_trace",
    "write_trace",
]


class Observability:
    """One appliance's telemetry: registry + tracer + health, bundled."""

    def __init__(self, service: str = "nest", span_limit: int = 4096,
                 health_window: float = 30.0):
        self.service = service
        self.registry = MetricsRegistry(namespace=service)
        self.recorder = SpanRecorder(limit=span_limit)
        self.tracer = Tracer(self.recorder, service=service)
        self.health = HealthMonitor(self.registry, window=health_window)

    def render_prometheus(self) -> str:
        """The registry as Prometheus text exposition."""
        return render_prometheus(self.registry.snapshot())

    def chrome_trace(self) -> dict:
        """Recorded spans as a Chrome trace-event document.  The real
        OS pid keeps it mergeable with other processes' documents
        (distinct pid per process row)."""
        return spans_to_chrome(self.recorder, service=self.service,
                               pid=os.getpid())

    def health_attributes(self) -> dict[str, Any]:
        """Live-health ClassAd attributes (measured, not static)."""
        return self.health.ad_attributes()
