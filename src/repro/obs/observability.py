"""One appliance's telemetry, bundled: the object a live server wires
through its layers (registry, tracer, span recorder, health monitor)."""

from __future__ import annotations

import os
from typing import Any

from repro.obs.export_chrome import spans_to_chrome
from repro.obs.export_prom import render_prometheus
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder, Tracer


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
