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

:class:`repro.obs.observability.Observability` bundles one appliance's
registry, tracer, span recorder, and health monitor so the server wires
a single object through its layers.

The package re-exports nothing on purpose: the simulator and the shared
policy modules import :mod:`repro.obs.metrics` and :mod:`repro.obs.spans`
alone, and must not load the exporters, health, SLO and logging layers.
"""
