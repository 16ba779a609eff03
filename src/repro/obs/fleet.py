"""Fleet-wide telemetry merging for the multi-process shard layer.

The shard layer splits one appliance into N worker processes, each
with its own MetricsRegistry and SpanRecorder.  Workers ship
:meth:`MetricsRegistry.snapshot` dicts and ``Span.to_dict`` lists over
their control pipe, and the parent merges them with the functions here
into the documents its one :class:`~repro.obs.mgmt.ManagementEndpoint`
serves:

* :func:`merge_snapshots` -- one snapshot of the same shape a single
  registry produces, so ``/metrics`` is the same
  :func:`~repro.obs.export_prom.render_prometheus` a single appliance
  uses.  **Counters are summed** across shards (a request is a request
  no matter which worker served it), **gauges keep one series per
  shard** under a trailing ``shard`` label (point-in-time values like
  active connections are meaningless summed without attribution), and
  **histograms are bucket-merged** (cumulative bucket arrays, sums, and
  counts add element-wise because every worker shares the same bucket
  bounds).
* :func:`merge_fleet_trace` -- one Chrome trace document with a
  distinct ``pid`` (the worker's real OS pid) and ``process_name``
  per worker, so a trace that crossed shards renders as one timeline
  spanning several process rows.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.export_chrome import spans_to_chrome, merge_chrome_traces
from repro.obs.spans import spans_from_dicts

__all__ = [
    "merge_fleet_trace",
    "merge_snapshots",
]


def merge_snapshots(
        snapshots: Mapping[str, Mapping[str, Any]]) -> dict[str, dict]:
    """Merge per-shard registry snapshots into one fleet snapshot.

    ``snapshots`` maps a shard label (``"0"``, ``"1"``, ...) to that
    worker's :meth:`MetricsRegistry.snapshot`.  Counters and histogram
    series merge by summing; gauge series are kept per-shard under a
    trailing ``shard`` label.  Metric schema (kind, help, buckets) is
    taken from the first shard that reports the metric; a shard
    shipping an incompatible shape for the same name (bucket count
    mismatch after a rolling upgrade, say) is skipped for that metric
    rather than corrupting the merge.
    """
    fleet: dict[str, dict] = {}
    for shard in sorted(snapshots):
        snap = snapshots[shard]
        if not isinstance(snap, Mapping):
            continue
        for name, entry in snap.items():
            if not isinstance(entry, Mapping):
                continue
            kind = entry.get("kind", "untyped")
            labelnames = tuple(entry.get("labels") or ())
            if kind == "gauge":
                labelnames += ("shard",)
            merged = fleet.get(name)
            if merged is None:
                merged = fleet[name] = {
                    "kind": kind,
                    "labels": labelnames,
                    "help": entry.get("help", ""),
                    "series": {},
                }
                if kind == "histogram":
                    merged["buckets"] = list(entry.get("buckets") or ())
            elif merged["kind"] != kind or merged["labels"] != labelnames:
                continue
            series = entry.get("series") or {}
            if kind == "gauge":
                # one series per shard: attribution beats a meaningless sum
                for key, value in series.items():
                    merged["series"][(*key, shard)] = value
                continue
            for key, value in series.items():
                have = merged["series"].get(key)
                if kind == "histogram":
                    if not isinstance(value, Mapping):
                        continue
                    if have is None:
                        merged["series"][key] = {
                            "count": value.get("count", 0),
                            "sum": value.get("sum", 0.0),
                            "buckets": list(value.get("buckets") or ()),
                        }
                    elif len(have["buckets"]) == len(value.get("buckets", ())):
                        have["count"] += value.get("count", 0)
                        have["sum"] += value.get("sum", 0.0)
                        have["buckets"] = [a + b for a, b in
                                           zip(have["buckets"],
                                               value["buckets"])]
                else:
                    merged["series"][key] = (have or 0) + value
    return fleet


def merge_fleet_trace(
        worker_spans: Mapping[str, tuple[str, int, list[dict]]]) -> dict:
    """One Chrome trace document from per-worker shipped span dicts.

    ``worker_spans`` maps a shard label to ``(service, pid, spans)``
    where ``spans`` is a list of ``Span.to_dict`` records; each worker
    renders under its own pid with its own ``process_name`` row.
    """
    docs = []
    for shard in sorted(worker_spans):
        service, pid, records = worker_spans[shard]
        docs.append(spans_to_chrome(spans_from_dicts(records),
                                    service=service, pid=pid))
    return merge_chrome_traces(docs)
