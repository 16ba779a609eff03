"""Fleet merging: per-shard snapshots and spans into one operator view.

Real registries and real tracers on both "shards" (no pickled pipes
here -- the live control plane has its own test), so the merge rules
are exercised against exactly the snapshot shapes workers ship:
counters sum, gauges keep a per-shard series, histograms bucket-merge,
and the stitched Chrome document keeps one process row per worker
while rejecting duplicate span events.
"""

from __future__ import annotations

from repro.obs.export_chrome import (
    merge_chrome_traces,
    spans_to_chrome,
    validate_trace,
)
from repro.obs.export_prom import render_prometheus
from repro.obs.fleet import merge_fleet_trace, merge_snapshots
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder, Tracer


def _shard_registry(requests, active):
    reg = MetricsRegistry()
    counter = reg.counter("nest_requests_total", "Requests.",
                          labelnames=("protocol", "op", "outcome"))
    counter.inc(requests, protocol="chirp", op="get", outcome="ok")
    reg.gauge("nest_active_connections", "Live.").set(active)
    hist = reg.histogram("nest_request_seconds", "Latency.",
                         labelnames=("protocol",))
    for _ in range(requests):
        hist.observe(0.01, protocol="chirp")
    return reg


class TestMergeSnapshots:
    def test_counters_sum_gauges_label_histograms_merge(self):
        snaps = {"0": _shard_registry(3, 1).snapshot(),
                 "1": _shard_registry(5, 7).snapshot()}
        fleet = merge_snapshots(snaps)
        requests = fleet["nest_requests_total"]["series"]
        assert requests[("chirp", "get", "ok")] == 8
        gauges = fleet["nest_active_connections"]["series"]
        assert gauges[("0",)] == 1
        assert gauges[("1",)] == 7
        hist = fleet["nest_request_seconds"]["series"][("chirp",)]
        assert hist["count"] == 8
        assert hist["buckets"][-1] == 8  # +Inf cumulative

    def test_incompatible_shapes_are_skipped_not_corrupted(self):
        good = _shard_registry(2, 0).snapshot()
        bad = {"nest_requests_total": {"kind": "gauge", "labels": (),
                                       "series": {(): 99.0}}}
        fleet = merge_snapshots({"0": good, "1": bad})
        assert fleet["nest_requests_total"]["kind"] == "counter"
        requests = fleet["nest_requests_total"]["series"]
        assert requests[("chirp", "get", "ok")] == 2

    def test_render_exposition_has_shard_labels_and_sums(self):
        text = render_prometheus(merge_snapshots(
            {"0": _shard_registry(3, 1).snapshot(),
             "1": _shard_registry(5, 7).snapshot()}))
        assert 'nest_active_connections{shard="0"} 1' in text
        assert 'nest_active_connections{shard="1"} 7' in text
        assert 'nest_requests_total{protocol="chirp",op="get",' \
               'outcome="ok"} 8' in text
        assert 'le="+Inf"' in text

    def test_fleet_render_of_two_snapshots(self):
        """The shard parent's ``/metrics`` is the appliance renderer over
        the merged snapshot: counters summed, gauges ``shard="N"``,
        histograms bucket-merged -- and a ``,`` in a label value
        survives the trip."""
        shards = {}
        for label, (n, active) in {"0": (3, 1), "1": (5, 7)}.items():
            reg = MetricsRegistry()
            reg.counter("reqs_total", "Requests.",
                        labelnames=("op",)).inc(n, op="a,b")
            reg.gauge("active", "Live.").set(active)
            hist = reg.histogram("lat", "Latency.", buckets=(0.1,))
            for _ in range(n):
                hist.observe(0.0625)
            hist.observe(1.0)
            shards[label] = reg.snapshot()
        assert render_prometheus(merge_snapshots(shards)) == (
            '# HELP reqs_total Requests.\n'
            '# TYPE reqs_total counter\n'
            'reqs_total{op="a,b"} 8\n'
            '# HELP active Live.\n'
            '# TYPE active gauge\n'
            'active{shard="0"} 1\n'
            'active{shard="1"} 7\n'
            '# HELP lat Latency.\n'
            '# TYPE lat histogram\n'
            'lat_bucket{le="0.1"} 8\n'
            'lat_bucket{le="+Inf"} 10\n'
            'lat_sum 2.5\n'
            'lat_count 10\n')


def _worker_spans(service, n=2):
    recorder = SpanRecorder()
    tracer = Tracer(recorder=recorder, service=service)
    for i in range(n):
        root = tracer.start_trace("request", op=f"get-{i}")
        root.end()
    return [s.to_dict() for s in recorder.spans()]


class TestMergeTraces:
    def test_one_process_row_per_worker(self):
        doc = merge_fleet_trace({
            "0": ("nest-shard0", 101, _worker_spans("nest-shard0")),
            "1": ("nest-shard1", 202, _worker_spans("nest-shard1")),
        })
        assert validate_trace(doc) == []
        names = {(e["pid"], e["args"]["name"])
                 for e in doc["traceEvents"]
                 if e.get("ph") == "M" and e["name"] == "process_name"}
        assert names == {(101, "nest-shard0"), (202, "nest-shard1")}
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert pids == {101, 202}

    def test_duplicate_shipments_are_deduplicated(self):
        spans = _worker_spans("nest-shard0")
        doc = merge_fleet_trace({"0": ("nest-shard0", 101, spans + spans)})
        assert validate_trace(doc) == []
        assert len([e for e in doc["traceEvents"]
                    if e["ph"] == "X"]) == len(spans)

    def test_merge_filters_to_one_trace_id(self):
        recorder = SpanRecorder()
        tracer = Tracer(recorder=recorder, service="svc")
        keep = tracer.start_trace("request")
        keep.end()
        drop = tracer.start_trace("request")
        drop.end()
        doc = spans_to_chrome(recorder.spans(), service="svc", pid=9)
        merged = merge_chrome_traces([doc], trace_id=keep.trace_id)
        xs = [e for e in merged["traceEvents"] if e["ph"] == "X"]
        assert {e["args"]["trace_id"] for e in xs} == {keep.trace_id}
        # metadata rows survive the filter
        assert any(e["ph"] == "M" for e in merged["traceEvents"])

    def test_validate_rejects_colliding_events(self):
        ev = {"name": "request", "cat": "span", "ph": "X", "ts": 1.0,
              "dur": 2.0, "pid": 1, "tid": 1, "args": {}}
        problems = validate_trace({"traceEvents": [ev, dict(ev)]})
        assert any("duplicate event" in p for p in problems)
