"""Exporter units: Prometheus text exposition and Chrome trace JSON."""

from __future__ import annotations

import json

import pytest

from repro.obs.export_chrome import (
    sim_trace_to_chrome,
    spans_to_chrome,
    validate_trace,
    write_trace,
)
from repro.obs.export_prom import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder, Tracer


class TestPrometheus:
    def test_counter_exposition(self):
        reg = MetricsRegistry()
        reg.counter("nest_requests_total", "Requests served.",
                    labelnames=("protocol", "op")).inc(
            12, protocol="chirp", op="get")
        text = render_prometheus(reg.snapshot())
        assert "# HELP nest_requests_total Requests served.\n" in text
        assert "# TYPE nest_requests_total counter\n" in text
        assert 'nest_requests_total{protocol="chirp",op="get"} 12\n' in text

    def test_histogram_emits_cumulative_buckets_sum_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = render_prometheus(reg.snapshot())
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_sum 0.55" in text
        assert "lat_count 2" in text

    def test_callback_gauge_probed_at_render_time(self):
        reg = MetricsRegistry()
        box = {"v": 4}
        reg.gauge_callback("depth", lambda: box["v"])
        assert "depth 4" in render_prometheus(reg.snapshot())
        box["v"] = 9
        assert "depth 9" in render_prometheus(reg.snapshot())

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", labelnames=("op",)).inc(op='we"ird\nname')
        text = render_prometheus(reg.snapshot())
        assert 'op="we\\"ird\\nname"' in text

    def test_bare_counter_renders_zero(self):
        reg = MetricsRegistry()
        reg.counter("untouched")
        assert "untouched 0\n" in render_prometheus(reg.snapshot())

    def test_golden_exposition(self):
        """Every kind of series renders byte for byte as it did when
        the renderer walked the live registry; a label value holding
        ``,`` survives the snapshot."""
        reg = MetricsRegistry()
        reqs = reg.counter("demo_requests_total",
                           "Requests, by protocol and op.",
                           labelnames=("protocol", "op"))
        reqs.inc(3, protocol="chirp", op="get")
        reqs.inc(protocol="http", op="put")
        reqs.inc(2, protocol="ftp", op="a,b")
        reg.counter("demo_bytes_total", "Bytes moved.").inc(4096)
        reg.counter("demo_untouched_total", "Never incremented.")
        reg.gauge("demo_depth", "Queue depth.").set(2.5)
        reg.gauge_callback("demo_probe", lambda: 7, "Probed at read time.")
        reg.gauge_callback("demo_broken", lambda: 1 / 0,
                           "A probe that raises.")
        lat = reg.histogram("demo_seconds", "Latency.",
                            labelnames=("protocol",),
                            buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5):
            lat.observe(value, protocol="chirp")
        lat.observe(2.0, protocol="http")
        assert render_prometheus(reg.snapshot()) == (
            '# HELP demo_requests_total Requests, by protocol and op.\n'
            '# TYPE demo_requests_total counter\n'
            'demo_requests_total{protocol="chirp",op="get"} 3\n'
            'demo_requests_total{protocol="ftp",op="a,b"} 2\n'
            'demo_requests_total{protocol="http",op="put"} 1\n'
            '# HELP demo_bytes_total Bytes moved.\n'
            '# TYPE demo_bytes_total counter\n'
            'demo_bytes_total 4096\n'
            '# HELP demo_untouched_total Never incremented.\n'
            '# TYPE demo_untouched_total counter\n'
            'demo_untouched_total 0\n'
            '# HELP demo_depth Queue depth.\n'
            '# TYPE demo_depth gauge\n'
            'demo_depth 2.5\n'
            '# HELP demo_probe Probed at read time.\n'
            '# TYPE demo_probe gauge\n'
            'demo_probe 7\n'
            '# HELP demo_broken A probe that raises.\n'
            '# TYPE demo_broken gauge\n'
            'demo_broken 0\n'
            '# HELP demo_seconds Latency.\n'
            '# TYPE demo_seconds histogram\n'
            'demo_seconds_bucket{protocol="chirp",le="0.01"} 1\n'
            'demo_seconds_bucket{protocol="chirp",le="0.1"} 2\n'
            'demo_seconds_bucket{protocol="chirp",le="1"} 3\n'
            'demo_seconds_bucket{protocol="chirp",le="+Inf"} 3\n'
            'demo_seconds_sum{protocol="chirp"} 0.555\n'
            'demo_seconds_count{protocol="chirp"} 3\n'
            'demo_seconds_bucket{protocol="http",le="0.01"} 0\n'
            'demo_seconds_bucket{protocol="http",le="0.1"} 0\n'
            'demo_seconds_bucket{protocol="http",le="1"} 0\n'
            'demo_seconds_bucket{protocol="http",le="+Inf"} 1\n'
            'demo_seconds_sum{protocol="http"} 2\n'
            'demo_seconds_count{protocol="http"} 1\n')


class TestChromeExport:
    def _recorder_with_tree(self):
        recorder = SpanRecorder()
        tracer = Tracer(recorder, service="nest")
        root = tracer.start_trace("accept", protocol="chirp")
        with root:
            with root.child("request", op="get"):
                pass
        root.end()
        return recorder

    def test_span_tree_exports_and_validates(self):
        doc = spans_to_chrome(self._recorder_with_tree(), service="nest")
        assert validate_trace(doc) == []
        events = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert set(events) == {"accept", "request"}
        assert events["request"]["args"]["parent_id"] == \
            events["accept"]["args"]["span_id"]
        assert events["request"]["tid"] == events["accept"]["tid"]

    def test_metadata_names_the_service(self):
        doc = spans_to_chrome(self._recorder_with_tree(), service="appliance")
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(e["args"]["name"] == "appliance" for e in meta)

    def test_unfinished_spans_are_skipped(self):
        recorder = SpanRecorder()
        tracer = Tracer(recorder)
        tracer.start_trace("open-forever").child("done").end()
        doc = spans_to_chrome(recorder)
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert names == ["done"]

    def test_document_is_json_serializable(self):
        doc = spans_to_chrome(self._recorder_with_tree())
        json.dumps(doc)  # must not raise


class TestValidateTrace:
    def test_rejects_non_object(self):
        assert validate_trace([]) == ["document must be a JSON object"]

    def test_rejects_unknown_phase(self):
        doc = {"traceEvents": [{"name": "x", "ph": "B", "pid": 1, "tid": 1}]}
        assert any("unknown phase" in p for p in validate_trace(doc))

    def test_rejects_negative_timestamps(self):
        doc = {"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 1,
                                "ts": -5, "dur": 1}]}
        assert any("bad ts" in p for p in validate_trace(doc))

    def test_write_trace_refuses_invalid(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace(str(tmp_path / "bad.json"), {"traceEvents": 3})

    def test_write_trace_round_trips(self, tmp_path):
        recorder = SpanRecorder()
        Tracer(recorder).start_trace("a").end()
        doc = spans_to_chrome(recorder)
        path = tmp_path / "trace.json"
        write_trace(str(path), doc)
        assert json.loads(path.read_text()) == doc


class TestSimTrace:
    def test_kernel_trace_exports_and_validates(self):
        from repro.sim import Environment

        env = Environment()
        trace = env.enable_trace()

        def worker(env):
            yield env.timeout(1.0)
            yield env.timeout(2.0)

        env.process(worker(env))
        env.run()
        doc = sim_trace_to_chrome(trace)
        assert validate_trace(doc) == []
        kinds = {e["cat"] for e in doc["traceEvents"] if "cat" in e}
        assert "process" in kinds  # the worker's lifetime row
        assert "event" in kinds  # dispatch instants
