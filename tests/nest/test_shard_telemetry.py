"""Shard telemetry: workers ship snapshots, the parent serves the fleet.

A live two-worker group (real spawned processes) under a short
telemetry interval.  The parent's management endpoint must expose the
merged view -- summed counters, shard-labelled gauges, a merged Chrome
trace with one pid per worker, and per-shard SLO reports -- while
worker health is read from those same pushes, and stop() must tear it
all down without leaking parent-side threads.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.client.http import HttpClient
from repro.nest.config import NestConfig
from repro.nest.shard import ShardGroup, shard_root
from repro.obs.export_chrome import validate_trace
from repro.obs.spans import SpanRecorder, Tracer


@pytest.fixture(scope="module")
def group():
    config = NestConfig(name="tele", protocols=("chirp", "http"),
                        telemetry_interval=0.1)
    with ShardGroup(2, config=config) as grp:
        # Give every worker traced traffic so both ship request spans.
        tracer = Tracer(recorder=SpanRecorder(), service="tele-test")
        root = tracer.start_trace("fixture.traffic")
        with root:
            for index in range(2):
                with HttpClient(*grp.direct_http_endpoint(index)) as c:
                    path = f"{shard_root(index)}/t.bin"
                    c.put(path, b"tele" * 128)
                    assert c.get(path) == b"tele" * 128
        grp.fixture_trace_id = root.trace_id
        yield grp


def _fetch(group, path, timeout=10.0):
    base = f"http://{group.mgmt.host}:{group.mgmt.port}"
    return urllib.request.urlopen(base + path, timeout=timeout).read()


def _await_metrics(group, *needles, timeout=10.0):
    deadline = time.monotonic() + timeout
    text = ""
    while time.monotonic() < deadline:
        text = _fetch(group, "/metrics").decode()
        if all(n in text for n in needles):
            return text
        time.sleep(0.1)
    return text


class TestFleetEndpoint:
    def test_metrics_merge_counters_and_label_gauges(self, group):
        text = _await_metrics(group, 'shard="0"', 'shard="1"',
                              "nest_connections_total")
        assert 'shard="0"' in text and 'shard="1"' in text, \
            "gauges lost their per-shard series"
        # Counters merge into a single summed series -- never
        # shard-labelled, or rate() over the fleet would double-count.
        for line in text.splitlines():
            if line.startswith("nest_connections_total"):
                assert 'shard=' not in line

    def test_trace_merges_one_pid_per_worker(self, group):
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            doc = json.loads(_fetch(group, "/trace"))
            pids = {e["pid"] for e in doc["traceEvents"]
                    if e.get("ph") == "X"}
            if len(pids) >= 2:
                break
            time.sleep(0.1)
        assert len(pids) >= 2, "spans from both workers never arrived"
        assert pids == {w.pid for w in group.workers}
        assert validate_trace(doc) == []

    def test_worker_spans_carry_the_client_trace(self, group):
        deadline = time.monotonic() + 10.0
        traced = []
        while time.monotonic() < deadline and not traced:
            doc = json.loads(_fetch(group, "/trace"))
            traced = [e for e in doc["traceEvents"]
                      if e.get("ph") == "X"
                      and e.get("args", {}).get("trace_id")
                      == group.fixture_trace_id]
            time.sleep(0.1)
        assert traced, "no worker span joined the fixture's trace"

    def test_slo_reports_per_shard(self, group):
        deadline = time.monotonic() + 10.0
        report = {}
        while time.monotonic() < deadline:
            report = json.loads(_fetch(group, "/slo"))
            if set(report) == {"0", "1"}:
                break
            time.sleep(0.1)
        assert set(report) == {"0", "1"}
        for shard in report.values():
            assert "degraded" in shard
            assert "objectives" in shard

    def test_health_survives_concurrent_telemetry(self, group):
        # Health is read from the pushes the collector keeps ingesting,
        # never asked over the pipe, so it answers every time.
        for _ in range(5):
            reports = group.health()
            assert sorted(r["index"] for r in reports) == [0, 1]
            assert all(r["alive"] for r in reports)


def test_stop_drains_without_leaking_threads():
    before = set(threading.enumerate())
    config = NestConfig(name="tele-stop", telemetry_interval=0.1)
    grp = ShardGroup(2, config=config)
    grp.start()
    # Let at least one telemetry cycle land before tearing down.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and not grp.fleet_snapshots():
        time.sleep(0.05)
    assert grp.fleet_snapshots(), "no telemetry arrived before stop"
    grp.stop()
    leaked = [t for t in threading.enumerate()
              if t not in before and t.is_alive()]
    assert not leaked, f"shard teardown leaked threads: {leaked}"


def test_health_right_after_start_comes_from_the_ready_push():
    """The first push rides on ``ready``: with no periodic push due for
    a minute, health straight after start() already has each worker's
    ports and connection count."""
    config = NestConfig(name="tele-ready", telemetry_interval=60.0)
    with ShardGroup(2, config=config) as grp:
        reports = grp.health()
        assert sorted(r["index"] for r in reports) == [0, 1]
        for report in reports:
            assert report["alive"]
            assert report["pid"] == grp.workers[report["index"]].pid
            assert {"chirp", "http"} <= set(report["ports"])
            assert report["connections_total"] == 0
            assert report["active_connections"] == 0
