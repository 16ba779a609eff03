"""End-to-end tracing: one Chirp request, the whole span tree.

The acceptance path of the telemetry layer: a live request must leave
an accept -> auth -> request -> queue/transfer -> storage span tree
with measured durations, visible in the Prometheus exposition *and*
exportable as a valid Chrome trace document.
"""

from __future__ import annotations

import time

import pytest

from repro.client import ChirpClient
from repro.nest.auth import CertificateAuthority
from repro.nest.config import NestConfig
from repro.nest.server import NestServer
from repro.obs.export_chrome import spans_to_chrome, validate_trace

PAYLOAD = b"traced" * 4096  # 24 KiB: enough to cross the transfer path


@pytest.fixture
def server():
    ca = CertificateAuthority("Trace Test CA")
    srv = NestServer(NestConfig(name="trace-nest"), ca=ca)
    srv.obs.tracer.trace_every = 1
    srv.start()
    srv.storage.mkdir("admin", "/data")
    srv.storage.acl_set("admin", "/data", "*", "rliwd")
    yield srv
    srv.stop()


def _run_traced_request(server):
    """One authenticated Chirp put + get, waited until the connection
    span closes, returning every span of that connection's trace."""
    with ChirpClient(*server.endpoint("chirp")) as client:
        client.authenticate(server.ca.issue("/CN=tracer"))
        client.put("/data/traced.bin", PAYLOAD)
        assert client.get("/data/traced.bin") == PAYLOAD
    deadline = time.monotonic() + 5.0
    recorder = server.obs.recorder
    while time.monotonic() < deadline:
        roots = [s for s in recorder.spans() if s.name == "accept"]
        if roots:
            return recorder.trace(roots[0].trace_id)
        time.sleep(0.01)
    raise AssertionError("connection span never closed")


class TestSpanTree:
    def test_request_yields_the_full_tree(self, server):
        spans = _run_traced_request(server)
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        # One connection root, carrying the authenticated user.
        (root,) = by_name["accept"]
        assert root.attributes["protocol"] == "chirp"
        assert root.attributes["user"] == "/CN=tracer"
        # Timed layers: parse, auth, per-request, queue-wait, transfer,
        # storage -- all in the same trace, all with durations.
        for name in ("parse", "auth", "request", "queue", "transfer",
                     "storage"):
            assert name in by_name, f"no {name!r} span recorded"
        for span in spans:
            assert span.ended
            assert span.duration >= 0.0
            assert span.trace_id == root.trace_id

    def test_requests_hang_off_the_connection_root(self, server):
        spans = _run_traced_request(server)
        (root,) = [s for s in spans if s.name == "accept"]
        requests = [s for s in spans if s.name == "request"]
        ops = {s.attributes["op"] for s in requests}
        assert {"put", "get"} <= ops
        for request in requests:
            assert request.parent_id == root.span_id
            assert request.status == "ok"

    def test_queue_wait_and_transfer_have_measured_durations(self, server):
        spans = _run_traced_request(server)
        queues = [s for s in spans if s.name == "queue"]
        transfers = [s for s in spans if s.name == "transfer"]
        assert queues and transfers
        for span in queues + transfers:
            assert span.duration is not None
            assert span.duration >= 0.0
            assert span.parent_id is not None

    def test_storage_spans_carry_the_operation(self, server):
        spans = _run_traced_request(server)
        ops = {s.attributes.get("op") for s in spans if s.name == "storage"}
        assert ops  # approve/execute commits were traced


class TestExportSurfaces:
    def test_request_lands_in_prometheus_exposition(self, server):
        _run_traced_request(server)
        text = server.obs.render_prometheus()
        assert 'nest_connections_total{protocol="chirp"} 1' in text
        assert 'protocol="chirp",op="put",outcome="ok"' in text
        assert 'protocol="chirp",op="get",outcome="ok"' in text
        assert "nest_request_seconds_bucket" in text
        assert "nest_queue_wait_seconds_bucket" in text
        assert f'nest_transfer_bytes_total{{protocol="chirp"}} '\
               f"{len(PAYLOAD) * 2}" in text

    def test_trace_exports_as_valid_chrome_json(self, server):
        _run_traced_request(server)
        doc = spans_to_chrome(server.obs.recorder, service="trace-nest")
        assert validate_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"accept", "request", "queue", "transfer",
                "storage"} <= names

    def test_error_requests_count_as_errors(self, server):
        from repro.client.chirp import ChirpError

        with ChirpClient(*server.endpoint("chirp")) as client:
            with pytest.raises(ChirpError):
                client.get("/data/never-created")
        text = server.obs.render_prometheus()
        assert 'op="get",outcome="error"' in text
