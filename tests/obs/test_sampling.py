"""Head sampling on the live server: the telemetry budget and its
blind spots, counted rather than timed.

At the default ``Tracer.trace_every`` one request in 32 records its
span tree; errors, slow requests and requests carrying a wire trace
context are recorded regardless; and ``/metrics`` counts every request
whatever the setting.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.client import ChirpClient
from repro.client.errors import ClientError
from repro.client.http import HttpClient
from repro.nest.auth import CertificateAuthority
from repro.nest.config import NestConfig
from repro.nest.server import NestServer
from repro.obs import spans as spans_mod
from repro.obs.metrics import reset_global_registry
from repro.obs.spans import SpanRecorder, Tracer

PAYLOAD = b"sampled" * 146  # ~1 KiB


def _server(trace_every: int = Tracer.trace_every) -> NestServer:
    srv = NestServer(NestConfig(name="sampling-nest",
                                protocols=("chirp", "http"),
                                management=False))
    srv.obs.tracer.trace_every = trace_every
    srv.start()
    srv.storage.mkdir("admin", "/data")
    srv.storage.acl_set("admin", "/data", "*", "rliwd")
    return srv


def _seed(srv: NestServer) -> None:
    """The file the traffic reads, written without a request."""
    ticket = srv.storage.approve_put("anonymous", "/data/f", len(PAYLOAD))
    ticket.stream.write(PAYLOAD)
    ticket.settle(len(PAYLOAD))


def _requests_total(srv: NestServer) -> float:
    return srv.obs.registry.get("nest_requests_total").total()


def _request_spans(srv: NestServer) -> list:
    return [s for s in srv.obs.recorder.spans() if s.name == "request"]


def _ok_traffic(srv: NestServer, n: int) -> None:
    """``n`` successful requests: half Chirp stats, half HTTP GETs."""
    with ChirpClient(*srv.endpoint("chirp")) as chirp:
        for _ in range(n // 2):
            chirp.stat("/data/f")
    with HttpClient(*srv.endpoint("http")) as http:
        for _ in range(n - n // 2):
            assert http.get("/data/f") == PAYLOAD


class TestBudget:
    def test_default_setting_records_one_tree_in_32(self):
        assert Tracer.trace_every == 32
        srv = _server()
        try:
            _seed(srv)
            _ok_traffic(srv, 64)
        finally:
            srv.stop()  # drains: every request scope has exited
        served = _requests_total(srv)
        assert served >= 64
        requests = _request_spans(srv)
        # a deterministic counter, first request in: ceil(served / 32)
        assert len(requests) == -(-int(served) // 32)
        assert len(requests) <= 64 // 32 + 1  # + the Chirp quit
        assert all("sampled" not in s.attributes for s in requests)
        assert all(s.status == "ok" for s in requests)

    def test_a_sampled_out_request_creates_no_span(self, monkeypatch):
        created: list[str] = []
        init = spans_mod.Span.__init__

        def counting_init(self, trace_id, span_id, name, *args, **kwargs):
            created.append(name)
            init(self, trace_id, span_id, name, *args, **kwargs)

        monkeypatch.setattr(spans_mod.Span, "__init__", counting_init)
        srv = _server()
        try:
            _seed(srv)
            _ok_traffic(srv, 64)
        finally:
            srv.stop()
        recorded = [s.name for s in srv.obs.recorder.spans()]
        # every span that was made was a sampled tree's, and recorded
        assert sorted(created) == sorted(recorded)
        assert created.count("request") == len(_request_spans(srv))
        assert created.count("storage") <= created.count("request")

    def test_trace_every_one_records_every_tree(self):
        srv = _server(trace_every=1)
        try:
            _seed(srv)
            _ok_traffic(srv, 8)
        finally:
            srv.stop()
        assert len(_request_spans(srv)) == _requests_total(srv)


class TestAlwaysKept:
    def test_in_band_errors_are_recorded_unsampled(self):
        srv = _server()
        try:
            _seed(srv)
            _ok_traffic(srv, 4)  # the first request took the sample
            with ChirpClient(*srv.endpoint("chirp")) as chirp:
                with pytest.raises(ClientError):
                    chirp.get("/data/missing")
            with HttpClient(*srv.endpoint("http")) as http:
                with pytest.raises(ClientError):
                    http.get("/data/missing")
        finally:
            srv.stop()
        errors = [s for s in _request_spans(srv) if s.status == "error"]
        assert {s.attributes["protocol"] for s in errors} == {"chirp",
                                                               "http"}
        for span in errors:
            assert span.attributes["sampled"] is False
            assert span.attributes["op"] == "get"
            assert span.attributes["path"] == "/data/missing"
            assert span.duration >= 0.0
        # kept errors are the request span alone: nothing below it
        kept_ids = {s.span_id for s in errors}
        assert not [s for s in srv.obs.recorder.spans()
                    if s.parent_id in kept_ids]

    def test_a_parse_error_is_recorded_unsampled(self):
        srv = _server()
        try:
            _seed(srv)
            _ok_traffic(srv, 2)
            with socket.create_connection(srv.endpoint("chirp"),
                                          timeout=5.0) as sock:
                sock.sendall(b"frobnicate /x\n")
                assert sock.recv(4096)
        finally:
            srv.stop()
        parses = [s for s in srv.obs.recorder.spans()
                  if s.name == "parse" and s.status == "error"]
        assert len(parses) == 1
        assert parses[0].attributes["sampled"] is False

    def test_slow_requests_are_recorded_unsampled(self):
        srv = _server()
        srv.slow_request_s = 0.0  # every request is "slow"
        try:
            _seed(srv)
            _ok_traffic(srv, 6)
        finally:
            srv.stop()
        requests = _request_spans(srv)
        assert len(requests) == _requests_total(srv)
        kept = [s for s in requests if "sampled" in s.attributes]
        assert len(kept) == len(requests) - 1  # all but the sampled one
        assert all(s.status == "ok" for s in kept)

    def test_a_kept_request_carries_the_identity_it_arrived_with(self):
        # Kept after the fact, an ``auth`` request is labelled as it was
        # at entry -- anonymous -- exactly as a sampled one would be.
        ca = CertificateAuthority("Sampling Test CA")
        srv = NestServer(NestConfig(name="sampling-auth",
                                    protocols=("chirp",), management=False),
                         ca=ca)
        srv.start()
        srv.slow_request_s = 0.0
        try:
            with ChirpClient(*srv.endpoint("chirp")) as chirp:
                chirp.stat("/")  # the first request takes the sample
                chirp.authenticate(ca.issue("/CN=kept"))
                chirp.stat("/")
        finally:
            srv.stop()
        kept = [s for s in _request_spans(srv)
                if s.attributes.get("sampled") is False]
        classes = [(s.attributes["op"], s.attributes["user_class"])
                   for s in kept]
        assert ("auth", "anonymous") in classes
        assert ("stat", "authenticated") in classes

    def test_a_trace_context_gets_the_full_tree(self):
        srv = _server()
        recorder = SpanRecorder()
        root = Tracer(recorder=recorder, service="caller").start_trace("job")
        try:
            _seed(srv)
            _ok_traffic(srv, 4)
            with root:
                with ChirpClient(*srv.endpoint("chirp")) as chirp:
                    chirp.put("/data/traced", PAYLOAD)
                    assert chirp.get("/data/traced") == PAYLOAD
        finally:
            srv.stop()
        tree = [s for s in srv.obs.recorder.spans()
                if s.trace_id == root.trace_id]
        names = {s.name for s in tree}
        assert {"request", "storage", "queue", "transfer"} <= names
        ops = {s.attributes["op"] for s in tree if s.name == "request"}
        assert {"put", "get"} <= ops
        assert all("sampled" not in s.attributes for s in tree)


def _metrics_after_identical_traffic(trace_every: int) -> dict:
    registry = reset_global_registry()
    srv = _server(trace_every=trace_every)
    try:
        _seed(srv)
        srv.storage.mkdir("admin", "/locked")
        srv.storage.approve_put("admin", "/locked/x", 0).settle(0)
        srv.storage.acl_set("admin", "/locked", "*", "")
        with ChirpClient(*srv.endpoint("chirp")) as chirp, \
                HttpClient(*srv.endpoint("http")) as http:
            for i in range(40):
                chirp.stat("/data/f")
                chirp.put(f"/data/p{i % 3}", PAYLOAD)
                assert http.get("/data/f") == PAYLOAD
                for fail in (lambda: chirp.get("/data/missing"),
                             lambda: chirp.listdir("/locked"),
                             lambda: http.get("/locked/x")):
                    with pytest.raises(ClientError):
                        fail()
    finally:
        srv.stop()
    reg = srv.obs.registry
    seconds = reg.get("nest_request_seconds").series()
    return {
        "requests": reg.get("nest_requests_total").series(),
        "request_seconds_count": {k: v["count"] for k, v in seconds.items()},
        "storage_ops": reg.get("nest_storage_ops_total").series(),
        "acl_checks": registry.get("repro_acl_checks_total").series(),
    }


class TestMetricFidelity:
    def test_counts_are_identical_at_every_setting(self):
        everything = _metrics_after_identical_traffic(1)
        sampled = _metrics_after_identical_traffic(32)
        assert sampled == everything
        requests = everything["requests"]
        assert requests[("chirp", "stat", "ok")] == 40
        assert requests[("chirp", "get", "error")] == 40
        assert requests[("http", "get", "error")] == 40
        assert everything["acl_checks"][("denied",)] == 80


def test_head_sample_is_a_deterministic_counter():
    tracer = Tracer()
    tracer.trace_every = 4
    assert [tracer.head_sample() for _ in range(9)] == [
        True, False, False, False, True, False, False, False, True]


def test_unsampled_marker_keeps_only_status():
    marker = spans_mod.UnsampledSpan()
    with marker:
        assert spans_mod.current_span() is marker
        assert spans_mod.maybe_span("storage") is spans_mod.NULL_SPAN
        assert spans_mod.current_trace_context() is None
        spans_mod.annotate("retries")
        marker.end(status="error")
    assert spans_mod.current_span() is None
    assert marker.status == "error"


def test_span_start_is_wall_clock():
    before = time.time()
    span = Tracer().start_trace("t")
    assert before - 0.5 <= span.start <= time.time() + 0.5
