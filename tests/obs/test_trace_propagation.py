"""Distributed trace propagation: the context crosses the wire.

The tentpole contract of the fleet-telemetry layer: a client running
inside a span sends its trace context with every request -- Chirp as a
tagged trailing ``tc=`` argument, HTTP as the ``X-Repro-Trace`` header
-- and the serving appliance adopts it, so the server-side request
span carries the *caller's* trace id with the caller's span as parent.
Untraced clients and malformed tokens must degrade to exactly the
pre-PR behaviour (fresh server-local trace), never to an error.
"""

from __future__ import annotations

import io
import time

import pytest

from repro.client import ChirpClient
from repro.client.http import HttpClient
from repro.client.retry import RetryPolicy
from repro.faults import FaultPlan
from repro.nest.config import NestConfig
from repro.nest.server import NestServer
from repro.obs.spans import (
    SpanRecorder,
    Tracer,
    format_trace_context,
    parse_trace_context,
)
from repro.protocols import chirp, http
from repro.protocols.common import Request, RequestType


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------
class TestWireFormat:
    def test_round_trip(self):
        span = Tracer(service="wiretest").start_trace("op")
        token = format_trace_context(span)
        assert parse_trace_context(token) == (span.trace_id, span.span_id)

    @pytest.mark.parametrize("bad", [
        None, 7, "", "no-colon", ":leading", "trail:", "sp ace:abc",
        "ok:bad!chars", "x" * 200 + ":abc", "t:" + "f" * 33,
    ])
    def test_malformed_tokens_degrade_to_none(self, bad):
        assert parse_trace_context(bad) is None

    def test_chirp_carries_tagged_trailing_argument(self):
        req = Request(rtype=RequestType.GET, path="/a b/c",
                      params={"trace": "nest-000001:0000002a"})
        wire = chirp.encode_request(req)
        assert "tc=nest-000001:0000002a" in wire
        parsed = chirp.decode_request(wire)
        assert parsed.params["trace"] == "nest-000001:0000002a"
        assert parsed.path == "/a b/c"

    def test_chirp_untraced_request_has_no_token(self):
        wire = chirp.encode_request(Request(rtype=RequestType.GET,
                                            path="/x"))
        assert "tc=" not in wire
        assert chirp.decode_request(wire).params.get("trace") is None

    def test_chirp_lot_create_owner_stays_unambiguous(self):
        # An optional trailing positional (lot_create's owner) must
        # survive next to the trace token: the tag disambiguates.
        req = Request(rtype=RequestType.LOT_CREATE, length=4096,
                      params={"duration": 60.0, "owner": "alice",
                              "trace": "t-1:abc"})
        parsed = chirp.decode_request(chirp.encode_request(req))
        assert parsed.params["owner"] == "alice"
        assert parsed.params["trace"] == "t-1:abc"

    def test_http_header_round_trip(self):
        req = Request(rtype=RequestType.GET, path="/f",
                      params={"trace": "svc-000002:deadbeef"})
        buf = io.BytesIO()
        http.write_request(buf, req)
        buf.seek(0)
        parsed = http.read_request(buf)
        headers = parsed.params["headers"]
        assert headers[http.TRACE_HEADER.lower()] == "svc-000002:deadbeef"


# ---------------------------------------------------------------------------
# live adoption
# ---------------------------------------------------------------------------
@pytest.fixture
def server():
    srv = NestServer(NestConfig(name="prop-nest",
                                protocols=("chirp", "http")))
    srv.obs.tracer.trace_every = 1
    srv.start()
    srv.storage.mkdir("admin", "/data")
    srv.storage.acl_set("admin", "/data", "*", "rliwd")
    with ChirpClient(*srv.endpoint("chirp")) as seed:
        seed.put("/data/f.bin", b"payload" * 512)
    yield srv
    srv.stop()


def _server_request_spans(server, trace_id, timeout=5.0):
    """Request spans the server recorded under the client's trace."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        spans = [s for s in server.obs.recorder.spans()
                 if s.name == "request" and s.trace_id == trace_id]
        if spans:
            return spans
        time.sleep(0.01)
    return []


class TestLiveAdoption:
    def test_chirp_request_joins_the_client_trace(self, server):
        recorder = SpanRecorder()
        root = Tracer(recorder=recorder, service="cli").start_trace("job")
        with root:
            with ChirpClient(*server.endpoint("chirp")) as client:
                assert client.get("/data/f.bin") == b"payload" * 512
        spans = _server_request_spans(server, root.trace_id)
        assert spans, "server never adopted the client's trace"
        request = spans[-1]
        # The parent is the client-side attempt span of the same trace.
        attempts = [s for s in recorder.spans() if s.name == "attempt"]
        assert request.parent_id in {s.span_id for s in attempts}
        assert request.attributes["conn_trace"] != root.trace_id

    def test_http_request_joins_the_client_trace(self, server):
        recorder = SpanRecorder()
        root = Tracer(recorder=recorder, service="cli").start_trace("job")
        with root:
            with HttpClient(*server.endpoint("http")) as client:
                assert client.get("/data/f.bin") == b"payload" * 512
        spans = _server_request_spans(server, root.trace_id)
        assert spans, "server never adopted the client's trace"
        attempts = [s for s in recorder.spans() if s.name == "attempt"]
        assert spans[-1].parent_id in {s.span_id for s in attempts}

    def test_untraced_client_gets_a_server_local_trace(self, server):
        with ChirpClient(*server.endpoint("chirp")) as client:
            assert client.get("/data/f.bin") == b"payload" * 512
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            spans = [s for s in server.obs.recorder.spans()
                     if s.name == "request"]
            if spans:
                break
            time.sleep(0.01)
        assert spans
        # No injected context: the request span stays on the server's
        # own connection trace (which names the server's service).
        assert spans[-1].trace_id.startswith("prop-nest-")


# ---------------------------------------------------------------------------
# retries: one trace, sibling attempt spans
# ---------------------------------------------------------------------------
@pytest.mark.faults
class TestRetryAttempts:
    def test_reset_mid_request_yields_sibling_attempts(self):
        # Connection 1 seeds the file untraced; connection 2 (the
        # traced client) dies mid-response; connection 3 is the retry.
        plan = FaultPlan.reset_once(connection=2, op="write")
        srv = NestServer(NestConfig(name="retry-nest",
                                    protocols=("chirp",)), faults=plan)
        srv.obs.tracer.trace_every = 1
        srv.start()
        try:
            srv.storage.mkdir("admin", "/data")
            srv.storage.acl_set("admin", "/data", "*", "rliwd")
            with ChirpClient(*srv.endpoint("chirp")) as seed:
                seed.put("/data/r.bin", b"retry" * 256)
            recorder = SpanRecorder()
            root = Tracer(recorder=recorder,
                          service="cli").start_trace("job")
            retry = RetryPolicy(max_attempts=4, base_delay=0.01,
                                max_delay=0.05, deadline=5.0)
            with root:
                with ChirpClient(*srv.endpoint("chirp"),
                                 retry=retry) as client:
                    assert client.get("/data/r.bin") == b"retry" * 256
            attempts = [s for s in recorder.spans()
                        if s.name == "attempt"
                        and "get" in str(s.attributes.get("op", ""))]
            assert len(attempts) >= 2, "the reset never forced a retry"
            # Same trace, same parent (siblings), distinct span ids,
            # ordinals counting up, first attempt marked failed.
            assert {s.trace_id for s in attempts} == {root.trace_id}
            assert {s.parent_id for s in attempts} == {root.span_id}
            assert len({s.span_id for s in attempts}) == len(attempts)
            ordinals = sorted(s.attributes["attempt"] for s in attempts)
            assert ordinals == list(range(1, len(attempts) + 1))
            assert attempts[0].status == "error"
            assert attempts[-1].status == "ok"
        finally:
            srv.stop()
