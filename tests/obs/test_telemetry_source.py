"""One source of telemetry: the registry, and documents computed from it.

What a client sends must not mint metric series (a junk verb is one
``unknown`` op, never its own label value), the verb tables fit the
request counter's series bound, and every document that reads the SLO
engine evaluates it exactly once.
"""

from __future__ import annotations

import json
import socket

from repro.client import ChirpClient
from repro.nest import shard
from repro.nest.config import NestConfig
from repro.nest.handlers import (
    FtpHandler,
    GridFtpHandler,
    IbpHandler,
    NfsHandler,
)
from repro.nest.server import NestServer
from repro.protocols.common import RequestType
from tests.obs.test_mgmt import scrape


def _lines(sock: socket.socket):
    return sock.makefile("rb")


class TestJunkVerbs:
    def test_junk_ftp_and_ibp_verbs_mint_no_series(self):
        srv = NestServer(NestConfig(name="junk-nest",
                                    protocols=("chirp", "ftp", "ibp"),
                                    management=False))
        srv.start()
        try:
            srv.storage.mkdir("admin", "/data")
            srv.storage.acl_set("admin", "/data", "*", "rliwd")
            # A request is counted as its scope exits, just after its
            # reply: the reply to the next line proves it was.
            with socket.create_connection(srv.endpoint("ftp")) as ftp:
                replies = _lines(ftp)
                replies.readline()  # 220 greeting
                for _ in range(2):
                    ftp.sendall(b"NOOP\r\n")
                    replies.readline()
                before = srv.advertisement().eval("FtpErrorRate")
                assert before == 0.0
                for i in range(300):
                    ftp.sendall(f"XJUNK{i}\r\n".encode())
                    assert replies.readline().startswith(b"502")
                ftp.sendall(b"QUIT\r\n")
                replies.readline()
            with socket.create_connection(srv.endpoint("ibp")) as ibp:
                replies = _lines(ibp)
                for i in range(300):
                    ibp.sendall(f"junk{i}\r\n".encode())
                    assert replies.readline().startswith(b"err")
                ibp.sendall(b"quit\r\n")
                replies.readline()
            with ChirpClient(*srv.endpoint("chirp")) as chirp:
                for i in range(20):
                    chirp.put(f"/data/f{i}", b"ok" * 64)
                    chirp.get(f"/data/f{i}")
            requests = srv.obs.registry.get("nest_requests_total")
            assert requests.dropped_series == 0
            assert requests.value(protocol="ftp", op="unknown",
                                  outcome="ok") == 300
            assert requests.value(protocol="ibp", op="unknown",
                                  outcome="ok") == 300
            assert srv.slo.degraded() is False
            assert srv.advertisement().eval("FtpErrorRate") == before
        finally:
            srv.stop()

    def test_verb_tables_fit_the_request_counter(self):
        """protocols x ops x outcomes stays under ``max_series``, so no
        client traffic can push the counter into its overflow row."""
        ops = {
            # Chirp and HTTP label a request by its decoded type; Chirp
            # also counts a line it could not parse.
            "chirp": {t.value for t in RequestType} | {"parse"},
            "http": {t.value for t in RequestType},
            "ftp": {n[4:] for n in dir(FtpHandler) if n.startswith("cmd_")}
            | {"unknown"},
            "gridftp": {n[4:] for n in dir(GridFtpHandler)
                        if n.startswith("cmd_")} | {"unknown"},
            "nfs": {op for op, _proc in NfsHandler._PROCEDURES.values()}
            | {"mount", "other"},
            "ibp": set(IbpHandler._VERBS) | {"unknown"},
        }
        outcomes = ("ok", "error")
        srv = NestServer(NestConfig(name="audit-nest", management=False))
        try:
            bound = srv.obs.registry.get("nest_requests_total").max_series
        finally:
            srv.transfers.shutdown()
        assert bound == 256
        assert sum(len(o) for o in ops.values()) * len(outcomes) <= bound


class TestOneEvaluationPerDocument:
    @staticmethod
    def _count_samples(srv: NestServer) -> list:
        calls = []
        sample = srv.slo.sample

        def counted(snapshot=None):
            calls.append(1)
            return sample(snapshot)

        srv.slo.sample = counted
        return calls

    def test_advertisement_and_slo_scrape_evaluate_once(self):
        srv = NestServer(NestConfig(name="once-nest", protocols=("chirp",)))
        srv.start()
        try:
            calls = self._count_samples(srv)
            srv.advertisement()
            assert len(calls) == 1
            _status, body = scrape(srv.ports["mgmt"], "/slo")
            assert "objectives" in json.loads(body)
            assert len(calls) == 2
            scrape(srv.ports["mgmt"], "/metrics")
            assert len(calls) == 3
        finally:
            srv.stop()

    def test_shipped_push_evaluates_once(self):
        class Pipe:
            def __init__(self):
                self.sent = []

            def send(self, msg):
                self.sent.append(msg)

        srv = NestServer(NestConfig(name="push-nest", protocols=("chirp",),
                                    management=False))
        try:
            calls = self._count_samples(srv)
            pipe = Pipe()
            shard._ship_telemetry(srv, 0, pipe)
            assert len(calls) == 1
            (msg,) = pipe.sent
            assert msg["type"] == "telemetry"
            assert {"metrics", "slo", "spans"} <= set(msg)
            # The shipped gauges are the shipped report's.
            budget = msg["metrics"]["slo_error_budget_remaining"]["series"]
            for status in msg["slo"]["objectives"]:
                assert budget[(status["objective"],)] == \
                    status["error_budget_remaining"]
        finally:
            srv.transfers.shutdown()
