"""The management endpoint under load, faults, and shutdown.

The scrape surface must stay consistent while the data path is busy:
concurrent scrapes during 32 in-flight transfers with an active fault
plan, and a scrape racing a graceful ``stop(drain_timeout=...)`` --
and the endpoint must never leak a thread.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.client import ChirpClient
from repro.faults import FaultPlan
from repro.nest.config import NestConfig
from repro.nest.server import NestServer
from repro.obs.export_chrome import spans_to_chrome, validate_trace
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.mgmt import ManagementEndpoint
from repro.obs.spans import SpanRecorder


def scrape(port: int, path: str = "/metrics",
           host: str = "127.0.0.1") -> tuple[str, bytes]:
    """One raw HTTP/1.0 GET; returns (status line, body)."""
    with socket.create_connection((host, port), timeout=5.0) as conn:
        conn.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        chunks = []
        while True:
            data = conn.recv(65536)
            if not data:
                break
            chunks.append(data)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return head.split(b"\r\n", 1)[0].decode("latin-1"), body


def mgmt_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate()
            if t.name.startswith("obs-mgmt")]


class TestEndpointUnit:
    @pytest.fixture
    def endpoint(self):
        registry = MetricsRegistry()
        registry.counter("demo_total", "demo").inc(3)
        ep = ManagementEndpoint(
            metrics=registry.snapshot,
            health=HealthMonitor(registry).snapshot,
            trace=lambda: spans_to_chrome(SpanRecorder(), service="unit"),
            ad=lambda: {"ThroughputMBps": 1.5},
        ).start()
        yield ep
        ep.stop()

    def test_metrics_document(self, endpoint):
        status, body = scrape(endpoint.port, "/metrics")
        assert " 200 " in f" {status} "
        assert b"demo_total 3" in body

    def test_healthz_document(self, endpoint):
        _status, body = scrape(endpoint.port, "/healthz")
        doc = json.loads(body)
        assert set(doc) == {"throughput_bps", "requests", "errors",
                            "error_rates", "probes"}

    def test_trace_document_validates(self, endpoint):
        _status, body = scrape(endpoint.port, "/trace")
        assert validate_trace(json.loads(body)) == []

    def test_ad_document(self, endpoint):
        _status, body = scrape(endpoint.port, "/ad")
        assert json.loads(body) == {"ThroughputMBps": 1.5}

    def test_unknown_path_is_404(self, endpoint):
        status, _body = scrape(endpoint.port, "/nope")
        assert "404" in status

    def test_stop_joins_every_scrape_thread(self, endpoint):
        for _ in range(5):
            scrape(endpoint.port, "/metrics")
        endpoint.stop()
        assert endpoint.active_scrapes() == 0
        assert not [t for t in mgmt_threads() if t.is_alive()]


class TestStatsCli:
    def test_every_document_the_index_lists_can_be_asked_for(self, capsys):
        """``repro stats HOST:PORT --path P`` for each path the
        endpoint's own index line names -- ``/slo`` used to be refused
        by argparse before any socket was opened."""
        from repro.cli import main

        config = NestConfig(name="stats-cli", protocols=("chirp",))
        with NestServer(config) as server:
            port = server.ports["mgmt"]
            _status, index = scrape(port, "/")
            paths = index.decode().splitlines()[1].split()
            assert "/slo" in paths
            for path in paths:
                assert main(["stats", f"127.0.0.1:{port}",
                             "--path", path]) == 0
                body = capsys.readouterr().out
                if path == "/slo":
                    assert {"degraded", "objectives"} <= set(json.loads(body))


class TestScrapesUnderLoad:
    N_TRANSFERS = 32

    def test_concurrent_scrapes_with_inflight_transfers_and_faults(self):
        # Stall a handful of connections so transfers genuinely overlap,
        # and keep the fault plan active while scraping.
        plan = FaultPlan.stall(0.3, op="read",
                               connections=range(1, 5), times=4)
        config = NestConfig(name="load-nest", protocols=("chirp",),
                            transfer_workers=4)
        server = NestServer(config, faults=plan)
        server.start()
        try:
            server.storage.mkdir("admin", "/data")
            server.storage.acl_set("admin", "/data", "*", "rliwd")
            payload = b"m" * 65536
            errors: list[Exception] = []

            def put(i: int) -> None:
                try:
                    with ChirpClient(*server.endpoint("chirp")) as c:
                        c.put(f"/data/f{i}.bin", payload)
                except Exception as exc:  # faulted connection: fine
                    errors.append(exc)

            workers = [threading.Thread(target=put, args=(i,))
                       for i in range(self.N_TRANSFERS)]
            for w in workers:
                w.start()

            scrape_errors: list[Exception] = []
            bodies: list[bytes] = []

            def scraper() -> None:
                try:
                    for path in ("/metrics", "/healthz", "/trace", "/ad"):
                        status, body = scrape(server.ports["mgmt"], path)
                        assert " 200 " in f" {status} "
                        bodies.append(body)
                except Exception as exc:
                    scrape_errors.append(exc)

            scrapers = [threading.Thread(target=scraper) for _ in range(4)]
            for s in scrapers:
                s.start()
            for s in scrapers:
                s.join(timeout=10)
            for w in workers:
                w.join(timeout=10)

            assert not scrape_errors
            assert len(bodies) == 16
            # Each scrape was a consistent snapshot: metrics parse as
            # exposition text, JSON documents parse as JSON.
            status, body = scrape(server.ports["mgmt"], "/metrics")
            assert b"nest_transfer_bytes_total" in body
            health = json.loads(scrape(server.ports["mgmt"],
                                       "/healthz")[1])
            assert health["requests"].get("chirp", 0) > 0
        finally:
            server.stop()
        assert not [t for t in mgmt_threads() if t.is_alive()]

    def test_scrape_during_graceful_stop(self):
        # A transfer stalled mid-flight keeps the drain window open;
        # the endpoint must keep answering while the server drains.
        # The rule targets the get's data stream (connection 2, after
        # 64 KiB served) so the earlier put is untouched.
        from repro.faults import FaultAction, FaultRule

        plan = FaultPlan([FaultRule(op="write", action=FaultAction.STALL,
                                    connections=frozenset({2}),
                                    after_bytes=65536, stall_seconds=1.0,
                                    times=1)])
        config = NestConfig(name="drain-nest", protocols=("chirp",))
        server = NestServer(config, faults=plan)
        server.start()
        server.storage.mkdir("admin", "/data")
        server.storage.acl_set("admin", "/data", "*", "rliwd")
        payload = b"d" * 262144
        with ChirpClient(*server.endpoint("chirp")) as c:
            c.put("/data/drain.bin", payload)

        def slow_get() -> None:
            try:
                with ChirpClient(*server.endpoint("chirp")) as c:
                    c.get("/data/drain.bin")
            except Exception:
                pass  # the drain may cut the stalled connection

        mgmt_port = server.ports["mgmt"]
        getter = threading.Thread(target=slow_get)
        getter.start()
        time.sleep(0.2)  # let the get reach the stalled write

        result: dict = {}

        def stopper() -> None:
            result.update(server.stop(drain_timeout=5.0))

        stop_thread = threading.Thread(target=stopper)
        stop_thread.start()
        time.sleep(0.1)  # inside the drain window (write stalls 1s)
        status, body = scrape(mgmt_port, "/metrics")
        assert " 200 " in f" {status} "
        assert b"nest_transfer_bytes_total" in body

        stop_thread.join(timeout=10)
        getter.join(timeout=10)
        assert result  # stop() completed and reported its drain
        assert server.mgmt is None
        assert not [t for t in mgmt_threads() if t.is_alive()]
