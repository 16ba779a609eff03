"""Live-health consolidation and measured-performance discovery.

The health monitor turns the data path's byte stream and request
outcomes into ClassAd attributes; the advertisement merges them; the
collector ranks two NeSTs by *measured* throughput, not free space.
"""

from __future__ import annotations

from repro.client import ChirpClient
from repro.grid.discovery import Collector
from repro.nest.advertise import throughput_request_ad
from repro.nest.config import NestConfig
from repro.nest.server import NestServer
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry


def _requests(registry):
    """The appliance's request counter, as ``NestServer`` registers it."""
    return registry.counter("nest_requests_total", "Requests served.",
                            labelnames=("protocol", "op", "outcome"),
                            max_series=256)


def _observe(registry, protocol, ok):
    _requests(registry).inc(protocol=protocol, op="get",
                            outcome="ok" if ok else "error")


class TestHealthMonitor:
    def _monitor(self, clock):
        return HealthMonitor(MetricsRegistry(), window=10.0, clock=clock)

    def test_rolling_throughput(self):
        now = [100.0]
        mon = self._monitor(lambda: now[0])
        mon.record_bytes(5_000_000)
        assert mon.throughput_bps() == 500_000  # 5 MB over a 10 s window

    def test_old_bytes_age_out_of_the_window(self):
        now = [100.0]
        mon = self._monitor(lambda: now[0])
        mon.record_bytes(5_000_000)
        now[0] += 60.0
        assert mon.throughput_bps() == 0.0

    def test_error_rates_per_protocol(self):
        mon = self._monitor(lambda: 0.0)
        for ok in (True, True, True, False):
            _observe(mon.registry, "chirp", ok)
        _observe(mon.registry, "http", True)
        rates = mon.snapshot()["error_rates"]
        assert rates["chirp"] == 0.25
        assert rates["http"] == 0.0
        assert rates.get("nfs", 0.0) == 0.0  # never seen: no errors

    def test_probes_sampled_at_snapshot_time(self):
        mon = self._monitor(lambda: 0.0)
        depth = [4]
        mon.registry.gauge_callback("nest_transfer_queue_depth",
                                    lambda: depth[0])
        assert mon.snapshot()["probes"]["queue_depth"] == 4.0
        depth[0] = 9
        assert mon.snapshot()["probes"]["queue_depth"] == 9.0

    def test_dead_probe_reads_as_zero(self):
        mon = self._monitor(lambda: 0.0)
        mon.registry.gauge_callback("nest_transfer_failure_ring",
                                    lambda: 1 / 0)
        assert mon.snapshot()["probes"]["transfer_failures"] == 0.0

    def test_ad_attributes_shape(self):
        now = [100.0]
        mon = self._monitor(lambda: now[0])
        mon.record_bytes(10_000_000)
        _observe(mon.registry, "chirp", True)
        _observe(mon.registry, "chirp", False)
        mon.registry.gauge_callback("nest_transfer_queue_depth", lambda: 3)
        attrs = mon.ad_attributes()
        assert attrs["ThroughputMBps"] == 1.0  # 10 MB / 10 s window
        assert attrs["QueueDepth"] == 3
        assert attrs["RequestsServed"] == 2
        assert attrs["ChirpErrorRate"] == 0.5


class TestAdvertisementMerge:
    def test_health_attributes_land_in_the_ad(self):
        server = NestServer(NestConfig(name="adv-nest",
                                       protocols=("chirp",)))
        try:
            ad = server.advertisement()
            assert ad.eval("ThroughputMBps") == 0.0
            assert ad.eval("QueueDepth") == 0
            assert ad.eval("RequestsServed") == 0
            # The static consolidation is still there alongside.
            assert ad.eval("FreeSpace") > 0
        finally:
            server.transfers.shutdown()

    def test_measured_error_rate_is_advertised(self):
        server = NestServer(NestConfig(name="adv-nest",
                                       protocols=("chirp",)))
        try:
            server.observe_request("chirp", "get", False, 0.001)
            assert server.advertisement().eval("ChirpErrorRate") == 1.0
        finally:
            server.transfers.shutdown()


class TestDiscoveryRanking:
    def test_collector_ranks_two_nests_by_measured_throughput(self):
        """Two live appliances; the one that actually moved more data
        wins the throughput-ranked matchmaking, even though both have
        identical free space."""
        collector = Collector()
        servers = []
        try:
            for name in ("nest-busy", "nest-idle"):
                srv = NestServer(NestConfig(name=name,
                                            protocols=("chirp",)))
                srv.start()
                srv.storage.mkdir("admin", "/data")
                srv.storage.acl_set("admin", "/data", "*", "rliwd")
                servers.append(srv)
            busy, idle = servers
            with ChirpClient(*busy.endpoint("chirp")) as c:
                c.put("/data/big.bin", b"b" * (2 << 20))
            with ChirpClient(*idle.endpoint("chirp")) as c:
                c.put("/data/small.bin", b"s" * 4096)
            for srv in servers:
                collector.advertise(srv.advertisement())
            best = collector.fastest(1024, protocol="chirp")
            assert best is not None
            assert best.eval("Name") == "nest-busy"
            assert best.eval("ThroughputMBps") > 0
        finally:
            for srv in servers:
                srv.stop()

    def test_fastest_with_no_candidates_is_none(self):
        assert Collector().fastest(1024) is None

    def test_throughput_request_ad_ranks_on_measured_rate(self):
        ad = throughput_request_ad(4096, protocol="chirp")
        assert ad.eval("RequestedSpace") == 4096
        assert "ThroughputMBps" in ad.get_expr("Rank").external_repr()
