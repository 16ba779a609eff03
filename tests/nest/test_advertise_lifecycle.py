"""The server's advertisement lifecycle: publish, heartbeat, withdraw."""

import time

from repro.grid.discovery import Collector
from repro.nest.config import NestConfig
from repro.nest.server import ADVERTISE_INTERVAL, NestServer


def _config(name="ad-life"):
    return NestConfig(name=name, protocols=("chirp",), management=False)


class TestAdvertiseTo:
    def test_publish_on_running_server(self):
        collector = Collector()
        with NestServer(_config()) as server:
            server.advertise_to(collector, readvertise_interval=0.0)
            assert collector.names() == {"ad-life"}

    def test_publish_deferred_until_start(self):
        # Registering before start() must wait for the ports to exist.
        collector = Collector()
        server = NestServer(_config())
        server.advertise_to(collector, readvertise_interval=0.0)
        assert collector.names() == set()
        server.start()
        try:
            assert collector.names() == {"ad-life"}
            ad = collector.lookup("ad-life")
            assert ad.eval("ChirpPort") == server.ports["chirp"]
        finally:
            server.stop()

    def test_stop_withdraws(self):
        collector = Collector()
        server = NestServer(_config()).start()
        server.advertise_to(collector, readvertise_interval=0.0)
        assert "ad-life" in collector.names()
        server.stop()
        # A stopping appliance disappears immediately -- not at TTL
        # expiry -- so no scheduler matches a dying server.
        assert collector.names() == set()

    def test_heartbeat_outlives_ttl(self):
        # TTL far shorter than the test: only the heartbeat's periodic
        # refresh keeps the ad alive.
        collector = Collector()
        server = NestServer(_config()).start()
        try:
            server.advertise_to(collector, ttl=0.3,
                                readvertise_interval=0.05)
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                assert collector.names() == {"ad-life"}
                time.sleep(0.05)
        finally:
            server.stop()
        assert collector.names() == set()

    def test_no_heartbeat_lets_ttl_lapse(self):
        collector = Collector()
        server = NestServer(_config()).start()
        try:
            server.advertise_to(collector, ttl=0.1,
                                readvertise_interval=0.0)
            assert server._advert_thread is None
            time.sleep(0.25)
            assert collector.names() == set()
        finally:
            server.stop()

    def test_interval_defaults_to_config(self):
        # The period was a NestConfig field until nothing set it; the
        # default is the server module's ADVERTISE_INTERVAL now.
        collector = Collector()
        with NestServer(_config()) as server:
            server.advertise_to(collector)
            assert server._advert_interval == ADVERTISE_INTERVAL

    def test_running_property(self):
        server = NestServer(_config())
        assert not server.running
        server.start()
        assert server.running
        server.stop()
        assert not server.running
