"""Unit tests for the gray-box cache estimator, and for where the live
appliance builds and feeds it."""

import sys
import threading
import time

from repro.client.http import HttpClient
from repro.nest.config import NestConfig
from repro.nest.graybox import GrayBoxCacheModel, model_for
from repro.nest.server import NestServer


def model(blocks=4, bs=100):
    return GrayBoxCacheModel(assumed_capacity_bytes=blocks * bs, block_size=bs)


class TestPredictions:
    def test_unseen_file_not_resident(self):
        g = model()
        assert g.predict_residency("f", 400) == 0.0
        assert not g.predict_resident("f", 400)

    def test_observed_read_becomes_resident(self):
        g = model()
        g.observe_read("f", 0, 400)
        assert g.predict_resident("f", 400)

    def test_partial_residency(self):
        g = model(blocks=8)
        g.observe_read("f", 0, 200)
        assert g.predict_residency("f", 800) == 0.25

    def test_writes_count_as_resident(self):
        g = model()
        g.observe_write("f", 0, 200)
        assert g.predict_residency("f", 200) == 1.0

    def test_lru_displacement_tracked(self):
        g = model(blocks=2)
        g.observe_read("a", 0, 200)
        g.observe_read("b", 0, 200)  # displaces a in the shadow
        assert not g.predict_resident("a", 200)
        assert g.predict_resident("b", 200)

    def test_delete_invalidates(self):
        g = model()
        g.observe_read("f", 0, 100)
        g.observe_delete("f")
        assert g.predict_residency("f", 100) == 0.0

    def test_estimate_is_fallible_by_design(self):
        # The gray-box model cannot see other processes' I/O: if the
        # kernel cached a file NeST never touched, the estimate misses
        # it.  This divergence is inherent to the technique.
        g = model()
        assert g.predict_residency("cached-by-someone-else", 100) == 0.0

    def test_threshold_parameter(self):
        g = model(blocks=8)
        g.observe_read("f", 0, 700)
        assert g.predict_resident("f", 800, threshold=0.8)
        assert not g.predict_resident("f", 800, threshold=0.95)


class _Path(str):
    """A path whose hash runs Python code, so a thread switch can land
    inside the shadow's dict operations and not only between them."""

    def __hash__(self):
        return str.__hash__(self)


class TestConcurrentFeeding:
    def test_two_feeding_threads_never_break_the_shadow(self):
        # The LRU's "is it there? then reorder it" steps are not atomic:
        # another thread's eviction between them used to corrupt the
        # dirty index and raise KeyError out of a feeding thread.
        # Writes over a 24-block cycle keep a 16-block shadow full and
        # evicting; rounds run until one breaks it or 5 pass.
        g = GrayBoxCacheModel(assumed_capacity_bytes=16 * 8192,
                              block_size=8192)
        errors = []

        def feed(name):
            try:
                for i in range(20_000):
                    g.observe_write(name, (i % 24) * 8192, 8192)
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        names = [_Path(f"x{k}") for k in range(2)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                threads = [threading.Thread(target=feed, args=(name,))
                           for name in names]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30)
                    assert not t.is_alive()
                if errors:
                    break
        finally:
            sys.setswitchinterval(switch)
        assert errors == []
        # and the shadow is still whole: exactly full, no block lost
        resident = sum(g.predict_residency(name, 24 * 8192) * 24
                       for name in names)
        assert round(resident) == 16


EIGHT_MIB = 8 << 20


def _server(scheduling: str) -> NestServer:
    srv = NestServer(NestConfig(name=f"graybox-{scheduling}",
                                protocols=("http",), scheduling=scheduling,
                                management=False))
    srv.start()
    srv.storage.mkdir("admin", "/data")
    srv.storage.acl_set("admin", "/data", "*", "rliwd")
    return srv


def _resident(srv: NestServer, path: str, size: int,
              timeout: float = 5.0) -> float:
    """The shadow's residency for ``path`` once the server has fed it:
    a GET is observed just after its bytes are on the wire, so the
    client can read them first."""
    deadline = time.monotonic() + timeout
    while (srv.graybox.predict_residency(path, size) < 1.0
           and time.monotonic() < deadline):
        time.sleep(0.002)
    return srv.graybox.predict_residency(path, size)


def _seed(srv: NestServer, path: str, size: int) -> None:
    """A file written without a request (nothing feeds the shadow)."""
    ticket = srv.storage.approve_put("anonymous", path, size)
    ticket.stream.write(b"g" * size)
    ticket.settle(size)


class TestWhereTheShadowLives:
    def test_only_cache_aware_scheduling_builds_one(self):
        assert model_for("fcfs") is None
        assert model_for("stride") is None
        shadow = model_for("cache-aware", block_size=4096)
        assert isinstance(shadow, GrayBoxCacheModel)
        assert shadow.block_size == 4096

    def test_default_server_moves_bytes_without_a_shadow(self):
        srv = _server("fcfs")
        try:
            _seed(srv, "/data/big", EIGHT_MIB)
            with HttpClient(*srv.endpoint("http")) as client:
                assert len(client.get("/data/big")) == EIGHT_MIB
            assert srv.graybox is None
        finally:
            srv.stop()

    def test_cache_aware_server_learns_what_it_moved(self):
        srv = _server("cache-aware")
        try:
            _seed(srv, "/data/big", EIGHT_MIB)
            assert srv.graybox.predict_residency("/data/big",
                                                 EIGHT_MIB) == 0.0
            with HttpClient(*srv.endpoint("http")) as client:
                assert len(client.get("/data/big")) == EIGHT_MIB
            assert _resident(srv, "/data/big", EIGHT_MIB) == 1.0
        finally:
            srv.stop()

    def test_namespace_changes_reach_the_shadow(self):
        srv = _server("cache-aware")
        try:
            for path in ("/data/a", "/data/b"):
                _seed(srv, path, 4096)
            with HttpClient(*srv.endpoint("http")) as client:
                client.get("/data/a")
                client.get("/data/b")
                assert _resident(srv, "/data/a", 4096) == 1.0
                assert _resident(srv, "/data/b", 4096) == 1.0
                client.delete("/data/a")
            assert srv.graybox.predict_residency("/data/a", 4096) == 0.0
            # A rename's source name dies with it.
            srv.storage.rename("admin", "/data/b", "/data/c")
            assert srv.graybox.predict_residency("/data/b", 4096) == 0.0
        finally:
            srv.stop()
