"""Unit tests for the SEDA concurrency model in the simulator."""

import pytest

from repro.models.platform import LINUX
from repro.nest.config import NestConfig
from repro.sim import Environment
from repro.simnest.clients import ClientLog, whole_file_client
from repro.simnest.concurrency import ALL_MODELS, SEDA, make_selector
from repro.simnest.server import SimNest

MB = 1_000_000


class TestSedaModel:
    def test_seda_in_model_registry(self):
        assert SEDA in ALL_MODELS
        assert make_selector("seda").choose() == "seda"

    def test_seda_serves_files(self):
        env = Environment()
        server = SimNest(env, LINUX, concurrency="seda", models=("seda",))
        server.populate("/f", MB)
        log = ClientLog(protocol="chirp")
        env.process(whole_file_client(env, server, "chirp", ["/f"] * 3, log))
        env.run()
        assert log.total_bytes == 3 * MB
        assert set(server.stats.model_assignments) == {"seda"}

    def test_disk_stage_bounds_concurrent_misses(self):
        env = Environment()
        server = SimNest(env, LINUX, NestConfig(transfer_workers=64),
                         concurrency="seda", models=("seda",))
        for i in range(8):
            server.populate(f"/cold{i}", MB, resident=False)
            log = ClientLog(protocol="chirp")
            env.process(whole_file_client(env, server, "chirp",
                                          [f"/cold{i}"], log))
        max_in_stage = [0]

        def watcher():
            while True:
                max_in_stage[0] = max(max_in_stage[0],
                                      server._seda_disk_stage.count)
                yield env.timeout(0.001)

        env.process(watcher())
        env.run(until=5.0)
        assert 0 < max_in_stage[0] <= server._seda_disk_stage.capacity

    def test_cached_reads_bypass_disk_stage(self):
        env = Environment()
        server = SimNest(env, LINUX, concurrency="seda", models=("seda",))
        server.populate("/hot", MB, resident=True)
        # Saturate the disk stage artificially.
        hold_a = server._seda_disk_stage.request()
        hold_b = server._seda_disk_stage.request()
        log = ClientLog(protocol="chirp")
        env.process(whole_file_client(env, server, "chirp", ["/hot"], log))
        env.run(until=2.0)
        # The cached read completed even with the disk stage full.
        assert log.total_bytes == MB

    def test_thread_overload_factor_grows(self):
        env = Environment()
        server = SimNest(env, LINUX, NestConfig())
        assert server._thread_overload_factor() == 1.0
        server._active_threads = server.THREAD_OVERLOAD_THRESHOLD + 10
        assert server._thread_overload_factor() == pytest.approx(
            1.0 + 10 * server.THREAD_OVERLOAD_SLOPE
        )
