"""Unit tests for the simulated NeST/JBOS servers."""

import pytest

from repro.models.platform import LINUX
from repro.nest.config import NestConfig
from repro.sim import Environment
from repro.simnest.clients import ClientLog, nfs_client, whole_file_client
from repro.simnest.server import SimJbos, SimNest, SimRequestError

MB = 1_000_000


def make_server(env=None, concurrency="adaptive",
                models=("threads", "events"), **cfg):
    env = env or Environment()
    return env, SimNest(env, LINUX, NestConfig(**cfg),
                        concurrency=concurrency, models=models)


class TestPopulateAndServe:
    def test_populate_creates_namespace_and_cache(self):
        env, server = make_server()
        server.populate("/a/b/file", 10 * MB, resident=True)
        assert server.storage.exists("/a/b/file")
        assert server.fs.cache.resident_fraction("/a/b/file", 10 * MB) == 1.0

    def test_populate_cold(self):
        env, server = make_server()
        server.populate("/cold", MB, resident=False)
        assert server.fs.cache.resident_fraction("/cold", MB) == 0.0

    def test_get_delivers_all_bytes(self):
        env, server = make_server()
        server.populate("/f", 5 * MB)
        log = ClientLog(protocol="chirp")
        env.process(whole_file_client(env, server, "chirp", ["/f"], log))
        env.run()
        assert log.total_bytes == 5 * MB
        assert server.stats.bytes_by_protocol["chirp"] == 5 * MB

    def test_missing_file_raises_in_client(self):
        env, server = make_server()

        def client():
            conn = yield from server.connect("chirp")
            yield from server.serve_get(conn, "/nope")

        proc = env.process(client())
        with pytest.raises(SimRequestError):
            env.run(proc)

    def test_put_accounts_space(self):
        env, server = make_server()
        server.storage.mkdir("admin", "/up")
        server.storage.acl_set("admin", "/up", "*", "rliwd")
        log = ClientLog(protocol="http")
        env.process(whole_file_client(env, server, "http", ["/up/new"], log,
                                      put_size=2 * MB))
        env.run()
        assert server.storage.stat("admin", "/up/new")["size"] == 2 * MB

    def test_cached_get_faster_than_cold(self):
        def timed(resident):
            env, server = make_server()
            server.populate("/f", 10 * MB, resident=resident)
            log = ClientLog(protocol="chirp")
            env.process(whole_file_client(env, server, "chirp", ["/f"], log))
            env.run()
            return log.results[0].elapsed

        assert timed(True) < timed(False)

    def test_nfs_block_flow(self):
        env, server = make_server()
        server.populate("/f", MB)
        log = ClientLog(protocol="nfs")
        spec = server.specs["nfs"]
        env.process(nfs_client(env, server, ["/f"], [MB], log, spec))
        env.run()
        assert log.total_bytes == MB
        # Block-granular accounting: many requests, 8 KB each.
        assert server.stats.requests_by_protocol["nfs"] >= MB // spec.block_size

    def test_nfs_write_flow(self):
        from repro.simnest.clients import nfs_writer

        env, server = make_server()
        server.storage.mkdir("admin", "/w")
        server.storage.acl_set("admin", "/w", "*", "rliwd")
        log = ClientLog(protocol="nfs")
        env.process(nfs_writer(env, server, "/w/out", 100_000, log,
                               server.specs["nfs"]))
        env.run()
        assert server.storage.stat("admin", "/w/out")["size"] == 100_000


class TestConcurrencyModels:
    @pytest.mark.parametrize("model", ["threads", "events", "processes"])
    def test_fixed_models_complete(self, model):
        env, server = make_server(concurrency=model, models=(model,))
        server.populate("/f", MB)
        log = ClientLog(protocol="chirp")
        env.process(whole_file_client(env, server, "chirp", ["/f"] * 3, log))
        env.run()
        assert log.total_bytes == 3 * MB
        assert set(server.stats.model_assignments) == {model}

    def test_adaptive_uses_multiple_models(self):
        env, server = make_server(concurrency="adaptive",
                                  models=("threads", "events"))
        server.populate("/f", MB)
        log = ClientLog(protocol="chirp")
        env.process(whole_file_client(env, server, "chirp", ["/f"] * 30, log))
        env.run()
        assert len(server.stats.model_assignments) == 2

    def test_events_serialize_disk_reads(self):
        # Two cold files; the event loop cannot overlap their reads.
        def run(model):
            env, server = make_server(concurrency=model, models=(model,))
            for i in range(4):
                server.populate(f"/cold{i}", 5 * MB, resident=False)
            logs = []
            for i in range(4):
                log = ClientLog(protocol="chirp")
                logs.append(log)
                env.process(whole_file_client(env, server, "chirp",
                                              [f"/cold{i}"], log))
            env.run()
            return max(r.end for log in logs for r in log.results)

        assert run("events") > run("threads")


class TestSimJbos:
    def test_per_protocol_servers_isolated(self):
        env = Environment()
        jbos = SimJbos(env, LINUX, protocols=("chirp", "http"))
        assert jbos["chirp"] is not jbos["http"]
        assert jbos["chirp"].scheduler is not jbos["http"].scheduler
        # But the hardware is shared.
        assert jbos["chirp"].fs is jbos["http"].fs
        assert jbos["chirp"].link is jbos["http"].link

    def test_native_servers_skip_vpl_cost(self):
        env = Environment()
        jbos = SimJbos(env, LINUX, protocols=("chirp",))
        assert jbos["chirp"].is_native

    def test_throttle_caps_effective_rate(self):
        env = Environment()
        jbos = SimJbos(env, LINUX, protocols=("http",),
                       throttle={"http": 1.0 * MB})
        assert jbos.effective_cap("http") == 1.0 * MB
        assert jbos.effective_cap("http", client_cap=0.5 * MB) == 0.5 * MB

    def test_total_stats_aggregates(self):
        env = Environment()
        jbos = SimJbos(env, LINUX, protocols=("chirp", "http"))
        for proto in ("chirp", "http"):
            jbos[proto].populate(f"/{proto}", MB)
            log = ClientLog(protocol=proto)
            env.process(whole_file_client(env, jbos[proto], proto,
                                          [f"/{proto}"], log))
        env.run()
        agg = jbos.total_stats()
        assert agg.bytes_by_protocol == {"chirp": MB, "http": MB}
