"""The perf layer: hot-path counter snapshots and their CLI."""

import json

from repro.models.platform import LINUX
from repro.nest.config import NestConfig
from repro.perf import collect
from repro.perf.counters import collect_server
from repro.sim.core import Environment
from repro.simnest.server import SimNest
from repro.simnest.workload import _spawn_clients


def _run_small_mixed():
    env = Environment()
    server = SimNest(env, LINUX, NestConfig(scheduling="fcfs"))
    _spawn_clients(
        env,
        get_server=lambda _p: server,
        get_cap=lambda _p: None,
        protocols=["chirp", "nfs"],
        n_clients=1,
        file_bytes=500_000,
        files_per_client=100,
    )
    env.run(until=0.1)
    return server


def test_counters_move_on_a_real_workload():
    server = _run_small_mixed()
    report = collect_server(server)
    k = report.kernel
    assert k.events_processed > 0
    assert k.events_scheduled >= k.events_processed
    assert k.timeouts_reused > 0, "the timeout pool should engage"
    assert 0.0 < k.pool_hit_rate <= 1.0
    assert k.heap_peak > 0
    (link,) = report.links
    assert link.reallocations > 0
    assert link.bytes_delivered > 0
    (gate,) = report.gates
    assert gate.grants > 0
    assert gate.arbitrations >= gate.grants
    (cache,) = report.caches
    assert cache.resident_blocks == len(server.fs.cache) > 0
    assert 0 < cache.runs <= cache.resident_blocks
    assert cache.hits + cache.misses > 0


def test_snapshot_tolerates_counterless_objects():
    class Bare:
        pass

    report = collect(Environment(), links=[Bare()], gates=[Bare()])
    assert report.kernel.events_processed == 0
    assert report.links[0].reallocations == 0
    assert report.gates[0].grants == 0


def test_report_render_and_dict_roundtrip():
    server = _run_small_mixed()
    report = collect_server(server)
    text = report.render()
    assert "events processed" in text
    assert "pool hit rate" in text
    assert "reallocations" in text
    assert "runs" in text
    doc = report.to_dict()
    json.dumps(doc)  # must be JSON-serializable
    assert doc["kernel"]["events_processed"] == report.kernel.events_processed


def test_cli_perf_counters_prints_report(capsys, tmp_path, monkeypatch):
    from repro.cli import build_parser, main

    monkeypatch.chdir(tmp_path)
    assert main(["perf", "counters"]) == 0
    out = capsys.readouterr().out
    assert "kernel counters" in out
    assert "chunk completions" in out
    # A bare ``repro perf`` is the same snapshot, and leaves no file
    # behind in the directory it ran in.
    assert build_parser().parse_args(["perf"]).what == "counters"
    assert list(tmp_path.iterdir()) == []
