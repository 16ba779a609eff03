"""Fast smoke tests for the figure harnesses.

The full shape assertions live in ``benchmarks/``; these short-horizon
runs only verify the harness plumbing (structure, units, reports), so
``pytest tests/`` stays quick.
"""

from repro.bench import fig3, fig4, fig5, fig6
from repro.models.platform import LINUX
from repro.simnest.workload import run_mixed_protocols, run_single_protocol


class TestWorkloadPlumbing:
    def test_single_protocol_result_shape(self):
        result = run_single_protocol("chirp", LINUX, "nest",
                                     horizon=2.0, warmup=0.5)
        assert result.bandwidth_mbps() > 0
        assert set(result.bytes_by_protocol) == {"chirp"}

    def test_mixed_covers_all_protocols(self):
        result = run_mixed_protocols(LINUX, "nest", horizon=2.0, warmup=0.5)
        assert set(result.bytes_by_protocol) >= {"chirp", "gridftp", "http"}

    def test_jbos_kind(self):
        result = run_single_protocol("http", LINUX, "jbos",
                                     horizon=2.0, warmup=0.5)
        assert result.bandwidth_mbps() > 0

    def test_unknown_kind_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            run_single_protocol("http", LINUX, "cloud")


class TestReports:
    def test_fig4_report_renders(self):
        # FIFO row only (fast): build a result by hand.
        row = fig4.Fig4Row("FIFO", 33.0,
                           {p: 8.0 for p in fig4.PROTOCOLS}, None, None)
        result = fig4.Fig4Result(rows=[row])
        text = fig4.report(result)
        assert "FIFO" in text and "33.0" in text

    def test_fig6_report_renders(self):
        result = fig6.Fig6Result(sizes_mb=(20,), disabled_mbps={20: 21.0},
                                 enabled_mbps={20: 20.0})
        text = fig6.report(result)
        assert "0.95" in text

    def test_fig6_single_point(self):
        bw = fig6.measure_write(20_000_000, quotas_enabled=False)
        assert 15.0 < bw < 25.0

    def test_fig5_single_measurement(self):
        m = fig5.run_concurrency_workload(
            LINUX, 1024, "events", resident=True,
            files_per_client=500, horizon=1.0, warmup=0.2,
        )
        assert m.avg_latency_ms > 0
        assert m.model_mix.get("events", 0) > 0

    def test_fig3_report_renders(self):
        result = fig3.Fig3Result(
            single_nest={p: 30.0 for p in fig3.SINGLE_PROTOCOLS},
            single_native={p: 29.0 for p in fig3.SINGLE_PROTOCOLS},
            mixed_nest={p: 8.0 for p in fig3.MIXED_PROTOCOLS},
            mixed_jbos={p: 8.0 for p in fig3.MIXED_PROTOCOLS},
            mixed_nest_total=32.0,
            mixed_jbos_total=32.0,
        )
        text = fig3.report(result)
        assert "mixed total" in text


def test_fig3_then_fig4_simulate_the_fifo_mixed_run_once(monkeypatch):
    """Fig. 3's mixed NeST bars and Fig. 4's FIFO row are one run: a
    figures pass makes one FIFO mixed ``Environment``, not two, and the
    two figures read the same bandwidths from it."""
    fifo_runs = []

    def counting(module):
        real = module.run_mixed_protocols

        def run_mixed_protocols(platform, server_kind="nest", config=None,
                                **kwargs):
            if server_kind == "nest" and (config is None
                                          or config.scheduling == "fcfs"):
                fifo_runs.append(module.__name__)
            return real(platform, server_kind, config=config, **kwargs)

        monkeypatch.setattr(module, "run_mixed_protocols", run_mixed_protocols)

    counting(fig3)
    counting(fig4)
    fig3.fifo_mixed_mbps.cache_clear()
    try:
        three = fig3.run(horizon=2.2)
        four = fig4.run(horizon=2.2)
    finally:
        fig3.fifo_mixed_mbps.cache_clear()
    assert fifo_runs == ["repro.bench.fig3"]
    fifo = four.row("FIFO")
    assert fifo.total_mbps == three.mixed_nest_total
    assert fifo.per_protocol_mbps == three.mixed_nest
