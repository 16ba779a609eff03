"""Figure 5 -- Adaptive Concurrency.

Left panel: Solaris platform, 1 KB in-cache requests, average request
latency under events / threads / adaptive (the event model wins, the
adaptive scheme lands between the two).

Right panel: Linux platform, 10 MB uncached (disk-bound) requests,
delivered bandwidth under the same three schemes (the thread model
wins, adaptive comes close but pays a visible adaptation cost).

The process model is disabled in both, exactly as in the paper ("the
process model is disabled in these experiments for the sake of
clarity"); a separate ablation turns it back on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from repro.models.platform import LINUX, SOLARIS, PlatformProfile
from repro.nest.config import NestConfig
from repro.sim.core import Environment
from repro.simnest.clients import whole_file_client
from repro.simnest.server import SimNest

#: Concurrency schemes measured, in the paper's order.
SCHEMES = ("events", "threads", "adaptive")


@dataclass
class ConcurrencyMeasurement:
    """One bar: a scheme's latency and bandwidth plus the request mix."""

    scheme: str
    avg_latency_ms: float
    bandwidth_mbps: float
    model_mix: dict[str, int] = field(default_factory=dict)


@dataclass
class Fig5Result:
    solaris_1kb: dict[str, ConcurrencyMeasurement] = field(default_factory=dict)
    linux_10mb: dict[str, ConcurrencyMeasurement] = field(default_factory=dict)


def run_concurrency_workload(
    platform: PlatformProfile,
    file_bytes: int,
    scheme: str,
    resident: bool,
    n_clients: int = 4,
    files_per_client: int = 20_000,
    horizon: float = 8.0,
    warmup: float = 1.0,
    models: tuple[str, ...] = ("threads", "events"),
) -> ConcurrencyMeasurement:
    """Measure one scheme on one workload (steady-state window)."""
    with Environment() as env:
        server = SimNest(env, platform, NestConfig(scheduling="fcfs"),
                         concurrency=scheme, models=models)
        for c in range(n_clients):
            if resident:
                path = f"/fig5/f-{c}"
                server.populate(path, file_bytes, resident=True)
                paths = repeat(path, files_per_client)
            else:
                paths = [f"/fig5/f-{c}-{i}" for i in range(files_per_client)]
                for p in paths:
                    server.populate(p, file_bytes, resident=False)
            # Latency comes from ``server.stats``: no client log is kept.
            env.process(whole_file_client(env, server, "chirp", paths, None))
        env.run(until=warmup)
        bytes0 = sum(server.stats.progress_by_protocol.values())
        lat_index = len(server.stats.latencies)
        env.run(until=horizon)
        bytes1 = sum(server.stats.progress_by_protocol.values())
        window = horizon - warmup
        latencies = server.stats.latencies[lat_index:]
        avg_latency = ((sum(latencies) / len(latencies)) if latencies
                       else float("nan"))
        return ConcurrencyMeasurement(
            scheme=scheme,
            avg_latency_ms=avg_latency * 1e3,
            bandwidth_mbps=(bytes1 - bytes0) / window / 1e6,
            model_mix=dict(server.stats.model_assignments),
        )


def run(
    solaris: PlatformProfile = SOLARIS,
    linux: PlatformProfile = LINUX,
    horizon_small: float = 8.0,
    horizon_large: float = 40.0,
) -> Fig5Result:
    """Regenerate both panels of Figure 5."""
    result = Fig5Result()
    for scheme in SCHEMES:
        result.solaris_1kb[scheme] = run_concurrency_workload(
            solaris, 1024, scheme, resident=True, horizon=horizon_small
        )
        result.linux_10mb[scheme] = run_concurrency_workload(
            linux, 10_000_000, scheme, resident=False,
            files_per_client=60, horizon=horizon_large, warmup=4.0,
        )
    return result


def report(result: Fig5Result) -> str:
    """Render both panels as tables."""
    lines = ["Figure 5: Adaptive Concurrency",
             "left: Solaris, 1 KB in-cache (avg time per request, ms)"]
    for scheme in SCHEMES:
        m = result.solaris_1kb[scheme]
        lines.append(f"  {scheme:<9} {m.avg_latency_ms:>6.2f} ms   mix={m.model_mix}")
    lines.append("right: Linux, 10 MB uncached (server bandwidth, MB/s)")
    for scheme in SCHEMES:
        m = result.linux_10mb[scheme]
        lines.append(f"  {scheme:<9} {m.bandwidth_mbps:>6.2f} MB/s mix={m.model_mix}")
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    from repro.obs.log import console

    console(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
