"""Figure 3 -- Multiple Protocols.

"The experiment measures bandwidth when four clients request 10 MB
files for each protocol.  In the first four sets of bars, only a single
protocol is used within each workload (and thus only a single server
for JBOS).  In the last set of bars, the workload contains all
protocols."

Paper observations this module must reproduce:

* delivered bandwidth varies widely across protocols: Chirp and HTTP at
  the network peak (~35 MB/s), GridFTP and NFS at roughly half;
* NeST performs very close to each native server;
* in the mixed workload, total bandwidth is similar for NeST and JBOS
  (~33-35 MB/s), but NFS receives *less* under NeST's FIFO transfer
  manager than under JBOS.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.models.platform import LINUX, PlatformProfile
from repro.nest.config import NestConfig
from repro.simnest.workload import run_mixed_protocols, run_single_protocol

#: The per-protocol bars, in the paper's order.
SINGLE_PROTOCOLS = ("chirp", "ftp", "gridftp", "http", "nfs")
#: The mixed-workload protocol set (matching Fig. 4's classes).
MIXED_PROTOCOLS = ("chirp", "gridftp", "http", "nfs")


@dataclass
class Fig3Result:
    """All bars of the figure, in MB/s."""

    single_nest: dict[str, float] = field(default_factory=dict)
    single_native: dict[str, float] = field(default_factory=dict)
    mixed_nest: dict[str, float] = field(default_factory=dict)
    mixed_jbos: dict[str, float] = field(default_factory=dict)
    mixed_nest_total: float = 0.0
    mixed_jbos_total: float = 0.0


@functools.lru_cache(maxsize=1)
def fifo_mixed_mbps(platform: PlatformProfile,
                    horizon: float) -> tuple[float, tuple[float, ...]]:
    """NeST's FIFO mixed run: ``(total, per protocol of MIXED_PROTOCOLS)``
    in MB/s.

    Fig. 3's mixed NeST bars and Fig. 4's FIFO row are this one run;
    the cache keeps its bandwidths (no logs, no environment) so a
    figures pass simulates it once.
    """
    measured = run_mixed_protocols(
        platform, "nest", config=NestConfig(scheduling="fcfs"),
        protocols=MIXED_PROTOCOLS, horizon=horizon,
    )
    return (measured.bandwidth_mbps(),
            tuple(measured.bandwidth_mbps(p) for p in MIXED_PROTOCOLS))


def run(platform: PlatformProfile = LINUX, horizon: float = 12.0) -> Fig3Result:
    """Regenerate every bar of Figure 3."""
    result = Fig3Result()
    for proto in SINGLE_PROTOCOLS:
        result.single_nest[proto] = run_single_protocol(
            proto, platform, "nest", horizon=horizon
        ).bandwidth_mbps()
        result.single_native[proto] = run_single_protocol(
            proto, platform, "jbos", horizon=horizon
        ).bandwidth_mbps()
    result.mixed_nest_total, per = fifo_mixed_mbps(platform, horizon)
    result.mixed_nest = dict(zip(MIXED_PROTOCOLS, per))
    mixed_jbos = run_mixed_protocols(
        platform, "jbos", protocols=MIXED_PROTOCOLS, horizon=horizon
    )
    for proto in MIXED_PROTOCOLS:
        result.mixed_jbos[proto] = mixed_jbos.bandwidth_mbps(proto)
    result.mixed_jbos_total = mixed_jbos.bandwidth_mbps()
    return result


def report(result: Fig3Result) -> str:
    """Render the figure's bars as a table (MB/s)."""
    lines = ["Figure 3: Multiple Protocols (server bandwidth, MB/s)",
             f"{'workload':<12} {'NeST':>8} {'native/JBOS':>12}"]
    for proto in SINGLE_PROTOCOLS:
        lines.append(
            f"{proto:<12} {result.single_nest[proto]:>8.1f} "
            f"{result.single_native[proto]:>12.1f}"
        )
    lines.append(
        f"{'mixed total':<12} {result.mixed_nest_total:>8.1f} "
        f"{result.mixed_jbos_total:>12.1f}"
    )
    for proto in MIXED_PROTOCOLS:
        lines.append(
            f"{'  ' + proto:<12} {result.mixed_nest[proto]:>8.1f} "
            f"{result.mixed_jbos[proto]:>12.1f}"
        )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - convenience entry point
    from repro.obs.log import console

    console(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
