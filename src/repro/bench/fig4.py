"""Figure 4 -- Proportional Protocol Scheduling.

Same workload as Fig. 3's mixed bars, NeST only, under the byte-based
stride scheduler at ratios (Chirp : GridFTP : HTTP : NFS) of FIFO,
1:1:1:1, 1:2:1:1, 3:1:2:1, and 1:1:1:4.

Paper observations this module must reproduce:

* the proportional-share scheduler pays a total-bandwidth penalty
  (~24-28 MB/s against FIFO's ~33 MB/s);
* Jain's fairness exceeds 0.98 for 1:1:1:1, 1:2:1:1 and 3:1:2:1;
* the NFS-heavy 1:1:1:4 allocation falls short (paper: 0.87), because
  a work-conserving scheduler cannot conjure NFS requests that the
  latency-bound clients have not issued.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.fairness import jains_fairness, proportional_shares
from repro.bench.fig3 import MIXED_PROTOCOLS, fifo_mixed_mbps
from repro.models.platform import LINUX, PlatformProfile
from repro.nest.config import NestConfig
from repro.simnest.workload import run_mixed_protocols

#: Scheduling configurations, in the paper's order.  None = FIFO.
CONFIGURATIONS: list[tuple[str, tuple[int, ...] | None]] = [
    ("FIFO", None),
    ("1:1:1:1", (1, 1, 1, 1)),
    ("1:2:1:1", (1, 2, 1, 1)),
    ("3:1:2:1", (3, 1, 2, 1)),
    ("1:1:1:4", (1, 1, 1, 4)),
]

PROTOCOLS = MIXED_PROTOCOLS


@dataclass
class Fig4Row:
    """One set of bars: a scheduling configuration's outcome."""

    label: str
    total_mbps: float
    per_protocol_mbps: dict[str, float]
    desired_mbps: dict[str, float] | None  #: None for FIFO
    fairness: float | None  #: Jain's index; None for FIFO


@dataclass
class Fig4Result:
    rows: list[Fig4Row] = field(default_factory=list)

    def row(self, label: str) -> Fig4Row:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


def run(
    platform: PlatformProfile = LINUX,
    horizon: float = 12.0,
    work_conserving: bool = True,
) -> Fig4Result:
    """Regenerate every set of bars of Figure 4.

    ``work_conserving=False`` runs the paper's proposed future-work
    policy instead (see the non-work-conserving ablation bench).
    """
    result = Fig4Result()
    for label, ratios in CONFIGURATIONS:
        if ratios is None:
            # Fig. 3's mixed NeST bars: the same run, simulated once.
            total, per_mbps = fifo_mixed_mbps(platform, horizon)
            per = dict(zip(PROTOCOLS, per_mbps))
            result.rows.append(Fig4Row(label, total, per, None, None))
            continue
        cfg = NestConfig(
            scheduling="stride",
            shares=dict(zip(PROTOCOLS, (float(r) for r in ratios))),
            work_conserving=work_conserving,
        )
        measured = run_mixed_protocols(
            platform, "nest", config=cfg, protocols=PROTOCOLS, horizon=horizon
        )
        per = {p: measured.bandwidth_mbps(p) for p in PROTOCOLS}
        total = measured.bandwidth_mbps()
        desired = dict(
            zip(PROTOCOLS, proportional_shares(total, [float(r) for r in ratios]))
        )
        fairness = jains_fairness(
            [per[p] for p in PROTOCOLS], [desired[p] for p in PROTOCOLS]
        )
        result.rows.append(Fig4Row(label, total, per, desired, fairness))
    return result


def report(result: Fig4Result) -> str:
    """Render the figure as a table."""
    lines = ["Figure 4: Proportional Protocol Scheduling (MB/s)",
             f"{'config':<9} {'total':>6} "
             + " ".join(f"{p:>8}" for p in PROTOCOLS) + f" {'Jain':>6}"]
    for row in result.rows:
        fairness = f"{row.fairness:.3f}" if row.fairness is not None else "   -"
        lines.append(
            f"{row.label:<9} {row.total_mbps:>6.1f} "
            + " ".join(f"{row.per_protocol_mbps[p]:>8.1f}" for p in PROTOCOLS)
            + f" {fairness:>6}"
        )
        if row.desired_mbps is not None:
            lines.append(
                f"{'  desired':<9} {'':>6} "
                + " ".join(f"{row.desired_mbps[p]:>8.1f}" for p in PROTOCOLS)
            )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    from repro.obs.log import console

    console(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
