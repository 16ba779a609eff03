"""The deterministic mixed workload behind the golden trace.

:func:`traced_mixed_workload` runs a fig3-style protocol mix on the
simulated substrate and records every chunk moved.  Two users:

* the **determinism regression test** replays it and asserts the
  event-completion order and final byte counts are bit-identical to
  golden values captured from the seed kernel (an optimized kernel must
  not change a single simulated outcome);
* ``repro perf`` runs it once and prints the hot-path counters it left
  behind, with the trace digest.

Closed-form deterministic: no randomness, no wall clock leaks into
simulated results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.models.platform import LINUX, PlatformProfile
from repro.nest.config import NestConfig
from repro.sim.core import Environment
from repro.simnest.server import SimNest
from repro.simnest.workload import _spawn_clients

#: Protocols of the fig3-style mixed trace (one whole-file streamer,
#: one capped streamer, one block protocol: every kernel path).
TRACE_PROTOCOLS = ("chirp", "gridftp", "http", "nfs")


@dataclass
class TraceResult:
    """Everything the determinism test compares against golden data."""

    #: (sim_time_repr, protocol, nbytes) per chunk moved, in completion
    #: order; ``repr`` of the float keeps the comparison bit-exact.
    records: list[tuple[str, str, int]] = field(default_factory=list)
    final_bytes: dict[str, int] = field(default_factory=dict)
    requests: dict[str, int] = field(default_factory=dict)
    latency_count: int = 0
    latency_sum_repr: str = "0.0"
    end_time_repr: str = "0.0"

    def sha256(self) -> str:
        """Digest of the full completion-order trace."""
        h = hashlib.sha256()
        for when, proto, nbytes in self.records:
            h.update(f"{when}|{proto}|{nbytes}\n".encode())
        return h.hexdigest()

    def to_golden(self, head: int = 20) -> dict:
        """The JSON payload stored as the golden file."""
        return {
            "n_records": len(self.records),
            "trace_sha256": self.sha256(),
            "head": [list(r) for r in self.records[:head]],
            "final_bytes": self.final_bytes,
            "requests": self.requests,
            "latency_count": self.latency_count,
            "latency_sum_repr": self.latency_sum_repr,
            "end_time_repr": self.end_time_repr,
        }


def traced_mixed_workload(
    platform: PlatformProfile = LINUX,
    horizon: float = 0.6,
    n_clients: int = 2,
    file_mb: int = 1,
    return_server: bool = False,
    config: NestConfig | None = None,
):
    """Run the fig3-style mixed workload, recording every chunk moved.

    ``config`` is the server's configuration, FIFO (``fcfs``) by
    default; a stride config traces the Fig. 4 arbitration path.

    The per-chunk ``stats.moved`` stream is a faithful proxy for the
    kernel's event-completion order: each record is emitted when one
    scheduling unit of data finishes its service cycle, so any change
    in event ordering, timing arithmetic, or tie-breaking shows up as a
    diverging trace.

    The simulation is closed before returning: a ``return_server=True``
    caller reads the server's counters, which outlive the close.
    """
    with Environment() as env:
        server = SimNest(env, platform,
                         config or NestConfig(scheduling="fcfs"))
        result = TraceResult()

        stats = server.stats
        original_moved = type(stats).moved

        def recording_moved(protocol: str, nbytes: int) -> None:
            result.records.append((repr(env.now), protocol, nbytes))
            original_moved(stats, protocol, nbytes)

        stats.moved = recording_moved
        _spawn_clients(
            env,
            get_server=lambda _p: server,
            get_cap=lambda _p: None,
            protocols=list(TRACE_PROTOCOLS),
            n_clients=n_clients,
            file_bytes=file_mb * 1_000_000,
            files_per_client=10_000,
        )
        env.run(until=horizon)
        result.final_bytes = dict(sorted(stats.progress_by_protocol.items()))
        result.requests = dict(sorted(stats.requests_by_protocol.items()))
        result.latency_count = len(stats.latencies)
        result.latency_sum_repr = repr(sum(stats.latencies))
        result.end_time_repr = repr(env.now)
    if return_server:
        return result, server
    return result
