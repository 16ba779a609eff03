"""Snapshots of the hot-path counters kept by kernel, link, gate and cache.

The counted quantities live as plain integer attributes on the counted
objects themselves (an attribute increment is the cheapest thing the
hot path can afford); this module only *reads* them.  Every read uses
``getattr`` with a zero default so the snapshot code also works against
kernels that predate a given counter.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

from repro.sim.core import Environment


@dataclass
class KernelCounters:
    """Event-kernel counters for one :class:`Environment`."""

    events_scheduled: int = 0
    events_processed: int = 0
    direct_resumes: int = 0
    timeouts_created: int = 0
    timeouts_reused: int = 0
    heap_peak: int = 0

    @classmethod
    def snapshot(cls, env: Environment) -> "KernelCounters":
        return cls(
            events_scheduled=getattr(env, "events_scheduled", 0),
            events_processed=getattr(env, "events_processed", 0),
            direct_resumes=getattr(env, "direct_resumes", 0),
            timeouts_created=getattr(env, "timeouts_created", 0),
            timeouts_reused=getattr(env, "timeouts_reused", 0),
            heap_peak=getattr(env, "heap_peak", 0),
        )

    @property
    def pool_hit_rate(self) -> float:
        """Fraction of timeouts served from the free-list pool."""
        total = self.timeouts_created + self.timeouts_reused
        return self.timeouts_reused / total if total else 0.0


@dataclass
class LinkCounters:
    """Counters for one :class:`~repro.models.network.FairShareLink`."""

    name: str = "link"
    reallocations: int = 0
    alloc_cache_hits: int = 0
    active_flows: int = 0
    bytes_delivered: float = 0.0

    @classmethod
    def snapshot(cls, link: Any) -> "LinkCounters":
        return cls(
            name=getattr(link, "name", "link"),
            reallocations=getattr(link, "reallocations", 0),
            alloc_cache_hits=getattr(link, "alloc_cache_hits", 0),
            active_flows=getattr(link, "active_flows", 0),
            bytes_delivered=getattr(link, "bytes_delivered", 0.0),
        )


@dataclass
class GateCounters:
    """Counters for one :class:`~repro.simnest.gate.PumpGate`."""

    grants: int = 0
    arbitrations: int = 0

    @classmethod
    def snapshot(cls, gate: Any) -> "GateCounters":
        return cls(
            grants=getattr(gate, "grants", 0),
            arbitrations=getattr(gate, "arbitrations", 0),
        )


@dataclass
class CacheCounters:
    """Counters for one :class:`~repro.models.cache.BufferCache`."""

    resident_blocks: int = 0
    runs: int = 0
    hits: int = 0
    misses: int = 0

    @classmethod
    def snapshot(cls, cache: Any) -> "CacheCounters":
        return cls(
            resident_blocks=len(cache),
            runs=getattr(cache, "run_count", 0),
            hits=getattr(cache, "hits", 0),
            misses=getattr(cache, "misses", 0),
        )


@dataclass
class PerfReport:
    """One combined counter snapshot, ready to serialize."""

    kernel: KernelCounters = field(default_factory=KernelCounters)
    links: list[LinkCounters] = field(default_factory=list)
    gates: list[GateCounters] = field(default_factory=list)
    caches: list[CacheCounters] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def publish(self, registry: Any = None) -> None:
        """Re-home this snapshot onto a metrics registry (the process
        registry by default), so the sim hot-path counters appear in
        the same Prometheus exposition as the live stack's metrics.

        The counted objects keep their plain integer attributes -- the
        hot path never touches the registry; publishing is a one-shot
        copy at snapshot time.
        """
        from repro.obs.metrics import global_registry

        reg = registry if registry is not None else global_registry()
        kernel = reg.gauge(
            "repro_sim_kernel_counter",
            "Event-kernel hot-path counters (latest snapshot).",
            labelnames=("counter",))
        for name, value in asdict(self.kernel).items():
            kernel.set(value, counter=name)
        links = reg.gauge(
            "repro_sim_link_counter",
            "Fair-share link counters (latest snapshot).",
            labelnames=("link", "counter"))
        for link in self.links:
            for name, value in asdict(link).items():
                if name != "name":
                    links.set(value, link=link.name, counter=name)
        gates = reg.gauge(
            "repro_sim_gate_counter",
            "Pump-gate counters (latest snapshot).",
            labelnames=("gate", "counter"))
        for index, gate in enumerate(self.gates):
            for name, value in asdict(gate).items():
                gates.set(value, gate=str(index), counter=name)
        caches = reg.gauge(
            "repro_sim_cache_counter",
            "Buffer-cache model counters (latest snapshot).",
            labelnames=("cache", "counter"))
        for index, cache in enumerate(self.caches):
            for name, value in asdict(cache).items():
                caches.set(value, cache=str(index), counter=name)

    def render(self) -> str:
        """Human-readable counter table."""
        k = self.kernel
        lines = [
            "kernel counters",
            f"  events scheduled   {k.events_scheduled:>12}",
            f"  events processed   {k.events_processed:>12}",
            f"  direct resumes     {k.direct_resumes:>12}",
            f"  timeouts created   {k.timeouts_created:>12}",
            f"  timeouts reused    {k.timeouts_reused:>12}"
            f"  ({k.pool_hit_rate:.1%} pool hit rate)",
            f"  heap high-water    {k.heap_peak:>12}",
        ]
        for link in self.links:
            lines.append(
                f"link {link.name!r}: {link.reallocations} reallocations "
                f"({link.alloc_cache_hits} allocation-cache hits), "
                f"{link.bytes_delivered / 1e6:.1f} MB delivered"
            )
        for gate in self.gates:
            lines.append(
                f"gate: {gate.grants} grants, {gate.arbitrations} arbitrations"
            )
        for cache in self.caches:
            lines.append(
                f"cache: {cache.resident_blocks} blocks resident in "
                f"{cache.runs} runs, {cache.hits} hits, {cache.misses} misses"
            )
        return "\n".join(lines)


def collect(env: Environment, links: Iterable[Any] = (),
            gates: Iterable[Any] = (),
            caches: Iterable[Any] = ()) -> PerfReport:
    """Snapshot every counter of one simulation run."""
    return PerfReport(
        kernel=KernelCounters.snapshot(env),
        links=[LinkCounters.snapshot(l) for l in links],
        gates=[GateCounters.snapshot(g) for g in gates],
        caches=[CacheCounters.snapshot(c) for c in caches],
    )


def collect_server(server: Any) -> PerfReport:
    """Snapshot counters from a SimNest-like server (env, link, gate,
    the filesystem's buffer cache)."""
    return collect(server.env, links=[server.link], gates=[server.gate],
                   caches=[server.fs.cache])
