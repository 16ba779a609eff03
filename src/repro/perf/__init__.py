"""Introspection of the simulated substrate's hot paths.

Nothing here measures time -- the repository's one benchmark is
``python3 benchmarks/appliance/run.py`` (see ``BENCHMARK.json``), whose
``figures_des`` workload reports ``sim.events_per_s``,
``sim.pool_hit_rate`` and ``bench.figN_wall_s``.  What stays is what a
reader of those numbers needs to explain them:

* **counters** -- cheap integer counters the kernel, link, gate and cache
  maintain on their hot paths (events scheduled/pooled, heap high-water
  mark, link reallocations, gate grants, the buffer cache's resident
  blocks, runs, hits and misses), snapshotted into plain
  dataclasses by :mod:`repro.perf.counters`;
* **the golden workload** -- :func:`repro.perf.workloads.traced_mixed_workload`,
  the deterministic protocol mix whose chunk-completion trace
  ``tests/sim/test_determinism.py`` pins.

``repro perf`` runs that workload and prints its counter snapshot.
"""

from repro.perf.counters import (CacheCounters, GateCounters, KernelCounters,
                                 LinkCounters, PerfReport, collect)

__all__ = [
    "CacheCounters",
    "GateCounters",
    "KernelCounters",
    "LinkCounters",
    "PerfReport",
    "collect",
]
