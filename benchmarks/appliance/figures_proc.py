"""Worker process for the ``figures_des`` workload.

Imports the DES figure modules, prints one ``{"pid", "cpu_s"}`` line
(the CPU seconds the start took) when ready, then serves line commands
on stdin:

* ``run <fig,...> <0|1>`` -- regenerate the named figures with
  ``repro.bench.figN.run()`` + ``report()`` and reply with one JSON
  line: per-figure wall seconds and report text, the process CPU
  seconds and the machine-speed samples (:mod:`machine`) an interval
  timer took in between, their own time left out of both; with the
  trace flag set, also the event-kernel counters summed over every
  ``Environment`` the figures created (the counters are plain integer
  attributes the kernel keeps anyway -- only the *collection* of
  environments is the traced run's overhead).
* ``stop`` (or EOF) -- exit.
"""

from __future__ import annotations

import json
import signal
import sys
import time


def _collect_environments():
    """Make every new ``Environment`` remember itself in the returned
    list (wrapping ``__init__`` from outside; nothing in src changes)."""
    from repro.sim.core import Environment

    created = []
    original = Environment.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        created.append(self)

    Environment.__init__ = __init__
    return created, lambda: setattr(Environment, "__init__", original)


def run_figures(figures: list[str], trace: bool) -> dict:
    from repro import bench

    from benchmarks.appliance import machine

    reply: dict = {"wall_s": {}, "report": {}}
    created, restore = _collect_environments() if trace else ([], None)
    # The figures are one long computation with no seam to sample the
    # machine's speed at, so a timer interrupts it: the handler runs on
    # this thread, in between two bytecodes of the simulation.
    yardstick: list[int] = []
    signal.signal(signal.SIGALRM,
                  lambda *_: yardstick.append(machine.sample()))
    period = machine.PERIOD_NS / 1e9
    signal.setitimer(signal.ITIMER_REAL, period, period)
    cpu = time.process_time()
    try:
        for name in figures:
            module = getattr(bench, name)
            sampled = sum(yardstick)
            started = time.perf_counter()
            text = module.report(module.run())
            reply["wall_s"][name] = (time.perf_counter() - started
                                     - (sum(yardstick) - sampled) / 1e9)
            reply["report"][name] = text
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if restore is not None:
            restore()
    reply["cpu_s"] = time.process_time() - cpu - sum(yardstick) / 1e9
    reply["yardstick_ns"] = machine.median_ns(yardstick)
    if trace:
        reused = sum(getattr(e, "timeouts_reused", 0) for e in created)
        fresh = sum(getattr(e, "timeouts_created", 0) for e in created)
        reply["sim"] = {
            "environments": len(created),
            "events_processed": sum(e.events_processed for e in created),
            "pool_hit_rate": reused / (reused + fresh) if reused + fresh
            else 0.0,
        }
    return reply


def main() -> int:
    import os

    import repro.bench  # noqa: F401 - the import is the set-up cost

    print(json.dumps({"pid": os.getpid(), "cpu_s": time.process_time()}),
          flush=True)
    for line in sys.stdin:
        parts = line.split()
        if not parts or parts[0] == "stop":
            break
        if parts[0] == "run":
            reply = run_figures(parts[1].split(","), parts[2] == "1")
            print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
