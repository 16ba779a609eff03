"""Simulated-time event tracing for the DES kernel.

A :class:`KernelTrace` is an opt-in, bounded record of what the kernel
dispatched and when (in *simulated* seconds): every event dispatch as
an instant record, every process lifetime as a duration record.  The
Chrome exporter (:func:`repro.obs.export_chrome.sim_trace_to_chrome`)
turns one into a ``chrome://tracing``-loadable timeline of a
simulation run -- the figure benches' scheduling behaviour becomes a
picture instead of a number.

Tracing is **off by default** and guarded by a single ``is None``
check in the dispatch loop, so the figure numbers stay bit-exact and
the kernel's speed (the benchmark's ``sim.events_per_s``) is
unaffected when disabled.  The kernel
is single-threaded, so the trace keeps plain lists with no locking.
"""

from __future__ import annotations

from typing import Any

__all__ = ["KernelTrace"]


class KernelTrace:
    """Bounded record of kernel dispatches in simulated time."""

    def __init__(self, limit: int = 65536):
        self.limit = limit
        #: (kind, name, t0, t1) tuples, oldest first.
        self._records: list[tuple[str, str, float, float]] = []
        self.dropped = 0

    # -- recording (called from the kernel's dispatch loop) ----------------
    def record_event(self, when: float, event: Any) -> None:
        """One dispatched event at simulated time ``when``."""
        if len(self._records) >= self.limit:
            self.dropped += 1
            return
        name = getattr(event, "name", None) or type(event).__name__
        self._records.append(("event", name, when, when))

    def record_process(self, name: str, started: float, ended: float) -> None:
        """One finished process's simulated lifetime."""
        if len(self._records) >= self.limit:
            self.dropped += 1
            return
        self._records.append(("proc", name, started, ended))

    # -- reading -----------------------------------------------------------
    def records(self) -> list[tuple[str, str, float, float]]:
        """Snapshot of trace records, oldest first."""
        return list(self._records)

    def processes(self) -> list[tuple[str, float, float]]:
        """(name, started, ended) for every finished process."""
        return [(n, t0, t1) for k, n, t0, t1 in self._records if k == "proc"]

    def events(self) -> list[tuple[str, float]]:
        """(name, when) for every dispatched event record."""
        return [(n, t0) for k, n, t0, _t1 in self._records if k == "event"]

    def __len__(self) -> int:
        return len(self._records)
