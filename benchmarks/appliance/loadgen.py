"""Closed-loop load generation: two lanes, two threads, one process.

Lane 0 runs on the calling thread and lane 1 on one helper thread, so
the generator never has more than two threads or two data connections
in flight (the box has two cores; a third runnable thread would only
measure the generator's own GIL).  Each lane sends its next operation
when the previous reply is in, until the deadline (or an operation
budget, for warm-up), timing every operation with ``perf_counter_ns``.
Between operations a lane also takes the machine-speed samples of
:mod:`machine`; the time they take is not part of ``elapsed``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from benchmarks.appliance.machine import Yardstick
from benchmarks.appliance.workloads import Mismatch


@dataclass
class LaneResult:
    latencies: dict[str, list[int]] = field(default_factory=dict)  # ns
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    elapsed: float = 0.0
    #: machine-speed samples (ns) taken between this lane's operations
    yardstick: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def run_lane(lane, ops, result: LaneResult, start_at: float,
             seconds: float | None, max_ops: int | None) -> None:
    """Drive one lane; failures are counted, never raised."""
    while time.perf_counter() < start_at:
        time.sleep(0.0005)
    deadline = None if seconds is None else start_at + seconds
    perform = lane.perform
    clock = time.perf_counter_ns
    yardstick = Yardstick()
    while ((deadline is None or time.perf_counter() < deadline)
           and (max_ops is None or result.attempted < max_ops)):
        op = next(ops)
        kind = op[0]
        result.attempted += 1
        began = clock()
        try:
            moved = perform(op)
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op
            result.failed += 1
            result.mismatches += isinstance(exc, Mismatch)
            if len(result.errors) < 5:
                result.errors.append(f"{kind}: {exc!r}")
            continue
        result.latencies.setdefault(kind, []).append(clock() - began)
        result.bytes_by_kind[kind] = result.bytes_by_kind.get(kind, 0) + moved
        yardstick.tick()
    result.elapsed = time.perf_counter() - start_at - yardstick.spent_s
    result.yardstick = yardstick.samples


def run_lanes(lanes, schedules, *, seconds: float | None = None,
              max_ops: int | None = None) -> list[LaneResult]:
    """Run both lanes concurrently from a common start instant."""
    results = [LaneResult() for _ in lanes]
    start_at = time.perf_counter() + 0.01
    helper = threading.Thread(
        target=run_lane, name="loadgen-lane1",
        args=(lanes[1], schedules[1], results[1], start_at, seconds,
              max_ops))
    helper.start()
    try:
        run_lane(lanes[0], schedules[0], results[0], start_at, seconds,
                 max_ops)
    finally:
        helper.join()
    return results
