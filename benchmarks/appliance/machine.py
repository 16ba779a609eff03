"""How fast is the machine *right now*?

The sandbox is a two-core slice of a shared host, and its speed moves
in regimes that last seconds to minutes: the same single-threaded loop
takes 0.17 s, then 0.25 s, with nothing else running in the guest.  A
whole run sits inside one regime, so no amount of averaging inside a
run removes it, and runs minutes apart differ by 15-30 %.

So every round carries a yardstick.  :func:`sample` times a fixed
piece of reference work (interpreter arithmetic, allocation, hashing
and a heap, a CRC over memory: what the appliance and the simulator
spend their cycles on); the code doing the timed work calls it about
every :data:`PERIOD_NS`, *interleaved with* that work, and the round's
yardstick is the median sample.  :func:`speed_factor` then restates a
measured duration or rate at the reference speed :data:`REFERENCE_NS`.

Only the share of the time that was spent computing is rescaled: a
workload that waits on timers (``small_ops`` today) does not speed up
on a faster machine, and is left as measured.  The share is itself
measured: CPU seconds of the processes involved over wall seconds.
"""

from __future__ import annotations

import heapq
import zlib
from time import perf_counter_ns

#: a lane (or the figure worker) takes a sample when this much time has
#: passed since its last one: 0.6 ms of work per 50 ms, under 2 %
PERIOD_NS = 50_000_000

#: median :func:`sample` on this sandbox in its fast regime; a scaled
#: rate equals the measured one when the machine runs at this speed
REFERENCE_NS = 700_000

_BLOCK = bytes(range(256)) * 2048          #: 512 KiB


def reference_work() -> None:
    total = 0
    for i in range(3000):
        total += i * i
    table = {}
    for i in range(400):
        table[i] = (i, str(i))
    heap: list = []
    for key, value in table.items():
        heapq.heappush(heap, (-key, value))
    while len(heap) > 200:
        heapq.heappop(heap)
    # read, not copied: freeing a 512 KiB block would move glibc's mmap
    # threshold, and with it the memory behaviour of the process sampled
    zlib.crc32(_BLOCK)


def sample() -> int:
    """Nanoseconds one pass of the reference work takes now."""
    began = perf_counter_ns()
    reference_work()
    return perf_counter_ns() - began


class Yardstick:
    """The samples one thread took during one segment."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self._due = perf_counter_ns() + PERIOD_NS

    def tick(self) -> None:
        """Take a sample if one is due (call between operations)."""
        if perf_counter_ns() >= self._due:
            self.samples.append(sample())
            self._due = perf_counter_ns() + PERIOD_NS

    @property
    def spent_s(self) -> float:
        return sum(self.samples) / 1e9


def median_ns(samples: list[int]) -> float:
    """Median sample; the reference itself when none was taken.  (By
    hand: this module is imported by the figure worker, where merely
    importing ``statistics`` moves the peak RSS of the simulation by
    24 MB.)"""
    if not samples:
        return float(REFERENCE_NS)
    ordered = sorted(samples)
    mid = len(ordered) // 2
    return (ordered[mid] + ordered[~mid]) / 2.0


def speed_factor(busy_share: float, yardstick_ns: float) -> float:
    """What a measured duration is multiplied by (a rate divided by) to
    read as it would with the machine at reference speed: the
    ``busy_share`` of the time that was spent computing shrinks or
    stretches with the yardstick, the rest is left alone."""
    busy = min(1.0, max(0.0, busy_share))
    return (1.0 - busy) + busy * REFERENCE_NS / yardstick_ns
