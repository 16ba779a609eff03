"""Seek-aware disk model.

A single spindle serves one request at a time (FIFO).  A request pays a
seek whenever it does not continue sequentially from the previous
access (different file, or a hole in the offset), then streams at the
platter bandwidth.  This captures the effect that matters to the
paper's experiments: interleaving chunks from many concurrent streams
costs seeks, while long sequential runs approach full bandwidth.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.core import Environment
from repro.sim.resources import Resource


class Disk:
    """A disk with ``read_bw``/``write_bw`` bytes/s and ``seek_time`` seconds."""

    def __init__(
        self,
        env: Environment,
        read_bw: float,
        write_bw: float,
        seek_time: float,
        name: str = "disk",
    ):
        self.env = env
        self.read_bw = float(read_bw)
        self.write_bw = float(write_bw)
        self.seek_time = float(seek_time)
        self.name = name
        self._arm = Resource(env, capacity=1)
        self._head: tuple[str, float] | None = None  # (path, next offset)
        #: Lifetime counters for experiment reporting.
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.seeks = 0

    def read(self, path: str, offset: float, nbytes: float) -> Generator:
        """Process step: read ``nbytes`` of ``path`` starting at ``offset``."""
        yield from self._io(path, offset, nbytes, self.read_bw, write=False)

    def write(self, path: str, offset: float, nbytes: float) -> Generator:
        """Process step: write ``nbytes`` of ``path`` starting at ``offset``."""
        yield from self._io(path, offset, nbytes, self.write_bw, write=True)

    def _io(
        self, path: str, offset: float, nbytes: float, bw: float, write: bool
    ) -> Generator:
        if nbytes <= 0:
            return
        with self._arm.request() as grant:
            yield grant
            if self._head != (path, offset):
                self.seeks += 1
                # Seek + stream as one sleep: the arm is held
                # throughout, so nothing can observe the intermediate
                # instant, and the sum lands at the bit-exact same
                # completion time as two back-to-back sleeps.
                yield (self.seek_time, nbytes / bw)
            else:
                yield nbytes / bw
            self._head = (path, offset + nbytes)
            if write:
                self.bytes_written += nbytes
            else:
                self.bytes_read += nbytes

    @property
    def queue_length(self) -> int:
        """Requests waiting for the arm (a contention signal for schedulers)."""
        return self._arm.queue_length
