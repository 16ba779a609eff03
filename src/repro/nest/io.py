"""The zero-copy fast transfer layer (data-path performance).

Every byte a NeST moves used to pass through Python ``bytes`` objects:
``source.read()`` allocated a fresh chunk, ``sink.write()`` copied it
out, and checksum verification re-read whole files afterwards.  This
module is the shared hot path that removes those costs:

* **file -> socket sends** go through :func:`sendfile` --
  ``os.sendfile`` moves pages kernel-to-kernel without surfacing a
  single byte into Python -- with a chunked-copy fallback for sources
  and sinks that have no usable file descriptor (``BytesIO``-backed
  memory stores, fault-injection wrappers, platforms without
  sendfile);
* **socket -> file receives** (and every other buffered copy) use a
  pooled ``bytearray``/``memoryview`` ring via :class:`BufferPool` and
  ``readinto``, so a steady-state transfer allocates nothing per
  chunk;
* **incremental ``zlib.crc32``** folds into the buffered streaming
  loop, so the Chirp checksum verb, replica verification, and
  durability reconciliation get a checksum of what was just moved for
  free instead of re-reading the file.

Eligibility checks are deliberately *class-level* (``type(stream)``),
never instance ``getattr``: fault-injection wrappers
(:class:`repro.faults.plan.FaultyStream`) forward unknown attributes
to the raw stream via ``__getattr__``, and an instance-level probe
would route I/O around the fault plan.  A wrapped stream therefore
never reaches sendfile: it takes the buffered path through its own
guarded ``readinto``/``write``, where every injected reset, short
read, and stall still fires.

The module keeps plain-integer counters (the cheapest thing the hot
path can afford, same convention as the sim kernel counters);
:func:`register_metrics` exposes them on a
:class:`~repro.obs.metrics.MetricsRegistry` as gauge callbacks so they
appear in ``/metrics`` scrapes and the ``repro stats`` demo.
"""

from __future__ import annotations

import io as _io
import os
import select as _select
import threading
import zlib
from typing import BinaryIO, Optional

__all__ = [
    "BufferPool",
    "FastPathCounters",
    "COUNTERS",
    "DEFAULT_POOL",
    "real_fileno",
    "sendfile",
    "sendfile_available",
    "copy_stream",
    "stream_crc32",
    "register_metrics",
]

#: Default pooled-buffer size: large enough that syscall overhead
#: amortizes, small enough that a ring of them is cheap to keep.
DEFAULT_BUFFER_BYTES = 256 * 1024

#: Whether this platform has ``os.sendfile`` at all.
sendfile_available = hasattr(os, "sendfile")


class FastPathCounters:
    """Process-wide hot-path counters (plain ints; read via snapshot)."""

    __slots__ = ("sendfile_sends", "sendfile_bytes", "fallback_sends",
                 "fallback_bytes", "crc_folds", "_lock")

    def __init__(self) -> None:
        self.sendfile_sends = 0
        self.sendfile_bytes = 0
        self.fallback_sends = 0
        self.fallback_bytes = 0
        #: buffered chunks whose CRC32 was folded in-stream.
        self.crc_folds = 0
        self._lock = threading.Lock()

    def count_sendfile(self, nbytes: int) -> None:
        with self._lock:
            self.sendfile_sends += 1
            self.sendfile_bytes += nbytes

    def count_fallback(self, nbytes: int, folded_crc: bool) -> None:
        with self._lock:
            self.fallback_sends += 1
            self.fallback_bytes += nbytes
            if folded_crc:
                self.crc_folds += 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "sendfile_sends": self.sendfile_sends,
                "sendfile_bytes": self.sendfile_bytes,
                "fallback_sends": self.fallback_sends,
                "fallback_bytes": self.fallback_bytes,
                "crc_folds": self.crc_folds,
            }


#: The process-wide counters every fast-path helper feeds.
COUNTERS = FastPathCounters()


class BufferPool:
    """A bounded ring of reusable ``bytearray`` transfer buffers.

    ``acquire`` hands out a free buffer (a *hit*) or allocates a fresh
    one when the ring is empty (a *miss*); ``release`` returns it.
    The ring never holds more than ``max_buffers``, so a burst of
    concurrent transfers allocates what it needs and the steady state
    keeps a warm working set.  Thread-safe; buffers are plain
    ``bytearray`` so callers wrap them in ``memoryview`` for
    zero-copy slicing.
    """

    def __init__(self, buffer_bytes: int = DEFAULT_BUFFER_BYTES,
                 max_buffers: int = 32):
        if buffer_bytes < 1:
            raise ValueError("buffer_bytes must be >= 1")
        self.buffer_bytes = int(buffer_bytes)
        self.max_buffers = int(max_buffers)
        self._free: list[bytearray] = []
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.outstanding = 0

    def acquire(self) -> bytearray:
        with self._lock:
            self.outstanding += 1
            if self._free:
                self.hits += 1
                return self._free.pop()
            self.misses += 1
        return bytearray(self.buffer_bytes)

    def release(self, buf: bytearray) -> None:
        with self._lock:
            self.outstanding -= 1
            if (len(buf) == self.buffer_bytes
                    and len(self._free) < self.max_buffers):
                self._free.append(buf)

    def hit_rate(self) -> float:
        """Fraction of acquisitions served from the ring."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "outstanding": self.outstanding,
                "free": len(self._free),
                "hit_rate": self.hits / total if total else 0.0,
            }


#: The pool the live data path shares.
DEFAULT_POOL = BufferPool()


# ---------------------------------------------------------------------------
# stream eligibility
# ---------------------------------------------------------------------------
def real_fileno(stream) -> Optional[int]:
    """The stream's OS file descriptor, or None.

    Class-level lookup first: a wrapper that merely *forwards*
    ``fileno`` through ``__getattr__`` (the fault-injection streams)
    must not be treated as descriptor-backed, or sendfile would move
    bytes behind the fault plan's back.
    """
    if getattr(type(stream), "fileno", None) is None:
        return None
    try:
        return stream.fileno()
    except (OSError, ValueError, _io.UnsupportedOperation):
        return None


# ---------------------------------------------------------------------------
# zero-copy send
# ---------------------------------------------------------------------------
def sendfile(out_fd: int, in_fd: int, count: int,
             timeout: float = 30.0) -> int:
    """One ``os.sendfile`` call of up to ``count`` bytes at the source
    descriptor's current offset; returns bytes moved (0 at EOF).

    Handles a momentarily full socket buffer (``EAGAIN`` on sockets
    carrying a timeout) by waiting for writability rather than
    spinning.  Raises ``OSError`` for descriptors sendfile cannot
    serve -- callers demote the transfer to the buffered path.
    """
    while True:
        try:
            sent = os.sendfile(out_fd, in_fd, None, count)
        except BlockingIOError:
            # poll, not select: select raises ValueError for
            # descriptors >= FD_SETSIZE (1024), which a busy server's
            # data sockets reach.
            waiter = _select.poll()
            waiter.register(out_fd, _select.POLLOUT)
            if not waiter.poll(timeout * 1000):
                raise OSError("sendfile: socket not writable "
                              f"within {timeout}s")
            continue
        if sent:
            COUNTERS.count_sendfile(sent)
        return sent


# ---------------------------------------------------------------------------
# pooled buffered copy (with in-stream CRC folding)
# ---------------------------------------------------------------------------
def copy_stream(source: BinaryIO, sink: BinaryIO, length: int = -1, *,
                crc: int = 0, pool: BufferPool | None = None) -> tuple[int, int]:
    """Copy ``length`` bytes (-1: to EOF) through one pooled buffer,
    folding ``zlib.crc32`` into the loop; returns ``(moved, crc)``.

    The source is read with ``readinto`` (no per-chunk allocation).
    """
    pool = pool or DEFAULT_POOL
    buf = pool.acquire()
    view = memoryview(buf)
    moved = 0
    try:
        while length < 0 or moved < length:
            want = len(buf) if length < 0 else min(len(buf), length - moved)
            got = source.readinto(view[:want])
            if not got:
                break
            chunk = view[:got]
            crc = zlib.crc32(chunk, crc)
            sink.write(chunk)
            moved += got
            COUNTERS.count_fallback(got, folded_crc=True)
    finally:
        view.release()
        pool.release(buf)
    return moved, crc & 0xFFFFFFFF


def stream_crc32(source: BinaryIO, length: int = -1, *, crc: int = 0,
                 pool: BufferPool | None = None) -> tuple[int, int]:
    """CRC32 of up to ``length`` bytes (-1: to EOF) read through one
    pooled buffer; returns ``(crc, nbytes)``.  Single pass, zero
    per-chunk allocations."""
    pool = pool or DEFAULT_POOL
    buf = pool.acquire()
    view = memoryview(buf)
    nbytes = 0
    try:
        while length < 0 or nbytes < length:
            want = len(buf) if length < 0 else min(len(buf), length - nbytes)
            got = source.readinto(view[:want])
            if not got:
                break
            crc = zlib.crc32(view[:got], crc)
            nbytes += got
    finally:
        view.release()
        pool.release(buf)
    return crc & 0xFFFFFFFF, nbytes


# ---------------------------------------------------------------------------
# metrics exposure
# ---------------------------------------------------------------------------
def register_metrics(registry, pool: BufferPool | None = None) -> None:
    """Expose the fast-path counters and the buffer pool on a metrics
    registry as gauge callbacks (idempotent per registry: re-registering
    the same names returns the existing series)."""
    pool = pool or DEFAULT_POOL
    registry.gauge_callback(
        "nest_fastpath_sendfile_sends", lambda: float(COUNTERS.sendfile_sends),
        "Transfer quanta moved via os.sendfile (zero-copy).")
    registry.gauge_callback(
        "nest_fastpath_sendfile_bytes", lambda: float(COUNTERS.sendfile_bytes),
        "Bytes moved via os.sendfile.")
    registry.gauge_callback(
        "nest_fastpath_fallback_sends", lambda: float(COUNTERS.fallback_sends),
        "Transfer quanta moved via the pooled-buffer fallback.")
    registry.gauge_callback(
        "nest_fastpath_fallback_bytes", lambda: float(COUNTERS.fallback_bytes),
        "Bytes moved via the pooled-buffer fallback.")
    registry.gauge_callback(
        "nest_fastpath_crc_folds", lambda: float(COUNTERS.crc_folds),
        "Buffered chunks whose CRC32 was folded into the stream loop.")
    registry.gauge_callback(
        "nest_buffer_pool_hits", lambda: float(pool.hits),
        "Buffer-pool acquisitions served from the ring.")
    registry.gauge_callback(
        "nest_buffer_pool_misses", lambda: float(pool.misses),
        "Buffer-pool acquisitions that had to allocate.")
    registry.gauge_callback(
        "nest_buffer_pool_hit_rate", pool.hit_rate,
        "Fraction of buffer acquisitions served from the ring.")
