"""Gray-box estimation of the kernel buffer cache.

NeST cannot see inside the OS, but it observes every byte it reads and
writes; by shadowing those accesses through its own LRU model sized
like the kernel's cache, it can *predict* which files are resident
(Arpaci-Dusseau gray-box techniques; Burnett et al. for buffer caches
-- both cited by the paper).  The estimate feeds
:class:`repro.nest.scheduling.CacheAwareScheduler` and nothing else, so
:func:`model_for` builds it only for that policy: under FCFS or stride
no shadow exists, and the data path feeds none.

The estimate is deliberately imperfect in the same ways the real
technique is: other processes' I/O is invisible, and the kernel's exact
replacement policy may differ -- tests exercise both divergences.
"""

from __future__ import annotations

import threading
from typing import Hashable

from repro.models.cache import BufferCache


#: Kernel buffer-cache size the shadow model assumes.
ASSUMED_CACHE_BYTES = 256 * (1 << 20)


def model_for(scheduling: str,
              block_size: int = 8192) -> "GrayBoxCacheModel | None":
    """The shadow model a server with this scheduling policy needs:
    one for ``"cache-aware"``, the only reader of a prediction, and
    None for every other policy."""
    if scheduling != "cache-aware":
        return None
    return GrayBoxCacheModel(block_size=block_size)


class GrayBoxCacheModel:
    """NeST's shadow model of the kernel buffer cache.

    Every connection's thread feeds it and the scheduler reads it, so
    one lock guards each observation and prediction: the LRU's
    check-then-reorder steps are not atomic on their own.
    """

    def __init__(self, assumed_capacity_bytes: int = ASSUMED_CACHE_BYTES,
                 block_size: int = 8192):
        self._shadow = BufferCache(assumed_capacity_bytes, block_size)
        self._lock = threading.Lock()

    # -- observations (called on NeST's own I/O path) -----------------------
    def observe_read(self, path: Hashable, offset: int, nbytes: int) -> None:
        """Record that NeST read this range (kernel will have cached it)."""
        with self._lock:
            self._shadow.access_read(path, offset, nbytes)

    def observe_write(self, path: Hashable, offset: int, nbytes: int) -> None:
        """Record that NeST wrote this range."""
        with self._lock:
            self._shadow.access_write(path, offset, nbytes)

    def observe_delete(self, path: Hashable) -> None:
        """Record that the file is gone (kernel invalidates its blocks)."""
        with self._lock:
            self._shadow.invalidate_file(path)

    # -- predictions ----------------------------------------------------------
    def predict_residency(self, path: Hashable, size_bytes: int) -> float:
        """Estimated fraction of the file resident in the kernel cache
        (a walk over the file's cached runs, not its blocks)."""
        with self._lock:
            return self._shadow.resident_fraction(path, size_bytes)

    def predict_resident(self, path: Hashable, size_bytes: int,
                         threshold: float = 0.9) -> bool:
        """Convenience: is the file (probably) fully cache-resident?"""
        return self.predict_residency(path, size_bytes) >= threshold

    @property
    def block_size(self) -> int:
        return self._shadow.block_size
