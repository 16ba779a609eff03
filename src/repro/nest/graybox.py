"""Gray-box estimation of the kernel buffer cache.

NeST cannot see inside the OS, but it observes every byte it reads and
writes; by shadowing those accesses through its own LRU model sized
like the kernel's cache, it can *predict* which files are resident
(Arpaci-Dusseau gray-box techniques; Burnett et al. for buffer caches
-- both cited by the paper).  The estimate feeds
:class:`repro.nest.scheduling.CacheAwareScheduler`.

The estimate is deliberately imperfect in the same ways the real
technique is: other processes' I/O is invisible, and the kernel's exact
replacement policy may differ -- tests exercise both divergences.
"""

from __future__ import annotations

from typing import Hashable

from repro.models.cache import BufferCache


#: Kernel buffer-cache size the shadow model assumes.
ASSUMED_CACHE_BYTES = 256 * (1 << 20)


class GrayBoxCacheModel:
    """NeST's shadow model of the kernel buffer cache."""

    def __init__(self, assumed_capacity_bytes: int = ASSUMED_CACHE_BYTES,
                 block_size: int = 8192):
        self._shadow = BufferCache(assumed_capacity_bytes, block_size)

    # -- observations (called on NeST's own I/O path) -----------------------
    def observe_read(self, path: Hashable, offset: int, nbytes: int) -> None:
        """Record that NeST read this range (kernel will have cached it)."""
        self._shadow.access_read(path, offset, nbytes)

    def observe_write(self, path: Hashable, offset: int, nbytes: int) -> None:
        """Record that NeST wrote this range."""
        self._shadow.access_write(path, offset, nbytes)

    def observe_delete(self, path: Hashable) -> None:
        """Record that the file is gone (kernel invalidates its blocks)."""
        self._shadow.invalidate_file(path)

    # -- predictions ----------------------------------------------------------
    def predict_residency(self, path: Hashable, size_bytes: int) -> float:
        """Estimated fraction of the file resident in the kernel cache."""
        return self._shadow.resident_fraction(path, size_bytes)

    def predict_resident(self, path: Hashable, size_bytes: int,
                         threshold: float = 0.9) -> bool:
        """Convenience: is the file (probably) fully cache-resident?"""
        return self.predict_residency(path, size_bytes) >= threshold

    @property
    def block_size(self) -> int:
        return self._shadow.block_size
