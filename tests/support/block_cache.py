"""The per-block LRU buffer cache: the reference the run cache is checked against.

This is the block-at-a-time model :mod:`repro.models.cache` used before
it kept runs: one ``OrderedDict`` entry per resident ``(path, block)``
key plus a mirror of the dirty subset.  It is slow and large, but
obviously LRU, so ``tests/models/test_cache_differential.py`` drives it
and the run cache with the same steps and requires identical results.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable


class BufferCache:
    """An LRU cache of fixed-size blocks with a byte capacity."""

    def __init__(self, capacity_bytes: int, block_size: int = 8192):
        if capacity_bytes < 0 or block_size <= 0:
            raise ValueError("invalid cache geometry")
        self.capacity_bytes = int(capacity_bytes)
        self.block_size = int(block_size)
        self.capacity_blocks = self.capacity_bytes // self.block_size
        # key -> dirty flag; OrderedDict keeps LRU order (MRU at end).
        self._blocks: "OrderedDict[tuple[str, int], bool]" = OrderedDict()
        # The dirty subset, kept in the same relative LRU order as
        # ``_blocks`` (every reorder of a dirty key is mirrored), so
        # dirty-byte counts and oldest-dirty scans need not walk the
        # whole cache.
        self._dirty: "OrderedDict[tuple[str, int], None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # -- geometry -----------------------------------------------------------
    def blocks_of(self, offset: int, nbytes: int) -> range:
        """Block numbers covering ``[offset, offset + nbytes)``."""
        if nbytes <= 0:
            return range(0)
        first = offset // self.block_size
        last = (offset + nbytes - 1) // self.block_size
        return range(first, last + 1)

    # -- state queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def resident_bytes(self) -> int:
        """Bytes currently cached."""
        return len(self._blocks) * self.block_size

    @property
    def dirty_bytes(self) -> int:
        """Bytes cached and not yet written back."""
        return len(self._dirty) * self.block_size

    def contains(self, path: str, block: int) -> bool:
        """True if the block is resident (does not touch LRU order)."""
        return (path, block) in self._blocks

    def resident_fraction(self, path: str, size_bytes: int) -> float:
        """Fraction of a file's blocks currently resident."""
        blocks = self.blocks_of(0, size_bytes)
        if len(blocks) == 0:
            return 1.0
        hits = sum(1 for b in blocks if (path, b) in self._blocks)
        return hits / len(blocks)

    # -- access ----------------------------------------------------------------
    def access_read(
        self, path: str, offset: int, nbytes: int
    ) -> tuple[int, int, list[tuple[str, int]]]:
        """Record a read; returns (hit_bytes, miss_bytes, evicted_dirty).

        Missing blocks are inserted (the read populates the cache);
        ``evicted_dirty`` lists dirty blocks pushed out by the insertions,
        which the caller must write back.
        """
        hit_blocks = 0
        miss_blocks = 0
        evicted: list[tuple[str, int]] = []
        for b in self.blocks_of(offset, nbytes):
            key = (path, b)
            if key in self._blocks:
                hit_blocks += 1
                self._blocks.move_to_end(key)
                if key in self._dirty:
                    self._dirty.move_to_end(key)
            else:
                miss_blocks += 1
                evicted.extend(self._insert(key, dirty=False))
        self.hits += hit_blocks
        self.misses += miss_blocks
        return hit_blocks * self.block_size, miss_blocks * self.block_size, evicted

    def access_write(
        self, path: str, offset: int, nbytes: int
    ) -> list[tuple[str, int]]:
        """Record a write (blocks become dirty); returns evicted dirty blocks."""
        evicted: list[tuple[str, int]] = []
        for b in self.blocks_of(offset, nbytes):
            key = (path, b)
            if key in self._blocks:
                self._blocks[key] = True
                self._blocks.move_to_end(key)
                self._dirty[key] = None
                self._dirty.move_to_end(key)
            else:
                evicted.extend(self._insert(key, dirty=True))
        return evicted

    def clean(self, keys: Iterable[tuple[str, int]]) -> None:
        """Mark blocks as written back (no longer dirty)."""
        for key in keys:
            if key in self._blocks:
                self._blocks[key] = False
                self._dirty.pop(key, None)

    def dirty_blocks_of(self, path: str) -> list[tuple[str, int]]:
        """All dirty blocks belonging to ``path``."""
        return [k for k in self._dirty if k[0] == path]

    def oldest_dirty(self, max_blocks: int) -> list[tuple[str, int]]:
        """Up to ``max_blocks`` dirty blocks, oldest (LRU) first."""
        run: list[tuple[str, int]] = []
        for key in self._dirty:
            run.append(key)
            if len(run) >= max_blocks:
                break
        return run

    def invalidate_file(self, path: str) -> None:
        """Drop every block of ``path`` (e.g. on delete)."""
        for key in [k for k in self._blocks if k[0] == path]:
            del self._blocks[key]
            self._dirty.pop(key, None)

    def _insert(self, key: tuple[str, int], dirty: bool) -> list[tuple[str, int]]:
        evicted: list[tuple[str, int]] = []
        if self.capacity_blocks == 0:
            # Degenerate cache: writes are immediately "evicted".
            return [key] if dirty else []
        while len(self._blocks) >= self.capacity_blocks:
            victim, was_dirty = self._blocks.popitem(last=False)
            if was_dirty:
                del self._dirty[victim]
                evicted.append(victim)
        self._blocks[key] = dirty
        if dirty:
            self._dirty[key] = None
        return evicted
