"""LRU kernel buffer cache model (block bookkeeping, kept as runs).

The cache tracks which ``(path, block)`` pairs are resident and
whether they are dirty.  It is pure bookkeeping -- it spends no
simulated time itself; the filesystem model charges memory-copy time
for hits and disk time for misses and write-back.

The LRU order is a doubly linked list of *runs*.  A run is a sequence
of consecutive blocks of one path that sit next to each other in LRU
order and share a dirty flag; expanded block by block (blocks of a run
in ascending order), the list is exactly the LRU order of a cache that
keeps one entry per block.  Every transfer in the figures reads or
writes a whole chunk of consecutive blocks, so a chunk is one run, not
32 dictionary entries: a 256 MiB cache filled by four interleaved
256 KiB-chunk readers holds about 1,000 runs instead of 32,768 blocks.
A per-path sorted list of run starts finds the run holding a block by
bisection.

Results are exact, not approximate.  An access is served as a sequence
of segments, each either wholly resident inside one run (its blocks
move to the MRU end in order, as block-by-block hits would) or wholly
missing up to the next resident run of the path (it evicts from the
LRU end exactly as many blocks as block-by-block inserts would, then
lands at the MRU end).  The next segment is looked up only after the
previous one is done, so a miss that evicts a later block of the same
access sees it missing, as the per-block model does.  Blocks leave
this class as runs ``(path, first_block, block_count)``; evicted dirty
runs come out in the order a per-block cache would evict the blocks.
``tests/support/block_cache.py`` keeps that per-block cache, and a
differential state machine holds the two to identical results.

NeST's *gray-box* cache estimate (:mod:`repro.nest.graybox`) is a
second, independent instance of the same structure fed only with the
accesses NeST itself performed -- exactly the technique of
Arpaci-Dusseau's gray-box work the paper cites for cache-aware
scheduling.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from typing import Iterable

#: ``(path, first_block, block_count)``: consecutive blocks of one path.
Run = tuple[str, int, int]


class _Node:
    """One run in the LRU list; the list's sentinel has ``path=None``."""

    __slots__ = ("path", "start", "end", "dirty", "prev", "next")

    def __init__(self, path, start: int, end: int, dirty: bool):
        self.path = path
        self.start = start
        self.end = end
        self.dirty = dirty


def _unlink_all(root: _Node) -> None:
    node = root
    while node is not None:
        nxt = node.next
        node.prev = node.next = None
        node = nxt


class BufferCache:
    """An LRU cache of fixed-size blocks with a byte capacity."""

    def __init__(self, capacity_bytes: int, block_size: int = 8192):
        if capacity_bytes < 0 or block_size <= 0:
            raise ValueError("invalid cache geometry")
        self.capacity_bytes = int(capacity_bytes)
        self.block_size = int(block_size)
        self.capacity_blocks = self.capacity_bytes // self.block_size
        # Sentinel of the circular LRU list: ``next`` is the LRU run,
        # ``prev`` the MRU run.
        root = self._root = _Node(None, 0, 0, False)
        root.prev = root.next = root
        # Neighbouring runs point at each other: unlink them when the cache
        # goes, so a finished simulation is freed by refcounting alone.
        weakref.finalize(self, _unlink_all, root)
        #: path -> (sorted run starts, the runs in the same order)
        self._paths: dict[str, tuple[list[int], list[_Node]]] = {}
        self._resident = 0
        self._dirty = 0
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
        return self._resident

    @property
    def run_count(self) -> int:
        """Runs the resident blocks are kept as."""
        return sum(len(starts) for starts, _ in self._paths.values())

    @property
    def resident_bytes(self) -> int:
        """Bytes currently cached."""
        return self._resident * self.block_size

    @property
    def dirty_bytes(self) -> int:
        """Bytes cached and not yet written back."""
        return self._dirty * self.block_size

    def contains(self, path: str, block: int) -> bool:
        """True if the block is resident (does not touch LRU order)."""
        return self.is_resident(path, block * self.block_size, 1)

    def is_resident(self, path: str, offset: int, nbytes: int) -> bool:
        """True if every block of the byte range is resident (does not
        touch LRU order)."""
        blocks = self.blocks_of(offset, nbytes)
        b, end = blocks.start, blocks.stop
        entry = self._paths.get(path)
        if entry is None:
            return b >= end
        starts, nodes = entry
        i = bisect_right(starts, b) - 1
        # The path's runs are disjoint and sorted: the range is resident
        # iff runs from the one holding its first block chain over it.
        while b < end:
            if i < 0 or i == len(nodes):
                return False
            node = nodes[i]
            if not node.start <= b < node.end:
                return False
            b = node.end
            i += 1
        return True

    def resident_fraction(self, path: str, size_bytes: int) -> float:
        """Fraction of a file's blocks currently resident."""
        nblocks = len(self.blocks_of(0, size_bytes))
        if nblocks == 0:
            return 1.0
        entry = self._paths.get(path)
        if entry is None:
            return 0.0
        hits = 0
        for node in entry[1]:
            if node.start >= nblocks:
                break
            hits += min(node.end, nblocks) - node.start
        return hits / nblocks

    def dirty_runs_of(self, path: str) -> list[Run]:
        """Every dirty block of ``path`` as runs, in LRU order."""
        out: list[Run] = []
        root = self._root
        node = root.next
        while node is not root:
            if node.dirty and node.path == path:
                out.append((path, node.start, node.end - node.start))
            node = node.next
        return out

    def oldest_dirty(self, max_blocks: int) -> list[Run]:
        """Up to ``max_blocks`` dirty blocks as runs, oldest (LRU) first."""
        out: list[Run] = []
        root = self._root
        node = root.next
        left = max_blocks
        while node is not root and left > 0:
            if node.dirty:
                n = min(node.end - node.start, left)
                out.append((node.path, node.start, n))
                left -= n
            node = node.next
        return out

    # -- access ----------------------------------------------------------------
    def access_read(self, path: str, offset: int,
                    nbytes: int) -> tuple[int, int, list[Run]]:
        """Record a read; returns (hit_bytes, miss_bytes, evicted_dirty).

        Missing blocks are inserted (the read populates the cache);
        ``evicted_dirty`` lists the dirty runs pushed out by the
        insertions, which the caller must write back.
        """
        evicted: list[Run] = []
        if nbytes <= 0:
            return 0, 0, evicted
        bs = self.block_size
        first = offset // bs
        stop = (offset + nbytes - 1) // bs + 1
        hit = self._access(path, first, stop, False, evicted)
        miss = stop - first - hit
        self.hits += hit
        self.misses += miss
        return hit * self.block_size, miss * self.block_size, evicted

    def access_write(self, path: str, offset: int, nbytes: int) -> list[Run]:
        """Record a write (blocks become dirty); returns evicted dirty runs."""
        evicted: list[Run] = []
        if nbytes > 0:
            bs = self.block_size
            self._access(path, offset // bs, (offset + nbytes - 1) // bs + 1,
                         True, evicted)
        return evicted

    def clean(self, runs: Iterable[Run]) -> None:
        """Mark the resident blocks of ``runs`` as written back (no longer
        dirty); their LRU position does not change."""
        for path, start, count in runs:
            entry = self._paths.get(path)
            if entry is None:
                continue
            starts, nodes = entry
            end = start + count
            i = bisect_right(starts, start) - 1
            if i < 0 or nodes[i].end <= start:
                i += 1
            while i < len(nodes) and nodes[i].start < end:
                node = nodes[i]
                if node.dirty:
                    if node.start < start:
                        node = self._split(node, i, start)
                        i += 1
                    if end < node.end:
                        self._split(node, i, end)
                    node.dirty = False
                    self._dirty -= node.end - node.start
                    i = self._coalesce(node, i, starts, nodes)
                i += 1

    def invalidate_file(self, path: str) -> None:
        """Drop every block of ``path`` (e.g. on delete)."""
        entry = self._paths.pop(path, None)
        if entry is None:
            return
        for node in entry[1]:
            node.prev.next = node.next
            node.next.prev = node.prev
            n = node.end - node.start
            self._resident -= n
            if node.dirty:
                self._dirty -= n

    # -- internals ---------------------------------------------------------------
    def _access(self, path: str, b: int, end: int, write: bool,
                evicted: list[Run]) -> int:
        """Serve blocks ``[b, end)`` segment by segment; returns the
        number of hits."""
        hits = 0
        paths = self._paths
        while b < end:
            entry = paths.get(path)
            stop = end
            if entry is not None:
                starts, nodes = entry
                i = bisect_right(starts, b) - 1
                if i >= 0 and nodes[i].end > b:
                    node = nodes[i]
                    stop = node.end if node.end < end else end
                    hits += stop - b
                    self._touch(node, i, b, stop, write or node.dirty,
                                starts, nodes)
                    b = stop
                    continue
                if i + 1 < len(starts) and starts[i + 1] < end:
                    stop = starts[i + 1]
            self._insert(path, b, stop, write, evicted)
            b = stop
        return hits

    def _touch(self, node: _Node, i: int, b: int, e: int, dirty: bool,
               starts: list[int], nodes: list[_Node]) -> None:
        """Move resident blocks ``[b, e)`` of ``node`` (index ``i`` of its
        path's ``starts``/``nodes``) to the MRU end, with the given dirty
        flag."""
        root = self._root
        if node is root.prev and e == node.end and dirty == node.dirty:
            return  # already the MRU blocks, in this order
        if dirty and not node.dirty:
            self._dirty += e - b
        path = node.path
        if b == node.start:
            if e == node.end:
                # The whole run moves: relink it at the MRU end.
                node.prev.next = node.next
                node.next.prev = node.prev
                node.dirty = dirty
                tail = root.prev
                if tail.path == path and tail.end == b and tail.dirty == dirty:
                    tail.end = e
                    del starts[i], nodes[i]
                else:
                    node.prev = tail
                    node.next = root
                    tail.next = root.prev = node
                return
            node.start = starts[i] = e
            at = i
        elif e == node.end:
            node.end = b
            at = i + 1
        else:
            self._split(node, i, e)
            node.end = b
            at = i + 1
        self._append(path, b, e, dirty, starts, nodes, at)

    def _insert(self, path: str, b: int, e: int, dirty: bool,
                evicted: list[Run]) -> None:
        """Insert missing blocks ``[b, e)`` at the MRU end, first evicting
        what block-by-block inserts would."""
        n = e - b
        cap = self.capacity_blocks
        if n > cap:
            # Every resident block goes, then the first ``n - cap`` new
            # blocks are pushed out by the last ``cap`` (a degenerate
            # cache bounces every write this way).
            self._evict(self._resident, evicted)
            if dirty:
                evicted.append((path, b, n - cap))
            b = e - cap
            n = cap
            if n == 0:
                return
        elif self._resident + n > cap:
            self._evict(self._resident + n - cap, evicted)
        self._resident += n
        if dirty:
            self._dirty += n
        entry = self._paths.get(path)
        if entry is None:
            entry = self._paths[path] = ([], [])
        starts, nodes = entry
        self._append(path, b, e, dirty, starts, nodes, bisect_right(starts, b))

    def _append(self, path: str, b: int, e: int, dirty: bool,
                starts: list[int], nodes: list[_Node], at: int) -> None:
        """Link blocks ``[b, e)`` at the MRU end, extending the MRU run
        when they continue it; ``at`` is their index among the path's
        runs."""
        root = self._root
        tail = root.prev
        if tail.path == path and tail.end == b and tail.dirty == dirty:
            tail.end = e
            return
        node = _Node(path, b, e, dirty)
        node.prev = tail
        node.next = root
        tail.next = root.prev = node
        starts.insert(at, b)
        nodes.insert(at, node)

    def _evict(self, k: int, evicted: list[Run]) -> None:
        """Drop the ``k`` least recently used blocks, recording dirty ones."""
        root = self._root
        self._resident -= k
        while k > 0:
            node = root.next
            first = node.start
            n = node.end - first
            starts, nodes = self._paths[node.path]
            i = bisect_right(starts, first) - 1
            if n > k:
                n = k
                node.start = starts[i] = first + k
            else:
                root.next = node.next
                node.next.prev = root
                del starts[i], nodes[i]
                if not starts:
                    del self._paths[node.path]
            if node.dirty:
                evicted.append((node.path, first, n))
                self._dirty -= n
            k -= n

    def _split(self, node: _Node, i: int, at: int) -> _Node:
        """Split ``node`` (index ``i`` of its path) before block ``at``;
        the upper part follows it in LRU order and is returned."""
        upper = _Node(node.path, at, node.end, node.dirty)
        node.end = at
        upper.prev = node
        upper.next = node.next
        node.next.prev = upper
        node.next = upper
        starts, nodes = self._paths[node.path]
        starts.insert(i + 1, at)
        nodes.insert(i + 1, upper)
        return upper

    def _coalesce(self, node: _Node, i: int, starts: list[int],
                  nodes: list[_Node]) -> int:
        """Merge ``node`` with LRU neighbours that continue it (same path,
        adjacent blocks, same flag); returns the merged run's index."""
        prev, nxt = node.prev, node.next
        if (nxt.path == node.path and nxt.start == node.end
                and nxt.dirty == node.dirty):
            node.end = nxt.end
            node.next = nxt.next
            nxt.next.prev = node
            del starts[i + 1], nodes[i + 1]
        if (prev.path == node.path and prev.end == node.start
                and prev.dirty == node.dirty):
            prev.end = node.end
            prev.next = node.next
            node.next.prev = prev
            del starts[i], nodes[i]
            return i - 1
        return i
