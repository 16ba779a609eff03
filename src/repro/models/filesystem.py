"""The local-filesystem model: cache + disk + quotas composed.

This is the OS-level substrate the simulated NeST runs on.  It owns a
:class:`~repro.models.cache.BufferCache`, a
:class:`~repro.models.disk.Disk`, and a
:class:`~repro.models.quota.QuotaTable`, and exposes generator methods
(``yield from fs.read(...)``) that spend simulated time:

* **reads** cost a memory copy for resident blocks and disk I/O for the
  rest (populating the cache);
* **writes** land in the cache (write-behind) until the dirty headroom
  is exhausted, after which the writer blocks on flushing -- and, with
  quotas enabled, every flushed data block also pays a synchronous
  quota-file update (the Fig. 6 overhead; see
  :mod:`repro.models.quota`);
* **space accounting** charges the owner's quota on allocation, which
  is how quota-backed lots are enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.models.cache import BufferCache, Run
from repro.models.disk import Disk
from repro.models.platform import PlatformProfile
from repro.models.quota import OverQuota, QuotaTable
from repro.sim.core import Environment


@dataclass
class FileMeta:
    """Metadata for one simulated file."""

    path: str
    owner: str
    size: int = 0


class FileSystemModel:
    """A simulated local filesystem with write-behind cache and quotas."""

    def __init__(
        self,
        env: Environment,
        platform: PlatformProfile,
        capacity_bytes: int = 0,
        quotas_enabled: bool = False,
        quota_io_blocks_per_data_block: float = 0.45,
    ):
        self.env = env
        self.platform = platform
        self.capacity_bytes = int(capacity_bytes) or 100 * (1 << 30)
        self.quotas_enabled = quotas_enabled
        #: Metadata blocks written per flushed data block when quotas
        #: are on.  The default 0.45, combined with the two seeks each
        #: flush batch pays to visit the quota area, reproduces the
        #: paper's ~50 % worst case for long sequential streams.
        self.quota_io_blocks_per_data_block = quota_io_blocks_per_data_block
        self.cache = BufferCache(platform.cache_bytes, platform.block_size)
        self.disk = Disk(
            env,
            read_bw=platform.disk_read_bw,
            write_bw=platform.disk_write_bw,
            seek_time=platform.disk_seek,
        )
        self.quotas = QuotaTable()
        self.files: dict[str, FileMeta] = {}
        self.used_bytes = 0

    # ------------------------------------------------------------------
    # metadata operations (instantaneous: "order of milliseconds" ops are
    # charged by the storage manager, not the fs model)
    # ------------------------------------------------------------------
    def create(self, path: str, owner: str) -> FileMeta:
        """Create an empty file owned by ``owner``."""
        if path in self.files:
            raise FileExistsError(path)
        meta = FileMeta(path=path, owner=owner)
        self.files[path] = meta
        return meta

    def lookup(self, path: str) -> FileMeta:
        """Return the file's metadata or raise ``FileNotFoundError``."""
        try:
            return self.files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def delete(self, path: str) -> None:
        """Remove a file, releasing its space and quota charge."""
        meta = self.lookup(path)
        self.cache.invalidate_file(path)
        self.quotas.release(meta.owner, meta.size)
        self.used_bytes -= meta.size
        del self.files[path]

    def free_bytes(self) -> int:
        """Unallocated capacity."""
        return self.capacity_bytes - self.used_bytes

    # ------------------------------------------------------------------
    # data path (generator methods; yield from inside a process)
    # ------------------------------------------------------------------
    def read(self, path: str, offset: int, nbytes: int) -> Generator:
        """Read ``nbytes`` at ``offset``: cache hits at memory speed,
        misses from disk (cache is populated; evicted dirty blocks are
        written back first)."""
        meta = self.lookup(path)
        nbytes = min(nbytes, meta.size - offset)
        if nbytes <= 0:
            return
        hit_bytes, miss_bytes, evicted = self.cache.access_read(path, offset, nbytes)
        if evicted:
            yield from self._writeback(evicted)
        if hit_bytes:
            yield hit_bytes / self.platform.mem_copy_bw
        if miss_bytes:
            yield from self.disk.read(path, offset, miss_bytes)

    def write(self, path: str, offset: int, nbytes: int) -> Generator:
        """Write ``nbytes`` at ``offset`` with write-behind semantics.

        Raises :exc:`OverQuota` (before spending any time) if the
        allocation growth would exceed the owner's quota, and
        :exc:`OSError` if the filesystem itself is full.
        """
        meta = self.lookup(path)
        if nbytes <= 0:
            return
        growth = max(0, offset + nbytes - meta.size)
        if growth:
            if growth > self.free_bytes():
                raise OSError(f"filesystem full writing {path!r}")
            self.quotas.charge(meta.owner, growth)  # may raise OverQuota
            meta.size += growth
            self.used_bytes += growth
        # Copy into the cache.
        yield nbytes / self.platform.mem_copy_bw
        evicted = self.cache.access_write(path, offset, nbytes)
        if evicted:
            yield from self._writeback(evicted, quota_user=meta.owner)
        # Dirty-headroom throttle: the writer blocks until the cache is
        # back under the headroom (this is where Fig. 6's quota
        # surcharge is paid).
        while self.cache.dirty_bytes > self.platform.dirty_headroom:
            dirty = self._oldest_dirty_run()
            if not dirty:
                break
            yield from self._flush_runs(dirty, quota_surcharge=True)

    def sync(self, path: str) -> Generator:
        """Flush all of a file's dirty blocks (fsync).

        The sync path writes the coalesced quota block once, so its
        quota surcharge is a single metadata block rather than
        per-data-block (see :mod:`repro.models.quota`).
        """
        self.lookup(path)
        dirty = sorted(self.cache.dirty_runs_of(path), key=lambda r: r[1])
        yield from self._flush_runs(dirty, quota_surcharge=False)
        if self.quotas_enabled and dirty:
            yield from self.disk.write(
                "__quota__", 0, self.platform.block_size
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _oldest_dirty_run(self, max_blocks: int = 64) -> list[Run]:
        """Up to ``max_blocks`` dirty blocks in LRU order, grouped so a
        contiguous run from one file flushes as one sequential write."""
        return sorted(self.cache.oldest_dirty(max_blocks))

    def _writeback(self, runs: list[Run],
                   quota_user: str | None = None) -> Generator:
        runs = sorted(runs)
        if any(a[0] == b[0] and b[1] < a[1] + a[2]
               for a, b in zip(runs, runs[1:])):
            # A write wider than the cache can evict a block twice;
            # each copy is its own write, as a sorted block list has it.
            runs = [(p, b, 1) for p, s, n in runs for b in range(s, s + n)]
        yield from self._flush_runs(runs, quota_surcharge=True)

    def _flush_runs(self, runs: list[Run], quota_surcharge: bool) -> Generator:
        """Write the given sorted cache runs to disk, coalescing runs
        that continue one another into one sequential write."""
        if not runs:
            return
        bs = self.platform.block_size
        writes: list[Run] = []
        for path, start, count in runs:
            last = writes[-1] if writes else None
            if last and last[0] == path and last[1] + last[2] == start:
                writes[-1] = (path, last[1], last[2] + count)
            else:
                writes.append((path, start, count))
        for path, start, count in writes:
            yield from self.disk.write(path, start * bs, count * bs)
            if self.quotas_enabled and quota_surcharge:
                surcharge = count * self.quota_io_blocks_per_data_block * bs
                if surcharge > 0:
                    yield from self.disk.write("__quota__", 0, surcharge)
        self.cache.clean(runs)


__all__ = ["FileSystemModel", "FileMeta", "OverQuota"]
