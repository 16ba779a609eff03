"""Unit tests for the composed filesystem model."""

import pytest

from repro.models.filesystem import FileSystemModel
from repro.models.platform import LINUX
from repro.models.quota import OverQuota
from repro.sim import Environment


def make_fs(quotas=False, **kwargs):
    env = Environment()
    fs = FileSystemModel(env, LINUX, quotas_enabled=quotas, **kwargs)
    return env, fs


def run_io(env, gen):
    return env.run(env.process(gen))


class TestMetadata:
    def test_create_lookup_delete(self):
        env, fs = make_fs()
        fs.create("/a", "u")
        assert fs.lookup("/a").owner == "u"
        fs.delete("/a")
        with pytest.raises(FileNotFoundError):
            fs.lookup("/a")

    def test_create_duplicate_rejected(self):
        env, fs = make_fs()
        fs.create("/a", "u")
        with pytest.raises(FileExistsError):
            fs.create("/a", "u")

    def test_delete_releases_space_and_quota(self):
        env, fs = make_fs()
        fs.quotas.set_limit("u", 1000)
        fs.create("/a", "u")

        def write():
            yield from fs.write("/a", 0, 500)

        run_io(env, write())
        assert fs.used_bytes == 500
        assert fs.quotas.used_by("u") == 500
        fs.delete("/a")
        assert fs.used_bytes == 0
        assert fs.quotas.used_by("u") == 0


class TestTiming:
    def test_cached_read_is_memory_speed(self):
        env, fs = make_fs()
        fs.create("/a", "u")
        run_io(env, fs.write("/a", 0, 1 << 20))
        t0 = env.now

        def read():
            yield from fs.read("/a", 0, 1 << 20)

        run_io(env, read())
        elapsed = env.now - t0
        assert elapsed < (1 << 20) / LINUX.mem_copy_bw * 2

    def test_uncached_read_hits_disk(self):
        env, fs = make_fs()
        fs.create("/a", "u")
        fs.files["/a"].size = 1 << 20  # data "exists" but is not cached

        def read():
            yield from fs.read("/a", 0, 1 << 20)

        run_io(env, read())
        assert env.now >= (1 << 20) / LINUX.disk_read_bw
        assert fs.disk.bytes_read >= 1 << 20

    def test_read_beyond_eof_truncated(self):
        env, fs = make_fs()
        fs.create("/a", "u")
        run_io(env, fs.write("/a", 0, 100))

        def read():
            yield from fs.read("/a", 50, 1000)

        run_io(env, read())  # should not raise

    def test_write_grows_file(self):
        env, fs = make_fs()
        fs.create("/a", "u")
        run_io(env, fs.write("/a", 0, 100))
        run_io(env, fs.write("/a", 100, 100))
        assert fs.lookup("/a").size == 200

    def test_overwrite_does_not_grow(self):
        env, fs = make_fs()
        fs.create("/a", "u")
        run_io(env, fs.write("/a", 0, 100))
        run_io(env, fs.write("/a", 0, 100))
        assert fs.lookup("/a").size == 100
        assert fs.used_bytes == 100


class TestQuotaIntegration:
    def test_over_quota_write_raises_before_spending_time(self):
        env, fs = make_fs()
        fs.quotas.set_limit("u", 100)
        fs.create("/a", "u")
        with pytest.raises(OverQuota):
            # The generator raises on first next() -- before any yield.
            next(fs.write("/a", 0, 200))
        assert env.now == 0.0
        assert fs.lookup("/a").size == 0

    def test_filesystem_full(self):
        env, fs = make_fs(capacity_bytes=1000)
        fs.create("/a", "u")
        with pytest.raises(OSError):
            next(fs.write("/a", 0, 2000))

    def test_quota_write_slower_than_without(self):
        big = 100 * 1_000_000

        def measure(quotas):
            env, fs = make_fs(quotas=quotas)
            fs.create("/a", "u")

            def stream():
                off = 0
                while off < big:
                    yield from fs.write("/a", off, 1 << 20)
                    off += 1 << 20
                yield from fs.sync("/a")

            run_io(env, stream())
            return env.now

        assert measure(True) > 1.5 * measure(False)

    def test_sync_flushes_dirty(self):
        env, fs = make_fs()
        fs.create("/a", "u")
        run_io(env, fs.write("/a", 0, 1 << 20))
        assert fs.cache.dirty_bytes > 0
        run_io(env, fs.sync("/a"))
        assert fs.cache.dirty_runs_of("/a") == []
