"""Unit tests for the LRU buffer-cache model."""

import gc

import pytest

from repro.models.cache import BufferCache


def cache(blocks=4, bs=100):
    return BufferCache(capacity_bytes=blocks * bs, block_size=bs)


class TestGeometry:
    def test_blocks_of_exact(self):
        c = cache()
        assert list(c.blocks_of(0, 100)) == [0]
        assert list(c.blocks_of(0, 200)) == [0, 1]

    def test_blocks_of_straddling(self):
        c = cache()
        assert list(c.blocks_of(50, 100)) == [0, 1]
        assert list(c.blocks_of(99, 2)) == [0, 1]

    def test_blocks_of_empty(self):
        c = cache()
        assert list(c.blocks_of(0, 0)) == []

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            BufferCache(-1)
        with pytest.raises(ValueError):
            BufferCache(100, block_size=0)


class TestReadPath:
    def test_miss_populates(self):
        c = cache()
        hit, miss, evicted = c.access_read("f", 0, 200)
        assert (hit, miss) == (0, 200)
        assert evicted == []
        hit, miss, _ = c.access_read("f", 0, 200)
        assert (hit, miss) == (200, 0)

    def test_hit_miss_counters(self):
        c = cache()
        c.access_read("f", 0, 200)
        c.access_read("f", 0, 400)
        assert c.hits == 2 and c.misses == 4

    def test_lru_eviction_order(self):
        c = cache(blocks=2)
        c.access_read("a", 0, 100)
        c.access_read("b", 0, 100)
        c.access_read("a", 0, 100)  # refresh a
        c.access_read("c", 0, 100)  # evicts b
        assert c.contains("a", 0)
        assert not c.contains("b", 0)
        assert c.contains("c", 0)

    def test_eviction_returns_dirty_blocks(self):
        c = cache(blocks=2)
        c.access_write("d", 0, 200)  # both blocks dirty
        _, _, evicted = c.access_read("x", 0, 200)
        assert evicted == [("d", 0, 2)]


class TestWritePath:
    def test_write_marks_dirty(self):
        c = cache()
        c.access_write("f", 0, 100)
        assert c.dirty_bytes == 100

    def test_clean_clears_dirty(self):
        c = cache()
        c.access_write("f", 0, 200)
        c.clean([("f", 0, 2)])
        assert c.dirty_bytes == 0
        assert c.resident_bytes == 200

    def test_dirty_blocks_of(self):
        c = cache()
        c.access_write("f", 0, 100)
        c.access_write("g", 0, 100)
        assert c.dirty_runs_of("f") == [("f", 0, 1)]

    def test_rewrite_keeps_single_copy(self):
        c = cache()
        c.access_write("f", 0, 100)
        c.access_write("f", 0, 100)
        assert len(c) == 1

    def test_zero_capacity_cache_bounces_writes(self):
        c = BufferCache(0, block_size=100)
        evicted = c.access_write("f", 0, 100)
        assert evicted == [("f", 0, 1)]
        assert len(c) == 0


class TestInvalidation:
    def test_invalidate_file(self):
        c = cache()
        c.access_read("f", 0, 200)
        c.access_read("g", 0, 100)
        c.invalidate_file("f")
        assert not c.contains("f", 0)
        assert c.contains("g", 0)

    def test_resident_fraction(self):
        c = cache(blocks=8)
        c.access_read("f", 0, 400)
        assert c.resident_fraction("f", 400) == pytest.approx(1.0)
        assert c.resident_fraction("f", 800) == pytest.approx(0.5)
        assert c.resident_fraction("g", 100) == 0.0

    def test_resident_fraction_empty_file(self):
        c = cache()
        assert c.resident_fraction("f", 0) == 1.0


def test_a_dropped_cache_is_freed_by_refcounting():
    gc.collect()
    gc.disable()
    try:
        c = cache(blocks=8)
        c.access_read("f", 0, 300)
        c.access_write("g", 0, 200)
        c.access_read("f", 100, 100)
        assert c.run_count == 4
        del c
        assert gc.collect() == 0
    finally:
        gc.enable()
