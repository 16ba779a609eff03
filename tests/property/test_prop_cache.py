"""Property-based tests for the LRU buffer-cache invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.cache import BufferCache

BS = 100


@st.composite
def access_sequences(draw):
    """Random interleavings of reads/writes/cleans/invalidates."""
    n = draw(st.integers(min_value=1, max_value=60))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["read", "write", "clean", "invalidate"]))
        file_id = draw(st.sampled_from(["a", "b", "c"]))
        offset = draw(st.integers(min_value=0, max_value=900))
        nbytes = draw(st.integers(min_value=1, max_value=400))
        ops.append((kind, file_id, offset, nbytes))
    return ops


class TestLruInvariants:
    @given(access_sequences(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=150, deadline=None)
    def test_capacity_never_exceeded(self, ops, capacity_blocks):
        cache = BufferCache(capacity_blocks * BS, block_size=BS)
        for kind, file_id, offset, nbytes in ops:
            if kind == "read":
                cache.access_read(file_id, offset, nbytes)
            elif kind == "write":
                cache.access_write(file_id, offset, nbytes)
            elif kind == "clean":
                cache.clean(cache.dirty_runs_of(file_id))
            else:
                cache.invalidate_file(file_id)
            assert len(cache) <= capacity_blocks
            assert cache.dirty_bytes <= cache.resident_bytes

    @given(access_sequences())
    @settings(max_examples=100, deadline=None)
    def test_evicted_dirty_blocks_were_resident_and_dirty(self, ops):
        cache = BufferCache(4 * BS, block_size=BS)
        dirty_ever: set = set()
        for kind, file_id, offset, nbytes in ops:
            if kind == "write":
                for b in cache.blocks_of(offset, nbytes):
                    dirty_ever.add((file_id, b))
                evicted = cache.access_write(file_id, offset, nbytes)
            elif kind == "read":
                _, _, evicted = cache.access_read(file_id, offset, nbytes)
            else:
                continue
            # Every dirty eviction concerns a block that was written at
            # some point, and no block is reported evicted twice by one
            # access.  (The same access may legitimately re-insert an
            # evicted block -- e.g. a write wider than the cache.)
            victims = [(path, b) for path, start, count in evicted
                       for b in range(start, start + count)]
            assert len(victims) == len(set(victims))
            for victim in victims:
                assert victim in dirty_ever

    @given(access_sequences())
    @settings(max_examples=100, deadline=None)
    def test_read_after_read_hits(self, ops):
        cache = BufferCache(1000 * BS, block_size=BS)  # no evictions
        for kind, file_id, offset, nbytes in ops:
            if kind in ("read", "write"):
                if kind == "read":
                    cache.access_read(file_id, offset, nbytes)
                else:
                    cache.access_write(file_id, offset, nbytes)
                hit, miss, _ = cache.access_read(file_id, offset, nbytes)
                assert miss == 0

    @given(st.integers(min_value=1, max_value=50))
    @settings(deadline=None)
    def test_resident_fraction_bounds(self, nblocks):
        cache = BufferCache(10 * BS, block_size=BS)
        cache.access_read("f", 0, nblocks * BS)
        fraction = cache.resident_fraction("f", nblocks * BS)
        assert 0.0 <= fraction <= 1.0
        assert fraction == min(10, nblocks) / nblocks
