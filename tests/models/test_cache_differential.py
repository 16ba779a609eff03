"""The run cache against the per-block reference, step for step.

A hypothesis state machine drives :class:`repro.models.cache.BufferCache`
(the LRU kept as runs) and ``tests/support/block_cache.BufferCache`` (one
``OrderedDict`` entry per block) with the same reads, writes, cleans and
invalidations.  Capacities run from 0 to 8 blocks and accesses up to
twice the capacity, so misses that evict later blocks of their own
access, accesses wider than the cache and the degenerate empty cache
all occur.  After every step each return value, expanded block by
block, and every state query must be equal.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.models.cache import BufferCache
from tests.support.block_cache import BufferCache as BlockCache

BS = 100
PATHS = ("a", "b", "c")
#: Blocks of each path the machine touches (offsets stay below this).
SPAN = 16

paths = st.sampled_from(PATHS)


def expand(runs):
    """Runs as the per-block cache reports them."""
    return [(path, b) for path, start, count in runs
            for b in range(start, start + count)]


def lru_order(cache: BufferCache):
    """The run cache's LRU list, block by block, with dirty flags."""
    out = []
    root = cache._root
    node = root.next
    while node is not root:
        out.extend(((node.path, b), node.dirty)
                   for b in range(node.start, node.end))
        node = node.next
    return out


class RunCacheMatchesBlockCache(RuleBasedStateMachine):
    @initialize(capacity=st.integers(min_value=0, max_value=8))
    def build(self, capacity):
        self.capacity = capacity
        self.runs = BufferCache(capacity * BS, block_size=BS)
        self.blocks = BlockCache(capacity * BS, block_size=BS)

    def _extent(self, data):
        offset = data.draw(st.integers(min_value=0, max_value=SPAN * BS))
        widest = max(1, 2 * self.capacity) * BS
        return offset, data.draw(st.integers(min_value=1, max_value=widest))

    @rule(path=paths, data=st.data())
    def read(self, path, data):
        offset, nbytes = self._extent(data)
        hit, miss, evicted = self.runs.access_read(path, offset, nbytes)
        assert (hit, miss, expand(evicted)) == \
            self.blocks.access_read(path, offset, nbytes)

    @rule(path=paths, data=st.data())
    def write(self, path, data):
        offset, nbytes = self._extent(data)
        evicted = self.runs.access_write(path, offset, nbytes)
        assert expand(evicted) == self.blocks.access_write(path, offset, nbytes)

    @rule(max_blocks=st.integers(min_value=1, max_value=10))
    def clean_oldest(self, max_blocks):
        runs = self.runs.oldest_dirty(max_blocks)
        keys = self.blocks.oldest_dirty(max_blocks)
        assert expand(runs) == keys
        self.runs.clean(runs)
        self.blocks.clean(keys)

    @rule(path=paths)
    def clean_file(self, path):
        runs = self.runs.dirty_runs_of(path)
        keys = self.blocks.dirty_blocks_of(path)
        assert expand(runs) == keys
        self.runs.clean(runs)
        self.blocks.clean(keys)

    @rule(path=paths, start=st.integers(min_value=0, max_value=SPAN + 2),
          count=st.integers(min_value=1, max_value=6))
    def clean_any(self, path, start, count):
        # Arbitrary keys, resident or not.
        run = (path, start, count)
        self.runs.clean([run])
        self.blocks.clean(expand([run]))

    @rule(path=paths)
    def invalidate(self, path):
        self.runs.invalidate_file(path)
        self.blocks.invalidate_file(path)

    @invariant()
    def same_state(self):
        runs, blocks = self.runs, self.blocks
        assert lru_order(runs) == list(blocks._blocks.items())
        assert (len(runs), runs.dirty_bytes, runs.resident_bytes,
                runs.hits, runs.misses) == \
            (len(blocks), blocks.dirty_bytes, blocks.resident_bytes,
             blocks.hits, blocks.misses)
        assert runs.run_count <= len(runs)
        for path in PATHS:
            for size in (0, 1, 3 * BS + 1, SPAN * BS):
                assert runs.resident_fraction(path, size) == \
                    blocks.resident_fraction(path, size)
            resident = [blocks.contains(path, b) for b in range(SPAN + 4)]
            assert [runs.contains(path, b)
                    for b in range(SPAN + 4)] == resident
            for first in range(0, SPAN, 3):
                for width in (1, 2, 5):
                    assert runs.is_resident(path, first * BS, width * BS) \
                        == all(resident[first:first + width])


RunCacheMatchesBlockCache.TestCase.settings = settings(
    derandomize=True, max_examples=150, stateful_step_count=30,
    deadline=None)
TestRunCacheMatchesBlockCache = RunCacheMatchesBlockCache.TestCase
