"""What a simulation's memory grows with, counted, not timed.

The closed-loop workloads hand each client the number of requests it
*may* issue (``files_per_client``), far more than a short horizon lets
it finish.  The request stream is an iterator, so raising that budget
tenfold must leave the run's Python heap peak where it was.

The buffer-cache model keeps runs of blocks, so a full cache costs what
its runs cost, not what its blocks would.
"""

import tracemalloc

import pytest

from repro.models.cache import BufferCache
from repro.models.platform import LINUX
from repro.simnest.workload import run_mixed_protocols, run_single_protocol

#: Largest heap-peak difference allowed between a 1,000- and a
#: 10,000-request budget.  A materialised stream costs about 10 MB.
SLACK = 256 * 1024


def _heap_peak(run, files_per_client: int) -> int:
    """Bytes the heap peaks above its level at the start of ``run``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(files_per_client)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _mixed(files_per_client: int) -> None:
    run_mixed_protocols(LINUX, "nest", files_per_client=files_per_client,
                        horizon=0.2, warmup=0.1)


def _nfs(files_per_client: int) -> None:
    run_single_protocol("nfs", LINUX, "nest",
                        files_per_client=files_per_client,
                        horizon=0.2, warmup=0.1)


@pytest.mark.parametrize("run", [_mixed, _nfs], ids=["mixed", "nfs"])
def test_heap_peak_does_not_grow_with_the_request_budget(run):
    run(1_000)  # warm imports and caches outside the measurement
    small = _heap_peak(run, 1_000)
    large = _heap_peak(run, 10_000)
    assert abs(large - small) < SLACK, (small, large)


def _fig5_uncached_reads(cache: BufferCache) -> None:
    """Fig. 5's uncached shape: four clients, each reading its own 60
    files of 10 MB in turn, in 256 KiB chunks interleaved round robin."""
    file_bytes, chunk = 10_000_000, 256 * 1024

    def reads(client):
        for i in range(60):
            for offset in range(0, file_bytes, chunk):
                yield (f"/fig5/f-{client}-{i}", offset,
                       min(chunk, file_bytes - offset))

    streams = [reads(client) for client in range(4)]
    for steps in zip(*streams):
        for path, offset, nbytes in steps:
            cache.access_read(path, offset, nbytes)


def test_a_full_cache_costs_its_runs_not_its_blocks():
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cache = BufferCache(LINUX.cache_bytes, LINUX.block_size)
        _fig5_uncached_reads(cache)
        heap = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(cache) == cache.capacity_blocks == 32_768
    # One run per chunk still resident (a block per entry took 7.0 MiB).
    assert cache.run_count <= 1_100, cache.run_count
    assert heap <= 1 << 20, heap
