"""A simulated client's memory does not grow with its request budget.

The closed-loop workloads hand each client the number of requests it
*may* issue (``files_per_client``), far more than a short horizon lets
it finish.  The request stream is an iterator, so raising that budget
tenfold must leave the run's Python heap peak where it was.
"""

import tracemalloc

import pytest

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
