"""Determinism regression: the optimized kernel must not change a
single simulated outcome.

``tests/sim/golden_mixed_trace.json`` was captured from the *seed*
kernel (pre-optimization) by running the fig3-style mixed workload and
recording every chunk completion ``(sim_time_repr, protocol, nbytes)``
in order.  Any change to event ordering, timing arithmetic, heap
tie-breaking, timeout pooling, or the fair-share allocation shows up
here as a diverging trace -- ``repr`` of the float times keeps the
comparison bit-exact.

``tests/sim/golden_stride_trace.json`` holds the same trace under the
byte-based stride scheduler at three Fig. 4 ratios over a 4 s horizon:
the serialized-arbitration grant path and the fair-share link's wakes,
which the FIFO trace never exercises.  Each run's record compares the
same fields as the FIFO golden.

To re-capture the golden file (ONLY when a semantic change is intended
and reviewed):

    PYTHONPATH=src python -c "
    import json
    from repro.perf.workloads import traced_mixed_workload
    json.dump(traced_mixed_workload().to_golden(),
              open('tests/sim/golden_mixed_trace.json', 'w'), indent=2)"

The stride golden is re-captured the same way, one ``to_golden()`` per
ratio under ``"runs"``, with ``config=NestConfig(scheduling="stride",
shares=...)`` and ``horizon=4.0``.
"""

import json
import os

import pytest

from repro.nest.config import NestConfig
from repro.perf.workloads import TRACE_PROTOCOLS, traced_mixed_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_mixed_trace.json")
STRIDE_GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                                  "golden_stride_trace.json")


def test_mixed_trace_matches_seed_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = traced_mixed_workload().to_golden()
    # Compare the cheap fields first for a readable diff on failure...
    assert got["n_records"] == golden["n_records"]
    assert got["final_bytes"] == golden["final_bytes"]
    assert got["requests"] == golden["requests"]
    assert got["latency_count"] == golden["latency_count"]
    assert got["latency_sum_repr"] == golden["latency_sum_repr"]
    assert got["end_time_repr"] == golden["end_time_repr"]
    assert got["head"] == golden["head"]
    # ...then the digest of the full completion-order trace.
    assert got["trace_sha256"] == golden["trace_sha256"]


def test_trace_is_reproducible_within_session():
    first = traced_mixed_workload(horizon=0.05)
    second = traced_mixed_workload(horizon=0.05)
    assert first.sha256() == second.sha256()
    assert first.final_bytes == second.final_bytes


with open(STRIDE_GOLDEN_PATH, encoding="utf-8") as _fh:
    _STRIDE_GOLDEN = json.load(_fh)


@pytest.mark.parametrize("label", sorted(_STRIDE_GOLDEN["runs"]))
def test_stride_trace_matches_golden(label):
    ratios = [float(r) for r in label.split(":")]
    config = NestConfig(scheduling="stride",
                        shares=dict(zip(TRACE_PROTOCOLS, ratios)))
    got = traced_mixed_workload(horizon=_STRIDE_GOLDEN["horizon"],
                                config=config).to_golden()
    assert got == _STRIDE_GOLDEN["runs"][label]
