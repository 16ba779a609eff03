"""Units for the thread-safe metrics registry."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    global_registry,
    reset_global_registry,
)


class TestCounter:
    def test_inc_value_total(self):
        reg = MetricsRegistry()
        c = reg.counter("reqs", "requests", labelnames=("proto",))
        c.inc(proto="chirp")
        c.inc(2, proto="http")
        assert c.value(proto="chirp") == 1
        assert c.value(proto="http") == 2
        assert c.total() == 3

    def test_counters_only_go_up(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_missing_label_rejected(self):
        c = MetricsRegistry().counter("c", labelnames=("proto",))
        with pytest.raises(ValueError):
            c.inc()

    def test_unexpected_label_rejected(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            c.inc(proto="chirp")

    def test_concurrent_increments_are_not_lost(self):
        c = MetricsRegistry().counter("c")

        def spin():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 8000


class TestBoundedSeries:
    def test_overflow_collapses_instead_of_growing(self):
        c = MetricsRegistry().counter("c", labelnames=("op",), max_series=4)
        for i in range(10):
            c.inc(op=f"verb-{i}")
        series = c.series()
        assert len(series) == 5  # 4 real + the overflow bucket
        assert series[("overflow",)] == 6
        assert c.dropped_series == 6
        assert c.total() == 10  # nothing lost, just collapsed

    def test_existing_series_still_updates_past_the_cap(self):
        c = MetricsRegistry().counter("c", labelnames=("op",), max_series=2)
        c.inc(op="get")
        c.inc(op="put")
        c.inc(op="stat")  # overflow
        c.inc(op="get")  # established series keeps its own cell
        assert c.value(op="get") == 2

    def test_overflowing_label_set_is_never_cached(self):
        # Every write of an overflowing label set counts a drop, the
        # hundredth as much as the first.
        c = MetricsRegistry().counter("c", labelnames=("op",), max_series=1)
        c.inc(op="get")
        for _ in range(100):
            c.inc(op="put")
        assert c.dropped_series == 100
        assert c.value(op="overflow") == 100
        assert c.value(op="get") == 1


class TestReadsAtTheCap:
    """A read never resolves to the overflow series and never counts a
    drop: an unwritten label set reads 0, however full the metric."""

    @staticmethod
    def _full_counter():
        c = MetricsRegistry().counter("c", labelnames=("op",), max_series=2)
        for op in ("a", "b", "c", "c"):
            c.inc(op=op)
        return c

    def test_counter_value(self):
        c = self._full_counter()
        assert c.dropped_series == 2
        assert c.value(op="zzz") == 0
        assert c.value(op="zzz") == 0
        assert c.dropped_series == 2
        assert c.value(op="overflow") == 2

    def test_gauge_value(self):
        g = MetricsRegistry().gauge("g", labelnames=("op",), max_series=1)
        g.set(5, op="a")
        g.set(7, op="b")  # overflow
        assert g.dropped_series == 1
        assert g.value(op="zzz") == 0
        assert g.value(op="b") == 0
        assert g.dropped_series == 1

    def test_histogram_count_and_sum(self):
        h = MetricsRegistry().histogram("h", labelnames=("op",),
                                        max_series=1)
        h.observe(0.5, op="a")
        h.observe(2.0, op="b")  # overflow
        assert h.dropped_series == 1
        assert h.count(op="zzz") == 0
        assert h.sum(op="zzz") == 0.0
        assert h.count(op="a") == 1
        assert h.sum(op="a") == 0.5
        assert h.dropped_series == 1


class TestKeyCache:
    def test_argument_order_reaches_the_same_series(self):
        c = MetricsRegistry().counter("c", labelnames=("op", "outcome"))
        c.inc(op="get", outcome="ok")
        c.inc(outcome="ok", op="get")
        c.inc(op="get", outcome="ok")
        assert c.series() == {("get", "ok"): 3}

    def test_non_string_labels_keep_their_own_series(self):
        # 1, 1.0 and True hash alike; each must still be str()-ed apart.
        c = MetricsRegistry().counter("c", labelnames=("n",))
        for value in (1, 1.0, True, "1", 1):
            c.inc(n=value)
        assert c.series() == {("1",): 3, ("1.0",): 1, ("True",): 1}


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("g")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value() == 6

    def test_callback_gauge_probes_at_read_time(self):
        box = {"depth": 3}
        reg = MetricsRegistry()
        g = reg.gauge_callback("queue", lambda: box["depth"])
        assert g.value() == 3
        box["depth"] = 7
        assert g.value() == 7

    def test_broken_callback_reads_as_zero(self):
        g = MetricsRegistry().gauge_callback(
            "q", lambda: 1 / 0)  # pragma: no branch
        assert g.value() == 0.0


class TestHistogram:
    def test_observe_count_sum(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(0.002)
        h.observe(0.2)
        assert h.count() == 2
        assert h.sum() == pytest.approx(0.202)

    def test_bucket_counts_are_cumulative_in_snapshot(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)  # lands in +Inf
        series = h.series()[()]
        assert series["buckets"] == [1, 2, 3]
        assert series["count"] == 3

    def test_bucket_edges_are_inclusive(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        for value in (0.1, 1.0, -3.0):
            h.observe(value)
        assert h.series()[()]["buckets"] == [2, 3, 3]

    def test_nan_lands_in_the_inf_bucket(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        h.observe(float("nan"))
        assert h.series()[()]["buckets"] == [0, 0, 1]
        assert h.count() == 1

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_snapshot_is_plain_data(self):
        reg = MetricsRegistry()
        reg.counter("c", "help", labelnames=("op",)).inc(op="get")
        snap = reg.snapshot()
        assert snap["c"]["kind"] == "counter"
        assert snap["c"]["series"] == {("get",): 1}

    def test_reset_global_registry_isolates(self):
        first = reset_global_registry()
        first.counter("stale").inc()
        second = reset_global_registry()
        assert second is global_registry()
        assert second.get("stale") is None
