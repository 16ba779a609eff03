"""The SLO engine: declarative objectives over metric snapshots.

Synthetic snapshots drive the engine through a fake clock, so the
window arithmetic -- budget remaining, multi-window burn rates,
degradation -- is asserted exactly, without sleeping.
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloEngine, SloObjective, default_objectives


class Clock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


def counter_entry(series, labels=("protocol", "op", "outcome")):
    return {"kind": "counter", "labels": labels, "help": "",
            "series": dict(series)}


def histogram_entry(count, within, bounds=(0.1, 1.0)):
    # cumulative buckets: [<=0.1, <=1.0, +Inf]
    return {"kind": "histogram", "labels": ("protocol",), "help": "",
            "buckets": list(bounds),
            "series": {("chirp",): {"count": count, "sum": float(count),
                                 "buckets": [within, within, count]}}}


def gauge_entry(value):
    return {"kind": "gauge", "labels": (), "help": "",
            "series": {(): value}}


ERRORS = SloObjective("errors", kind="error_rate", metric="reqs",
                      target=0.99)
LATENCY = SloObjective("latency", kind="latency", metric="lat",
                       target=0.99, threshold=1.0)
LAG = SloObjective("lag", kind="value_under", metric="lag_s",
                   target=0.9, threshold=300.0)


class TestObjectives:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SloObjective("x", kind="vibes", metric="m")

    def test_target_must_be_fraction(self):
        with pytest.raises(ValueError, match="target"):
            SloObjective("x", kind="latency", metric="m", target=1.0)

    def test_defaults_cover_the_acceptance_objectives(self):
        names = {o.name for o in default_objectives()}
        assert names == {"request_latency_p99", "request_error_rate",
                         "replica_repair_lag"}


class TestErrorRate:
    def test_all_ok_is_compliant_with_full_budget(self):
        engine = SloEngine(objectives=(ERRORS,), clock=Clock())
        (status,) = engine.evaluate(
            {"reqs": counter_entry({("chirp", "get", "ok"): 100.0})})
        assert status["compliant"] and not status["degraded"]
        assert status["error_budget_remaining"] == 1.0

    def test_burst_of_errors_blows_the_budget(self):
        clock = Clock()
        engine = SloEngine(objectives=(ERRORS,), windows=(60.0, 600.0),
                           clock=clock)
        engine.sample({"reqs": counter_entry({("chirp", "get", "ok"): 100.0})})
        clock.now += 30.0
        (status,) = engine.evaluate(
            {"reqs": counter_entry({("chirp", "get", "ok"): 100.0,
                                    ("chirp", "get", "error"): 10.0})})
        # 10 bad of 10 new events in-window: far beyond the 1% budget.
        assert not status["compliant"]
        assert status["degraded"]
        assert status["error_budget_remaining"] == 0.0
        assert status["burn_rate"]["60s"] > 1.0

    def test_budget_recovers_as_the_bad_window_ages_out(self):
        clock = Clock()
        engine = SloEngine(objectives=(ERRORS,), windows=(60.0, 600.0),
                           clock=clock)
        engine.sample({"reqs": counter_entry({("chirp", "get", "error"): 5.0})})
        bad_then_good = {"reqs": counter_entry(
            {("chirp", "get", "error"): 5.0, ("chirp", "get", "ok"): 10000.0})}
        clock.now += 700.0  # the errors fall off the long window
        (status,) = engine.evaluate(bad_then_good)
        assert status["compliant"]
        assert status["error_budget_remaining"] == 1.0


class TestLatency:
    def test_fast_requests_comply(self):
        engine = SloEngine(objectives=(LATENCY,), clock=Clock())
        (status,) = engine.evaluate({"lat": histogram_entry(100, 100)})
        assert status["compliant"]

    def test_slow_tail_breaks_the_objective(self):
        clock = Clock()
        engine = SloEngine(objectives=(LATENCY,), clock=clock)
        engine.sample({"lat": histogram_entry(100, 100)})
        clock.now += 10.0
        # 10 new requests, none inside the 1.0s bound.
        (status,) = engine.evaluate({"lat": histogram_entry(110, 100)})
        assert not status["compliant"]
        assert status["degraded"]


class TestValueUnder:
    def test_bounded_gauge_is_one_good_event_per_sample(self):
        engine = SloEngine(objectives=(LAG,), clock=Clock())
        (status,) = engine.evaluate({"lag_s": gauge_entry(12.0)})
        assert status["compliant"]
        assert status["events"] == 1.0

    def test_runaway_lag_degrades(self):
        clock = Clock()
        engine = SloEngine(objectives=(LAG,), clock=clock)
        for _ in range(5):
            clock.now += 5.0
            (status,) = engine.evaluate({"lag_s": gauge_entry(9999.0)})
        assert not status["compliant"]
        assert status["degraded"]

    def test_worst_shard_governs_merged_gauges(self):
        engine = SloEngine(objectives=(LAG,), clock=Clock())
        entry = {"kind": "gauge", "labels": (), "help": "",
                 "series": {("", "0"): 1.0, ("", "1"): 5000.0}}
        (status,) = engine.evaluate({"lag_s": entry})
        assert not status["compliant"]


class TestNoData:
    def test_absent_metric_reads_compliant_no_data(self):
        engine = SloEngine(objectives=(LAG,), clock=Clock())
        (status,) = engine.evaluate({})
        assert status["no_data"]
        assert status["compliant"] and not status["degraded"]


class TestPublication:
    def test_gauges_and_report_and_attributes(self):
        registry = MetricsRegistry()
        reqs = registry.counter("reqs", "requests",
                                labelnames=("protocol", "op", "outcome"))
        clock = Clock()
        engine = SloEngine(registry=registry, objectives=(ERRORS,),
                           clock=clock)
        reqs.inc(50, protocol="chirp", op="get", outcome="ok")
        engine.sample()
        clock.now += 5.0
        reqs.inc(50, protocol="chirp", op="get", outcome="error")
        report = engine.report()
        assert report["degraded"]
        assert report["objectives"][0]["objective"] == "errors"
        snapshot = registry.snapshot()
        assert "slo_error_budget_remaining" in snapshot
        assert "slo_compliant" in snapshot
        assert "slo_burn_rate" in snapshot
        attrs = engine.attributes()
        assert attrs["SloDegraded"] is True
        assert attrs["SloWorstBudgetRemaining"] == 0.0

    def test_engine_samples_its_own_registry_when_wired(self):
        registry = MetricsRegistry()
        requests = registry.counter("nest_requests_total", "t",
                                    labelnames=("protocol", "op",
                                                "outcome"))
        requests.inc(protocol="chirp", op="get", outcome="ok")
        engine = SloEngine(registry=registry, clock=Clock())
        statuses = engine.evaluate()
        by_name = {s["objective"]: s for s in statuses}
        assert not by_name["request_error_rate"]["no_data"]
        assert by_name["request_error_rate"]["compliant"]
