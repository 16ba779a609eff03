"""Unit tests for the decentralized autoscaler (fake health/replicator)."""

from dataclasses import dataclass, field

import pytest

from repro.replica.replicator import ReplicationError
from repro.tier.autoscale import AutoScaler
from repro.tier.heat import HeatTracker


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class FakeHealth:
    """Configurable health snapshot."""

    def __init__(self):
        self.requests = 0
        self.queue_depth = 0.0
        self.error_rate = 0.0

    def snapshot(self):
        return {
            "throughput_bps": 0.0,
            "requests": {"chirp": self.requests},
            "errors": 0,
            "error_rates": {"chirp": self.error_rate},
            "probes": {"queue_depth": self.queue_depth},
        }


class FakeSlo:
    def __init__(self, bad=False):
        self.bad = bad

    def degraded(self):
        return self.bad


@dataclass
class FakeReport:
    ok: bool = True
    target: str = "peer-1"


@dataclass
class FakeCatalog:
    valid: dict = field(default_factory=dict)
    registered: list = field(default_factory=list)

    def valid_locations(self, logical):
        return list(self.valid.get(logical, []))

    def register(self, logical, site, path, **kw):
        self.registered.append((logical, site, path))

    def mark_valid(self, logical, site, **kw):
        self.valid.setdefault(logical, []).append(site)


class FakeReplicator:
    def __init__(self):
        self.catalog = FakeCatalog()
        self.calls = []
        self.fail = False

    def path_for(self, logical):
        return f"/replicas/{logical}"

    def replicate(self, logical, k=None):
        self.calls.append((logical, k))
        if self.fail:
            raise ReplicationError("no peers")
        self.catalog.valid.setdefault(logical, []).append("peer-1")
        return [FakeReport()]


@pytest.fixture
def rig():
    clock = Clock()
    health = FakeHealth()
    heat = HeatTracker(halflife=60.0, clock=clock)
    replicator = FakeReplicator()
    scaler = AutoScaler(
        "nest-0", health, heat, replicator, FakeSlo(),
        queue_high=4.0, error_high=0.05, rate_high=50.0,
        max_files=3, max_replicas=3, budget=2, window=60.0,
        cooldown=10.0, hysteresis=2, clock=clock)
    return clock, health, heat, replicator, scaler


def make_hot(heat, replicator, logical="hot.dat", site="nest-0"):
    heat.record(f"/replicas/{logical}", nbytes=1024)
    replicator.catalog.valid[logical] = [site]


class TestSignals:
    def test_idle_below_thresholds(self, rig):
        _clock, _health, _heat, _replicator, scaler = rig
        report = scaler.tick()
        assert report["action"] == "idle"
        assert report["pressure"] == 0

    def test_request_rate_from_deltas(self, rig):
        clock, health, _heat, _replicator, scaler = rig
        scaler.tick()
        health.requests = 100
        clock.now = 2.0
        sig = scaler.signals()
        assert sig["request_rate"] == pytest.approx(50.0)

    def test_overload_predicates(self, rig):
        _clock, _health, _heat, _replicator, scaler = rig
        base = {"queue_depth": 0.0, "error_rate": 0.0,
                "request_rate": 0.0, "slo_degraded": False}
        assert not scaler.overloaded(base)
        assert scaler.overloaded({**base, "queue_depth": 4.0})
        assert scaler.overloaded({**base, "error_rate": 0.06})
        assert scaler.overloaded({**base, "request_rate": 80.0})
        assert scaler.overloaded({**base, "slo_degraded": True})

    def test_slo_engine_feeds_signal(self, rig):
        _clock, health, heat, replicator, _scaler = rig
        scaler = AutoScaler("nest-0", health, heat, replicator,
                            slo=FakeSlo(bad=True), hysteresis=1)
        assert scaler.signals()["slo_degraded"]


class TestHysteresisAndCooldown:
    def test_one_spike_only_watches(self, rig):
        _clock, health, heat, replicator, scaler = rig
        make_hot(heat, replicator)
        health.queue_depth = 10.0
        report = scaler.tick()
        assert report["action"] == "watching"
        assert replicator.calls == []

    def test_persistent_overload_replicates(self, rig):
        _clock, health, heat, replicator, scaler = rig
        make_hot(heat, replicator)
        health.queue_depth = 10.0
        scaler.tick()
        report = scaler.tick()
        assert report["action"] == "replicated"
        assert report["replicated"][0]["logical"] == "hot.dat"
        assert replicator.calls == [("hot.dat", 2)]

    def test_idle_resets_pressure(self, rig):
        _clock, health, heat, replicator, scaler = rig
        make_hot(heat, replicator)
        health.queue_depth = 10.0
        scaler.tick()
        health.queue_depth = 0.0
        scaler.tick()  # back to calm
        health.queue_depth = 10.0
        assert scaler.tick()["action"] == "watching"  # starts over

    def test_cooldown_after_action(self, rig):
        clock, health, heat, replicator, scaler = rig
        make_hot(heat, replicator)
        health.queue_depth = 10.0
        scaler.tick()
        scaler.tick()  # replicates, cooldown until now+10
        clock.now = 5.0
        assert scaler.tick()["action"] == "cooldown"
        clock.now = 11.0
        assert scaler.tick()["action"] == "replicated"


class TestBudget:
    def test_budget_caps_actions_per_window(self, rig):
        clock, health, heat, replicator, scaler = rig
        make_hot(heat, replicator)
        health.queue_depth = 10.0
        scaler.max_replicas = 10  # never hit the per-file ceiling
        scaler.tick()
        scaler.tick()            # action 1
        clock.now = 11.0
        scaler.tick()            # action 2 (budget=2 now spent)
        clock.now = 22.0
        assert scaler.tick()["action"] == "budget"
        clock.now = 75.0         # first action left the 60s window
        assert scaler.tick()["action"] == "replicated"

    def test_validation(self, rig):
        _clock, health, heat, replicator, _scaler = rig
        with pytest.raises(ValueError):
            AutoScaler("n", health, heat, replicator, FakeSlo(), hysteresis=0)
        with pytest.raises(ValueError):
            AutoScaler("n", health, heat, replicator, FakeSlo(), budget=0)
        for bad in ({"queue_high": -1.0}, {"rate_high": -1.0},
                    {"cooldown": -1.0}, {"max_replicas": 0},
                    {"interval": 0.0}):
            with pytest.raises(ValueError):
                AutoScaler("n", health, heat, replicator, FakeSlo(), **bad)


class TestScaleOut:
    def test_hottest_logicals_strips_prefix(self, rig):
        _clock, _health, heat, _replicator, scaler = rig
        heat.record("/replicas/a.dat")
        heat.record("/replicas/nested/b.dat")  # not a logical name
        heat.record("/user/c.dat")             # outside the prefix
        assert [l for l, _ in scaler.hottest_logicals()] == ["a.dat"]

    def test_seeds_catalog_from_local_lookup(self, rig):
        _clock, health, heat, replicator, _scaler = rig
        scaler = AutoScaler(
            "nest-0", health, heat, replicator, FakeSlo(), hysteresis=1,
            local_lookup=lambda logical: (1024, 0xABCD))
        heat.record("/replicas/local.dat")
        health.queue_depth = 10.0
        report = scaler.tick()
        assert report["action"] == "replicated"
        assert replicator.catalog.registered == [
            ("local.dat", "nest-0", "/replicas/local.dat")]

    def test_uncataloged_without_lookup_skipped(self, rig):
        _clock, health, heat, replicator, scaler = rig
        heat.record("/replicas/mystery.dat")
        health.queue_depth = 10.0
        scaler.tick()
        assert scaler.tick()["action"] == "no_candidates"

    def test_replica_ceiling(self, rig):
        _clock, health, heat, replicator, scaler = rig
        make_hot(heat, replicator)
        replicator.catalog.valid["hot.dat"] = ["a", "b", "c"]  # at ceiling
        health.queue_depth = 10.0
        scaler.tick()
        assert scaler.tick()["action"] == "no_candidates"
        assert replicator.calls == []

    def test_replication_errors_survive_the_tick(self, rig):
        _clock, health, heat, replicator, scaler = rig
        make_hot(heat, replicator)
        replicator.fail = True
        health.queue_depth = 10.0
        scaler.tick()
        assert scaler.tick()["action"] == "no_candidates"

    def test_describe(self, rig):
        _clock, _health, _heat, _replicator, scaler = rig
        doc = scaler.describe()
        assert doc["node"] == "nest-0"
        assert doc["thresholds"]["queue_high"] == 4.0
