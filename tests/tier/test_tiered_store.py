"""Unit tests for TieredStore: residency machine, recall on miss,
journal records, crash reconciliation, and the rate-limited cold tier."""

import pytest

from repro.nest.backends import MemoryStore, staged_name
from repro.tier.store import (
    COLD,
    HOT,
    MIGRATING,
    RECALLING,
    RateLimitedStore,
    TieredStore,
    TierError,
)


def put(store, path, data):
    """Write ``path`` as a PUT lands: a staged file renamed over it."""
    staged = staged_name(path)
    with store.open_write(staged) as stream:
        stream.write(data)
    store.rename(staged, path)


def get(store, path):
    with store.open_read(path) as stream:
        return stream.read()


@pytest.fixture
def tiers():
    fast, cold = MemoryStore(), MemoryStore()
    return fast, cold, TieredStore(fast, cold)


class TestMigrate:
    def test_moves_bytes_to_cold(self, tiers):
        fast, cold, tiered = tiers
        put(tiered, "/a.dat", b"x" * 1000)
        moved = tiered.migrate("/a.dat")
        assert moved == 1000
        assert tiered.state_of("/a.dat") == COLD
        assert not fast.exists("/a.dat")
        assert cold.size("/a.dat") == 1000

    def test_size_and_exists_span_tiers(self, tiers):
        _fast, _cold, tiered = tiers
        put(tiered, "/a.dat", b"x" * 123)
        tiered.migrate("/a.dat")
        assert tiered.exists("/a.dat")
        assert tiered.size("/a.dat") == 123

    def test_rejects_non_hot(self, tiers):
        _fast, _cold, tiered = tiers
        put(tiered, "/a.dat", b"x")
        tiered.migrate("/a.dat")
        with pytest.raises(TierError):
            tiered.migrate("/a.dat")

    def test_rejects_missing_file(self, tiers):
        _fast, _cold, tiered = tiers
        with pytest.raises(TierError):
            tiered.migrate("/nope.dat")


class TestRecall:
    def test_read_recalls_on_miss(self, tiers):
        fast, cold, tiered = tiers
        put(tiered, "/a.dat", b"y" * 500)
        tiered.migrate("/a.dat")
        assert get(tiered, "/a.dat") == b"y" * 500
        assert tiered.state_of("/a.dat") == HOT
        assert fast.size("/a.dat") == 500
        assert not cold.exists("/a.dat")

    def test_explicit_recall_requires_cold(self, tiers):
        _fast, _cold, tiered = tiers
        put(tiered, "/a.dat", b"y")
        with pytest.raises(TierError):
            tiered.recall("/a.dat")


class TestWrites:
    def test_overwrite_cold_promotes_and_invalidates(self, tiers):
        fast, cold, tiered = tiers
        put(tiered, "/a.dat", b"old" * 100)
        tiered.migrate("/a.dat")
        put(tiered, "/a.dat", b"new")
        assert tiered.state_of("/a.dat") == HOT
        assert get(tiered, "/a.dat") == b"new"
        assert not cold.exists("/a.dat")

    def test_rename_over_a_cold_file_drops_its_cold_copy(self, tiers):
        fast, cold, tiered = tiers
        put(tiered, "/a", b"stale" * 20)
        tiered.migrate("/a")
        put(tiered, "/b", b"fresh")
        tiered.rename("/b", "/a")
        assert get(tiered, "/a") == b"fresh"
        assert tiered.state_of("/a") == HOT
        assert not cold.exists("/a") and tiered._cold_bytes == 0

    def test_delete_clears_both_tiers(self, tiers):
        fast, cold, tiered = tiers
        put(tiered, "/a.dat", b"z" * 64)
        tiered.migrate("/a.dat")
        tiered.delete("/a.dat")
        assert not tiered.exists("/a.dat")
        assert tiered.state_of("/a.dat") == HOT  # no residual entry
        assert tiered.residency == {}


class TestJournal:
    def test_migrate_journals_before_apply(self, tiers):
        _fast, _cold, tiered = tiers
        log = []
        tiered.journal = lambda rtype, **f: log.append((rtype, f))
        put(tiered, "/a.dat", b"j" * 10)
        tiered.migrate("/a.dat")
        states = [f["state"] for rtype, f in log if rtype == "tier_state"]
        assert states == [MIGRATING, COLD]

    def test_recall_journal_order(self, tiers):
        _fast, _cold, tiered = tiers
        put(tiered, "/a.dat", b"j" * 10)
        tiered.migrate("/a.dat")
        log = []
        tiered.journal = lambda rtype, **f: log.append((rtype, f))
        tiered.recall("/a.dat")
        states = [f["state"] for rtype, f in log if rtype == "tier_state"]
        assert states == [RECALLING, HOT]

    def test_plain_hot_write_journals_nothing(self, tiers):
        _fast, _cold, tiered = tiers
        log = []
        tiered.journal = lambda rtype, **f: log.append((rtype, f))
        put(tiered, "/a.dat", b"quiet")
        assert log == []


class TestReplay:
    def test_serialize_restore_roundtrip(self, tiers):
        _fast, _cold, tiered = tiers
        put(tiered, "/a.dat", b"s" * 8)
        tiered.migrate("/a.dat")
        state = tiered.serialize()
        other = TieredStore(MemoryStore(), MemoryStore())
        other.restore(state)
        assert other.state_of("/a.dat") == COLD

    def test_apply_record(self, tiers):
        _fast, _cold, tiered = tiers
        assert tiered.apply_record({"type": "tier_state", "path": "/a",
                                    "state": COLD})
        assert tiered.state_of("/a") == COLD
        assert tiered.apply_record({"type": "tier_drop", "path": "/a"})
        assert tiered.state_of("/a") == HOT
        assert not tiered.apply_record({"type": "put_begin", "path": "/a"})


class TestReconcile:
    def test_migrating_keeps_fast_copy(self, tiers):
        fast, cold, tiered = tiers
        put(fast, "/a.dat", b"whole")
        put(cold, "/a.dat", b"par")  # partial cold copy from the crash
        tiered.residency["/a.dat"] = MIGRATING
        actions = tiered.reconcile()
        assert actions == [{"path": "/a.dat", "was": MIGRATING, "now": HOT}]
        assert tiered.state_of("/a.dat") == HOT
        assert not cold.exists("/a.dat")

    def test_recalling_keeps_cold_copy(self, tiers):
        fast, cold, tiered = tiers
        put(cold, "/a.dat", b"whole")
        put(fast, "/a.dat", b"par")  # partial recall from the crash
        tiered.residency["/a.dat"] = RECALLING
        actions = tiered.reconcile()
        assert actions == [{"path": "/a.dat", "was": RECALLING, "now": COLD}]
        assert tiered.state_of("/a.dat") == COLD
        assert not fast.exists("/a.dat")

    def test_cold_with_leftover_fast_copy(self, tiers):
        fast, cold, tiered = tiers
        put(cold, "/a.dat", b"whole")
        put(fast, "/a.dat", b"whole")  # crash between COLD and fast delete
        tiered.residency["/a.dat"] = COLD
        tiered.reconcile()
        assert tiered.state_of("/a.dat") == COLD
        assert not fast.exists("/a.dat")

    def test_cold_without_cold_bytes_falls_back_to_fast(self, tiers):
        fast, _cold, tiered = tiers
        put(fast, "/a.dat", b"whole")
        tiered.residency["/a.dat"] = COLD
        tiered.reconcile()
        assert tiered.state_of("/a.dat") == HOT

    def test_bytes_gone_everywhere_drops_entry(self, tiers):
        _fast, _cold, tiered = tiers
        tiered.residency["/a.dat"] = COLD
        actions = tiered.reconcile()
        assert actions[0]["now"] == "absent"
        assert tiered.residency == {}

    def test_rebuilds_cold_occupancy(self, tiers):
        _fast, cold, tiered = tiers
        put(cold, "/a.dat", b"c" * 77)
        tiered.residency["/a.dat"] = COLD
        tiered.reconcile()
        assert tiered._cold_bytes == 77


class TestRateLimitedStore:
    def test_throttles_reads(self):
        sleeps = []
        inner = MemoryStore()
        put(inner, "/a.dat", b"d" * 1000)
        store = RateLimitedStore(inner, bandwidth_bps=1e6,
                                 sleep=sleeps.append)
        assert get(store, "/a.dat") == b"d" * 1000
        assert sum(sleeps) == pytest.approx(0.001)

    def test_mount_latency_charged_per_open(self):
        sleeps = []
        inner = MemoryStore()
        put(inner, "/a.dat", b"d")
        store = RateLimitedStore(inner, bandwidth_bps=0.0, latency=0.25,
                                 sleep=sleeps.append)
        get(store, "/a.dat")
        get(store, "/a.dat")
        assert sleeps.count(0.25) == 2

    def test_sleep_capped_per_call(self):
        sleeps = []
        inner = MemoryStore()
        put(inner, "/a.dat", b"d" * 4096)
        store = RateLimitedStore(inner, bandwidth_bps=1.0,
                                 sleep=sleeps.append)
        get(store, "/a.dat")
        assert max(sleeps) <= 0.2

    def test_forwards_datastore_protocol(self):
        inner = MemoryStore()
        store = RateLimitedStore(inner, sleep=lambda _s: None)
        put(store, "/a.dat", b"fwd")
        assert store.exists("/a.dat")
        assert store.size("/a.dat") == 3
        store.delete("/a.dat")
        assert not store.exists("/a.dat")
