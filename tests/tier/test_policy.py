"""Unit tests for the migration policy and the background scanner."""

import pytest

from repro.nest.backends import MemoryStore
from repro.nest.storage import StorageManager
from repro.tier.heat import HeatTracker
from repro.tier.policy import TierManager, TierPolicy, walk_files
from repro.tier.store import COLD, HOT, TieredStore


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def put(storage, path, data, user="anonymous"):
    ticket = storage.approve_put(user, path, len(data))
    ticket.stream.write(data)
    ticket.settle(len(data))


class TestTierPolicy:
    def test_demotes_old_big_cold_file(self):
        policy = TierPolicy(demote_after=60.0, min_size=10, heat_ceiling=0.5)
        assert policy.should_demote(age=120.0, size=100, heat=0.0,
                                    pinned=False)

    def test_young_file_stays(self):
        policy = TierPolicy(demote_after=60.0)
        assert not policy.should_demote(age=30.0, size=100, heat=0.0,
                                        pinned=False)

    def test_small_file_stays(self):
        policy = TierPolicy(demote_after=0.0, min_size=1024)
        assert not policy.should_demote(age=999.0, size=100, heat=0.0,
                                        pinned=False)

    def test_hot_file_stays(self):
        policy = TierPolicy(demote_after=0.0, heat_ceiling=0.5)
        assert not policy.should_demote(age=999.0, size=100, heat=2.0,
                                        pinned=False)

    def test_pinned_file_stays(self):
        policy = TierPolicy(demote_after=0.0)
        assert not policy.should_demote(age=999.0, size=100, heat=0.0,
                                        pinned=True)

    def test_pins_ignorable(self):
        policy = TierPolicy(demote_after=0.0, respect_pins=False)
        assert policy.should_demote(age=999.0, size=100, heat=0.0,
                                    pinned=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            TierPolicy(demote_after=-1.0)
        with pytest.raises(ValueError):
            TierPolicy(min_size=-1)
        with pytest.raises(ValueError):
            TierPolicy(heat_ceiling=-0.1)
        with pytest.raises(ValueError):
            TierManager(StorageManager(), TieredStore(MemoryStore(),
                                                      MemoryStore()),
                        HeatTracker(), interval=-1.0)


class TestWalkFiles:
    def test_walks_nested_namespace(self):
        storage = StorageManager(store=MemoryStore())
        storage.mkdir("anonymous", "/dir")
        put(storage, "/dir/a.dat", b"a" * 10)
        put(storage, "/top.dat", b"t" * 5)
        assert walk_files(storage) == [("/dir/a.dat", 10), ("/top.dat", 5)]


@pytest.fixture
def scanner():
    clock = Clock()
    fast, cold = MemoryStore(), MemoryStore()
    tiered = TieredStore(fast, cold)
    storage = StorageManager(store=tiered)
    heat = HeatTracker(halflife=10.0, clock=clock)
    manager = TierManager(
        storage, tiered, heat,
        policy=TierPolicy(demote_after=60.0, min_size=1, heat_ceiling=0.5),
        clock=clock)
    return clock, storage, tiered, heat, manager


class TestTierManager:
    def test_zero_interval_leaves_the_loop_off(self, scanner):
        *_rest, manager = scanner
        manager.interval = 0.0
        manager.start()
        assert manager._thread is None
        manager.interval = 30.0
        manager.start()
        try:
            assert manager._thread is not None
        finally:
            manager.stop()
        assert manager._thread is None

    def test_never_read_file_ages_from_first_scan(self, scanner):
        clock, storage, tiered, _heat, manager = scanner
        put(storage, "/a.dat", b"a" * 100)
        assert manager.candidates() == []  # first sighting: age 0
        clock.now = 120.0
        assert manager.candidates() == [("/a.dat", 100)]

    def test_recent_read_blocks_demotion(self, scanner):
        clock, storage, _tiered, heat, manager = scanner
        put(storage, "/a.dat", b"a" * 100)
        manager.candidates()
        clock.now = 120.0
        heat.record("/a.dat")  # fresh read: young again and hot
        assert manager.candidates() == []

    def test_cold_files_ordered_oldest_first(self, scanner):
        clock, storage, _tiered, heat, manager = scanner
        put(storage, "/old.dat", b"o" * 10)
        put(storage, "/new.dat", b"n" * 10)
        heat.record("/old.dat")
        clock.now = 500.0
        heat.record("/new.dat")
        clock.now = 600.0
        assert [p for p, _ in manager.candidates()] == [
            "/old.dat", "/new.dat"]

    def test_scan_once_migrates_and_counts(self, scanner):
        clock, storage, tiered, _heat, manager = scanner
        put(storage, "/a.dat", b"a" * 100)
        manager.candidates()
        clock.now = 120.0
        assert manager.scan_once() == ["/a.dat"]
        assert tiered.state_of("/a.dat") == COLD
        assert manager.migrated_files == 1
        assert manager.migrated_bytes == 100

    def test_scan_respects_max_per_scan(self, scanner):
        clock, storage, _tiered, _heat, manager = scanner
        manager.max_per_scan = 2
        for i in range(4):
            put(storage, f"/f{i}.dat", b"x" * 10)
        manager.candidates()
        clock.now = 120.0
        assert len(manager.scan_once()) == 2

    def test_already_cold_files_skipped(self, scanner):
        clock, storage, tiered, _heat, manager = scanner
        put(storage, "/a.dat", b"a" * 100)
        manager.candidates()
        clock.now = 120.0
        manager.scan_once()
        assert manager.candidates() == []  # COLD now, not a candidate

    def test_pinned_lot_blocks_demotion(self):
        clock = Clock()
        tiered = TieredStore(MemoryStore(), MemoryStore())
        storage = StorageManager(store=tiered, capacity_bytes=1 << 20)
        lot, _ = storage.lots.create_lot("alice", 4096, 3600.0)
        storage.lots.attach(lot.lot_id, "/pinned", "alice")
        storage.mkdir("anonymous", "/pinned")
        put(storage, "/pinned/a.dat", b"p" * 100)
        heat = HeatTracker(clock=clock)
        manager = TierManager(storage, tiered, heat,
                              policy=TierPolicy(demote_after=0.0),
                              clock=clock)
        storage.lots.pin_lot(lot.lot_id, True, "alice")
        assert storage.lots.is_pinned("/pinned/a.dat")
        assert manager.candidates() == []
        storage.lots.pin_lot(lot.lot_id, False, "alice")
        assert manager.candidates() == [("/pinned/a.dat", 100)]

    def test_describe(self, scanner):
        _clock, _storage, _tiered, _heat, manager = scanner
        doc = manager.describe()
        assert doc["policy"]["demote_after"] == 60.0
        assert doc["scans"] == 0
