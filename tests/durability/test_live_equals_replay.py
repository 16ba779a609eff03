"""A journal record means one thing: the state a live appliance holds
equals the state crash replay rebuilds from its journal.

Two halves.  Wherever the periodic snapshot lands, it must hold every
change it covers and no record may stand in it without its byte effect,
or recovery resurrects what a verb undid (a deleted file, a migration's
MIGRATING residency), keeps a PUT that never committed, or loses a
rename's bytes.  And with no snapshot at all, recovering fresh
instances from a run's journal must give back the live run's storage,
catalog and tier state exactly -- including the runs where the live
verb once did something other than its record says (two PUTs of one
path settling out of order, an NFS write refused for lack of a lot, a
PUT cut short).
"""

from __future__ import annotations

import pytest

from repro.durability import DurabilityManager
from repro.nest.backends import MemoryStore
from repro.nest.storage import StorageManager
from repro.obs.metrics import MetricsRegistry
from repro.protocols.common import Status, StorageError
from repro.replica.catalog import VALID, ReplicaCatalog
from repro.tier.demo import _PAYLOADS, _put, _tier_workload
from repro.tier.store import COLD, TieredStore
from tests.durability.test_crash_sweep import ENTRY_POINTS, put, run_workload
from tests.durability.test_recovery import CrashingStore

CAPACITY = 1 << 20


def clock() -> float:
    return 1000.0


class Appliance:
    """Storage (over ``store``, or a tiered store over ``tiers``) and an
    optional replica catalog, recovered from ``state_dir``."""

    def __init__(self, state_dir, *, store=None, tiers=None,
                 require_lots=False, catalog=False, snapshot_every=0):
        self.state_dir = str(state_dir)
        self.args = dict(store=store, tiers=tiers, require_lots=require_lots,
                         catalog=catalog)
        self.tier = TieredStore(*tiers) if tiers else None
        self.catalog = (ReplicaCatalog(clock=clock, registry=MetricsRegistry())
                        if catalog else None)
        self.storage = StorageManager(
            store=self.tier or store, clock=clock, capacity_bytes=CAPACITY,
            require_lots=require_lots)
        self.manager = DurabilityManager(self.state_dir, fsync=False,
                                         snapshot_every=snapshot_every)
        self.manager.recover_into(self.storage, catalog=self.catalog,
                                  tier=self.tier)

    def state(self) -> tuple:
        return (self.storage.serialize_state(),
                self.catalog.serialize() if self.catalog else None,
                self.tier.serialize() if self.tier else None)

    def restart(self) -> "Appliance":
        """Crash -- the journal file closes, no shutdown snapshot -- and
        recover fresh instances from the same state and stores."""
        self.manager.journal.close()
        return Appliance(self.state_dir, **self.args)


def assert_replay_equals_live(live: Appliance) -> Appliance:
    state = live.state()
    again = live.restart()
    assert again.state() == state
    again.manager.close(snapshot=False)
    return again


# -- wherever the snapshot lands --------------------------------------------
@pytest.mark.parametrize("every", [1, 2, 3, 4])
def test_a_direct_delete_stays_deleted_whatever_snapshots(tmp_path, every):
    store = MemoryStore()
    live = Appliance(tmp_path, store=store, snapshot_every=every)
    live.storage.mkdir("admin", "/a")
    put(live.storage, "admin", "/a/x", b"hello")
    live.storage.delete("admin", "/a/x")
    again = live.restart()
    assert not again.storage.exists("/a/x")
    assert again.storage.used_bytes == 0
    again.manager.close(snapshot=False)


@pytest.mark.parametrize("every", range(1, 7))
def test_a_migrated_file_keeps_its_bytes_whatever_snapshots(tmp_path, every):
    fast, cold = MemoryStore(), MemoryStore()
    live = Appliance(tmp_path, tiers=(fast, cold), snapshot_every=every)
    live.storage.mkdir("anonymous", "/data")
    _put(live.storage, "/data/alpha", _PAYLOADS["/data/alpha"])
    live.tier.migrate("/data/alpha")
    again = live.restart()
    assert again.tier.state_of("/data/alpha") == COLD
    assert cold.exists("/data/alpha")
    ticket = again.storage.approve_get("anonymous", "/data/alpha")
    got = bytearray()
    while chunk := ticket.stream.read(4096):
        got += chunk
    ticket.stream.close()
    assert bytes(got) == _PAYLOADS["/data/alpha"]
    again.manager.close(snapshot=False)


@pytest.mark.parametrize("every", range(1, 7))
def test_an_interrupted_put_is_gone_whatever_snapshots(tmp_path, every):
    live = Appliance(tmp_path, store=MemoryStore(), snapshot_every=every)
    live.storage.mkdir("admin", "/a")
    ticket = live.storage.approve_put("admin", "/a/x", 5)
    ticket.stream.write(b"hel")
    again = live.restart()
    assert not again.storage.exists("/a/x")
    assert again.storage.used_bytes == 0
    again.manager.close(snapshot=False)


@pytest.mark.parametrize("every", range(1, 7))
def test_a_rename_cut_before_its_bytes_move_keeps_them_whatever_snapshots(
        tmp_path, every):
    store = CrashingStore()
    live = Appliance(tmp_path, store=store, snapshot_every=every)
    live.storage.mkdir("admin", "/a")
    put(live.storage, "admin", "/a/x", b"hello")
    store.crashed = True
    with pytest.raises(OSError):
        live.storage.rename("admin", "/a/x", "/a/y")
    store.crashed = False
    again = live.restart()
    ticket = again.storage.approve_get("admin", "/a/y")
    assert ticket.size == 5 and ticket.stream.read(5) == b"hello"
    ticket.settle(5)
    again.manager.close(snapshot=False)


# -- no snapshot: replay rebuilds the live state ---------------------------
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_the_crash_sweep_workload(tmp_path, entry):
    live = Appliance(tmp_path, store=MemoryStore(), require_lots=True)
    run_workload(live.storage, entry)
    assert_replay_equals_live(live)


def test_the_tier_workload(tmp_path):
    live = Appliance(tmp_path, tiers=(MemoryStore(), MemoryStore()))
    _tier_workload(live.storage, live.tier)
    assert_replay_equals_live(live)


def test_the_catalog(tmp_path):
    live = Appliance(tmp_path, store=MemoryStore(), catalog=True)
    catalog = live.catalog
    catalog.register("f1", "s1", "/r/f1", size=10)
    catalog.register("f1", "s2", "/r/f1", size=10)
    catalog.register("f2", "s1", "/r/f2")
    catalog.mark_valid("f1", "s1", checksum=0xABCD, size=10)
    catalog.mark_suspect("f1", "s2")
    catalog.mark_valid("f2", "s1", size=3)
    assert catalog.drop_site("s1") == 2
    catalog.register("f3", "s2", "/r/f3", state=VALID)
    assert_replay_equals_live(live)


@pytest.mark.parametrize(("require_lots", "straddled"),
                         [(False, False), (True, False), (True, True)],
                         ids=["raw", "lots", "straddled"])
def test_two_puts_of_one_path_settling_out_of_order(tmp_path, require_lots,
                                                    straddled):
    store = MemoryStore()
    live = Appliance(tmp_path, store=store, require_lots=require_lots)
    storage = live.storage
    if require_lots:
        storage.lots.create_lot("admin", 1 << 16, 3600.0)
    a = storage.approve_put("admin", "/f", 10)
    b = storage.approve_put("admin", "/f", 20)
    a.stream.write(b"A" * 10)
    b.stream.write(b"B" * 20)
    if straddled:
        # A's stream closes first, B's second, then B settles first.
        a.stream.close()
        b.stream.close()
    b.settle(20)
    a.settle(10)
    # The last commit wins: the store's bytes, the namespace, the
    # accounting and the lot all follow it.
    assert store.open_read("/f").read(11) == b"A" * 10
    assert storage.stat("admin", "/f")["size"] == 10
    assert storage.used_bytes == 10
    assert storage.lots.total_used() == (10 if require_lots else 0)
    assert_replay_equals_live(live)


@pytest.mark.parametrize("race", ["delete", "rename", "rename_dir"])
def test_a_put_in_flight_keeps_its_reservation_through_a_delete_or_rename(
        tmp_path, race):
    """The reservation of an overwrite PUT in flight is charged under
    its staged name, so deleting or renaming the file (or its
    directory) neither frees nor moves it: whatever the PUT commits is
    charged in full, live and after a restart."""
    live = Appliance(tmp_path, store=MemoryStore(), require_lots=True)
    storage = live.storage
    storage.lots.create_lot("admin", 1 << 16, 3600.0)
    storage.mkdir("admin", "/d")
    put(storage, "admin", "/d/p", b"o" * 100)
    ticket = storage.approve_put("admin", "/d/p", 200)
    ticket.stream.write(b"n" * 200)
    if race == "delete":
        storage.delete("admin", "/d/p")
    elif race == "rename":
        storage.rename("admin", "/d/p", "/d/q")
    else:
        storage.rename("admin", "/d", "/e")
    if race == "rename_dir":
        with pytest.raises(StorageError):
            ticket.settle(200)
    else:
        ticket.settle(200)
        assert storage.stat("admin", "/d/p")["size"] == 200
    assert storage.lots.total_used() == storage.used_bytes
    again = assert_replay_equals_live(live)
    assert again.storage.lots.total_used() == again.storage.used_bytes


def test_a_refused_nfs_write_leaves_no_file(tmp_path):
    live = Appliance(tmp_path, store=MemoryStore(), require_lots=True)
    with pytest.raises(StorageError) as refused:
        live.storage.approve_write("admin", "/w", 0, 10)
    assert refused.value.status is Status.NO_SPACE
    assert not live.storage.exists("/w")
    assert_replay_equals_live(live)


@pytest.mark.parametrize("old", [None, 8, 64], ids=["new", "growing",
                                                   "shrinking"])
def test_a_put_cut_short_leaves_the_state_from_before_it(tmp_path, old):
    """A put that moves less than it declared is undone live, and the
    journal replays to the same state: an overwrite keeps its old
    bytes, size and lot charge; a new file leaves nothing."""
    store = MemoryStore()
    live = Appliance(tmp_path, store=store, require_lots=True)
    storage = live.storage
    storage.lots.create_lot("admin", 1 << 16, 3600.0)
    if old is not None:
        put(storage, "admin", "/f", b"o" * old)
    before = storage.serialize_state()
    ticket = storage.approve_put("admin", "/f", 32)
    ticket.stream.write(b"n" * 5)
    ticket.settle(5)
    assert ticket.aborted
    assert storage.serialize_state() == before
    if old is None:
        assert not store.exists("/f")
    else:
        assert store.open_read("/f").read() == b"o" * old
    assert_replay_equals_live(live)


# -- a lot reclaim under an in-flight PUT -------------------------------------
@pytest.mark.parametrize("other_lot", [False, True],
                         ids=["refused", "charged-again"])
def test_a_put_whose_reservation_a_reclaim_took_stays_charged(tmp_path,
                                                              other_lot):
    """alice is mid-way through a 700-byte PUT when the lot holding its
    reservation expires, and bob's new lot reclaims that reservation.
    The settle charges the 700 bytes again -- to alice's other lot,
    when she has one -- or refuses the PUT: either way the lots hold
    every stored byte, live and after replay."""
    now = [1000.0]
    store = MemoryStore()

    def boot():
        storage = StorageManager(
            store=store, clock=lambda: now[0], require_lots=True,
            capacity_bytes=2000 if other_lot else 1000)
        manager = DurabilityManager(str(tmp_path), fsync=False)
        manager.recover_into(storage)
        return storage, manager

    storage, manager = boot()
    storage.create_lot("alice", 800, 10.0)
    if other_lot:
        storage.create_lot("alice", 800, 100.0)
    ticket = storage.approve_put("alice", "/x", 700)
    ticket.stream.write(b"a" * 350)
    now[0] += 20.0  # the first lot expires: its space is best-effort
    storage.create_lot("bob", 1100 if other_lot else 900, 10.0)
    ticket.stream.write(b"a" * 350)
    if other_lot:
        ticket.settle(700)
    else:
        with pytest.raises(StorageError) as refused:
            ticket.settle(700)
        assert refused.value.status is Status.NO_SPACE
    assert storage.exists("/x") is other_lot
    assert storage.lots.total_used() == storage.used_bytes
    assert storage.used_bytes == (700 if other_lot else 0)
    state = storage.serialize_state()
    manager.journal.close()
    again, manager = boot()
    assert again.serialize_state() == state
    assert again.lots.total_used() == again.used_bytes
    manager.close(snapshot=False)
