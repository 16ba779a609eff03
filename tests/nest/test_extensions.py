"""Unit tests for the paper's future-work extensions.

Group lots (§5: "group lots will be included in the next release"),
per-user proportional shares (§4.2), and volatile lots backing IBP's
allocation model (§3/§8).
"""

import pytest

from repro.nest.lots import LotError, LotManager, LotState
from repro.nest.scheduling import StrideScheduler, make_job


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return Clock()


class TestGroupLots:
    def make(self, clock, **kwargs):
        return LotManager(10_000, clock=clock,
                          groups={"wind": {"alice", "bob"}},
                          enforcement="nest", **kwargs)

    def test_member_can_charge_group_lot(self, clock):
        mgr = self.make(clock)
        mgr.create_lot("group:wind", 1000, duration=60)
        mgr.charge("alice", "/f", 500)
        mgr.charge("bob", "/g", 400)
        assert mgr.total_used() == 900

    def test_non_member_cannot_charge(self, clock):
        mgr = self.make(clock)
        mgr.create_lot("group:wind", 1000, duration=60)
        with pytest.raises(LotError):
            mgr.charge("mallory", "/f", 10)

    def test_own_lot_preferred_over_group_lot(self, clock):
        mgr = self.make(clock)
        group, _ = mgr.create_lot("group:wind", 1000, duration=60)
        personal, _ = mgr.create_lot("alice", 1000, duration=60)
        mgr.charge("alice", "/f", 600)
        assert personal.used == 600
        assert group.used == 0

    def test_member_can_renew_group_lot(self, clock):
        mgr = self.make(clock)
        lot, _ = mgr.create_lot("group:wind", 1000, duration=60)
        mgr.renew(lot.lot_id, 120, owner="bob")
        with pytest.raises(LotError):
            mgr.renew(lot.lot_id, 120, owner="mallory")

    def test_user_limit_includes_group_lots(self, clock):
        mgr = self.make(clock)
        mgr.create_lot("group:wind", 1000, duration=60)
        mgr.create_lot("alice", 500, duration=60)
        assert mgr.user_limit("alice") == 1500
        assert mgr.user_limit("mallory") == 0


class TestPerUserShares:
    def test_share_by_user(self):
        sched = StrideScheduler(shares={"vip": 3, "guest": 1},
                                share_by="user")
        vip = make_job("http", user="vip")
        guest = make_job("http", user="guest")
        sched.add(vip)
        sched.add(guest)
        moved = {"vip": 0, "guest": 0}
        for _ in range(2000):
            job = sched.select()
            sched.charge(job, 100)
            moved[job.user] += 100
        ratio = moved["vip"] / moved["guest"]
        assert ratio == pytest.approx(3.0, abs=0.2)

    def test_protocol_ignored_when_sharing_by_user(self):
        sched = StrideScheduler(shares={"alice": 1, "bob": 1},
                                share_by="user")
        a = make_job("nfs", user="alice")
        b = make_job("http", user="bob")
        sched.add(a)
        sched.add(b)
        moved = {"alice": 0, "bob": 0}
        for _ in range(1000):
            job = sched.select()
            sched.charge(job, 100)
            moved[job.user] += 100
        assert moved["alice"] == pytest.approx(moved["bob"], rel=0.05)

    def test_invalid_share_key_rejected(self):
        with pytest.raises(ValueError):
            StrideScheduler(share_by="horoscope")


class TestVolatileLots:
    def test_volatile_lot_guarantees_nothing(self, clock):
        mgr = LotManager(1000, clock=clock, enforcement="nest")
        mgr.create_lot("v", 900, duration=60, volatile=True)
        # A stable lot for the full capacity still fits.
        mgr.create_lot("s", 1000, duration=60)

    def test_volatile_data_reclaimed_for_guarantee(self, clock):
        mgr = LotManager(1000, clock=clock, enforcement="nest")
        mgr.create_lot("v", 800, duration=60, volatile=True)
        mgr.charge("v", "/vdata", 700)
        _, reclaimed = mgr.create_lot("s", 600, duration=60)
        assert "/vdata" in reclaimed

    def test_volatile_lot_accepts_charges_while_active(self, clock):
        mgr = LotManager(1000, clock=clock, enforcement="nest")
        lot, _ = mgr.create_lot("v", 500, duration=60, volatile=True)
        mgr.charge("v", "/f", 300)
        assert lot.used == 300
        assert lot.state is LotState.ACTIVE

    def test_volatile_expiry_still_applies(self, clock):
        mgr = LotManager(1000, clock=clock, enforcement="nest")
        lot, _ = mgr.create_lot("v", 500, duration=10, volatile=True)
        clock.now = 20.0
        mgr.expire_lots()
        assert lot.state is LotState.BEST_EFFORT
