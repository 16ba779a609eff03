"""Unit tests for lot management (paper, section 5)."""

import pytest

from repro.nest.lots import LotError, LotManager, LotState


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return Clock()


def manager(clock, capacity=1000, enforcement="nest", policy="expired-first"):
    return LotManager(
        capacity, clock=clock, enforcement=enforcement, reclaim_policy=policy,
    )


class TestLifecycle:
    def test_create_and_stat(self, clock):
        mgr = manager(clock)
        lot, _ = mgr.create_lot("alice", 400, duration=60)
        info = mgr.stat(lot.lot_id)
        assert info["owner"] == "alice"
        assert info["capacity"] == 400
        assert info["state"] == "active"
        assert info["expires_at"] == 60.0

    def test_bad_parameters_rejected(self, clock):
        mgr = manager(clock)
        with pytest.raises(LotError):
            mgr.create_lot("a", 0, duration=10)
        with pytest.raises(LotError):
            mgr.create_lot("a", 10, duration=0)

    def test_capacity_guarantee_respected(self, clock):
        mgr = manager(clock, capacity=1000)
        mgr.create_lot("a", 600, duration=60)
        with pytest.raises(LotError):
            mgr.create_lot("b", 600, duration=60)
        mgr.create_lot("b", 400, duration=60)  # exactly fits

    def test_expiry_flips_to_best_effort(self, clock):
        mgr = manager(clock)
        lot, _ = mgr.create_lot("a", 100, duration=50)
        clock.now = 49.9
        assert mgr.stat(lot.lot_id)["state"] == "active"
        clock.now = 50.0
        assert mgr.stat(lot.lot_id)["state"] == "best_effort"

    def test_files_survive_expiry(self, clock):
        mgr = manager(clock)
        lot, _ = mgr.create_lot("a", 100, duration=50)
        mgr.charge("a", "/f", 80)
        clock.now = 100.0
        assert mgr.stat(lot.lot_id)["files"] == ["/f"]

    def test_renew_extends(self, clock):
        mgr = manager(clock)
        lot, _ = mgr.create_lot("a", 100, duration=50)
        clock.now = 40.0
        mgr.renew(lot.lot_id, 100)
        assert mgr.stat(lot.lot_id)["expires_at"] == 140.0

    def test_renew_reactivates_best_effort(self, clock):
        mgr = manager(clock)
        lot, _ = mgr.create_lot("a", 100, duration=50)
        clock.now = 60.0
        assert mgr.stat(lot.lot_id)["state"] == "best_effort"
        mgr.renew(lot.lot_id, 50)
        assert mgr.stat(lot.lot_id)["state"] == "active"

    def test_renew_fails_if_space_promised_away(self, clock):
        mgr = manager(clock, capacity=1000)
        lot, _ = mgr.create_lot("a", 800, duration=50)
        clock.now = 60.0  # lot a expires
        mgr.create_lot("b", 900, duration=50)
        with pytest.raises(LotError):
            mgr.renew(lot.lot_id, 50)

    def test_renew_wrong_owner_rejected(self, clock):
        mgr = manager(clock)
        lot, _ = mgr.create_lot("a", 100, duration=50)
        with pytest.raises(LotError):
            mgr.renew(lot.lot_id, 50, owner="b")

    def test_delete_reports_orphans(self, clock):
        mgr = manager(clock)
        lot, _ = mgr.create_lot("a", 100, duration=50)
        mgr.charge("a", "/f", 10)
        orphans = mgr.delete_lot(lot.lot_id, owner="a")
        assert orphans == ["/f"]
        assert mgr.lots == {}

    def test_unknown_lot(self, clock):
        mgr = manager(clock)
        with pytest.raises(LotError):
            mgr.stat("lot999")

    def test_list_lots_filters_by_owner(self, clock):
        mgr = manager(clock)
        mgr.create_lot("a", 100, duration=50)
        mgr.create_lot("b", 100, duration=50)
        assert len(mgr.list_lots()) == 2
        assert len(mgr.list_lots(owner="a")) == 1


class TestCharging:
    def test_charge_requires_active_lot(self, clock):
        mgr = manager(clock)
        with pytest.raises(LotError):
            mgr.charge("nobody", "/f", 10)

    def test_nest_mode_spans_lots(self, clock):
        mgr = manager(clock, enforcement="nest")
        l1, _ = mgr.create_lot("a", 100, duration=50)
        l2, _ = mgr.create_lot("a", 100, duration=50)
        mgr.charge("a", "/big", 150)
        assert mgr.lots[l1.lot_id].used == 100
        assert mgr.lots[l2.lot_id].used == 50

    def test_nest_mode_rejects_overfill(self, clock):
        mgr = manager(clock, enforcement="nest")
        mgr.create_lot("a", 100, duration=50)
        with pytest.raises(LotError):
            mgr.charge("a", "/big", 150)

    def test_quota_mode_allows_single_lot_overfill(self, clock):
        # The paper's caveat: quota enforcement is per-user only.
        mgr = manager(clock, enforcement="quota")
        l1, _ = mgr.create_lot("a", 100, duration=50)
        mgr.create_lot("a", 100, duration=50)
        mgr.charge("a", "/big", 150)
        assert mgr.lots[l1.lot_id].used == 150  # overfilled

    def test_quota_mode_enforces_user_total(self, clock):
        mgr = manager(clock, enforcement="quota")
        mgr.create_lot("a", 100, duration=50)
        mgr.create_lot("a", 100, duration=50)
        with pytest.raises(LotError):
            mgr.charge("a", "/big", 250)

    def test_release_partial(self, clock):
        mgr = manager(clock)
        lot, _ = mgr.create_lot("a", 100, duration=50)
        mgr.charge("a", "/f", 60)
        mgr.release("/f", 20)
        assert mgr.lots[lot.lot_id].used == 40

    def test_release_all(self, clock):
        mgr = manager(clock)
        lot, _ = mgr.create_lot("a", 100, duration=50)
        mgr.charge("a", "/f", 60)
        mgr.release("/f")
        assert mgr.lots[lot.lot_id].used == 0

    def test_user_limit_counts_active_only(self, clock):
        mgr = manager(clock)
        mgr.create_lot("a", 100, duration=50)
        mgr.create_lot("a", 200, duration=500)
        assert mgr.user_limit("a") == 300
        clock.now = 60.0
        assert mgr.user_limit("a") == 200


class TestReclamation:
    def test_best_effort_space_reclaimed_for_new_lot(self, clock):
        mgr = manager(clock, capacity=1000)
        mgr.create_lot("a", 800, duration=50)
        mgr.charge("a", "/old", 700)
        clock.now = 100.0  # a expires; 700 bytes best-effort
        lot, reclaimed = mgr.create_lot("b", 900, duration=50)
        assert lot.capacity == 900
        assert "/old" in reclaimed

    def test_reclaim_only_what_is_needed(self, clock):
        mgr = manager(clock, capacity=1000)
        lot_a, _ = mgr.create_lot("a", 500, duration=50)
        mgr.charge("a", "/f1", 200)
        mgr.charge("a", "/f2", 200)
        clock.now = 100.0
        _, reclaimed = mgr.create_lot("b", 700, duration=50)
        # needed = 700 - (1000 - 400) = 100 -> one file suffices.
        assert len(reclaimed) == 1

    def test_cannot_reclaim_active_lots(self, clock):
        mgr = manager(clock, capacity=1000)
        mgr.create_lot("a", 800, duration=500)
        mgr.charge("a", "/f", 700)
        with pytest.raises(LotError):
            mgr.create_lot("b", 900, duration=50)

    def test_expired_first_policy(self, clock):
        mgr = manager(clock, capacity=1000)
        first, _ = mgr.create_lot("a", 300, duration=10)
        mgr.charge("a", "/oldest", 300)
        clock.now = 5.0
        second, _ = mgr.create_lot("b", 300, duration=10)
        mgr.charge("b", "/newer", 300)
        clock.now = 100.0  # both best-effort; a expired earlier
        _, reclaimed = mgr.create_lot("c", 700, duration=50)
        assert reclaimed[0] == "/oldest"

    def test_largest_first_policy(self, clock):
        mgr = manager(clock, capacity=1000, policy="largest-first")
        mgr.create_lot("a", 200, duration=10)
        mgr.charge("a", "/small", 100)
        mgr.create_lot("b", 400, duration=10)
        mgr.charge("b", "/large", 400)
        clock.now = 100.0
        _, reclaimed = mgr.create_lot("c", 800, duration=50)
        assert reclaimed[0] == "/large"

    def test_lru_policy(self, clock):
        mgr = manager(clock, capacity=1000, policy="lru")
        cold, _ = mgr.create_lot("a", 300, duration=10)
        mgr.charge("a", "/cold", 300)
        clock.now = 5.0
        warm, _ = mgr.create_lot("b", 300, duration=10)
        mgr.charge("b", "/warm", 300)
        clock.now = 100.0
        _, reclaimed = mgr.create_lot("c", 650, duration=50)
        assert reclaimed[0] == "/cold"

    def test_empty_best_effort_lot_removed_after_drain(self, clock):
        mgr = manager(clock, capacity=1000)
        lot, _ = mgr.create_lot("a", 900, duration=10)
        mgr.charge("a", "/f", 900)
        clock.now = 50.0
        assert mgr.create_lot("b", 1000, duration=50)[1] == ["/f"]
        assert lot.lot_id not in mgr.lots

    def test_invalid_configuration_rejected(self, clock):
        with pytest.raises(ValueError):
            LotManager(100, clock=clock, enforcement="magic")
        with pytest.raises(ValueError):
            LotManager(100, clock=clock, reclaim_policy="random")
