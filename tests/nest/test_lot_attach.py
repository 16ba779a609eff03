"""Unit tests for lot attachments (charge routing by path prefix)."""

import pytest

from repro.nest.lots import LotError, LotManager


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def mgr():
    return LotManager(10_000, clock=Clock(), enforcement="nest")


class TestAttachments:
    def test_attached_lot_charged_first(self, mgr):
        first, _ = mgr.create_lot("u", 1000, duration=60)
        second, _ = mgr.create_lot("u", 1000, duration=60)
        mgr.attach(second.lot_id, "/project")
        mgr.charge("u", "/project/data", 500)
        assert second.used == 500
        assert first.used == 0

    def test_unattached_paths_use_default_order(self, mgr):
        first, _ = mgr.create_lot("u", 1000, duration=60)
        second, _ = mgr.create_lot("u", 1000, duration=60)
        mgr.attach(second.lot_id, "/project")
        mgr.charge("u", "/elsewhere/data", 500)
        assert first.used == 500

    def test_longest_prefix_wins(self, mgr):
        outer, _ = mgr.create_lot("u", 1000, duration=60)
        inner, _ = mgr.create_lot("u", 1000, duration=60)
        mgr.attach(outer.lot_id, "/p")
        mgr.attach(inner.lot_id, "/p/deep")
        mgr.charge("u", "/p/deep/f", 100)
        mgr.charge("u", "/p/shallow", 100)
        assert inner.used == 100
        assert outer.used == 100

    def test_spillover_beyond_attached_lot(self, mgr):
        small, _ = mgr.create_lot("u", 100, duration=60)
        big, _ = mgr.create_lot("u", 1000, duration=60)
        mgr.attach(small.lot_id, "/p")
        mgr.charge("u", "/p/f", 400)
        assert small.used == 100  # filled first
        assert big.used == 300  # spanned into

    def test_attach_unknown_lot(self, mgr):
        with pytest.raises(LotError):
            mgr.attach("lot999", "/p")

    def test_attach_owner_checked(self, mgr):
        lot, _ = mgr.create_lot("u", 100, duration=60)
        with pytest.raises(LotError):
            mgr.attach(lot.lot_id, "/p", owner="other")

    def test_prefix_does_not_match_siblings(self, mgr):
        lot, _ = mgr.create_lot("u", 1000, duration=60)
        other, _ = mgr.create_lot("u", 1000, duration=60)
        mgr.attach(other.lot_id, "/pro")
        mgr.charge("u", "/project/f", 10)  # "/pro" is not a path prefix
        assert other.used == 0
        assert lot.used == 10
