"""Property-based tests for lot accounting invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nest.lots import LotError, LotManager, LotState

CAPACITY = 10_000


@st.composite
def lot_workloads(draw):
    """A random sequence of lot operations with a moving clock."""
    n = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["create", "charge", "release", "advance", "renew", "delete"]))
        ops.append((
            kind,
            draw(st.sampled_from(["alice", "bob"])),
            draw(st.integers(min_value=1, max_value=4000)),   # bytes/capacity
            draw(st.floats(min_value=0.5, max_value=30.0)),   # duration/dt
            draw(st.sampled_from(["/f1", "/f2", "/f3"])),
        ))
    return ops


def apply_ops(mgr, clock, ops):
    lot_ids = []
    for kind, user, amount, duration, path in ops:
        try:
            if kind == "create":
                lot, _ = mgr.create_lot(user, amount, duration)
                lot_ids.append(lot.lot_id)
            elif kind == "charge":
                mgr.charge(user, path, amount)
            elif kind == "release":
                mgr.release(path, amount)
            elif kind == "advance":
                clock[0] += duration
            elif kind == "renew" and lot_ids:
                mgr.renew(lot_ids[-1], duration)
            elif kind == "delete" and lot_ids:
                mgr.delete_lot(lot_ids.pop())
        except LotError:
            pass  # rejected operations must leave state consistent


class TestAccountingInvariants:
    @given(lot_workloads(), st.sampled_from(["quota", "nest"]))
    @settings(max_examples=150, deadline=None)
    def test_no_overcommit_of_guaranteed_space(self, ops, enforcement):
        clock = [0.0]
        mgr = LotManager(CAPACITY, clock=lambda: clock[0],
                         enforcement=enforcement)
        apply_ops(mgr, clock, ops)
        active_capacity = sum(
            l.capacity for l in mgr.lots.values() if l.state is LotState.ACTIVE
        )
        best_effort_used = sum(
            l.used for l in mgr.lots.values() if l.state is LotState.BEST_EFFORT
        )
        assert active_capacity + best_effort_used <= CAPACITY

    @given(lot_workloads())
    @settings(max_examples=100, deadline=None)
    def test_nest_mode_never_overfills_a_lot(self, ops):
        clock = [0.0]
        mgr = LotManager(CAPACITY, clock=lambda: clock[0], enforcement="nest")
        apply_ops(mgr, clock, ops)
        for lot in mgr.lots.values():
            assert lot.used <= lot.capacity

    @given(lot_workloads(), st.sampled_from(["quota", "nest"]))
    @settings(max_examples=100, deadline=None)
    def test_charges_never_negative(self, ops, enforcement):
        clock = [0.0]
        mgr = LotManager(CAPACITY, clock=lambda: clock[0],
                         enforcement=enforcement)
        apply_ops(mgr, clock, ops)
        for lot in mgr.lots.values():
            for path, nbytes in lot.charges.items():
                assert nbytes > 0

    @given(lot_workloads())
    @settings(max_examples=100, deadline=None)
    def test_failed_charge_changes_nothing(self, ops):
        clock = [0.0]
        mgr = LotManager(CAPACITY, clock=lambda: clock[0], enforcement="nest")
        apply_ops(mgr, clock, ops)
        before = {
            lot_id: dict(lot.charges) for lot_id, lot in mgr.lots.items()
        }
        try:
            mgr.charge("alice", "/huge", CAPACITY * 10)
            raise AssertionError("charge should have failed")
        except LotError:
            pass
        after = {
            lot_id: dict(lot.charges) for lot_id, lot in mgr.lots.items()
        }
        assert before == after
