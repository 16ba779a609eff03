"""Fault-at-every-record sweep: the EIO twin of the crash sweeps.

The workload is the crash-sweep script plus a lot reclaim under an
in-flight PUT, a ``create_lot`` that reclaims a file, a lot delete
over the wire and an aborted PUT, on a clock the test moves.  (The
crash-sweep script itself has a shrinking overwrite, and one each of
mkdir, rmdir, ACL and group changes, an NFS write and lot renew,
attach, pin and delete.)  For each
journal record k of it, a fresh appliance runs the workload with the
journal failing record k with ``EIO``.  The first verb to fail must

- answer with an error (SERVER_ERROR);
- leave the live ``serialize_state()`` equal to the state before it;
- leave a restart equal to the live state;
- leave every file statting the size it reads.

A PUT is one verb from its approval to its settle.  When its settle
fails with another verb between the two, "the state before it" is the
state before the settle with the PUT's reservation given back.
"""

from __future__ import annotations

import pytest

from repro.durability import DurabilityManager
from repro.faults.disk import DiskFaultPlan
from repro.nest.backends import TEMP_SUFFIX, MemoryStore
from repro.nest.storage import StorageManager
from repro.protocols.common import Request, RequestType, Status, StorageError
from tests.durability.test_crash_sweep import (CAPACITY, WORKLOAD, Wire, put,
                                               tree_sizes)

START = 1000.0


def lot_create(run, user, capacity, duration):
    run.ns._execute(RequestType.LOT_CREATE, user, "", capacity=capacity,
                    duration=duration)


def approve(run, user, path, data):
    ticket = run.storage.approve_put(user, path, len(data))
    ticket.stream.write(data)
    run.tickets[path] = (ticket, len(data))


def settle(run, path):
    ticket, nbytes = run.tickets.pop(path)
    ticket.settle(nbytes)


def aborted_put(run):
    ticket = run.storage.approve_put("alice", "/a/five", 500)
    ticket.stream.write(b"x" * 10)
    ticket.aborted = True
    ticket.settle(10)


def expire(run):
    run.now[0] += 20.0


#: The crash-sweep script, then the rest: ``(name, step(run))``.
STEPS = [(name, lambda run, step=step: step(run.storage, run.ns))
         for name, step in WORKLOAD] + [
    ("aborted put", aborted_put),
    ("lot dave", lambda run: lot_create(run, "dave", 700, 10.0)),
    ("lot erin short", lambda run: lot_create(run, "erin", 200, 10.0)),
    ("mkdir /d", lambda run: run.ns.mkdir("admin", "/d")),
    ("acl /d", lambda run: run.ns.acl_set("admin", "/d", "dave", "rwidl")),
    ("acl /d erin", lambda run: run.ns.acl_set("admin", "/d", "erin",
                                               "rwidl")),
    ("put /d/victim", lambda run: put(run.storage, "dave", "/d/victim",
                                      b"v" * 600)),
    ("approve in flight", lambda run: approve(run, "erin", "/d/inflight",
                                              b"i" * 150)),
    # dave's and erin's short lots expire, under dave's file and
    # erin's PUT's reservation.  A new lot reclaims the file, another
    # the reservation, and the settle charges erin's new lot again.
    ("expire", expire),
    ("lot reclaiming a file", lambda run: lot_create(
        run, "erin", run.storage.lots.available_for_new_lot() + 300,
        3600.0)),
    ("lot reclaiming a reservation", lambda run: lot_create(
        run, "frank", 400, 3600.0)),
    ("settle in flight", lambda run: settle(run, "/d/inflight")),
]

#: Steps that settle a PUT approved by an earlier step.
SETTLES = {"settle in flight"}


class WireOrRaise(Wire):
    """The crash sweep's wire verbs, raising a refusal as the
    StorageError a direct call raises."""

    def _execute(self, rtype, user, path, **params) -> None:
        response = self.storage.execute(
            Request(rtype, path, user=user, params=params))
        if response.status is not Status.OK:
            raise StorageError(response.status, response.message)


class Run:
    """One appliance on ``state_dir`` over ``store``, its journal
    failing as ``plan`` says."""

    def __init__(self, state_dir, store, plan=None, now=None):
        self.state_dir, self.store = state_dir, store
        self.now = now if now is not None else [START]
        self.storage = StorageManager(
            store=store, capacity_bytes=CAPACITY, require_lots=True,
            clock=self.clock)
        self.manager = DurabilityManager(str(state_dir), fsync=False,
                                         snapshot_every=0, faults=plan)
        self.manager.recover_into(self.storage)
        self.ns = WireOrRaise(self.storage)
        self.tickets: dict = {}

    def clock(self) -> float:
        """Time moves a millisecond a reading, so a record that stamps
        it leaves a mark."""
        self.now[0] += 0.001
        return self.now[0]

    def state(self) -> dict:
        self.storage.lots.expire_lots()  # derived from the clock
        return self.storage.serialize_state()

    def restart(self) -> "Run":
        """Abort what is in flight, crash, and recover afresh."""
        for ticket, _ in self.tickets.values():
            ticket.aborted = True
            ticket.settle(0)
        self.manager.journal.close()
        return Run(self.state_dir, self.store, now=self.now)


def reads_its_size(run) -> None:
    for path, size in tree_sizes(run.storage).items():
        assert run.store.size(path) == size, f"{path} stats {size}"


def without_reservations(state: dict) -> dict:
    for lot in state["lots"]["lots"]:
        lot["charges"] = {path: n for path, n in lot["charges"].items()
                          if not path.endswith(TEMP_SUFFIX)}
    return state


def step_records(tmp_path) -> dict[str, range]:
    """Each step's journal records in a clean run, by step name."""
    run = Run(tmp_path / "clean", MemoryStore())
    records = {}
    for name, step in STEPS:
        first = run.manager.journal.tail_seq + 1
        step(run)
        records[name] = range(first, run.manager.journal.tail_seq + 1)
    assert not run.tickets
    run.manager.close(snapshot=False)
    return records


def fail_record(tmp_path, k: int) -> str:
    """Run the workload with record ``k`` failing with EIO; check the
    first verb to fail; returns its name."""
    run = Run(tmp_path / f"eio-{k}", MemoryStore(),
              plan=DiskFaultPlan.eio_at_record(k))
    for name, step in STEPS:
        before = run.state()
        try:
            step(run)
        except StorageError as exc:
            assert exc.status is Status.SERVER_ERROR, exc
            break
    else:
        pytest.fail(f"EIO at record {k} failed no verb")
    if name in SETTLES:
        before = without_reservations(before)
    live = run.state()
    assert live == before, f"EIO at record {k}: {name} left a change"
    reads_its_size(run)
    again = run.restart()
    live = run.state()
    assert again.state() == live, f"EIO at record {k}: {name} restarts apart"
    reads_its_size(again)
    again.manager.close(snapshot=False)
    return name


def test_every_record_failing_leaves_the_state_from_before_its_verb(
        tmp_path):
    records = step_records(tmp_path)
    total = max(r.stop for r in records.values()) - 1
    assert total >= 30, f"workload too small for the sweep: {total}"
    failed = {fail_record(tmp_path, k) for k in range(1, total + 1)}
    assert {"nfs write", "lot reclaiming a file",
            "lot reclaiming a reservation"} <= failed


@pytest.mark.parametrize("step", [
    "mkdir /c", "rmdir /c", "acl /c", "group again", "renew lot3",
    "attach lot3", "pin lot3", "delete lot2", "lot dave", "nfs write",
    "shrinking overwrite", "put /a/one",
])
def test_a_verb_whose_record_fails_is_undone(tmp_path, step):
    """Each of these verbs but the shrinking overwrite once answered
    SERVER_ERROR and kept a change in memory: its own, or -- a new
    lot-charged PUT whose commit record failed behind its durable
    reservation -- the reservation's ``last_used``.  A restart then
    disagreed with the live state, or the live state with the one from
    before the verb."""
    records = step_records(tmp_path)[step]
    assert records, f"{step} journals nothing"
    for k in records:
        assert fail_record(tmp_path, k) == step


def test_a_reclaiming_create_lot_is_one_record_undone_whole(tmp_path):
    """A ``create_lot`` that reclaims an expired lot's file was four
    records -- the charge it reclaimed, the emptied lot's delete, the
    new lot, the file -- and a failure at any of them left live and a
    restart apart.  It is one record now, undone whole."""
    records = step_records(tmp_path)["lot reclaiming a file"]
    assert len(records) == 1
    assert fail_record(tmp_path, records[0]) == "lot reclaiming a file"


def test_a_reclaim_under_an_in_flight_put_is_undone(tmp_path):
    """EIO at the record of the lot that reclaims an in-flight PUT's
    reservation, then at the record of that PUT's settle, which charges
    it again: each is undone whole."""
    records = step_records(tmp_path)
    for step in ("lot reclaiming a reservation", "settle in flight"):
        assert len(records[step]) == 1
        assert fail_record(tmp_path, records[step][0]) == step
