"""Property-style crash sweep: kill the appliance at *every* journal
boundary of a scripted workload, recover, and check the invariants.

Two faults per boundary -- a clean crash just before the record lands,
and a torn write that leaves half the record on disk -- so a workload
of N records yields 2N crash points (the workload below emits 25+,
for the required 50+ points).  The namespace verbs run on two entry
points: direct calls, which wait for each record as it is emitted, and
``StorageManager.execute`` -- the wire path, which waits at the op's
exit or, for a verb that moves or drops backing bytes, just before.
"""

from __future__ import annotations

import pytest

from repro.durability import DurabilityManager
from repro.faults.disk import DiskFaultPlan, SimulatedCrash
from repro.nest.backends import MemoryStore
from repro.nest.storage import DirNode, FileNode, StorageManager
from repro.protocols.common import Request, RequestType, Status

CAPACITY = 1 << 20


def put(storage, user, path, data: bytes) -> None:
    ticket = storage.approve_put(user, path, len(data))
    ticket.stream.write(data)
    ticket.settle(len(data))


class Wire:
    """``run_workload``'s namespace verbs, as requests to ``execute``."""

    def __init__(self, storage: StorageManager):
        self.storage = storage

    def _execute(self, rtype, user, path, **params) -> None:
        response = self.storage.execute(
            Request(rtype, path, user=user, params=params))
        assert response.status is Status.OK, response.message

    def mkdir(self, user, path):
        self._execute(RequestType.MKDIR, user, path)

    def acl_set(self, user, path, subject, rights):
        self._execute(RequestType.ACL_SET, user, path,
                      subject=subject, rights=rights)

    def rename(self, user, path, new_path):
        self._execute(RequestType.RENAME, user, path, new_path=new_path)

    def delete(self, user, path):
        self._execute(RequestType.DELETE, user, path)

    def rmdir(self, user, path):
        self._execute(RequestType.RMDIR, user, path)

    def delete_lot(self, lot_id, owner):
        self._execute(RequestType.LOT_DELETE, owner, "", lot_id=lot_id)


class Direct:
    """``run_workload``'s namespace verbs, as direct calls."""

    def __init__(self, storage: StorageManager):
        self.storage = storage

    def __getattr__(self, name):
        return getattr(self.storage, name)

    def delete_lot(self, lot_id, owner):
        self.storage.lots.delete_lot(lot_id, owner=owner)


#: entry point name -> what ``run_workload`` calls the namespace verbs on
ENTRY_POINTS = {"direct": Direct, "wire": Wire}


def nfs_write(storage, user, path, data: bytes) -> None:
    ticket = storage.approve_write(user, path, 0, len(data))
    ticket.stream.write(data)
    ticket.settle(len(data))


#: A fixed script touching every journaled mutation type, one verb a
#: step: ``(name, step(storage, namespace verbs))``.
WORKLOAD = [
    ("lot alice", lambda s, ns: s.lots.create_lot("alice", 1 << 16, 3600.0)),
    ("lot bob", lambda s, ns: s.lots.create_lot("bob", 1 << 16, 3600.0)),
    ("lot carol", lambda s, ns: s.lots.create_lot("carol", 1 << 16, 3600.0)),
    ("group team", lambda s, ns: s.add_group("team", {"alice", "bob"})),
    ("mkdir /a", lambda s, ns: ns.mkdir("admin", "/a")),
    ("acl /a", lambda s, ns: ns.acl_set("admin", "/a", "group:team",
                                        "rwmidl")),
    ("mkdir /b", lambda s, ns: ns.mkdir("admin", "/b")),
    ("acl /b", lambda s, ns: ns.acl_set("admin", "/b", "carol", "rwmidl")),
    ("put /a/one", lambda s, ns: put(s, "alice", "/a/one", b"1" * 100)),
    ("put /a/two", lambda s, ns: put(s, "bob", "/a/two", b"2" * 200)),
    ("put /b/three", lambda s, ns: put(s, "carol", "/b/three", b"3" * 300)),
    ("rename", lambda s, ns: ns.rename("alice", "/a/one", "/a/uno")),
    ("delete", lambda s, ns: ns.delete("bob", "/a/two")),
    ("renew lot3", lambda s, ns: s.lots.renew("lot3", 7200.0)),
    ("attach lot3", lambda s, ns: s.lots.attach("lot3", "/b")),
    ("put /b/four", lambda s, ns: put(s, "carol", "/b/four", b"4" * 50)),
    ("put /a/five", lambda s, ns: put(s, "alice", "/a/five", b"5" * 150)),
    # Overwrites: a growing one charges the lot its growth, a
    # shrinking one gives the difference back in its commit.
    ("growing overwrite",
     lambda s, ns: put(s, "alice", "/a/uno", b"U" * 120)),
    ("shrinking overwrite",
     lambda s, ns: put(s, "carol", "/b/three", b"T" * 30)),
    ("mkdir /c", lambda s, ns: ns.mkdir("admin", "/c")),
    ("acl /c", lambda s, ns: ns.acl_set("admin", "/c", "bob", "rl")),
    ("rmdir /c", lambda s, ns: ns.rmdir("admin", "/c")),
    ("pin lot3", lambda s, ns: s.lots.pin_lot("lot3")),
    ("nfs write", lambda s, ns: nfs_write(s, "alice", "/a/nfs", b"w" * 40)),
    ("group again",
     lambda s, ns: s.add_group("team", {"alice", "bob", "carol"})),
    ("delete lot2", lambda s, ns: ns.delete_lot("lot2", "bob")),
]


def run_workload(s: StorageManager, entry: str = "direct") -> None:
    """Run every step of :data:`WORKLOAD` on one entry point."""
    ns = ENTRY_POINTS[entry](s)
    for _name, step in WORKLOAD:
        step(s, ns)


def boot(state_dir, store, faults=None):
    storage = StorageManager(store=store, require_lots=True,
                             capacity_bytes=CAPACITY)
    manager = DurabilityManager(str(state_dir), fsync=False, faults=faults)
    report = manager.recover_into(storage)
    return storage, manager, report


def crash_workload(state_dir, store, plan, entry="direct") -> bool:
    """Run the workload under ``plan``; True when the crash fired."""
    storage, manager, _ = boot(state_dir, store, faults=plan)
    try:
        run_workload(storage, entry)
    except SimulatedCrash:
        return True
    finally:
        # A SIGKILL persists nothing further: close the journal file
        # descriptor only, never a shutdown snapshot.
        try:
            manager.journal.close()
        except OSError:
            pass
    return False


def tree_sizes(storage) -> dict[str, int]:
    sizes: dict[str, int] = {}

    def walk(dirnode, prefix):
        for name, child in dirnode.children.items():
            path = prefix.rstrip("/") + "/" + name
            if isinstance(child, FileNode):
                sizes[path] = child.size
            elif isinstance(child, DirNode):
                walk(child, path)

    walk(storage.root, "")
    return sizes


def check_invariants(storage) -> None:
    sizes = tree_sizes(storage)
    # 1. Global accounting matches the namespace exactly.
    assert storage.used_bytes == sum(sizes.values())
    # 2. Every lot charge points at a real file and never exceeds it.
    totals: dict[str, int] = {}
    for lot in storage.lots.lots.values():
        assert lot.used == sum(lot.charges.values())
        for path, nbytes in lot.charges.items():
            assert nbytes > 0
            totals[path] = totals.get(path, 0) + nbytes
    for path, total in totals.items():
        assert path in sizes, f"charge for missing file {path}"
        assert total <= sizes[path], f"overcharge on {path}"
    # 3. Every file's size is the length of its bytes in the store.
    for path, size in sizes.items():
        assert storage.store.size(path) == size, f"{path} lost bytes"


def workload_record_count(tmp_path, entry="direct") -> int:
    store = MemoryStore()
    storage, manager, _ = boot(tmp_path / f"probe-{entry}", store)
    run_workload(storage, entry)
    n = manager.journal.last_seq
    manager.close(snapshot=False)
    return n


def sweep(tmp_path, make_plan, entry="direct") -> int:
    """Crash at every record boundary; returns the number of points."""
    total = workload_record_count(tmp_path, entry)
    assert total >= 25, f"workload too small for the sweep: {total}"
    for k in range(1, total + 1):
        state_dir = tmp_path / f"state{k}"
        store = MemoryStore()
        crashed = crash_workload(state_dir, store, make_plan(k), entry)
        assert crashed, f"fault at record {k} never fired"

        s2, m2, report = boot(state_dir, store)
        check_invariants(s2)
        # Determinism: recovering the same state twice gives the same
        # appliance, byte for byte.
        s3, m3, _ = boot(state_dir, store)
        assert s2.serialize_state() == s3.serialize_state()
        # The recovered appliance still takes writes.
        s3.mkdir("admin", "/post-crash")
        put_user = "alice" if "alice" in {
            l.owner for l in s3.lots.lots.values()} else None
        if put_user:
            s3.acl_set("admin", "/post-crash", put_user, "rwild")
            put(s3, put_user, "/post-crash/ok", b"k" * 10)
            check_invariants(s3)
        m2.close(snapshot=False)
        m3.close()
    return total


def test_crash_at_every_record_boundary(tmp_path):
    n = sweep(tmp_path, DiskFaultPlan.crash_at_record)
    assert n >= 25


def test_torn_write_at_every_record_boundary(tmp_path):
    n = sweep(tmp_path, DiskFaultPlan.torn_record)
    assert n >= 25


@pytest.mark.parametrize("make_plan", [DiskFaultPlan.crash_at_record,
                                       DiskFaultPlan.torn_record],
                         ids=["crash", "torn"])
def test_every_record_boundary_over_the_wire(tmp_path, make_plan):
    assert sweep(tmp_path, make_plan, entry="wire") >= 25


def test_sweep_covers_fifty_points(tmp_path):
    # The acceptance bar: both sweeps together cover >= 50 boundaries,
    # on each entry point.
    for entry in ENTRY_POINTS:
        assert 2 * workload_record_count(tmp_path, entry) >= 50
