"""Unit tests for the storage manager."""

import pytest

from repro.nest.backends import LocalFSStore, MemoryStore
from repro.nest.storage import StorageError, StorageManager
from repro.protocols.common import Request, RequestType, Status


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def sm(clock):
    mgr = StorageManager(clock=clock)
    mgr.mkdir("alice", "/data")
    return mgr


def put(sm, user, path, payload: bytes):
    ticket = sm.approve_put(user, path, len(payload))
    ticket.stream.write(payload)
    ticket.settle(len(payload))


def get(sm, user, path) -> bytes:
    ticket = sm.approve_get(user, path)
    try:
        return ticket.stream.read()
    finally:
        ticket.settle(ticket.size)


class TestNamespace:
    def test_mkdir_listdir(self, sm):
        sm.mkdir("alice", "/data/sub")
        names = [e["name"] for e in sm.listdir("alice", "/data")]
        assert names == ["sub"]

    def test_mkdir_duplicate(self, sm):
        with pytest.raises(StorageError) as info:
            sm.mkdir("alice", "/data")
        assert info.value.status is Status.EXISTS

    def test_mkdir_missing_parent(self, sm):
        with pytest.raises(StorageError) as info:
            sm.mkdir("alice", "/no/such/deep")
        assert info.value.status is Status.NOT_FOUND

    def test_rmdir_empty_only(self, sm):
        sm.mkdir("alice", "/data/sub")
        put(sm, "alice", "/data/sub/f", b"x")
        with pytest.raises(StorageError) as info:
            sm.rmdir("alice", "/data/sub")
        assert info.value.status is Status.NOT_EMPTY
        sm.delete("alice", "/data/sub/f")
        sm.rmdir("alice", "/data/sub")
        assert not sm.exists("/data/sub")

    def test_stat_file_and_dir(self, sm):
        put(sm, "alice", "/data/f", b"hello")
        assert sm.stat("alice", "/data/f") == {
            "size": 5, "type": "file", "owner": "alice"
        }
        assert sm.stat("alice", "/data")["type"] == "dir"

    def test_rename_moves_data(self, sm):
        put(sm, "alice", "/data/a", b"payload")
        sm.mkdir("alice", "/data/dst")
        sm.rename("alice", "/data/a", "/data/dst/b")
        assert not sm.exists("/data/a")
        assert get(sm, "alice", "/data/dst/b") == b"payload"

    def test_rename_onto_existing_rejected(self, sm):
        put(sm, "alice", "/data/a", b"1")
        put(sm, "alice", "/data/b", b"2")
        with pytest.raises(StorageError) as info:
            sm.rename("alice", "/data/a", "/data/b")
        assert info.value.status is Status.EXISTS

    def test_rename_directory_moves_every_descendant(self, clock):
        """Renaming a directory used to move its namespace only: stat
        said 5 bytes while a read returned b'', and the lot kept
        charging the old paths."""
        sm = StorageManager(clock=clock, require_lots=True)
        lot, _ = sm.lots.create_lot("alice", 1 << 20, duration=3600.0)
        sm.mkdir("alice", "/data")
        sm.mkdir("alice", "/data/a")
        sm.mkdir("alice", "/data/a/sub")
        put(sm, "alice", "/data/a/x", b"hello")
        put(sm, "alice", "/data/a/sub/y", b"world!")
        sm.rename("alice", "/data/a", "/data/b")
        assert sm.stat("alice", "/data/b/x")["size"] == 5
        assert get(sm, "alice", "/data/b/x") == b"hello"
        assert get(sm, "alice", "/data/b/sub/y") == b"world!"
        assert not sm.store.exists("/data/a/x")
        assert not sm.store.exists("/data/a/sub/y")
        assert lot.charges == {"/data/b/x": 5, "/data/b/sub/y": 6}
        sm.delete("alice", "/data/b/x")
        assert lot.used == 6

    def test_rename_into_own_subtree_rejected(self, sm):
        # It used to succeed and leave neither /data/c nor /data/c/d.
        sm.mkdir("alice", "/data/c")
        for target in ("/data/c/d", "/data/c/"):
            with pytest.raises(StorageError) as info:
                sm.rename("alice", "/data/c", target)
            assert info.value.status in (Status.BAD_REQUEST, Status.EXISTS)
        sm.mkdir("alice", "/data/c/d")
        with pytest.raises(StorageError) as info:
            sm.rename("alice", "/data/c", "/data/c/d/e")
        assert info.value.status is Status.BAD_REQUEST
        assert sm.exists("/data/c/d")
        assert [e["name"] for e in sm.listdir("alice", "/data")] == ["c"]

    def test_delete_releases_space(self, sm):
        put(sm, "alice", "/data/f", b"12345")
        used = sm.used_bytes
        sm.delete("alice", "/data/f")
        assert sm.used_bytes == used - 5

    def test_path_traversal_components_ignored(self, sm):
        # Empty components collapse; the namespace has no "..".
        put(sm, "alice", "/data//f", b"x")
        assert sm.exists("/data/f")


class TestDataPath:
    def test_put_get_round_trip(self, sm):
        put(sm, "alice", "/data/f", b"content bytes")
        assert get(sm, "alice", "/data/f") == b"content bytes"

    def test_get_missing(self, sm):
        with pytest.raises(StorageError) as info:
            sm.approve_get("alice", "/data/nope")
        assert info.value.status is Status.NOT_FOUND

    def test_get_directory_rejected(self, sm):
        with pytest.raises(StorageError) as info:
            sm.approve_get("alice", "/data")
        assert info.value.status is Status.IS_DIR

    def test_put_settled_short_leaves_no_file(self, sm):
        ticket = sm.approve_put("alice", "/data/f", 100)
        ticket.stream.write(b"abc")
        ticket.settle(3)  # fewer bytes than declared: the put is undone
        assert not sm.exists("/data/f")
        assert not sm.store.exists("/data/f")
        assert sm.used_bytes == 0

    def test_block_write_and_read(self, sm):
        t = sm.approve_write("alice", "/data/f", 0, 4)
        t.stream.write(b"abcd")
        t.settle(4)
        t = sm.approve_write("alice", "/data/f", 4, 4)
        t.stream.write(b"efgh")
        t.settle(4)
        t = sm.approve_read("alice", "/data/f", 2, 4)
        data = t.stream.read(4)
        t.settle(4)
        assert data == b"cdef"
        assert sm.stat("alice", "/data/f")["size"] == 8

    def test_block_read_clamped_to_eof(self, sm):
        put(sm, "alice", "/data/f", b"abc")
        t = sm.approve_read("alice", "/data/f", 2, 100)
        assert t.size == 1
        t.settle(1)

    def test_capacity_enforced(self, clock):
        small = StorageManager(capacity_bytes=10, clock=clock)
        small.mkdir("a", "/d")
        with pytest.raises(StorageError) as info:
            small.approve_put("a", "/d/f", 100)
        assert info.value.status is Status.NO_SPACE


class TestAclEnforcement:
    def test_write_denied_without_insert(self, sm):
        sm.acl_set("alice", "/data", "*", "rl")  # drop anonymous insert
        with pytest.raises(StorageError) as info:
            sm.approve_put("bob", "/data/f", 1)
        assert info.value.status is Status.DENIED

    def test_read_denied_without_read(self, sm):
        put(sm, "alice", "/data/f", b"secret")
        sm.acl_set("alice", "/data", "*", "l")
        with pytest.raises(StorageError):
            sm.approve_get("bob", "/data/f")

    def test_acl_set_requires_admin(self, sm):
        with pytest.raises(StorageError) as info:
            sm.acl_set("bob", "/data", "bob", "all")
        assert info.value.status is Status.DENIED

    def test_acl_get_lists_entries(self, sm):
        sm.acl_set("alice", "/data", "bob", "rwl")
        listing = dict(sm.acl_get("alice", "/data"))
        assert listing["bob"] == "rwl"

    @pytest.mark.parametrize("verb", ["stat", "approve_get", "approve_read"])
    def test_lookup_verbs_report_in_one_order(self, sm, verb):
        # NOT_FOUND before IS_DIR before DENIED, from the one path walk.
        call = {"stat": lambda user, path: sm.stat(user, path),
                "approve_get": sm.approve_get,
                "approve_read": lambda user, path: sm.approve_read(
                    user, path, 0, 1)}[verb]
        put(sm, "alice", "/data/f", b"secret")
        sm.mkdir("alice", "/data/sub")
        sm.acl_set("alice", "/data", "*", "")
        sm.acl_set("alice", "/data/sub", "*", "")

        def status(user, path):
            try:
                call(user, path)
            except StorageError as exc:
                return exc.status
            return Status.OK

        assert status("bob", "/data/missing") is Status.NOT_FOUND
        assert status("bob", "/data/f/below") is Status.NOT_DIR
        assert status("bob", "/data/f") is Status.DENIED
        assert status("alice", "/data/f") is Status.OK
        if verb == "stat":
            # a directory is stat-able, under its own ACL
            assert status("bob", "/data/sub") is Status.DENIED
            assert status("alice", "/data/sub") is Status.OK
        else:
            assert status("bob", "/data/sub") is Status.IS_DIR
            assert status("alice", "/data/sub") is Status.IS_DIR

    def test_enforcement_is_protocol_independent(self, sm):
        # The same denial no matter which protocol made the request.
        sm.acl_set("alice", "/data", "*", "l")
        for proto in ("http", "nfs", "ftp"):
            req = Request(rtype=RequestType.DELETE, path="/data/x",
                          user="anonymous", protocol=proto)
            resp = sm.execute(req)
            assert resp.status in (Status.DENIED, Status.NOT_FOUND)


class TestLotIntegration:
    def test_write_requires_lot_when_configured(self, clock):
        sm = StorageManager(clock=clock, require_lots=True)
        sm.mkdir("alice", "/d")
        with pytest.raises(StorageError) as info:
            sm.approve_put("alice", "/d/f", 10)
        assert info.value.status is Status.NO_SPACE

    def test_write_within_lot(self, clock):
        sm = StorageManager(clock=clock, require_lots=True)
        sm.mkdir("alice", "/d")
        sm.lots.create_lot("alice", 100, duration=60)
        put(sm, "alice", "/d/f", b"x" * 50)
        assert sm.lots.total_used() == 50

    def test_delete_releases_lot_charge(self, clock):
        sm = StorageManager(clock=clock, require_lots=True)
        sm.mkdir("alice", "/d")
        sm.lots.create_lot("alice", 100, duration=60)
        put(sm, "alice", "/d/f", b"x" * 50)
        sm.delete("alice", "/d/f")
        assert sm.lots.total_used() == 0

    def test_reclaimed_file_disappears_from_namespace(self, clock):
        sm = StorageManager(clock=clock, require_lots=True,
                            capacity_bytes=1000)
        sm.mkdir("alice", "/d")
        sm.lots.create_lot("alice", 800, duration=10)
        put(sm, "alice", "/d/victim", b"v" * 700)
        clock.now = 50.0  # lot expires -> best effort
        sm.create_lot("bob", 900, duration=60)
        assert not sm.exists("/d/victim")

    def test_reclaiming_a_put_in_flight_leaves_its_staged_bytes(
            self, clock, tmp_path):
        """A best-effort lot reclaimed while a PUT charged to it is in
        flight takes the reservation only: nothing under the staged
        name is a file yet, so the PUT still commits its bytes -- charged
        again, to alice's other lot.  (With no lot left to charge, the
        commit is refused: ``test_live_equals_replay.py``.)"""
        sm = StorageManager(store=LocalFSStore(str(tmp_path)), clock=clock,
                            require_lots=True, capacity_bytes=2000)
        sm.mkdir("alice", "/d")
        sm.lots.create_lot("alice", 800, duration=10)
        sm.lots.create_lot("alice", 800, duration=100)
        ticket = sm.approve_put("alice", "/d/f", 700)
        ticket.stream.write(b"n" * 700)
        clock.now = 50.0  # the first lot expires -> best effort
        sm.create_lot("bob", 1100, duration=60)
        ticket.settle(700)
        assert sm.stat("alice", "/d/f")["size"] == 700
        assert get(sm, "alice", "/d/f") == b"n" * 700
        assert sm.lots.total_used() == sm.used_bytes == 700

    def test_a_reclaim_of_part_of_a_reservation_is_charged_again(self, clock):
        """A reservation spanning two of alice's lots loses only the
        expired lot's part to a reclaim; the commit charges that part
        again and leaves the rest where it was."""
        sm = StorageManager(clock=clock, require_lots=True,
                            capacity_bytes=2000)
        sm.mkdir("alice", "/d")
        sm.lots.create_lot("alice", 300, duration=10)
        sm.lots.create_lot("alice", 800, duration=100)
        ticket = sm.approve_put("alice", "/d/f", 700)
        ticket.stream.write(b"n" * 700)
        clock.now = 50.0  # the first lot expires -> best effort
        sm.create_lot("bob", 1000, duration=60)
        ticket.settle(700)
        assert sm.lots.total_used() == sm.used_bytes == 700

    @pytest.mark.parametrize("params", [
        {"capacity": 900}, {"capacity": 900, "duration": 0},
        {"capacity": 5000, "duration": 60}])
    def test_refused_lot_create_reclaims_nothing(self, clock, params):
        """A LOT_CREATE refused for its arguments or for space is
        refused before any best-effort file is reclaimed for it."""
        sm = StorageManager(clock=clock, require_lots=True,
                            capacity_bytes=1000)
        sm.mkdir("alice", "/d")
        sm.lots.create_lot("alice", 800, duration=10)
        put(sm, "alice", "/d/victim", b"v" * 700)
        clock.now = 50.0  # lot expires -> best effort
        resp = sm.execute(Request(rtype=RequestType.LOT_CREATE,
                                  user="alice", params=params))
        assert not resp.ok
        assert get(sm, "alice", "/d/victim") == b"v" * 700
        assert sm.lots.total_used() == sm.used_bytes == 700


class TestConcurrentPuts:
    """Two puts of one path settle to the same file whatever order
    they settle in, an aborted one included."""

    @pytest.mark.parametrize("aborted_first", [True, False])
    def test_aborted_put_leaves_a_concurrent_one(self, clock, aborted_first):
        sm = StorageManager(clock=clock, require_lots=True)
        sm.mkdir("alice", "/d")
        sm.lots.create_lot("alice", 1000, duration=60)
        a = sm.approve_put("alice", "/d/p", 100)
        b = sm.approve_put("alice", "/d/p", 40)
        a.stream.write(b"a" * 10)
        b.stream.write(b"b" * 40)
        if aborted_first:
            a.settle(10)
            b.settle(40)
        else:
            b.settle(40)
            a.settle(10)
        assert sm.stat("alice", "/d/p")["size"] == 40
        assert get(sm, "alice", "/d/p") == b"b" * 40
        assert sm.used_bytes == sm.lots.total_used() == 40

    def test_both_aborted_leave_no_file(self, clock):
        sm = StorageManager(clock=clock, require_lots=True)
        sm.mkdir("alice", "/d")
        sm.lots.create_lot("alice", 1000, duration=60)
        a = sm.approve_put("alice", "/d/p", 100)
        b = sm.approve_put("alice", "/d/p", 40)
        a.settle(0)
        b.settle(0)
        assert not sm.exists("/d/p")
        assert not sm.store.exists("/d/p")
        assert sm.used_bytes == sm.lots.total_used() == 0


class TestReadsDuringAPut:
    """A GET or STAT while a PUT is in flight sees the file from before
    the PUT, with a size that matches the bytes it reads."""

    @pytest.fixture(params=["memory", "localfs"])
    def store_sm(self, request, clock, tmp_path):
        store = (MemoryStore() if request.param == "memory"
                 else LocalFSStore(str(tmp_path / "root")))
        sm = StorageManager(store=store, clock=clock)
        sm.mkdir("alice", "/data")
        return sm

    def test_an_overwrite_in_flight(self, store_sm):
        put(store_sm, "alice", "/data/f", b"abc")
        ticket = store_sm.approve_put("alice", "/data/f", 8)
        ticket.stream.write(b"12345678")
        ticket.stream.flush()
        assert store_sm.stat("alice", "/data/f")["size"] == 3
        reader = store_sm.approve_get("alice", "/data/f")
        got = reader.stream.read(reader.size + 1)
        reader.settle(len(got))
        assert reader.size == len(got) == 3 and got == b"abc"
        ticket.settle(8)
        assert get(store_sm, "alice", "/data/f") == b"12345678"

    def test_a_new_file_in_flight(self, store_sm):
        ticket = store_sm.approve_put("alice", "/data/new", 5)
        ticket.stream.write(b"hello")
        ticket.stream.flush()
        for read in (store_sm.stat, store_sm.approve_get):
            with pytest.raises(StorageError) as info:
                read("alice", "/data/new")
            assert info.value.status is Status.NOT_FOUND
        ticket.settle(5)
        assert store_sm.stat("alice", "/data/new")["size"] == 5


class TestOverwriteWithLess:
    """``lot.used`` follows live bytes when a put replaces a larger
    file (it used to keep the old, larger charge for ever)."""

    BIG, SMALL = 64 * 1024, 1024

    @pytest.fixture
    def lotted(self, clock):
        sm = StorageManager(clock=clock, require_lots=True)
        sm.mkdir("alice", "/d")
        sm.lots.create_lot("alice", 1 << 20, duration=60)
        put(sm, "alice", "/d/f", b"b" * self.BIG)
        assert sm.lots.total_used() == sm.used_bytes == self.BIG
        return sm

    def test_shrinking_overwrite_releases_the_difference(self, lotted):
        put(lotted, "alice", "/d/f", b"s" * self.SMALL)
        assert lotted.stat("alice", "/d/f")["size"] == self.SMALL
        assert lotted.used_bytes == self.SMALL
        assert lotted.lots.total_used() == self.SMALL

    def test_old_bytes_stay_charged_until_commit(self, lotted):
        ticket = lotted.approve_put("alice", "/d/f", self.SMALL)
        assert lotted.lots.total_used() == lotted.used_bytes == self.BIG
        ticket.stream.write(b"s" * self.SMALL)
        ticket.settle(self.SMALL)
        assert lotted.lots.total_used() == self.SMALL

    @pytest.mark.parametrize("landed", [0, 300])
    def test_short_overwrite_keeps_the_old_file(self, lotted, landed):
        ticket = lotted.approve_put("alice", "/d/f", self.SMALL)
        ticket.stream.write(b"s" * landed)
        ticket.settle(landed)  # the transfer failed after ``landed`` bytes
        # Nothing was committed: the old file keeps its charge.
        assert lotted.stat("alice", "/d/f")["size"] == self.BIG
        assert lotted.store.open_read("/d/f").read(self.BIG + 1) == (
            b"b" * self.BIG)
        assert lotted.used_bytes == self.BIG
        assert lotted.lots.total_used() == self.BIG

    def test_under_declared_overwrite_charges_the_rest(self, lotted):
        ticket = lotted.approve_put("alice", "/d/f", self.SMALL)
        ticket.stream.write(b"s" * 2048)
        ticket.settle(2048)
        assert lotted.used_bytes == lotted.lots.total_used() == 2048

    def test_growing_overwrite_still_charges_growth_only(self, lotted):
        put(lotted, "alice", "/d/f", b"g" * (self.BIG + 500))
        assert lotted.used_bytes == self.BIG + 500
        assert lotted.lots.total_used() == self.BIG + 500


class TestExecuteInterface:
    def test_execute_mkdir(self, sm):
        resp = sm.execute(Request(rtype=RequestType.MKDIR, path="/data/x",
                                  user="alice"))
        assert resp.ok
        assert sm.exists("/data/x")

    def test_execute_list(self, sm):
        put(sm, "alice", "/data/f", b"x")
        resp = sm.execute(Request(rtype=RequestType.LIST, path="/data",
                                  user="alice"))
        assert resp.ok and resp.data[0]["name"] == "f"

    def test_execute_error_mapped_to_status(self, sm):
        resp = sm.execute(Request(rtype=RequestType.STAT, path="/data/nope",
                                  user="alice"))
        assert resp.status is Status.NOT_FOUND

    def test_execute_lot_create_requires_auth(self, sm):
        resp = sm.execute(Request(rtype=RequestType.LOT_CREATE,
                                  user="anonymous",
                                  params={"capacity": 10, "duration": 10}))
        assert resp.status is Status.NOT_AUTHENTICATED

    def test_execute_lot_lifecycle(self, sm):
        create = sm.execute(Request(rtype=RequestType.LOT_CREATE, user="alice",
                                    params={"capacity": 100, "duration": 60}))
        assert create.ok
        lot_id = create.data["lot_id"]
        renew = sm.execute(Request(rtype=RequestType.LOT_RENEW, user="alice",
                                   params={"lot_id": lot_id, "duration": 120}))
        assert renew.ok
        stat = sm.execute(Request(rtype=RequestType.LOT_STAT, user="alice",
                                  params={"lot_id": lot_id}))
        assert stat.ok and stat.data["capacity"] == 100
        delete = sm.execute(Request(rtype=RequestType.LOT_DELETE, user="alice",
                                    params={"lot_id": lot_id}))
        assert delete.ok

    def test_execute_transfer_type_rejected(self, sm):
        resp = sm.execute(Request(rtype=RequestType.GET, path="/data/f"))
        assert resp.status is Status.BAD_REQUEST
