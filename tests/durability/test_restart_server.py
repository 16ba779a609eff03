"""The acceptance scenario: a live NeST, a hard crash, a restart.

A server with a ``state_dir`` takes real traffic (lots, ACL grants,
puts over Chirp, a replica catalog), is killed mid-PUT, and a fresh
incarnation over the same backend must come back with every guarantee
intact: lot capacities and charges, ACLs, committed files, replica
advertisements -- and the interrupted PUT either absent or complete,
never torn.  Pre-crash NFS handles fail typed (stale), not silently.
"""

from __future__ import annotations

import pytest

from repro.client.chirp import ChirpClient
from repro.client.nfs import NfsClient, NfsError
from repro.nest.auth import CertificateAuthority
from repro.nest.backends import MemoryStore
from repro.nest.config import NestConfig
from repro.nest.server import NestServer
from repro.protocols import nfs
from repro.replica.catalog import ReplicaCatalog


@pytest.fixture(scope="module")
def ca():
    return CertificateAuthority("Durability Test CA")


class Collector:
    def __init__(self):
        self.ads = {}

    def advertise(self, ad, ttl=None):
        self.ads[str(ad.eval("Name"))] = ad

    def withdraw(self, name):
        self.ads.pop(name, None)


def make_server(ca, store, state_dir):
    cfg = NestConfig(name="durable-nest", protocols=("chirp", "nfs"),
                     require_lots=True,
                     default_anonymous_lot_bytes=1 << 20,
                     state_dir=str(state_dir), journal_fsync=False)
    srv = NestServer(cfg, store=store, ca=ca)
    srv.start()
    return srv


def seed_workload(srv):
    """Three active lots, ACL grants, committed data over Chirp."""
    storage = srv.storage
    storage.mkdir("admin", "/data")
    storage.acl_set("admin", "/data", "*", "rliwd")
    storage.acl_set("admin", "/data", "alice", "rwmidl")
    for owner in ("alice", "bob", "carol"):
        storage.lots.create_lot(owner, 1 << 16, 3600.0)
    with ChirpClient(*srv.endpoint("chirp")) as client:
        client.put("/data/f", b"payload!" * 125)  # 1000 bytes, anonymous
    put = storage.approve_put("alice", "/data/mine", 300)
    put.stream.write(b"m" * 300)
    put.settle(300)


def lots_by_owner(storage):
    return {lot.owner: lot for lot in storage.lots.lots.values()}


def test_crash_and_restart_restores_guarantees(tmp_path, ca):
    store = MemoryStore()
    state_dir = tmp_path / "state"

    srv1 = make_server(ca, store, state_dir)
    epoch1 = srv1.fhandles.epoch
    seed_workload(srv1)

    collector1 = Collector()
    cat1 = ReplicaCatalog(collector=collector1)
    srv1.attach_catalog(cat1)
    cat1.register("lf-data", "durable-nest", "/data/f",
                  size=1000, state="valid")
    assert "replica::lf-data" in collector1.ads

    # A pre-crash NFS handle, held by a client across the restart.
    with NfsClient(*srv1.endpoint("nfs")) as nfs1:
        old_fh, attrs = nfs1.lookup_path("/data/f")
        assert attrs["size"] == 1000

    # The PUT the crash interrupts: approved and charged, data still
    # in flight when the power goes out.
    torn = srv1.storage.approve_put("alice", "/data/torn", 400)
    torn.stream.write(b"t" * 150)
    srv1.crash()

    srv2 = make_server(ca, store, state_dir)
    try:
        report = srv2.recovery_report
        assert report is not None and report.replayed_records > 0

        # Lot capacities, charges, and the anonymous default lot.
        lots = lots_by_owner(srv2.storage)
        assert set(lots) == {"alice", "bob", "carol", "anonymous"}
        assert all(lots[o].capacity == 1 << 16
                   for o in ("alice", "bob", "carol"))
        assert lots["alice"].charges == {"/data/mine": 300}
        assert lots["anonymous"].charges == {"/data/f": 1000}

        # ACL grants survived.
        entries = dict(srv2.storage.acl_get("admin", "/data"))
        assert entries.get("alice") == "rwmidl"

        # Committed data is intact and served; the interrupted PUT is
        # wholly absent (it never committed), with its charge released.
        with ChirpClient(*srv2.endpoint("chirp")) as client:
            assert client.get("/data/f") == b"payload!" * 125
            assert client.get("/data/mine") == b"m" * 300
        assert not srv2.storage.exists("/data/torn")

        # The replica catalog re-advertises from durable state.
        collector2 = Collector()
        cat2 = ReplicaCatalog(collector=collector2)
        srv2.attach_catalog(cat2)
        assert [r.site for r in cat2.locations("lf-data")] \
            == ["durable-nest"]
        assert "replica::lf-data" in collector2.ads

        # Restart epoch: the old NFS handle fails typed, then a fresh
        # LOOKUP against the new incarnation works.
        assert srv2.fhandles.epoch == epoch1 + 1
        with NfsClient(*srv2.endpoint("nfs")) as nfs2:
            with pytest.raises(NfsError) as exc:
                nfs2.getattr(old_fh)
            assert exc.value.status == nfs.NFSERR_STALE
            fresh_fh, attrs = nfs2.lookup_path("/data/f")
            assert attrs["size"] == 1000
            assert nfs2.getattr(fresh_fh)["size"] == 1000
    finally:
        srv2.stop(drain_timeout=2.0)


def test_clean_restart_replays_nothing(tmp_path, ca):
    store = MemoryStore()
    state_dir = tmp_path / "state"

    srv1 = make_server(ca, store, state_dir)
    seed_workload(srv1)
    srv1.stop(drain_timeout=2.0)  # graceful: final compaction snapshot

    srv2 = make_server(ca, store, state_dir)
    try:
        report = srv2.recovery_report
        # Everything came from the snapshot; the journal was folded.
        assert report.snapshot_seq > 0
        assert report.replayed_records == 0
        assert srv2.storage.stat("alice", "/data/mine")["size"] == 300
        lots = lots_by_owner(srv2.storage)
        assert lots["alice"].charges == {"/data/mine": 300}
    finally:
        srv2.stop(drain_timeout=2.0)


def test_restart_without_prior_state_is_fresh(tmp_path, ca):
    srv = make_server(ca, MemoryStore(), tmp_path / "state")
    try:
        report = srv.recovery_report
        assert report.replayed_records == 0
        assert report.snapshot_seq == 0
        assert report.epoch == 1
        # Only the configured anonymous default lot exists.
        assert set(lots_by_owner(srv.storage)) == {"anonymous"}
    finally:
        srv.stop(drain_timeout=2.0)
