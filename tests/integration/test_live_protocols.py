"""Integration: every protocol against one live NeST server.

One server, one namespace, five dialects -- the core claim of the
virtual protocol layer, exercised over real sockets.
"""

import pytest

from repro.client import (
    ChirpClient,
    FtpClient,
    GridFtpClient,
    HttpClient,
    NfsClient,
)
from repro.client.chirp import ChirpError
from repro.client.http import HttpError
from repro.protocols.common import Status


class TestChirp:
    def test_put_get_round_trip(self, server):
        with ChirpClient(*server.endpoint("chirp")) as c:
            payload = b"native protocol" * 100
            c.put("/data/chirp.bin", payload)
            assert c.get("/data/chirp.bin") == payload

    def test_metadata_operations(self, server):
        with ChirpClient(*server.endpoint("chirp")) as c:
            c.mkdir("/data/subdir")
            c.put("/data/subdir/f", b"x")
            names = [e["name"] for e in c.listdir("/data/subdir")]
            assert names == ["f"]
            assert c.stat("/data/subdir/f")["size"] == 1
            c.rename("/data/subdir/f", "/data/subdir/g")
            assert c.stat("/data/subdir/g")["size"] == 1
            c.unlink("/data/subdir/g")
            c.rmdir("/data/subdir")

    def test_rename_directory_keeps_its_files_bytes(self, server):
        with ChirpClient(*server.endpoint("chirp")) as c:
            c.mkdir("/data/top")
            c.mkdir("/data/top/old")
            c.put("/data/top/old/x", b"hello")
            c.rename("/data/top/old", "/data/top/new")
            assert c.stat("/data/top/new/x")["size"] == 5
            assert c.get("/data/top/new/x") == b"hello"
            with pytest.raises(ChirpError) as info:
                c.rename("/data/top/new", "/data/top/new/inner")
            assert info.value.status is Status.BAD_REQUEST
            assert c.get("/data/top/new/x") == b"hello"

    def test_missing_file_error(self, server):
        with ChirpClient(*server.endpoint("chirp")) as c:
            with pytest.raises(ChirpError) as info:
                c.get("/data/never-created")
            assert info.value.status is Status.NOT_FOUND

    def test_gsi_authentication(self, server, ca):
        with ChirpClient(*server.endpoint("chirp")) as c:
            user = c.authenticate(ca.issue("/CN=tester"))
            assert user == "/CN=tester"

    def test_bad_credential_rejected(self, server):
        from repro.nest.auth import CertificateAuthority

        rogue = CertificateAuthority("Rogue CA")
        with ChirpClient(*server.endpoint("chirp")) as c:
            with pytest.raises(ChirpError):
                c.authenticate(rogue.issue("/CN=intruder"))

    def test_query_returns_classad(self, server):
        from repro.classads import parse

        with ChirpClient(*server.endpoint("chirp")) as c:
            ad = parse(c.query())
            assert ad.eval("Type") == "Storage"
            assert ad.eval("Name") == "test-nest"


class TestHttp:
    def test_round_trip(self, server):
        with HttpClient(*server.endpoint("http")) as h:
            h.put("/data/http.bin", b"h" * 5000)
            assert h.get("/data/http.bin") == b"h" * 5000
            assert h.head("/data/http.bin")["size"] == 5000
            h.delete("/data/http.bin")
            with pytest.raises(HttpError):
                h.get("/data/http.bin")

    def test_cross_protocol_visibility(self, server):
        with ChirpClient(*server.endpoint("chirp")) as c:
            c.put("/data/shared.bin", b"written by chirp")
        with HttpClient(*server.endpoint("http")) as h:
            assert h.get("/data/shared.bin") == b"written by chirp"

    def test_keepalive_multiple_requests(self, server):
        with HttpClient(*server.endpoint("http")) as h:
            for i in range(5):
                h.put(f"/data/ka-{i}", bytes([i]) * 10)
            for i in range(5):
                assert h.get(f"/data/ka-{i}") == bytes([i]) * 10


class TestFtp:
    def test_round_trip(self, server):
        with FtpClient(*server.endpoint("ftp")) as f:
            f.stor("/data/ftp.bin", b"f" * 4000)
            assert f.retr("/data/ftp.bin") == b"f" * 4000
            assert f.size("/data/ftp.bin") == 4000

    def test_directory_operations(self, server):
        with FtpClient(*server.endpoint("ftp")) as f:
            f.mkd("/data/ftpdir")
            f.cwd("/data/ftpdir")
            assert f.pwd() == "/data/ftpdir"
            f.stor("rel.bin", b"relative path")
            assert "rel.bin" in f.list()
            f.dele("rel.bin")
            f.cwd("/data")
            f.rmd("/data/ftpdir")


class TestGridFtp:
    def test_stream_mode(self, server, ca):
        with GridFtpClient(*server.endpoint("gridftp"),
                           credential=ca.issue("/CN=mover")) as g:
            g.stor("/data/g.bin", b"g" * 70_000)
            assert g.retr("/data/g.bin") == b"g" * 70_000

    def test_parallel_streams(self, server, ca):
        payload = bytes(range(256)) * 2000  # 512 KB, content-checkable
        with GridFtpClient(*server.endpoint("gridftp"),
                           credential=ca.issue("/CN=mover")) as g:
            g.set_parallelism(4)
            g.stor_parallel("/data/par.bin", payload)
            assert g.retr_parallel("/data/par.bin") == payload

    def test_anonymous_without_adat(self, server):
        # GridFTP without GSI falls back to anonymous: reads allowed.
        with ChirpClient(*server.endpoint("chirp")) as c:
            c.put("/data/public.bin", b"open data")
        with GridFtpClient(*server.endpoint("gridftp")) as g:
            assert g.retr("/data/public.bin") == b"open data"


class TestNfs:
    def test_mount_lookup_read(self, server):
        with ChirpClient(*server.endpoint("chirp")) as c:
            c.put("/data/nfs.bin", b"n" * 20_000)
        with NfsClient(*server.endpoint("nfs")) as n:
            n.mount("/")
            fh, attrs = n.lookup_path("/data/nfs.bin")
            assert attrs["size"] == 20_000
            assert n.read_file("/data/nfs.bin") == b"n" * 20_000

    def test_block_granularity(self, server):
        with ChirpClient(*server.endpoint("chirp")) as c:
            c.put("/data/blocks.bin", bytes(range(256)) * 100)
        with NfsClient(*server.endpoint("nfs")) as n:
            n.mount("/")
            fh, _ = n.lookup_path("/data/blocks.bin")
            block = n.read_block(fh, 8192, 8192)
            assert len(block) == 8192
            assert block == (bytes(range(256)) * 100)[8192:16384]

    def test_write_and_namespace(self, server):
        with NfsClient(*server.endpoint("nfs")) as n:
            n.mount("/")
            dirfh, _ = n.lookup_path("/data")
            sub = n.mkdir(dirfh, "nfsdir")
            fh = n.create(sub, "file")
            n.write_block(fh, 0, b"over nfs")
            entries = dict(n.readdir(sub))
            assert "file" in entries
            n.remove(sub, "file")
            n.rmdir(dirfh, "nfsdir")

    def test_stale_handle(self, server):
        from repro.client.nfs import NfsError

        with NfsClient(*server.endpoint("nfs")) as n:
            n.mount("/")
            from repro.protocols import nfs as nfsproto

            with pytest.raises(NfsError):
                n.getattr(nfsproto.make_fhandle(999_999))


class TestCrossProtocolPolicy:
    def test_acl_enforced_for_every_protocol(self, server, ca):
        with ChirpClient(*server.endpoint("chirp")) as c:
            c.authenticate(ca.issue("/CN=owner"))
            c.mkdir("/data/private")
            c.put("/data/private/secret", b"classified")
            c.acl_set("/data/private", "*", "l")  # lookup only
        with HttpClient(*server.endpoint("http")) as h:
            with pytest.raises(HttpError) as info:
                h.get("/data/private/secret")
            assert info.value.status is Status.DENIED
        with NfsClient(*server.endpoint("nfs")) as n:
            from repro.client.nfs import NfsError

            n.mount("/")
            fh, _ = n.lookup_path("/data/private/secret")
            with pytest.raises(NfsError):
                n.read_block(fh, 0)

    def test_same_bytes_through_all_protocols(self, server, ca):
        payload = bytes(range(256)) * 500
        with ChirpClient(*server.endpoint("chirp")) as c:
            c.put("/data/everyone.bin", payload)
        with HttpClient(*server.endpoint("http")) as h:
            assert h.get("/data/everyone.bin") == payload
        with FtpClient(*server.endpoint("ftp")) as f:
            assert f.retr("/data/everyone.bin") == payload
        with GridFtpClient(*server.endpoint("gridftp"),
                           credential=ca.issue("/CN=x")) as g:
            assert g.retr("/data/everyone.bin") == payload
        with NfsClient(*server.endpoint("nfs")) as n:
            n.mount("/")
            assert n.read_file("/data/everyone.bin") == payload
