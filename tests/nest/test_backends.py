"""Unit tests for the physical-storage backends."""

import io
import os
import threading

import pytest

from repro.client.chirp import ChirpClient
from repro.nest.backends import TEMP_SUFFIX, LocalFSStore, MemoryStore
from repro.nest.config import NestConfig
from repro.nest.server import NestServer


@pytest.fixture(params=["memory", "localfs"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    return LocalFSStore(str(tmp_path / "root"))


class TestBackendContract:
    def test_write_then_read(self, store):
        with store.open_write("/f") as w:
            w.write(b"hello bytes")
        with store.open_read("/f") as r:
            assert r.read() == b"hello bytes"

    def test_overwrite_truncates(self, store):
        with store.open_write("/f") as w:
            w.write(b"long original content")
        with store.open_write("/f") as w:
            w.write(b"short")
        assert store.size("/f") == 5

    def test_append_mode(self, store):
        with store.open_write("/f") as w:
            w.write(b"one")
        with store.open_write("/f", append=True) as w:
            w.write(b"two")
        with store.open_read("/f") as r:
            assert r.read() == b"onetwo"

    def test_update_seek_write(self, store):
        with store.open_write("/f") as w:
            w.write(b"abcdef")
        with store.open_update("/f") as u:
            u.seek(2)
            u.write(b"XY")
        with store.open_read("/f") as r:
            assert r.read() == b"abXYef"

    def test_update_creates_missing(self, store):
        with store.open_update("/new") as u:
            u.write(b"fresh")
        assert store.size("/new") == 5

    def test_delete_and_size(self, store):
        with store.open_write("/f") as w:
            w.write(b"xyz")
        assert store.size("/f") == 3
        store.delete("/f")
        assert store.size("/f") == 0
        store.delete("/f")  # idempotent

    def test_nested_paths(self, store):
        with store.open_write("/a/b/c/deep") as w:
            w.write(b"d")
        with store.open_read("/a/b/c/deep") as r:
            assert r.read() == b"d"

    def test_concurrent_writers_of_one_path_never_tear(self, store):
        a = store.open_write("/x")
        b = store.open_write("/x")
        a.write(b"A" * 100_000)
        b.write(b"B" * 50_000)
        a.close()
        with store.open_read("/x") as r:
            assert r.read() == b"A" * 100_000
        b.close()  # the last closer wins, whole
        with store.open_read("/x") as r:
            assert r.read() == b"B" * 50_000


def staged_files(root) -> list[str]:
    return [name for _, _, names in os.walk(root) for name in names
            if name.endswith(TEMP_SUFFIX)]


class TestStagedNames:
    def test_each_writer_stages_under_its_own_swept_name(self, tmp_path):
        store = LocalFSStore(str(tmp_path))
        a = store.open_write("/x")
        b = store.open_write("/x")
        assert len(staged_files(tmp_path)) == 2
        a.close()
        b.close()
        assert staged_files(tmp_path) == []
        store.open_write("/y").write(b"orphan")  # never closed: a crash
        assert store.sweep_temp() == 1
        assert staged_files(tmp_path) == [] and not store.exists("/y")

    def test_two_connections_putting_one_path_at_once(self, tmp_path):
        """Both PUTs are mid-body at the same time; both are
        acknowledged (CRC checked by the client) and the file is wholly
        one of the two payloads."""
        size = 1 << 20
        payloads = [b"A" * size, b"B" * size]
        both_mid_body = threading.Barrier(2, timeout=10)

        class MeetMidBody(io.BytesIO):
            met = False

            def readinto(self, view):
                if not self.met:
                    self.met = True
                    both_mid_body.wait()
                return super().readinto(view)

        outcomes = [None, None]

        def put(i, endpoint):
            try:
                with ChirpClient(*endpoint) as client:
                    outcomes[i] = client.put_stream(
                        "/same.dat", MeetMidBody(payloads[i]), size)
            except Exception as exc:  # noqa: BLE001 - handed to the test
                outcomes[i] = exc

        config = NestConfig(name="same-path", protocols=("chirp",),
                            management=False)
        with NestServer(config, store=LocalFSStore(str(tmp_path))) as server:
            # the second PUT overwrites: anonymous needs "w" as well.
            server.storage.acl_set("admin", "/", "*", "rliwd")
            threads = [threading.Thread(
                target=put, args=(i, server.endpoint("chirp")))
                for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
            assert outcomes == [size, size]
            with ChirpClient(*server.endpoint("chirp")) as client:
                assert client.get("/same.dat") in payloads
        assert staged_files(tmp_path) == []


class TestLocalFSSandbox:
    def test_escape_rejected(self, tmp_path):
        store = LocalFSStore(str(tmp_path / "root"))
        with pytest.raises(PermissionError):
            store.open_read("/../outside")

    def test_absolute_paths_confined(self, tmp_path):
        store = LocalFSStore(str(tmp_path / "root"))
        with store.open_write("/etc/passwd") as w:  # relative to root
            w.write(b"safe")
        assert (tmp_path / "root" / "etc" / "passwd").exists()
