"""Regression tests for the connection-lifecycle bug sweep.

One test class per fixed bug:

* :class:`TestFileHandleInvalidation` -- ``FileHandleRegistry.forget``
  existed but was never called; stale NFS handles kept resolving to
  deleted or renamed files.
* :class:`TestGridFtpHungLane` -- parallel-stream joins used a silent
  60 s timeout; a hung lane truncated the transfer with success status.
* :class:`TestFtpDataTimeout` -- passive data connections hardcoded
  ``timeout=30`` and bypassed the fault hook.
* :class:`TestTransferFailureSurfacing` -- ``Transfer._finish``
  swallowed callback errors bare, and the manager kept no failure
  causes.
"""

from __future__ import annotations

import io
import threading

import pytest

from repro.client.chirp import ChirpClient
from repro.client.errors import TransferError
from repro.client.ftp import FtpClient
from repro.client.gridftp import GridFtpClient
from repro.client.nfs import NfsClient, NfsError
from repro.client.retry import RetryPolicy
from repro.faults import FaultAction, FaultPlan, FaultRule
from repro.nest.config import NestConfig
from repro.nest.server import FileHandleRegistry, NestServer
from repro.nest.transfer import TransferManager


# ---------------------------------------------------------------------------
# satellite (a): file-handle invalidation
# ---------------------------------------------------------------------------
class TestFileHandleInvalidation:
    def test_forget_drops_handle_and_subtree(self):
        reg = FileHandleRegistry()
        t_file = reg.token_for("/data/a/f")
        t_dir = reg.token_for("/data/a")
        t_other = reg.token_for("/data/b")
        reg.forget("/data/a")
        assert reg.path_of(t_file) is None
        assert reg.path_of(t_dir) is None
        assert reg.path_of(t_other) == "/data/b"

    def test_forget_never_drops_root(self):
        reg = FileHandleRegistry()
        reg.forget("/")
        assert reg.path_of(1) == "/"

    @staticmethod
    def _put(storage, path: str, data: bytes) -> None:
        ticket = storage.approve_put("admin", path, len(data))
        ticket.stream.write(data)
        ticket.settle(len(data))

    def test_storage_delete_invalidates_handle(self):
        srv = NestServer(NestConfig(name="reg"))
        srv.storage.mkdir("admin", "/data")
        self._put(srv.storage, "/data/f", b"x")
        token = srv.fhandles.token_for("/data/f")
        srv.storage.delete("admin", "/data/f")
        assert srv.fhandles.path_of(token) is None

    def test_storage_rename_invalidates_old_subtree(self):
        srv = NestServer(NestConfig(name="reg"))
        srv.storage.mkdir("admin", "/data")
        srv.storage.mkdir("admin", "/data/dir")
        self._put(srv.storage, "/data/dir/f", b"x")
        t_dir = srv.fhandles.token_for("/data/dir")
        t_file = srv.fhandles.token_for("/data/dir/f")
        srv.storage.rename("admin", "/data/dir", "/data/moved")
        assert srv.fhandles.path_of(t_dir) is None
        assert srv.fhandles.path_of(t_file) is None

    def test_storage_rmdir_invalidates_handle(self):
        srv = NestServer(NestConfig(name="reg"))
        srv.storage.mkdir("admin", "/data")
        token = srv.fhandles.token_for("/data")
        srv.storage.rmdir("admin", "/data")
        assert srv.fhandles.path_of(token) is None

    def test_nfs_handle_goes_stale_over_the_wire(self, server_factory):
        """End to end: delete via Chirp, old NFS handle must not
        resolve (previously it kept working against the dead path)."""
        srv = server_factory()
        with ChirpClient(*srv.endpoint("chirp")) as admin:
            admin.put("/data/f", b"contents")
            with NfsClient(*srv.endpoint("nfs")) as nfs_client:
                fh, attrs = nfs_client.lookup_path("/data/f")
                assert attrs["size"] == 8
                admin.unlink("/data/f")
                with pytest.raises(NfsError):
                    nfs_client.getattr(fh)


# ---------------------------------------------------------------------------
# satellite (b): GridFTP hung parallel lane
# ---------------------------------------------------------------------------
class _FakeConn:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class TestGridFtpHungLane:
    def _client(self, timeout: float) -> GridFtpClient:
        client = GridFtpClient.__new__(GridFtpClient)
        client.timeout = timeout
        return client

    def test_hung_lane_raises_instead_of_truncating(self):
        client = self._client(timeout=0.2)
        release = threading.Event()
        lane = threading.Thread(target=release.wait, args=(10,), daemon=True)
        lane.start()
        conn = _FakeConn()
        try:
            with pytest.raises(TransferError, match="hung"):
                client._join_lanes([lane], [conn], [])
            # The hung lane's socket was closed to unblock the worker.
            assert conn.closed
        finally:
            release.set()
            lane.join(timeout=5)

    def test_lane_error_raises(self):
        client = self._client(timeout=1.0)
        done = threading.Thread(target=lambda: None)
        done.start()
        done.join()
        with pytest.raises(TransferError, match="parallel stream failed"):
            client._join_lanes([done], [], [OSError("lane died")])

    def test_all_lanes_finished_is_quiet(self):
        client = self._client(timeout=1.0)
        done = threading.Thread(target=lambda: None)
        done.start()
        done.join()
        client._join_lanes([done], [_FakeConn()], [])


# ---------------------------------------------------------------------------
# satellite (c): FTP data-connection timeout threading
# ---------------------------------------------------------------------------
class TestFtpDataTimeout:
    def test_data_connection_inherits_constructor_timeout(
            self, server_factory):
        srv = server_factory()
        with FtpClient(*srv.endpoint("ftp"), timeout=2.25) as client:
            assert client.sock.gettimeout() == 2.25
            data_sock = client._open_passive()
            try:
                # Previously hardcoded to 30 regardless of the
                # constructor argument.
                assert data_sock.gettimeout() == 2.25
            finally:
                data_sock.close()

    def test_data_dial_goes_through_fault_plan(self, server_factory):
        """Client-side fault plans now see passive data dials: refuse
        the first one and the transfer retries on fresh connections."""
        srv = server_factory()
        plan = FaultPlan([FaultRule(op="connect", action=FaultAction.DROP,
                                    connections=frozenset({2}), times=1)])
        retry = RetryPolicy(max_attempts=3, base_delay=0.01, deadline=10.0)
        with FtpClient(*srv.endpoint("ftp"), retry=retry,
                       faults=plan) as client:
            client.stor("/data/f", b"after a refused data dial")
            assert client.retr("/data/f") == b"after a refused data dial"
        assert plan.fired(FaultAction.DROP) == 1


# ---------------------------------------------------------------------------
# satellite (d): transfer failure surfacing
# ---------------------------------------------------------------------------
class _ExplodingSource:
    def readinto(self, buffer) -> int:
        raise OSError("disk gone")


class TestTransferFailureSurfacing:
    @pytest.fixture
    def manager(self):
        tm = TransferManager(NestConfig(name="tm"))
        yield tm
        tm.shutdown()

    def test_failure_cause_is_recorded(self, manager):
        transfer = manager.submit(_ExplodingSource(), io.BytesIO(), 100,
                                  protocol="test", user="u", path="/x")
        with pytest.raises(OSError, match="disk gone"):
            transfer.wait(5)
        failures = manager.failures()
        assert len(failures) == 1
        cause = failures[0]
        assert cause["path"] == "/x" and cause["user"] == "u"
        assert cause["moved"] == 0 and cause["total"] == 100
        assert isinstance(cause["error"], OSError)

    def test_successful_transfer_records_nothing(self, manager):
        transfer = manager.submit(io.BytesIO(b"abc"), io.BytesIO(), 3,
                                  protocol="test")
        assert transfer.wait(5) == 3
        assert manager.failures() == []
