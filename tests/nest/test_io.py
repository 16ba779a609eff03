"""Unit tests for the zero-copy fast transfer layer (repro.nest.io)."""

import io
import os
import socket
import threading
import zlib

import pytest

from repro.faults.plan import FaultPlan
from repro.nest import io as fastio
from repro.nest.config import NestConfig
from repro.nest.transfer import POOLED, SENDFILE, TransferManager

PAYLOAD = (bytes(range(256)) * 4099)[: 1_000_003]  # ~1 MB, odd size
PAYLOAD_CRC = zlib.crc32(PAYLOAD) & 0xFFFFFFFF


@pytest.fixture
def manager():
    tm = TransferManager(NestConfig(transfer_workers=4))
    yield tm
    tm.shutdown()


class TestBufferPool:
    def test_reuse_after_release(self):
        pool = fastio.BufferPool(buffer_bytes=64, max_buffers=2)
        a = pool.acquire()
        pool.release(a)
        b = pool.acquire()
        assert b is a  # the ring really recycles
        assert pool.hits == 1 and pool.misses == 1

    def test_overlapping_acquires_get_distinct_buffers(self):
        pool = fastio.BufferPool(buffer_bytes=64, max_buffers=4)
        a, b = pool.acquire(), pool.acquire()
        assert a is not b
        assert pool.outstanding == 2
        pool.release(a)
        pool.release(b)
        assert pool.outstanding == 0

    def test_ring_is_bounded(self):
        pool = fastio.BufferPool(buffer_bytes=8, max_buffers=1)
        bufs = [pool.acquire() for _ in range(3)]
        for buf in bufs:
            pool.release(buf)
        assert pool.snapshot()["free"] == 1

    def test_foreign_sized_buffer_not_pooled(self):
        pool = fastio.BufferPool(buffer_bytes=16, max_buffers=4)
        pool.release(bytearray(7))
        assert pool.snapshot()["free"] == 0

    def test_concurrent_churn_keeps_counters_consistent(self):
        pool = fastio.BufferPool(buffer_bytes=32, max_buffers=8)
        barrier = threading.Barrier(8)

        def churn():
            barrier.wait()
            for _ in range(200):
                buf = pool.acquire()
                buf[0] = 1
                pool.release(buf)

        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = pool.snapshot()
        assert snap["outstanding"] == 0
        assert snap["hits"] + snap["misses"] == 8 * 200
        assert 0.0 <= snap["hit_rate"] <= 1.0


class TestCopyStream:
    def test_readinto_path_matches_payload_and_crc(self):
        sink = io.BytesIO()
        moved, crc = fastio.copy_stream(io.BytesIO(PAYLOAD), sink)
        assert moved == len(PAYLOAD)
        assert sink.getvalue() == PAYLOAD
        assert crc == PAYLOAD_CRC

    def test_bounded_length(self):
        sink = io.BytesIO()
        moved, crc = fastio.copy_stream(io.BytesIO(PAYLOAD), sink, 1000)
        assert moved == 1000
        assert sink.getvalue() == PAYLOAD[:1000]
        assert crc == zlib.crc32(PAYLOAD[:1000]) & 0xFFFFFFFF

    def test_crc_seed_chains_across_calls(self):
        sink = io.BytesIO()
        _, crc = fastio.copy_stream(io.BytesIO(PAYLOAD[:500]), sink)
        _, crc = fastio.copy_stream(io.BytesIO(PAYLOAD[500:]), sink, crc=crc)
        assert crc == PAYLOAD_CRC

    def test_stream_crc32_single_pass(self):
        crc, nbytes = fastio.stream_crc32(io.BytesIO(PAYLOAD))
        assert (crc, nbytes) == (PAYLOAD_CRC, len(PAYLOAD))


class TestEligibility:
    def test_real_fileno_rejects_memory_streams(self):
        assert fastio.real_fileno(io.BytesIO()) is None

    def test_real_fileno_rejects_getattr_forwarders(self, tmp_path):
        path = tmp_path / "x.dat"
        path.write_bytes(b"data")
        with open(path, "rb") as f:
            assert fastio.real_fileno(f) is not None

            class Forwarder:
                def __init__(self, raw):
                    self._raw = raw

                def read(self, n=-1):
                    return self._raw.read(n)

                def __getattr__(self, name):
                    return getattr(self._raw, name)

            wrapper = Forwarder(f)
            assert wrapper.fileno() == f.fileno()  # forwards fine...
            assert fastio.real_fileno(wrapper) is None  # ...but not trusted


class TestStrategyParity:
    """The same bytes arrive whichever pump the transfer picks."""

    def _recv_all(self, sock):
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
        return b"".join(chunks)

    def _send_to_socket(self, manager, source, total):
        left, right = socket.socketpair()
        received = []
        drain = threading.Thread(
            target=lambda: received.append(self._recv_all(right)))
        drain.start()
        out = left.makefile("wb")
        try:
            transfer = manager.submit(source, out, total, protocol="chirp")
            moved = transfer.wait(30)
            out.flush()
        finally:
            out.close()
            left.close()
        drain.join(timeout=30)
        right.close()
        return moved, received[0], transfer

    @pytest.mark.skipif(not fastio.sendfile_available,
                        reason="platform has no os.sendfile")
    def test_sendfile_and_pooled_paths_deliver_identical_bytes(
            self, manager, tmp_path):
        path = tmp_path / "payload.dat"
        path.write_bytes(PAYLOAD)
        before = fastio.COUNTERS.snapshot()
        with open(path, "rb") as f:
            moved_sf, data_sf, t_sf = self._send_to_socket(
                manager, f, len(PAYLOAD))
        assert t_sf.strategy == SENDFILE
        assert fastio.COUNTERS.snapshot()["sendfile_sends"] \
            > before["sendfile_sends"]

        moved_po, data_po, t_po = self._send_to_socket(
            manager, io.BytesIO(PAYLOAD), len(PAYLOAD))
        assert t_po.strategy == POOLED

        assert moved_sf == moved_po == len(PAYLOAD)
        assert data_sf == data_po == PAYLOAD
        # The buffered path folds the CRC in-stream for free.
        assert t_po.crc == PAYLOAD_CRC

    def test_fault_wrapped_sink_demotes_to_guarded_path(
            self, manager, tmp_path):
        """A fault-wrapped connection must never be sendfile'd past the
        plan: the transfer stays on the honest write path and the
        injected reset still fires."""
        path = tmp_path / "payload.dat"
        path.write_bytes(PAYLOAD)
        plan = FaultPlan.reset_once(after_bytes=20000, connection=1,
                                    op="write")
        left, right = socket.socketpair()
        wrapped = plan.wrap_socket(left, label="test")
        received = []
        drain = threading.Thread(
            target=lambda: received.append(self._recv_all(right)))
        drain.start()
        out = wrapped.makefile("wb")
        with open(path, "rb") as f:
            transfer = manager.submit(f, out, len(PAYLOAD),
                                      protocol="chirp")
            assert transfer.strategy != SENDFILE
            with pytest.raises(Exception):
                transfer.wait(30)
        wrapped.close()
        drain.join(timeout=30)
        right.close()
        assert plan.fired("reset") == 1
        assert len(received[0]) < len(PAYLOAD)

    def test_fault_short_write_truncates_stream_mid_payload(
            self, manager, tmp_path):
        """A SHORT fault ends the wrapped stream early even though the
        pooled pump hands the layer large chunks -- the fault layer
        accounts writes in bounded slices."""
        path = tmp_path / "payload.dat"
        path.write_bytes(PAYLOAD)
        plan = FaultPlan.short_read(after_bytes=20000, connection=1)
        left, right = socket.socketpair()
        wrapped = plan.wrap_socket(left, label="test")
        received = []
        drain = threading.Thread(
            target=lambda: received.append(self._recv_all(right)))
        drain.start()
        out = wrapped.makefile("wb")
        with open(path, "rb") as f:
            transfer = manager.submit(f, out, len(PAYLOAD),
                                      protocol="chirp")
            try:
                transfer.wait(30)
            except Exception:
                pass  # a torn stream may surface as a write error
        wrapped.close()
        drain.join(timeout=30)
        right.close()
        assert plan.fired("short") == 1
        assert len(received[0]) < len(PAYLOAD)


@pytest.mark.skipif(not fastio.sendfile_available,
                    reason="platform has no os.sendfile")
class TestSendfileWritabilityWait:
    """A momentarily full timeout-carrying socket waits for room --
    also when its descriptor is numbered past select()'s FD_SETSIZE,
    as a busy server's data sockets are."""

    @pytest.fixture
    def full_socket(self):
        """(descriptor >= 1024 of a socket whose send buffer is full,
        its peer)."""
        import fcntl

        left, right = socket.socketpair()
        left.setblocking(False)
        try:
            while True:
                left.send(b"\0" * 65536)
        except BlockingIOError:
            pass
        left.settimeout(5.0)  # a timeout-carrying socket: non-blocking fd
        try:
            high = fcntl.fcntl(left.fileno(), fcntl.F_DUPFD, 1024)
        except OSError:
            left.close()
            right.close()
            pytest.skip("descriptor limit below 1024")
        try:
            yield high, right
        finally:
            os.close(high)
            left.close()
            right.close()

    def test_high_numbered_descriptor_waits_then_sends(
            self, full_socket, tmp_path):
        high, peer = full_socket
        assert high >= 1024
        path = tmp_path / "payload.dat"
        path.write_bytes(PAYLOAD)

        # One read empties the (socketpair-sized) send queue.
        drainer = threading.Timer(0.05, peer.recv, args=(1 << 20,))
        drainer.start()
        with open(path, "rb") as f:
            sent = fastio.sendfile(high, f.fileno(), len(PAYLOAD), timeout=5.0)
        drainer.join(timeout=5)
        assert not drainer.is_alive()
        assert 0 < sent <= len(PAYLOAD)

    def test_a_socket_that_never_drains_times_out_as_oserror(
            self, full_socket, tmp_path):
        high, _peer = full_socket
        path = tmp_path / "payload.dat"
        path.write_bytes(PAYLOAD)
        with open(path, "rb") as f, pytest.raises(OSError, match="writable"):
            fastio.sendfile(high, f.fileno(), len(PAYLOAD), timeout=0.05)


@pytest.mark.skipif(not fastio.sendfile_available,
                    reason="platform has no os.sendfile")
class TestLiveSendfile:
    def test_a_file_backed_get_goes_out_by_sendfile_alone(self, tmp_path):
        """End to end over Chirp: a ``LocalFSStore`` file reaches the
        client intact and every quantum of it was a sendfile -- none
        fell back to the pooled copy."""
        from repro.client.chirp import ChirpClient
        from repro.nest.backends import LocalFSStore
        from repro.nest.server import NestServer

        payload = PAYLOAD[:256 * 1024]
        config = NestConfig(name="live-sendfile", protocols=("chirp",),
                            management=False)
        with NestServer(config, store=LocalFSStore(str(tmp_path))) as server:
            with ChirpClient(*server.endpoint("chirp")) as client:
                client.put("/f.dat", payload)  # seeds via the pooled path
                before = fastio.COUNTERS.snapshot()
                data = client.get("/f.dat")
        # Read once the server has stopped: the client can hold the
        # last byte before the handler thread has counted its send.
        after = fastio.COUNTERS.snapshot()
        assert zlib.crc32(data) == zlib.crc32(payload)
        assert len(data) == len(payload)
        assert after["sendfile_sends"] > before["sendfile_sends"]
        assert (after["sendfile_bytes"] - before["sendfile_bytes"]
                == len(payload))
        assert after["fallback_sends"] == before["fallback_sends"]


class TestMetrics:
    def test_register_metrics_exposes_counters(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        fastio.register_metrics(registry)
        snap = registry.snapshot()
        assert "nest_fastpath_sendfile_sends" in snap
        assert "nest_buffer_pool_hit_rate" in snap
        # Idempotent: a second server in-process must not explode.
        fastio.register_metrics(registry)
