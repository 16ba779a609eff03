"""The wire discipline: one reply is one wire write, and every stream
socket carries ``TCP_NODELAY`` from birth.

A reply written as head-then-body on a socket with Nagle's algorithm on
waits for the peer's delayed ACK (~40 ms) before the body leaves; these
tests pin the two halves of the fix -- what is written, and how the
socket is tuned -- rather than the clock, plus one coarse latency guard
whose margins (0.5 ms fixed, 43 ms stalled, 20 ms bound) cannot flake.
"""

import socket
import statistics
import time
import weakref

import pytest

from repro.cli import _fetch
from repro.client import (
    ChirpClient,
    FtpClient,
    GridFtpClient,
    HttpClient,
    NfsClient,
)
from repro.client.ibp import IbpClient
from repro.faults.plan import FaultPlan
from repro.jbos import JbosManager
from repro.nest.config import NestConfig
from repro.nest.server import NestServer
from repro.protocols import ftp, nfs

KIB = b"k" * 1024
#: One full NFS block: with its record mark and attributes the READ
#: reply is larger than the connection's write buffer.
BLOCK = b"b" * nfs.BLOCK_SIZE
ALL_PROTOCOLS = ("chirp", "http", "ftp", "gridftp", "nfs", "ibp")


# ---------------------------------------------------------------------------
# (a) writes per reply
# ---------------------------------------------------------------------------


class CountingSocket(socket.socket):
    """A real socket (real descriptor, real ``makefile``) that logs the
    size of every ``send`` before making it, so by the time a client
    holds a whole reply every write that carried it is in the log."""

    def __init__(self, sock: socket.socket, log: list[int]):
        super().__init__(fileno=sock.detach())
        self.log = log

    def send(self, data, *flags):
        self.log.append(len(data))
        return super().send(data, *flags)


class CountingPlan(FaultPlan):
    """No faults: the server's accept seam, used to swap each accepted
    socket for a :class:`CountingSocket`."""

    def __init__(self):
        super().__init__([])
        self.sends: list[int] = []

    def wrap_accept(self, sock, label=""):
        return CountingSocket(sock, self.sends)


@pytest.fixture(scope="module", params=["threaded", "events"])
def counted(request, ca):
    """(live NeST in one server model with every accepted socket
    counting its sends, the send log, a logged-in user's credential)."""
    plan = CountingPlan()
    config = NestConfig(name="counted", protocols=ALL_PROTOCOLS,
                        concurrency_server=request.param)
    with NestServer(config, ca=ca, faults=plan) as server:
        server.storage.mkdir("admin", "/data")
        server.storage.acl_set("admin", "/data", "*", "rliwd")
        with ChirpClient(*server.endpoint("chirp")) as c:
            c.put("/data/k", KIB)
            c.put("/data/b", BLOCK)
        yield server, plan.sends, ca.issue("/CN=wire")


def _chirp(op, expected=None):
    def run(server, credential):
        with ChirpClient(*server.endpoint("chirp")) as c:
            c.authenticate(credential)
            lot = c.lot_create(4096, 600)["lot_id"]
            yield
            got = op(c, lot)
            assert expected is None or got == expected
            yield
    return run


def _http(op, expected=None):
    def run(server, credential):
        with HttpClient(*server.endpoint("http")) as h:
            yield
            got = op(h)
            assert expected is None or got == expected
            yield
    return run


def _ibp_load(server, credential):
    with IbpClient(*server.endpoint("ibp")) as i:
        caps = i.allocate(4096, 600)
        i.store(caps["write"], KIB)
        yield
        assert i.load(caps["read"]) == KIB
        yield


def _nfs_read(path, expected):
    def run(server, credential):
        with NfsClient(*server.endpoint("nfs")) as n:
            n.mount("/")
            fh, _ = n.lookup_path(path)
            yield
            assert n.read_block(fh, 0) == expected
            yield
    return run


#: name -> generator: set the session up, ``yield``, make ONE request,
#: ``yield``, say goodbye.
REPLIES = {
    "chirp-stat": _chirp(lambda c, lot: c.stat("/data/k")),
    "chirp-get1k": _chirp(lambda c, lot: c.get("/data/k"), KIB),
    "chirp-listdir": _chirp(lambda c, lot: c.listdir("/data")),
    "chirp-pread": _chirp(lambda c, lot: c.pread("/data/k", 256, 512),
                          KIB[:512]),
    "chirp-lot-delete": _chirp(lambda c, lot: c.lot_delete(lot)),
    "chirp-query": _chirp(lambda c, lot: c.query()),
    "http-head": _http(lambda h: h.head("/data/k")),
    "http-get1k": _http(lambda h: h.get("/data/k"), KIB),
    "ibp-load": _ibp_load,
    "nfs-read1k": _nfs_read("/data/k", KIB),
    "nfs-read-block": _nfs_read("/data/b", BLOCK),
}


@pytest.mark.parametrize("name", sorted(REPLIES))
def test_one_reply_is_one_wire_write(counted, name):
    server, sends, credential = counted
    session = REPLIES[name](server, credential)
    next(session)  # connect, authenticate, stage
    before = len(sends)
    next(session)  # the one request, reply read to its last byte
    reply = sends[before:]
    for _ in session:  # goodbye
        pass
    assert len(reply) == 1, reply


# ---------------------------------------------------------------------------
# (b) TCP_NODELAY on both ends of every connection
# ---------------------------------------------------------------------------


@pytest.fixture
def census(monkeypatch):
    """``{(local address, peer address): TCP_NODELAY}`` for every
    connected TCP socket born during the test that the process shuts
    down or closes -- control and data channels, server and client
    ends alike.  (Born during the test: a handler thread of the module's
    ``counted`` server may still be closing its end of an earlier
    test's connection, whose client end closed before this began.)"""
    seen: dict[tuple, int] = {}
    born = weakref.WeakSet()
    real_init = socket.socket.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        born.add(self)

    monkeypatch.setattr(socket.socket, "__init__", init)

    def recording(real):
        def method(self, *args):
            if (self in born and self.family == socket.AF_INET
                    and self.type == socket.SOCK_STREAM
                    and self.fileno() >= 0):
                try:
                    seen.setdefault(
                        (self.getsockname(), self.getpeername()),
                        self.getsockopt(socket.IPPROTO_TCP,
                                        socket.TCP_NODELAY))
                except OSError:
                    pass  # a listener: never connected
            return real(self, *args)
        return method

    for name in ("shutdown", "close"):
        monkeypatch.setattr(socket.socket, name,
                            recording(getattr(socket.socket, name)))
    return seen


def _assert_all_tuned(census, listening, untuned_by_design=()):
    """Every end tuned, every connection seen from both ends, every
    listener exercised; returns the data-channel pairs (neither end on
    a listening port)."""
    ours = {pair: flag for pair, flag in census.items()
            if pair not in untuned_by_design}
    assert [pair for pair, flag in ours.items() if not flag] == []
    assert [pair for pair in ours
            if (pair[1], pair[0]) not in census] == []
    assert set(listening) <= {local[1] for local, _ in ours}
    return [pair for pair in ours
            if pair[0][1] not in listening and pair[1][1] not in listening]


def test_nodelay_on_both_ends_of_every_nest_connection(census, ca):
    config = NestConfig(name="tuned", protocols=ALL_PROTOCOLS)
    credential = ca.issue("/CN=wire")
    with NestServer(config, ca=ca) as server:
        server.storage.mkdir("admin", "/data")
        server.storage.acl_set("admin", "/data", "*", "rliwd")
        with ChirpClient(*server.endpoint("chirp")) as c:
            c.put("/data/k", KIB)
        with HttpClient(*server.endpoint("http")) as h:
            assert h.get("/data/k") == KIB
        with NfsClient(*server.endpoint("nfs")) as n:
            n.mount("/")
            assert n.read_file("/data/k") == KIB
        with IbpClient(*server.endpoint("ibp")) as i:
            i.allocate(1024, 600)
        with GridFtpClient(*server.endpoint("gridftp"),
                           credential=credential) as g:
            assert g.retr("/data/k") == KIB            # PASV accept
            g.set_parallelism(2)
            assert g.retr_parallel("/data/k") == KIB   # SPAS accepts
        with FtpClient(*server.endpoint("ftp")) as f, \
                socket.create_server(("127.0.0.1", 0)) as listener:
            assert f.retr("/data/k") == KIB            # PASV accept
            # PORT mode: the *server* dials the data channel.
            port = listener.getsockname()[1]
            f.command(f"PORT 127,0,0,1,{port // 256},{port % 256}",
                      expect=200)
            f.command("RETR /data/k", expect=ftp.OPENING_DATA)
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as stream:
                assert stream.read(2048) == KIB
                test_end = (conn.getsockname(), conn.getpeername())
            f._expect(ftp.TRANSFER_OK)
        _fetch(f"127.0.0.1:{server.ports['mgmt']}", "/healthz")
        listening = [server.ports[p] for p in (*ALL_PROTOCOLS, "mgmt")]
    data = _assert_all_tuned(census, listening, untuned_by_design={test_end})
    # ftp PASV + gridftp PASV + 2 SPAS stripes, both ends each, and the
    # server's end of the PORT-mode channel.
    assert len(data) == 9


def test_nodelay_on_both_ends_of_every_jbos_connection(census, ca):
    with JbosManager(ca=ca) as bunch:
        bunch.store.mkdir("/pub")
        bunch.store.write("/pub/k", KIB)
        with ChirpClient(bunch.host, bunch.ports["chirp"]) as c:
            assert c.get("/pub/k") == KIB
        with HttpClient(bunch.host, bunch.ports["http"]) as h:
            assert h.get("/pub/k") == KIB
        with FtpClient(bunch.host, bunch.ports["ftp"]) as f:
            assert f.retr("/pub/k") == KIB
        with GridFtpClient(bunch.host, bunch.ports["gridftp"],
                           credential=ca.issue("/CN=wire")) as g:
            assert g.retr("/pub/k") == KIB
        with NfsClient(bunch.host, bunch.ports["nfs"]) as n:
            n.mount("/")
            assert n.read_file("/pub/k") == KIB
        listening = list(bunch.ports.values())
    data = _assert_all_tuned(census, listening)
    assert len(data) == 4  # ftp + gridftp PASV channels, both ends


# ---------------------------------------------------------------------------
# (c) one coarse latency guard
# ---------------------------------------------------------------------------


def _median_get_ms(client, path: str) -> float:
    samples = []
    for _ in range(20):
        t0 = time.perf_counter()
        assert client.get(path) == KIB
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


@pytest.mark.parametrize("flavor", ["nest", "jbos"])
def test_small_get_does_not_wait_on_a_timer(flavor, ca):
    """Median of 20 sequential 1 KiB GETs: ~0.5 ms when head and body
    leave together, 43 ms when the body waits for a delayed ACK."""
    if flavor == "nest":
        appliance = NestServer(NestConfig(name="guard"), ca=ca)
        path = "/data/k"
    else:
        appliance = JbosManager(ca=ca)
        path = "/pub/k"
    with appliance:
        if flavor == "nest":
            appliance.storage.mkdir("admin", "/data")
            appliance.storage.acl_set("admin", "/data", "*", "rliwd")
        else:
            appliance.store.mkdir("/pub")
        host, ports = appliance.host, appliance.ports
        with ChirpClient(host, ports["chirp"]) as c:
            c.put(path, KIB)
            assert _median_get_ms(c, path) < 20.0
        with HttpClient(host, ports["http"]) as h:
            assert _median_get_ms(h, path) < 20.0
