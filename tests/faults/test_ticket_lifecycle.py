"""The ticket-lifecycle matrix: protocol x failure point.

Contract under test: whatever goes wrong between a storage-manager
approval and the end of the data movement -- the approval itself is
refused, the data channel never opens, the peer resets mid-body, the
source ends short -- afterwards

* every ticket the storage manager approved was settled exactly once;
* no ``*.nest-tmp`` is left in the ``LocalFSStore`` root;
* ``used_bytes`` equals the sum of the namespace's file sizes *and* the
  sum of the lot charges;
* a fresh connection's stat + GET of the path gets a typed reply (a
  result or the protocol's refusal, never a dropped connection);
* no handler thread died with a traceback and none is left running.

The protocols are {chirp, http, ftp, gridftp stream mode, gridftp
extended-block mode, nfs}.  Not every failure point exists on every
wire format: only the FTP family has a data channel that can fail to
open, and only formats that announce a length (or an end-of-data
block) can have a put body end short.
"""

from __future__ import annotations

import io
import os
import socket

import pytest

from repro.client.chirp import ChirpClient
from repro.client.errors import ClientError, FatalError
from repro.client.ftp import FtpClient, FtpError
from repro.client.gridftp import GridFtpClient
from repro.client.http import HttpClient
from repro.client.nfs import NfsClient
from repro.client.retry import NO_RETRY
from repro.faults import FaultAction, FaultPlan, FaultRule
from repro.nest.backends import TEMP_SUFFIX, LocalFSStore
from repro.nest import transfer
from repro.nest.config import NestConfig
from repro.nest.handlers import FtpHandler
from repro.nest.server import NestServer
from repro.nest.storage import DirNode, TransferTicket
from repro.protocols import chirp, gridftp
from repro.protocols.common import Request, RequestType

PAYLOAD = bytes(range(256)) * 256  # 64 KiB
PROTOCOLS = ("chirp", "http", "ftp", "gridftp-s", "gridftp-e", "nfs")
FTP_FAMILY = ("ftp", "gridftp-s", "gridftp-e")
#: What a client raises when the server answered and said no.
REFUSED = (FatalError, FtpError)


# ---------------------------------------------------------------------------
# the appliance under test, instrumented
# ---------------------------------------------------------------------------
class Appliance:
    """A live NeST on a ``LocalFSStore`` with lots enforced, recording
    every ticket approved and every effective settlement."""

    def __init__(self, root, wait_idle, faults=None):
        self.root = str(root)
        self._wait_idle = wait_idle
        self.server = NestServer(
            NestConfig(name="ticket-nest", require_lots=True,
                       default_anonymous_lot_bytes=8 << 20),
            store=LocalFSStore(self.root), faults=faults)
        self.tickets: list[TransferTicket] = []
        #: id(ticket) -> settle() calls that found the ticket unsettled
        self.settlements: dict[int, int] = {}
        storage = self.server.storage
        for name in ("approve_get", "approve_put",
                     "approve_read", "approve_write"):
            setattr(storage, name, self._recording(getattr(storage, name)))
        self.server.start()
        storage.mkdir("admin", "/data")
        storage.acl_set("admin", "/data", "*", "rliwd")
        storage.mkdir("admin", "/locked")
        storage.acl_set("admin", "/locked", "*", "l")

    def _recording(self, approve):
        def recorded(*args, **kwargs):
            ticket = approve(*args, **kwargs)
            self.tickets.append(ticket)
            settle = ticket.settle

            def counting(actual_bytes: int) -> None:
                if not getattr(ticket, "settled", False):
                    self.settlements[id(ticket)] = (
                        self.settlements.get(id(ticket), 0) + 1)
                settle(actual_bytes)

            ticket.settle = counting
            return ticket
        return recorded

    def endpoint(self, proto: str):
        return self.server.endpoint(proto.split("-")[0])

    def seed(self, path: str, data: bytes) -> None:
        ticket = self.server.storage.approve_put("anonymous", path,
                                                 len(data))
        ticket.stream.write(data)
        ticket.settle(len(data))

    # -- the invariants -------------------------------------------------
    def node_bytes(self) -> int:
        def walk(node) -> int:
            return sum(walk(c) if isinstance(c, DirNode) else c.size
                       for c in node.children.values())
        return walk(self.server.storage.root)

    def temp_files(self) -> list[str]:
        return [os.path.join(d, n) for d, _, names in os.walk(self.root)
                for n in names if n.endswith(TEMP_SUFFIX)]

    def wait_idle(self) -> None:
        self._wait_idle(self.server)

    def assert_invariants(self) -> None:
        self.wait_idle()
        for ticket in self.tickets:
            settled = self.settlements.get(id(ticket), 0)
            assert settled == 1, (
                f"ticket for {ticket.path} settled {settled} times")
        assert self.temp_files() == []
        storage = self.server.storage
        assert storage.used_bytes == self.node_bytes()
        assert storage.used_bytes == storage.lots.total_used()


@pytest.fixture
def appliance_factory(tmp_path, monkeypatch, wait_idle):
    # A data connection that never opens fails in 0.3 s, not 10.
    monkeypatch.setattr(FtpHandler, "data_timeout", 0.3, raising=False)
    made: list[Appliance] = []

    def factory(faults=None) -> Appliance:
        made.append(Appliance(tmp_path / f"store{len(made)}", wait_idle,
                              faults=faults))
        return made[-1]

    yield factory
    for appliance in made:
        appliance.server.stop(drain_timeout=2.0)


# ---------------------------------------------------------------------------
# per-protocol drivers
# ---------------------------------------------------------------------------
def client_for(appliance: Appliance, proto: str):
    cls = {"chirp": ChirpClient, "http": HttpClient, "ftp": FtpClient,
           "gridftp-s": GridFtpClient, "gridftp-e": GridFtpClient,
           "nfs": NfsClient}[proto]
    client = cls(*appliance.endpoint(proto), timeout=5.0, retry=NO_RETRY)
    if proto == "gridftp-e":
        client.set_parallelism(2)
    return client


def put(client, proto: str, path: str, data: bytes) -> None:
    {"chirp": lambda: client.put(path, data),
     "http": lambda: client.put(path, data),
     "ftp": lambda: client.stor(path, data),
     "gridftp-s": lambda: client.stor(path, data),
     "gridftp-e": lambda: client.stor_parallel(path, data),
     "nfs": lambda: client.write_file(path, data)}[proto]()


def get(client, proto: str, path: str) -> bytes:
    return {"chirp": lambda: client.get(path),
            "http": lambda: client.get(path),
            "ftp": lambda: client.retr(path),
            "gridftp-s": lambda: client.retr(path),
            "gridftp-e": lambda: client.retr_parallel(path),
            "nfs": lambda: client.read_file(path)}[proto]()


def stat(client, proto: str, path: str):
    return {"chirp": lambda: client.stat(path),
            "http": lambda: client.head(path),
            "ftp": lambda: client.size(path),
            "gridftp-s": lambda: client.size(path),
            "gridftp-e": lambda: client.size(path),
            "nfs": lambda: client.lookup_path(path)}[proto]()


def assert_typed_replies(appliance: Appliance, proto: str, path: str,
                         *, read: bool = True) -> None:
    """stat (+ GET) of ``path`` on a fresh connection: each gets an
    answer or the protocol's typed refusal.  Anything else -- a dropped
    connection surfaces as TransientError -- fails the test."""
    appliance.wait_idle()  # the failed request's handler has settled
    with client_for(appliance, proto) as client:
        for op in (stat, get) if read else (stat,):
            try:
                op(client, proto, path)
            except REFUSED:
                pass


class Raw:
    """A bare socket: the matrix's misbehaving peer."""

    def __init__(self, endpoint):
        self.sock = socket.create_connection(endpoint, timeout=5.0)
        self.rfile = self.sock.makefile("rb")

    def line(self, text: str) -> None:
        self.sock.sendall(text.encode() + b"\r\n")

    def readline(self) -> str:
        return self.rfile.readline().decode().rstrip("\r\n")

    def reply(self, text: str) -> str:
        self.line(text)
        return self.readline()

    def at_eof(self) -> bool:
        """True once the server has closed the connection."""
        try:
            return self.rfile.read(1) == b""
        except OSError:
            return True

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def ftp_session(appliance: Appliance, proto: str) -> Raw:
    raw = Raw(appliance.endpoint(proto))
    assert raw.readline().startswith("220")
    assert raw.reply("USER anonymous").startswith("331")
    assert raw.reply("PASS matrix@test").startswith("230")
    if proto == "gridftp-e":
        assert raw.reply("MODE E").startswith("200")
    return raw


def open_passive(raw: Raw, proto: str) -> list[tuple[str, int]]:
    """PASV (or SPAS in extended-block mode); returns the endpoint(s)."""
    def endpoint(fields: str) -> tuple[str, int]:
        n = [int(x) for x in fields.split(",")]
        return ".".join(map(str, n[:4])), n[4] * 256 + n[5]

    if proto != "gridftp-e":
        text = raw.reply("PASV")
        assert text.startswith("227")
        return [endpoint(text[text.index("(") + 1:text.index(")")])]
    assert raw.reply("SPAS").startswith("229-")
    endpoints = []
    while not (text := raw.readline()).startswith("229 "):
        endpoints.append(endpoint(text.strip()))
    return endpoints


# ---------------------------------------------------------------------------
# failure point: the approval is refused
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("proto", PROTOCOLS)
def test_denied(appliance_factory, thread_tracebacks, proto):
    appliance = appliance_factory()
    with client_for(appliance, proto) as client:
        with pytest.raises(REFUSED):
            put(client, proto, "/locked/f", PAYLOAD)
        if proto != "http":
            # The refusal was a reply, not a hang-up: same connection.
            # (An HTTP/1.0 client has sent its body by the time the 403
            # arrives; the server hangs up rather than parse it.)
            put(client, proto, "/data/after", b"still serving")
    assert not appliance.server.storage.exists("/locked/f")
    assert_typed_replies(appliance, proto, "/locked/f")
    appliance.assert_invariants()
    assert thread_tracebacks == []


# ---------------------------------------------------------------------------
# failure point: the data channel never opens (FTP family)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("verb", ["STOR", "RETR", "LIST"])
@pytest.mark.parametrize("proto", FTP_FAMILY)
def test_no_data_channel_configured_is_503_before_approval(
        appliance_factory, thread_tracebacks, proto, verb):
    """``STOR b`` with neither PASV/SPAS nor PORT used to approve the
    put (lot charged, ``put_begin`` journaled, atomic writer opened) and
    only then fail to open the channel, outside any cleanup scope."""
    appliance = appliance_factory()
    appliance.seed("/data/a", b"seeded")
    storage = appliance.server.storage
    before = (storage.used_bytes, storage.lots.total_used())
    approved = len(appliance.tickets)
    command = {"STOR": "STOR /data/b", "RETR": "RETR /data/a",
               "LIST": "LIST /data"}[verb]
    with ftp_session(appliance, proto) as raw:
        assert raw.reply(command).startswith("503")
        # Nothing was approved, and the session carries on.
        assert len(appliance.tickets) == approved
        assert raw.reply("NOOP").startswith("200")
    assert not storage.exists("/data/b")
    assert (storage.used_bytes, storage.lots.total_used()) == before
    assert_typed_replies(appliance, proto, "/data/b")
    appliance.assert_invariants()
    assert thread_tracebacks == []


@pytest.mark.parametrize("proto", FTP_FAMILY)
def test_data_channel_never_connects(appliance_factory, thread_tracebacks, proto):
    """PASV/SPAS, then STOR, and the client never dials: the accept
    times out *inside* the ticket's scope -- the put is settled (empty)
    and the control connection closes like any wire error."""
    appliance = appliance_factory()
    with ftp_session(appliance, proto) as raw:
        open_passive(raw, proto)
        assert raw.reply("STOR /data/b").startswith("150")
        assert raw.at_eof()
    assert_typed_replies(appliance, proto, "/data/b")
    appliance.assert_invariants()
    assert [t.path for t in appliance.tickets if t.is_write] == ["/data/b"]
    assert thread_tracebacks == []


# ---------------------------------------------------------------------------
# failure point: the peer resets mid-body
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("proto", PROTOCOLS)
def test_peer_reset_mid_body(appliance_factory, thread_tracebacks, monkeypatch, proto):
    """The first server-side connection to have read 20000 bytes --
    whichever one carries the body -- dies with ECONNRESET."""
    # The plan is consulted once per read call: make a lone transfer
    # take the body in several.
    monkeypatch.setattr(transfer, "BURST_BYTES", 8192)
    plan = FaultPlan([FaultRule(op="read", action=FaultAction.RESET,
                                after_bytes=20000, times=1)])
    appliance = appliance_factory(faults=plan)
    with pytest.raises(ClientError):
        with client_for(appliance, proto) as client:
            put(client, proto, "/data/f", PAYLOAD)
    assert plan.fired(FaultAction.RESET) == 1
    assert appliance.tickets, "the put was approved before it failed"
    assert_typed_replies(appliance, proto, "/data/f")
    appliance.assert_invariants()
    assert thread_tracebacks == []


# ---------------------------------------------------------------------------
# failure point: the source ends short
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("proto", PROTOCOLS)
def test_get_source_ends_short(appliance_factory, thread_tracebacks, proto):
    """The backing file is shorter than the namespace says: the bytes
    promised in the reply header cannot all be sent."""
    appliance = appliance_factory()
    appliance.seed("/data/f", PAYLOAD)
    os.truncate(os.path.join(appliance.root, "data", "f"), 1000)
    with pytest.raises(ClientError):  # never a short body as if whole
        with client_for(appliance, proto) as client:
            get(client, proto, "/data/f")
    assert_typed_replies(appliance, proto, "/data/f", read=False)
    appliance.assert_invariants()
    assert thread_tracebacks == []


def short_chirp_put(appliance: Appliance) -> None:
    with Raw(appliance.endpoint("chirp")) as raw:
        assert raw.reply(chirp.encode_request(Request(
            rtype=RequestType.PUT, path="/data/f",
            length=len(PAYLOAD)))) == "ok"
        raw.sock.sendall(PAYLOAD[:1000])
        raw.sock.shutdown(socket.SHUT_WR)
        assert raw.at_eof()


def short_http_put(appliance: Appliance) -> None:
    with Raw(appliance.endpoint("http")) as raw:
        raw.line(f"PUT /data/f HTTP/1.0\r\nContent-Length: {len(PAYLOAD)}"
                 "\r\n")
        raw.sock.sendall(PAYLOAD[:1000])
        raw.sock.shutdown(socket.SHUT_WR)
        assert raw.at_eof()


def short_gridftp_e_put(appliance: Appliance) -> None:
    """One stripe sends a block and hangs up before its EOD trailer."""
    with ftp_session(appliance, "gridftp-e") as raw:
        (endpoint,) = open_passive(raw, "gridftp-e")
        assert raw.reply("STOR /data/f").startswith("150")
        block = io.BytesIO()
        gridftp.write_block(block, 0, PAYLOAD[:1000])
        with socket.create_connection(endpoint, timeout=5.0) as stripe:
            stripe.sendall(block.getvalue())
        assert raw.readline().startswith("550")
        # Lane failures are reported in-band; the session carries on.
        assert raw.reply("NOOP").startswith("200")


@pytest.mark.parametrize("proto,short_put", [
    ("chirp", short_chirp_put), ("http", short_http_put),
    ("gridftp-e", short_gridftp_e_put)])
def test_put_source_ends_short(appliance_factory, thread_tracebacks, proto, short_put):
    appliance = appliance_factory()
    short_put(appliance)
    assert [t.path for t in appliance.tickets] == ["/data/f"]
    assert_typed_replies(appliance, proto, "/data/f")
    appliance.assert_invariants()
    assert thread_tracebacks == []
