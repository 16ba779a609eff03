"""Wire-supplied lengths are bounded before anything is allocated.

One regression per live port that used to trust a peer's number: each
hostile input gets the protocol's typed error (NFS record marking has
no in-band way to refuse a record whose xid was never read, so there
the answer is a closed connection), the handler thread ends without a
traceback, and the server goes on serving.
"""

from __future__ import annotations

import resource
import socket
import struct
import threading

import pytest

from repro.client import ChirpClient, HttpClient
from repro.client.ibp import IbpClient
from repro.client.nfs import NfsClient
from repro.jbos import NativeChirpd, NativeHttpd
from repro.protocols import gridftp


def test_nfs_two_gigabyte_fragment_header(server_factory, thread_tracebacks,
                                          wait_idle):
    """Four bytes on the anonymous NFS port used to make the handler
    call ``bytearray(2 GiB)`` -- per fragment, fragments unbounded."""
    srv = server_factory()
    threads = threading.active_count()
    with socket.create_connection(srv.endpoint("nfs"), timeout=5.0) as sock:
        sock.sendall(struct.pack(">I", 0x7FFFFFFF))
        assert sock.recv(1) == b""  # refused: closed, not waiting for 2 GiB
    wait_idle(srv)
    assert threading.active_count() <= threads
    assert thread_tracebacks == []
    with NfsClient(*srv.endpoint("nfs")) as client:
        client.write_file("/data/f", b"still serving")
        assert client.read_file("/data/f") == b"still serving"


def test_ibp_store_of_a_terabyte(server_factory, thread_tracebacks,
                                 wait_idle):
    """``store <cap> 1099511627776`` used to kill the handler thread
    with an uncaught MemoryError before the capability was looked at."""
    srv = server_factory(protocols=("chirp", "ibp"), require_lots=True,
                         lot_enforcement="nest", capacity_bytes=10_000_000)
    with IbpClient(*srv.endpoint("ibp")) as client:
        caps = client.allocate(1000, 600)
        for cap, code in ((caps["write"], "over-allocation"),
                          ("ibp://h/a999#deadbeef/write", "no-allocation")):
            with socket.create_connection(srv.endpoint("ibp"),
                                          timeout=5.0) as sock:
                sock.sendall(f"store {cap} 1099511627776\n".encode())
                reply = sock.makefile("rb").readline().decode()
                assert reply.startswith(f"err {code}"), reply
        wait_idle(srv, but_for=1)  # the IbpClient's own connection
        assert thread_tracebacks == []
        # The allocation is untouched and still takes what fits.
        assert client.store(caps["write"], b"x" * 1000) == 1000


def test_gridftp_parallelism_is_capped(server_factory, thread_tracebacks,
                                       wait_idle):
    """``OPTS RETR Parallelism=N`` used to make ``SPAS`` open N
    listening sockets."""
    srv = server_factory()
    with socket.create_connection(srv.endpoint("gridftp"),
                                  timeout=5.0) as sock, \
            sock.makefile("rb") as lines:

        def reply(command: str) -> str:
            sock.sendall(command.encode() + b"\r\n")
            return lines.readline().decode()

        assert lines.readline().startswith(b"220")
        assert reply("OPTS RETR Parallelism=100000;").startswith("500")
        assert reply("SPAS").startswith("229-")
        endpoints = 0
        while not lines.readline().startswith(b"229 "):
            endpoints += 1
        assert endpoints == 1  # the refused OPTS changed nothing
        top = gridftp.MAX_PARALLELISM
        assert reply(f"OPTS RETR Parallelism={top};").startswith("200")
    wait_idle(srv)
    assert thread_tracebacks == []


TERABYTE = 1 << 40
#: (daemon, its client, a PUT head announcing ``n`` bytes, the typed
#: refusal of a negative ``n``).
NATIVE_PUTS = {
    "chirp": (NativeChirpd, ChirpClient,
              "put /pub/x {n}\r\n", b"err bad_request"),
    "http": (NativeHttpd, HttpClient,
             "PUT /pub/x HTTP/1.0\r\nContent-Length: {n}\r\n\r\n",
             b"HTTP/1.0 400"),
}


@pytest.mark.parametrize("proto", NATIVE_PUTS)
def test_jbos_put_of_a_terabyte_and_of_minus_five(proto, thread_tracebacks,
                                                  wait_idle):
    """The native daemons used to ``bytearray(<announced length>)``: a
    terabyte killed the handler thread with an uncaught MemoryError.
    The shared session takes the body through the host's door in
    bounded chunks, and a negative length is refused, typed."""
    daemon, client_cls, head, refusal = NATIVE_PUTS[proto]
    with daemon() as srv:
        srv.store.mkdir("/pub")
        rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with socket.create_connection((srv.host, srv.port),
                                      timeout=5.0) as sock:
            sock.sendall(head.format(n=TERABYTE).encode())
            if proto == "chirp":
                assert sock.recv(16) == b"ok\r\n"  # go ahead
            sock.sendall(b"x" * 4096)  # ...and the peer walks away
        with socket.create_connection((srv.host, srv.port),
                                      timeout=5.0) as sock:
            sock.sendall(head.format(n=-5).encode())
            assert sock.recv(64).startswith(refusal)
        wait_idle(srv)
        assert thread_tracebacks == []
        grown_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                     - rss_before)
        assert grown_kib < 64 * 1024  # nowhere near what was announced
        with client_cls(srv.host, srv.port) as client:
            client.put("/pub/y", b"still serving")
            assert client.get("/pub/y") == b"still serving"
