"""Wire-supplied lengths are bounded before anything is allocated.

One regression per live port that used to trust a peer's number: each
hostile input gets the protocol's typed error (NFS record marking has
no in-band way to refuse a record whose xid was never read, so there
the answer is a closed connection), the handler thread ends without a
traceback, and the server goes on serving.
"""

from __future__ import annotations

import socket
import struct
import threading

from repro.client.ibp import IbpClient
from repro.client.nfs import NfsClient
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
