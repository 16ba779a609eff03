"""One session, two hosts: the same scripted exchange against a
``NestServer`` and a ``JbosManager`` must look the same to the client.

Each protocol's request loop and verb table exist once, in
``repro.protocols``; NeST's handler and the JBOS daemon differ only in
the host they give it (storage manager + transfer manager vs a flat
store + a direct copy).  Every script below speaks only verbs both
sides serve and records what the *client* sees -- bytes, names, sizes,
the client error type and status or the FTP reply code -- and the two
transcripts must be equal, error replies included.
"""

import socket

import pytest

from repro.client import (
    ChirpClient,
    FtpClient,
    GridFtpClient,
    HttpClient,
    NfsClient,
)
from repro.client.errors import ClientError
from repro.jbos import JbosManager
from repro.nest.config import NestConfig
from repro.nest.server import NestServer
from repro.protocols import ftp, gridftp

PAYLOAD = bytes(range(256)) * 40  # 10 KiB: more than one NFS block


@pytest.fixture(scope="module")
def hosts(ca):
    """``{flavour: (host, ports)}`` for a live NeST and a live bunch,
    each with a ``/data`` directory anyone may write into."""
    nest = NestServer(NestConfig(name="parity"), ca=ca).start()
    nest.storage.mkdir("admin", "/data")
    nest.storage.acl_set("admin", "/data", "*", "rliwd")
    bunch = JbosManager(ca=ca).start()
    bunch.store.mkdir("/data")
    yield {"nest": (nest.host, nest.ports), "jbos": (bunch.host, bunch.ports)}
    bunch.stop()
    nest.stop()


def seen(call, *args):
    """What the client sees of ``call(*args)``: its result, or the
    error's type with its status (Chirp, HTTP, NFS) or code (FTP)."""
    try:
        return call(*args)
    except ClientError as exc:
        return (type(exc).__name__,
                getattr(exc, "status", None) or getattr(exc, "code", None))


def chirp_script(host, port, credential):
    with ChirpClient(host, port) as c:
        yield "mkdir", seen(c.mkdir, "/data/c")
        yield "mkdir again", seen(c.mkdir, "/data/c")
        yield "put", seen(c.put, "/data/c/f", PAYLOAD)
        stat = c.stat("/data/c/f")
        yield "stat", (stat["type"], stat["size"])
        yield "stat dir", c.stat("/data/c")["type"]
        yield "get", seen(c.get, "/data/c/f")
        yield "pwrite", seen(c.pwrite, "/data/c/f", 4, b"WXYZ")
        yield "pread", seen(c.pread, "/data/c/f", 2, 8)
        yield "checksum", seen(c.checksum, "/data/c/f")
        yield "list", [(e["name"], e["type"], e["size"])
                       for e in c.listdir("/data/c")]
        yield "get missing", seen(c.get, "/data/c/nope")
        yield "stat missing", seen(c.stat, "/data/c/nope")
        yield "put into missing dir", seen(c.put, "/data/no/f", b"x")
        yield "rmdir non-empty", seen(c.rmdir, "/data/c")
        yield "unlink", seen(c.unlink, "/data/c/f")
        yield "unlink again", seen(c.unlink, "/data/c/f")
        yield "rmdir", seen(c.rmdir, "/data/c")
        yield "list after", seen(c.listdir, "/data/c")
    # The peer's numbers, raw: a negative length is refused, typed,
    # and the connection lives.
    with socket.create_connection((host, port), timeout=5.0) as sock, \
            sock.makefile("rb") as replies:
        sock.sendall(b"put /data/neg -5\r\nwrite /data/neg -1 4\r\n"
                     b"stat /data/neg\r\n")
        yield "negative lengths", [replies.readline().split()[:2]
                                   for _ in range(3)]


def http_script(host, port, credential):
    with HttpClient(host, port) as h:
        yield "put", seen(h.put, "/data/h.bin", PAYLOAD)
        yield "head", seen(h.head, "/data/h.bin")
        yield "get", seen(h.get, "/data/h.bin")
        yield "get missing", seen(h.get, "/data/nope.bin")
        yield "put into missing dir", seen(h.put, "/data/no/f", b"x")
        yield "delete", seen(h.delete, "/data/h.bin")
        yield "delete again", seen(h.delete, "/data/h.bin")
        yield "head after", seen(h.head, "/data/h.bin")
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(b"PUT /data/neg HTTP/1.0\r\nContent-Length: -5\r\n\r\n")
        yield "negative length", sock.recv(12)


def ftp_verbs(f):
    """The FTP-family exchange, over whichever client ``f`` is."""
    yield "retr before pasv", f.command("RETR /data/nope")[0]
    yield "list before pasv", f.command("LIST /data")[0]
    yield "stor before pasv", f.command("STOR /data/orphan")[0]
    yield "no orphan", seen(f.size, "/data/orphan")
    yield "mkd", seen(f.mkd, "/data/f")
    yield "mkd again", seen(f.mkd, "/data/f")
    yield "stor", seen(f.stor, "/data/f/a", PAYLOAD)
    yield "size", seen(f.size, "/data/f/a")
    yield "retr", seen(f.retr, "/data/f/a")
    yield "cwd", seen(f.cwd, "/data/f")
    yield "pwd", seen(f.pwd)
    yield "relative retr", seen(f.retr, "a")
    yield "list", seen(f.list, "/data/f")
    yield "cwd to a file", seen(f.cwd, "/data/f/a")
    yield "retr missing", seen(f.retr, "/data/f/nope")
    yield "rmd non-empty", seen(f.rmd, "/data/f")
    yield "unknown verb", f.command("SITE chmod")[0]
    yield "dele", seen(f.dele, "/data/f/a")
    yield "dele again", seen(f.dele, "/data/f/a")
    yield "rmd", seen(f.rmd, "/data/f")
    yield "size after", seen(f.size, "/data/f/a")


def ftp_script(host, port, credential):
    with FtpClient(host, port) as f:
        yield from ftp_verbs(f)


def gridftp_script(host, port, credential):
    with GridFtpClient(host, port, credential=credential) as g:
        yield from ftp_verbs(g)  # stream mode
        yield "put", seen(g.stor, "/data/g", PAYLOAD)
        # Mode E over PASV: one extended-block stream each way.
        g.command("MODE E", expect=200)
        _, text = g.command("PASV", expect=ftp.PASSIVE)
        g.command("STOR /data/ge", expect=ftp.OPENING_DATA)
        with socket.create_connection(ftp.parse_pasv_reply(text),
                                      timeout=10) as conn, \
                conn.makefile("wb") as out:
            half = len(PAYLOAD) // 2
            gridftp.write_block(out, half, PAYLOAD[half:])  # out of order
            gridftp.write_block(out, 0, PAYLOAD[:half])
            gridftp.write_eod(out, eof=True)
        yield "eblock stor", g._expect(ftp.TRANSFER_OK)[0]
        _, text = g.command("PASV", expect=ftp.PASSIVE)
        g.command("RETR /data/ge", expect=ftp.OPENING_DATA)
        data = bytearray()
        with socket.create_connection(ftp.parse_pasv_reply(text),
                                      timeout=10) as conn, \
                conn.makefile("rb") as stream:
            for offset, payload in gridftp.iter_blocks(stream):
                data[offset:offset + len(payload)] = payload
        yield "eblock retr", (g._expect(ftp.TRANSFER_OK)[0], bytes(data))
        yield "eblock retr before pasv", g.command("RETR /data/ge")[0]
        # Striped passive: two parallel extended-block streams.
        g.set_parallelism(2)
        yield "striped stor", seen(g.stor_parallel, "/data/gp", PAYLOAD * 30)
        yield "striped retr", seen(g.retr_parallel, "/data/gp")
        g.command("MODE S", expect=200)
        yield "sizes", [seen(g.size, p) for p in ("/data/ge", "/data/gp")]
        for path in ("/data/g", "/data/ge", "/data/gp"):
            g.dele(path)


def nfs_script(host, port, credential):
    with NfsClient(host, port) as n:
        yield "mount missing", seen(n.mount, "/nope")
        n.mount("/")
        data, _ = n.lookup_path("/data")
        yield "mkdir", bool(seen(n.mkdir, data, "n"))
        yield "mkdir again", seen(n.mkdir, data, "n")
        sub, attrs = n.lookup_path("/data/n")
        yield "lookup dir", attrs
        yield "write_file", seen(n.write_file, "/data/n/f", PAYLOAD)
        fh, attrs = n.lookup_path("/data/n/f")
        yield "lookup file", attrs
        yield "getattr", seen(n.getattr, fh)
        yield "read_file", seen(n.read_file, "/data/n/f")
        yield "read past end", seen(n.read_block, fh, len(PAYLOAD) + 5)
        yield "readdir", seen(n.readdir, sub)
        yield "lookup missing", seen(n.lookup, sub, "nope")
        yield "rmdir non-empty", seen(n.rmdir, data, "n")
        yield "remove", seen(n.remove, sub, "f")
        yield "remove again", seen(n.remove, sub, "f")
        yield "rmdir", seen(n.rmdir, data, "n")
        yield "forged handle", seen(n.getattr, b"\xff" * len(fh))


SCRIPTS = {
    "chirp": chirp_script,
    "http": http_script,
    "ftp": ftp_script,
    "gridftp": gridftp_script,
    "nfs": nfs_script,
}


@pytest.mark.parametrize("proto", SCRIPTS)
def test_same_exchange_same_outcome_on_both_hosts(hosts, ca, proto):
    credential = ca.issue("/CN=parity")
    transcripts = {
        flavour: list(SCRIPTS[proto](host, ports[proto], credential))
        for flavour, (host, ports) in hosts.items()
    }
    # Not vacuous: the script ran to its end and moved the payload.
    assert len(transcripts["nest"]) >= 8
    assert any(PAYLOAD in (outcome if isinstance(outcome, tuple)
                           else (outcome,))
               for _, outcome in transcripts["nest"])
    assert transcripts["jbos"] == transcripts["nest"]
