"""Restricted NFS subset (RFC 1094 lineage) over TCP.

NeST implements "a restricted subset of NFS" so unmodified applications
can use Grid storage through the kernel client (paper, sections 1 and
3).  This module provides the wire pieces both our server handler and
client share:

* ONC-RPC-style **record marking** over TCP (4-byte fragment headers),
* a simplified RPC call/reply envelope (xid, program, procedure),
* XDR marshalling of the NFS and MOUNT procedures we support.

NFS is the one *block-based* protocol in the mix: clients issue
:data:`BLOCK_SIZE`-granular READ/WRITE calls rather than whole-file
gets, which is why the stride scheduler must account bytes, not
requests (paper, section 4.2).  MOUNT is technically its own protocol;
as in NeST, "mount is handled by the NFS handler" (paper, footnote 1).
"""

from __future__ import annotations

import struct
from typing import BinaryIO

from repro.protocols.common import ProtocolError, read_exact
from repro.protocols.xdr import Packer, Unpacker

#: Default TCP port (2049 is privileged; we sit above 1024).
DEFAULT_PORT = 9049

#: NFS transfer block size -- the paper's scheduling discussion assumes
#: block-granular NFS requests.
BLOCK_SIZE = 8192

#: Opaque file-handle size (NFSv2 uses 32 bytes).
FHSIZE = 32

#: Largest call record a server buffers: one WRITE block plus the RPC
#: envelope, a file handle and a maximal (1024-byte) path argument.
MAX_CALL_BYTES = BLOCK_SIZE + 2048

#: Largest reply record a client buffers (READDIR replies grow with
#: the directory).
MAX_REPLY_BYTES = 16 * 1024 * 1024

# Program numbers.
PROG_NFS = 100003
PROG_MOUNT = 100005

# Procedures (NFSv2 numbering).
PROC_NULL = 0
PROC_GETATTR = 1
PROC_LOOKUP = 4
PROC_READ = 6
PROC_WRITE = 8
PROC_CREATE = 9
PROC_REMOVE = 10
PROC_RENAME = 11
PROC_MKDIR = 14
PROC_RMDIR = 15
PROC_READDIR = 16
MOUNTPROC_MNT = 1
MOUNTPROC_UMNT = 3

# nfsstat codes.
NFS_OK = 0
NFSERR_PERM = 1
NFSERR_NOENT = 2
NFSERR_IO = 5
NFSERR_ACCES = 13
NFSERR_EXIST = 17
NFSERR_NOTDIR = 20
NFSERR_ISDIR = 21
NFSERR_NOSPC = 28
NFSERR_NOTEMPTY = 66
NFSERR_STALE = 70

# ftype codes.
NFNON = 0
NFREG = 1
NFDIR = 2

_CALL = 0
_REPLY = 1


# ---------------------------------------------------------------------------
# record marking
# ---------------------------------------------------------------------------


def write_record(stream: BinaryIO, payload: bytes) -> None:
    """Write one RPC record as a single last-fragment.

    Mark and payload go out as one write: a payload larger than the
    stream's buffer (an 8 KiB READ reply) would otherwise push the
    4-byte mark onto the wire as a packet of its own.
    """
    stream.write(struct.pack(">I", 0x80000000 | len(payload)) + payload)
    stream.flush()


def read_record(stream: BinaryIO, limit: int = MAX_CALL_BYTES) -> bytes:
    """Read one RPC record (possibly multiple fragments).

    Fragment lengths are peer-supplied: a record whose fragments add up
    to more than ``limit`` bytes raises :exc:`ProtocolError` before
    anything is allocated for the offending fragment.
    """
    fragments: list[bytes] = []
    total = 0
    while True:
        header = read_exact(stream, 4)
        word = struct.unpack(">I", header)[0]
        length = word & 0x7FFFFFFF
        total += length
        if total > limit:
            raise ProtocolError(f"RPC record exceeds {limit} bytes")
        if length:
            fragments.append(read_exact(stream, length))
        if word & 0x80000000:
            return b"".join(fragments)


# ---------------------------------------------------------------------------
# RPC envelope
# ---------------------------------------------------------------------------


def pack_call(xid: int, prog: int, proc: int, args: bytes) -> bytes:
    """Build an RPC call record body."""
    p = Packer()
    p.pack_uint(xid)
    p.pack_uint(_CALL)
    p.pack_uint(2)  # RPC version
    p.pack_uint(prog)
    p.pack_uint(2)  # program version
    p.pack_uint(proc)
    p.pack_uint(0)  # cred flavor AUTH_NULL
    p.pack_uint(0)  # cred length
    p.pack_uint(0)  # verf flavor
    p.pack_uint(0)  # verf length
    return p.get_buffer() + args


def unpack_call(record: bytes) -> tuple[int, int, int, Unpacker]:
    """Parse a call record; returns (xid, prog, proc, args unpacker)."""
    u = Unpacker(record)
    xid = u.unpack_uint()
    if u.unpack_uint() != _CALL:
        raise ProtocolError("expected RPC call")
    if u.unpack_uint() != 2:
        raise ProtocolError("unsupported RPC version")
    prog = u.unpack_uint()
    u.unpack_uint()  # program version
    proc = u.unpack_uint()
    u.unpack_uint()
    cred_len = u.unpack_uint()
    u.unpack_fixed(cred_len)
    u.unpack_uint()
    verf_len = u.unpack_uint()
    u.unpack_fixed(verf_len)
    return xid, prog, proc, u


def pack_reply(xid: int, results: bytes) -> bytes:
    """Build an accepted-success RPC reply record body."""
    p = Packer()
    p.pack_uint(xid)
    p.pack_uint(_REPLY)
    p.pack_uint(0)  # MSG_ACCEPTED
    p.pack_uint(0)  # verf flavor
    p.pack_uint(0)  # verf length
    p.pack_uint(0)  # accept stat SUCCESS
    return p.get_buffer() + results


def unpack_reply(record: bytes) -> tuple[int, Unpacker]:
    """Parse a reply record; returns (xid, results unpacker)."""
    u = Unpacker(record)
    xid = u.unpack_uint()
    if u.unpack_uint() != _REPLY:
        raise ProtocolError("expected RPC reply")
    if u.unpack_uint() != 0:
        raise ProtocolError("RPC message denied")
    u.unpack_uint()
    verf_len = u.unpack_uint()
    u.unpack_fixed(verf_len)
    if u.unpack_uint() != 0:
        raise ProtocolError("RPC call not accepted")
    return xid, u


# ---------------------------------------------------------------------------
# fattr
# ---------------------------------------------------------------------------


def pack_fattr(p: Packer, ftype: int, size: int) -> None:
    """Pack the subset of fattr we model (type, mode, size)."""
    p.pack_uint(ftype)
    p.pack_uint(0o755 if ftype == NFDIR else 0o644)
    p.pack_hyper(size)


def unpack_fattr(u: Unpacker) -> dict[str, int]:
    """Unpack the fattr subset."""
    return {
        "type": u.unpack_uint(),
        "mode": u.unpack_uint(),
        "size": u.unpack_hyper(),
    }


def make_fhandle(token: int) -> bytes:
    """Build a 32-byte opaque file handle from a server-side token."""
    return struct.pack(">Q", token) + b"\x00" * (FHSIZE - 8)


def fhandle_token(handle: bytes) -> int:
    """Recover the server-side token from a file handle."""
    if len(handle) != FHSIZE:
        raise ProtocolError(f"bad file handle length {len(handle)}")
    return struct.unpack(">Q", handle[:8])[0]
