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

import io
import itertools
import struct
import threading
from typing import BinaryIO

from repro.protocols.common import (
    ProtocolError,
    Status,
    StorageError,
    read_exact,
)
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


# ---------------------------------------------------------------------------
# the server side of a connection
# ---------------------------------------------------------------------------


class FileHandleRegistry:
    """NFS file handles: stable token <-> path mapping, server-wide.

    Tokens are scoped to a restart **epoch**: the durability layer
    bumps the epoch on every recovery, and the epoch is folded into
    the high 32 bits of each handed-out token.  A handle minted before
    a crash therefore fails typed (stale) on the restarted server --
    it can never silently resolve to whatever now lives at that path.
    The default epoch 0 leaves tokens numerically unchanged for
    servers that run without a ``state_dir``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = 0
        self._by_token: dict[int, str] = {1: "/"}
        self._by_path: dict[str, int] = {"/": 1}
        self._next = itertools.count(2)

    @property
    def epoch(self) -> int:
        return self._epoch

    def set_epoch(self, epoch: int) -> None:
        """Adopt a restart epoch; every pre-existing token goes stale."""
        with self._lock:
            self._epoch = int(epoch) & 0xFFFFFFFF

    def token_for(self, path: str) -> int:
        """The (stable within this epoch) token for a path."""
        with self._lock:
            token = self._by_path.get(path)
            if token is None:
                token = next(self._next)
                self._by_path[path] = token
                self._by_token[token] = path
            return (self._epoch << 32) | token

    def path_of(self, token: int) -> str | None:
        """The path behind a token, or None for stale handles (unknown
        token *or* a token minted in an earlier epoch)."""
        with self._lock:
            if (token >> 32) != self._epoch:
                return None
            return self._by_token.get(token & 0xFFFFFFFF)

    def forget(self, path: str) -> None:
        """Invalidate a path's handle (delete/rename/rmdir).

        Also drops every handle *under* the path, so removing or
        renaming a directory invalidates its whole subtree -- a token
        must never resolve to a file that re-appears at the same path
        later with different contents.
        """
        if path == "/":
            return
        prefix = path.rstrip("/") + "/"
        with self._lock:
            stale = [p for p in self._by_path
                     if p == path or p.startswith(prefix)]
            for p in stale:
                del self._by_token[self._by_path.pop(p)]


#: Namespace entry type -> NFS ftype.
_FTYPE = {"dir": NFDIR, "file": NFREG}

_STATUS_TO_NFS = {
    Status.NOT_FOUND: NFSERR_NOENT,
    Status.DENIED: NFSERR_ACCES,
    Status.NOT_AUTHENTICATED: NFSERR_PERM,
    Status.EXISTS: NFSERR_EXIST,
    Status.NO_SPACE: NFSERR_NOSPC,
    Status.NOT_DIR: NFSERR_NOTDIR,
    Status.IS_DIR: NFSERR_ISDIR,
    Status.NOT_EMPTY: NFSERR_NOTEMPTY,
    Status.BAD_REQUEST: NFSERR_IO,
    Status.SERVER_ERROR: NFSERR_IO,
    Status.STALE: NFSERR_STALE,
}


class NfsSession:
    """The NFS session: record loop and XDR procedure table, written
    once against the host contract (:mod:`repro.protocols`).
    Anonymous only.

    MOUNT is handled here too ("mount is handled by the NFS handler",
    paper footnote 1).
    """

    protocol = "nfs"

    def serve(self) -> None:
        while True:
            try:
                record = read_record(self.rfile)
                xid, prog, proc, args = unpack_call(record)
            except ProtocolError:
                return
            if prog == PROG_MOUNT:
                op, procedure = "mount", self._MOUNT_PROCEDURES.get(proc)
            else:
                op, procedure = self._PROCEDURES.get(proc, ("other", None))
            with self.request_scope(op):
                results = self._dispatch(procedure, args)
                write_record(self.wfile, pack_reply(xid, results))

    def _dispatch(self, procedure, args: Unpacker) -> bytes:
        if procedure is None:
            return self._status_only(NFSERR_IO)
        try:
            return procedure(self, args)
        except StorageError as exc:
            self.mark_request_error()
            return self._status_only(_STATUS_TO_NFS.get(exc.status,
                                                        NFSERR_IO))
        except ProtocolError:
            self.mark_request_error()
            return self._status_only(NFSERR_IO)

    # -- helpers ----------------------------------------------------------
    def _status_only(self, status: int) -> bytes:
        p = Packer()
        p.pack_uint(status)
        return p.get_buffer()

    def _path_of(self, args: Unpacker) -> str:
        """The path behind the file-handle argument."""
        handle = args.unpack_fixed(FHSIZE)
        path = self.fhandles.path_of(fhandle_token(handle))
        if path is None:
            # Unknown token, or one minted before a server restart (the
            # registry's epoch changed): the NFS client must LOOKUP the
            # path again, exactly as with a real ESTALE.
            raise StorageError(Status.STALE, "stale file handle")
        return path

    def _child_of(self, args: Unpacker) -> str:
        """The path a (directory handle, name) argument pair names."""
        return self._path_of(args).rstrip("/") + "/" + args.unpack_string()

    def _fh_for(self, path: str) -> bytes:
        return make_fhandle(self.fhandles.token_for(path))

    def _attr_reply(self, path: str) -> bytes:
        """``NFS_OK fattr`` for ``path`` as it is now."""
        stat = self.files.stat(self.user, path) if path != "/" else {
            "type": "dir", "size": 0,
        }
        p = Packer()
        p.pack_uint(NFS_OK)
        pack_fattr(p, _FTYPE[stat["type"]], stat["size"])
        return p.get_buffer()

    def _entry_reply(self, path: str, ftype: int, size: int) -> bytes:
        """``NFS_OK fhandle fattr``: what LOOKUP, CREATE and MKDIR answer."""
        p = Packer()
        p.pack_uint(NFS_OK)
        p.pack_fixed(self._fh_for(path))
        pack_fattr(p, ftype, size)
        return p.get_buffer()

    # -- procedures ----------------------------------------------------------
    def _null(self, args: Unpacker) -> bytes:
        return b""

    def _mnt(self, args: Unpacker) -> bytes:
        dirpath = args.unpack_string()
        if dirpath != "/" and not self.files.exists(dirpath):
            return self._status_only(NFSERR_NOENT)
        p = Packer()
        p.pack_uint(NFS_OK)
        p.pack_fixed(self._fh_for(dirpath if dirpath else "/"))
        return p.get_buffer()

    def _getattr(self, args: Unpacker) -> bytes:
        return self._attr_reply(self._path_of(args))

    def _lookup(self, args: Unpacker) -> bytes:
        path = self._child_of(args)
        stat = self.files.stat(self.user, path)
        return self._entry_reply(path, _FTYPE[stat["type"]], stat["size"])

    def _read(self, args: Unpacker) -> bytes:
        path = self._path_of(args)
        offset = args.unpack_hyper()
        count = args.unpack_uint()
        ticket = self.files.approve_read(self.user, path, offset,
                                         min(count, BLOCK_SIZE))
        sink = io.BytesIO()
        self.send(ticket, sink)
        p = Packer()
        p.pack_uint(NFS_OK)
        size = self.files.stat(self.user, path)["size"]
        pack_fattr(p, NFREG, size)
        p.pack_opaque(sink.getvalue())
        return p.get_buffer()

    def _write(self, args: Unpacker) -> bytes:
        path = self._path_of(args)
        offset = args.unpack_hyper()
        data = args.unpack_opaque()
        ticket = self.files.approve_write(self.user, path, offset, len(data))
        self.receive(ticket, io.BytesIO(data), len(data))
        return self._attr_reply(path)

    def _create(self, args: Unpacker) -> bytes:
        path = self._child_of(args)
        with self.files.approve_put(self.user, path, 0):
            pass  # an empty file: the ticket settles with nothing moved
        return self._entry_reply(path, NFREG, 0)

    def _remove(self, args: Unpacker) -> bytes:
        self.files.delete(self.user, self._child_of(args))
        return self._status_only(NFS_OK)

    def _mkdir(self, args: Unpacker) -> bytes:
        path = self._child_of(args)
        self.files.mkdir(self.user, path)
        return self._entry_reply(path, NFDIR, 0)

    def _rmdir(self, args: Unpacker) -> bytes:
        self.files.rmdir(self.user, self._child_of(args))
        return self._status_only(NFS_OK)

    def _readdir(self, args: Unpacker) -> bytes:
        entries = self.files.listdir(self.user, self._path_of(args))
        p = Packer()
        p.pack_uint(NFS_OK)
        p.pack_uint(len(entries))
        for entry in entries:
            p.pack_string(entry["name"])
            p.pack_uint(_FTYPE[entry["type"]])
        return p.get_buffer()

    #: NFS procedure number -> (request-op label, procedure); the label
    #: set is bounded by construction.
    _PROCEDURES = {
        PROC_NULL: ("null", _null),
        PROC_GETATTR: ("getattr", _getattr),
        PROC_LOOKUP: ("lookup", _lookup),
        PROC_READ: ("read", _read),
        PROC_WRITE: ("write", _write),
        PROC_CREATE: ("create", _create),
        PROC_REMOVE: ("remove", _remove),
        PROC_MKDIR: ("mkdir", _mkdir),
        PROC_RMDIR: ("rmdir", _rmdir),
        PROC_READDIR: ("readdir", _readdir),
    }
    _MOUNT_PROCEDURES = {MOUNTPROC_MNT: _mnt, MOUNTPROC_UMNT: _null}
