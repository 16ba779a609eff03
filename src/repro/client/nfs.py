"""NFS client: mount, lookup, and block-granular file access.

This plays the role of the kernel NFS client in the paper's
experiments: whole-file reads become streams of BLOCK_SIZE READ rpcs.

File handles are server-wide and survive reconnects, so retry here is
natural: a transient failure re-dials, re-mounts (when the session had
mounted), and replays the operation.  Non-OK ``nfsstat`` results raise
:class:`NfsError`, a fatal (non-retried) error.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.client.base import SessionClient
from repro.client.errors import FatalError
from repro.protocols import nfs
from repro.protocols.common import ProtocolError
from repro.protocols.xdr import Packer, Unpacker


class NfsError(FatalError):
    """An RPC returned a non-OK nfsstat."""

    def __init__(self, status: int):
        super().__init__(f"nfsstat {status}")
        self.status = status


class NfsClient(SessionClient):
    """A mounted NFS session."""

    protocol = "nfs"

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 retry=None, faults=None):
        self._xids = itertools.count(1)
        self.root: bytes | None = None
        self._mounted_path: str | None = None
        super().__init__(host, port, timeout=timeout, retry=retry,
                         faults=faults)

    # -- session -----------------------------------------------------------
    def _setup_session(self) -> None:
        self.root = None
        if self._mounted_path is not None:
            self.root = self._do_mount(self._mounted_path)

    # -- rpc plumbing -------------------------------------------------------
    def _call(self, prog: int, proc: int, args: bytes) -> Unpacker:
        xid = next(self._xids)
        nfs.write_record(self.wfile, nfs.pack_call(xid, prog, proc, args))
        reply_xid, results = nfs.unpack_reply(
            nfs.read_record(self.rfile, limit=nfs.MAX_REPLY_BYTES))
        if reply_xid != xid:
            raise ProtocolError(f"xid mismatch {reply_xid} != {xid}")
        return results

    def _checked(self, prog: int, proc: int, args: bytes) -> Unpacker:
        u = self._call(prog, proc, args)
        status = u.unpack_uint()
        if status != nfs.NFS_OK:
            raise NfsError(status)
        return u

    # -- mount / lookup ----------------------------------------------------
    def _do_mount(self, dirpath: str) -> bytes:
        p = Packer()
        p.pack_string(dirpath)
        u = self._checked(nfs.PROG_MOUNT, nfs.MOUNTPROC_MNT, p.get_buffer())
        return u.unpack_fixed(nfs.FHSIZE)

    def mount(self, dirpath: str = "/") -> bytes:
        """MNT: obtain the root file handle (re-mounted automatically
        after any reconnect)."""

        def do() -> bytes:
            self.root = self._do_mount(dirpath)
            return self.root

        handle = self._op(f"mount {dirpath}", do)
        self._mounted_path = dirpath
        return handle

    def _lookup_raw(self, dirfh: bytes, name: str) -> tuple[bytes, dict[str, Any]]:
        p = Packer()
        p.pack_fixed(dirfh)
        p.pack_string(name)
        u = self._checked(nfs.PROG_NFS, nfs.PROC_LOOKUP, p.get_buffer())
        handle = u.unpack_fixed(nfs.FHSIZE)
        return handle, nfs.unpack_fattr(u)

    def lookup(self, dirfh: bytes, name: str) -> tuple[bytes, dict[str, Any]]:
        """LOOKUP one component; returns (fhandle, attributes)."""
        return self._op(f"lookup {name}",
                        lambda: self._lookup_raw(dirfh, name))

    def _lookup_path_raw(self, path: str) -> tuple[bytes, dict[str, Any]]:
        if self.root is None:
            self._mounted_path = "/"
            self.root = self._do_mount("/")
        handle = self.root
        attrs: dict[str, Any] = {"type": nfs.NFDIR, "size": 0}
        for part in [p for p in path.split("/") if p]:
            handle, attrs = self._lookup_raw(handle, part)
        return handle, attrs

    def lookup_path(self, path: str) -> tuple[bytes, dict[str, Any]]:
        """Resolve an absolute path component by component."""
        return self._op(f"lookup_path {path}",
                        lambda: self._lookup_path_raw(path))

    def getattr(self, fh: bytes) -> dict[str, Any]:
        """GETATTR."""

        def do() -> dict[str, Any]:
            p = Packer()
            p.pack_fixed(fh)
            u = self._checked(nfs.PROG_NFS, nfs.PROC_GETATTR, p.get_buffer())
            return nfs.unpack_fattr(u)

        return self._op("getattr", do)

    # -- data ------------------------------------------------------------------
    def _read_block_raw(self, fh: bytes, offset: int, count: int) -> bytes:
        p = Packer()
        p.pack_fixed(fh)
        p.pack_hyper(offset)
        p.pack_uint(count)
        u = self._checked(nfs.PROG_NFS, nfs.PROC_READ, p.get_buffer())
        nfs.unpack_fattr(u)
        return u.unpack_opaque()

    def read_block(self, fh: bytes, offset: int,
                   count: int = nfs.BLOCK_SIZE) -> bytes:
        """One READ rpc."""
        return self._op("read_block",
                        lambda: self._read_block_raw(fh, offset, count))

    def _write_block_raw(self, fh: bytes, offset: int,
                         data: bytes) -> dict[str, Any]:
        p = Packer()
        p.pack_fixed(fh)
        p.pack_hyper(offset)
        p.pack_opaque(data)
        u = self._checked(nfs.PROG_NFS, nfs.PROC_WRITE, p.get_buffer())
        return nfs.unpack_fattr(u)

    def write_block(self, fh: bytes, offset: int, data: bytes) -> dict[str, Any]:
        """One WRITE rpc (idempotent: same bytes, same offset)."""
        return self._op("write_block",
                        lambda: self._write_block_raw(fh, offset, data))

    def read_file(self, path: str) -> bytes:
        """Whole-file read as a stream of block rpcs (the kernel-client
        behaviour that makes NFS latency-bound in Figs. 3/4)."""

        def do() -> bytes:
            fh, attrs = self._lookup_path_raw(path)
            out = bytearray()
            offset = 0
            while offset < attrs["size"]:
                block = self._read_block_raw(fh, offset, nfs.BLOCK_SIZE)
                if not block:
                    break
                out.extend(block)
                offset += len(block)
            return bytes(out)

        return self._op(f"read_file {path}", do)

    def write_file(self, path: str, data: bytes) -> None:
        """Whole-file write as sequential block rpcs (creates first)."""

        def do() -> None:
            directory, _, name = path.rpartition("/")
            dirfh, _ = self._lookup_path_raw(directory or "/")
            fh = self._create_raw(dirfh, name)
            offset = 0
            while offset < len(data):
                chunk = data[offset:offset + nfs.BLOCK_SIZE]
                self._write_block_raw(fh, offset, chunk)
                offset += len(chunk)

        self._op(f"write_file {path}", do)

    # -- namespace ------------------------------------------------------------
    def _create_raw(self, dirfh: bytes, name: str) -> bytes:
        p = Packer()
        p.pack_fixed(dirfh)
        p.pack_string(name)
        u = self._checked(nfs.PROG_NFS, nfs.PROC_CREATE, p.get_buffer())
        return u.unpack_fixed(nfs.FHSIZE)

    def create(self, dirfh: bytes, name: str) -> bytes:
        """CREATE an empty file; returns its handle."""
        return self._op(f"create {name}",
                        lambda: self._create_raw(dirfh, name))

    def mkdir(self, dirfh: bytes, name: str) -> bytes:
        """MKDIR; returns the new directory's handle."""

        def do() -> bytes:
            p = Packer()
            p.pack_fixed(dirfh)
            p.pack_string(name)
            u = self._checked(nfs.PROG_NFS, nfs.PROC_MKDIR, p.get_buffer())
            return u.unpack_fixed(nfs.FHSIZE)

        return self._op(f"mkdir {name}", do)

    def remove(self, dirfh: bytes, name: str) -> None:
        """REMOVE a file."""

        def do() -> None:
            p = Packer()
            p.pack_fixed(dirfh)
            p.pack_string(name)
            self._checked(nfs.PROG_NFS, nfs.PROC_REMOVE, p.get_buffer())

        self._op(f"remove {name}", do)

    def rmdir(self, dirfh: bytes, name: str) -> None:
        """RMDIR."""

        def do() -> None:
            p = Packer()
            p.pack_fixed(dirfh)
            p.pack_string(name)
            self._checked(nfs.PROG_NFS, nfs.PROC_RMDIR, p.get_buffer())

        self._op(f"rmdir {name}", do)

    def readdir(self, dirfh: bytes) -> list[tuple[str, int]]:
        """READDIR: (name, ftype) entries."""

        def do() -> list[tuple[str, int]]:
            p = Packer()
            p.pack_fixed(dirfh)
            u = self._checked(nfs.PROG_NFS, nfs.PROC_READDIR, p.get_buffer())
            count = u.unpack_uint()
            return [(u.unpack_string(), u.unpack_uint()) for _ in range(count)]

        return self._op("readdir", do)
