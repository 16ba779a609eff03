"""The flat shared store native JBOS servers export.

A plain thread-safe path -> bytes mapping with a directory set; no
ACLs, no lots, no owners -- a Unix filesystem as a 2002 daemon saw it.
"""

from __future__ import annotations

import threading

from repro.protocols.common import Status, StorageError


class SimpleStoreError(StorageError):
    """Path-level failure (missing, exists, not a directory...), with
    the status a protocol session maps onto its wire."""


class SimpleStore:
    """Thread-safe in-memory file tree shared by a bunch of servers."""

    def __init__(self) -> None:
        self._files: dict[str, bytes] = {}
        self._dirs: set[str] = {"/"}
        self._lock = threading.RLock()

    @staticmethod
    def _norm(path: str) -> str:
        parts = [p for p in path.split("/") if p]
        return "/" + "/".join(parts)

    def _parent(self, path: str) -> str:
        return self._norm(path.rsplit("/", 1)[0] or "/")

    # -- files ------------------------------------------------------------
    def read(self, path: str) -> bytes:
        with self._lock:
            path = self._norm(path)
            if path not in self._files:
                raise SimpleStoreError(Status.NOT_FOUND, f"no such file {path}")
            return self._files[path]

    def _file_path(self, path: str) -> str:
        """``path`` normalised, if a file may live there."""
        path = self._norm(path)
        if self._parent(path) not in self._dirs:
            raise SimpleStoreError(
                Status.NOT_FOUND, f"no such directory {self._parent(path)}")
        if path in self._dirs:
            raise SimpleStoreError(Status.IS_DIR, f"{path} is a directory")
        return path

    def write(self, path: str, data: bytes) -> None:
        with self._lock:
            self._files[self._file_path(path)] = bytes(data)

    def write_at(self, path: str, offset: int, data: bytes) -> int:
        """Block-granular write (for nfsd); returns the new size."""
        with self._lock:
            path = self._file_path(path)
            current = bytearray(self._files.get(path, b""))
            if offset + len(data) > len(current):
                current.extend(b"\x00" * (offset + len(data) - len(current)))
            current[offset:offset + len(data)] = data
            self._files[path] = bytes(current)
            return len(current)

    def delete(self, path: str) -> None:
        with self._lock:
            path = self._norm(path)
            if path not in self._files:
                raise SimpleStoreError(Status.NOT_FOUND, f"no such file {path}")
            del self._files[path]

    def size(self, path: str) -> int:
        with self._lock:
            path = self._norm(path)
            if path in self._dirs:
                return 0
            if path not in self._files:
                raise SimpleStoreError(Status.NOT_FOUND, f"no such file {path}")
            return len(self._files[path])

    def exists(self, path: str) -> bool:
        with self._lock:
            path = self._norm(path)
            return path in self._files or path in self._dirs

    def is_dir(self, path: str) -> bool:
        with self._lock:
            return self._norm(path) in self._dirs

    # -- directories --------------------------------------------------------
    def mkdir(self, path: str) -> None:
        with self._lock:
            path = self._norm(path)
            if path in self._dirs or path in self._files:
                raise SimpleStoreError(Status.EXISTS, f"{path} exists")
            if self._parent(path) not in self._dirs:
                raise SimpleStoreError(
                    Status.NOT_FOUND, f"no such directory {self._parent(path)}")
            self._dirs.add(path)

    def rmdir(self, path: str) -> None:
        with self._lock:
            path = self._norm(path)
            if path == "/":
                raise SimpleStoreError(Status.DENIED, "cannot remove root")
            if path not in self._dirs:
                raise SimpleStoreError(Status.NOT_FOUND, f"no such directory {path}")
            if self.listdir(path):
                raise SimpleStoreError(Status.NOT_EMPTY, f"{path} not empty")
            self._dirs.discard(path)

    def listdir(self, path: str) -> list[tuple[str, str, int]]:
        """(name, type, size) triples for one directory."""
        with self._lock:
            path = self._norm(path)
            if path not in self._dirs:
                raise SimpleStoreError(Status.NOT_FOUND, f"no such directory {path}")
            prefix = path.rstrip("/") + "/"
            out = []
            for d in self._dirs:
                if d != path and d.startswith(prefix) and "/" not in d[len(prefix):]:
                    out.append((d[len(prefix):], "dir", 0))
            for f, data in self._files.items():
                if f.startswith(prefix) and "/" not in f[len(prefix):]:
                    out.append((f[len(prefix):], "file", len(data)))
            return sorted(out)
