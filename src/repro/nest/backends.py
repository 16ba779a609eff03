"""Physical-storage backends for the storage manager.

"The storage manager has been designed to virtualize different types of
physical storage" (paper, section 5): the paper's release used the
local filesystem and planned raw disk and memory.  We provide:

* :class:`MemoryStore` -- files held in RAM (fast, hermetic tests);
* :class:`LocalFSStore` -- files in a directory of the real local
  filesystem, with path sandboxing.

A backend stores only bytes under names: it writes, reads, updates,
renames and deletes one file at a time.  All namespace, ACL, and lot
logic lives in :class:`repro.nest.storage.StorageManager`, which is
what lets the simulated substrate swap in a time-modelled store
without touching policy code.
"""

from __future__ import annotations

import io
import itertools
import os
import threading
from typing import BinaryIO, Protocol


class DataStore(Protocol):
    """What the storage manager needs from physical storage: per-file
    streams, plus the metadata calls ``rename``, ``delete``, ``size``
    and ``exists``, which move no bytes."""

    def open_read(self, path: str) -> BinaryIO:
        """A readable binary stream of the file's contents."""
        ...

    def open_write(self, path: str) -> BinaryIO:
        """A writable binary stream to ``path``, which it creates or
        truncates; ``close`` makes the bytes durable and ``discard``
        drops them.  A writer that must not tear a file others read
        writes a fresh name (:func:`staged_name`) and renames it over
        the file -- what the storage manager's PUT commit does."""
        ...

    def open_update(self, path: str) -> BinaryIO:
        """A seekable read/write stream for block-granular updates."""
        ...

    def rename(self, path: str, new_path: str) -> None:
        """Give one existing file's bytes a new name, replacing
        whatever that name held; no byte is copied.  It is how a
        RENAME moves a file and how a PUT's staged bytes become the
        file."""
        ...

    def delete(self, path: str) -> None:
        """Remove the file's bytes (missing files are ignored)."""
        ...

    def size(self, path: str) -> int:
        """Current byte size (0 if absent)."""
        ...

    def exists(self, path: str) -> bool:
        """Whether any bytes are stored under ``path``."""
        ...


#: Suffix of staged (not yet committed) files, swept at recovery.
TEMP_SUFFIX = ".nest-tmp"

#: Distinguishes this process's staged names (``next`` is atomic).
_staged_serial = itertools.count()


def staged_name(path: str) -> str:
    """A fresh name beside ``path`` to stage a write of it under: one
    per writer, so concurrent writers of one path never share a file,
    and ending in :data:`TEMP_SUFFIX`, so a crash's leftover is swept."""
    return f"{path}.{os.getpid()}-{next(_staged_serial)}{TEMP_SUFFIX}"


class _MemoryWriter(io.BytesIO):
    """A :class:`MemoryStore` write stream: buffers in RAM and lands
    the whole file in the store on close -- or, on :meth:`discard`,
    lands nothing."""

    def __init__(self, store: "MemoryStore", path: str):
        super().__init__()
        self._store = store
        self._path = path

    def close(self) -> None:
        if self.closed:
            return
        store = self._store
        with store._lock:
            store._files[self._path] = bytearray(self.getvalue())
        super().close()

    def discard(self) -> None:
        super().close()


class MemoryStore:
    """Bytes in RAM, keyed by path."""

    def __init__(self) -> None:
        self._files: dict[str, bytearray] = {}
        self._lock = threading.Lock()

    def open_read(self, path: str) -> BinaryIO:
        with self._lock:
            data = bytes(self._files.get(path, b""))
        return io.BytesIO(data)

    def open_write(self, path: str) -> BinaryIO:
        return _MemoryWriter(self, path)

    def open_update(self, path: str) -> BinaryIO:
        """The file's current bytes, seekable and rewritable; the whole
        buffer replaces the file on close."""
        with self._lock:
            current = bytes(self._files.get(path, b""))
        buf = _MemoryWriter(self, path)
        buf.write(current)
        buf.seek(0)
        return buf

    def rename(self, path: str, new_path: str) -> None:
        with self._lock:
            if path not in self._files:
                raise FileNotFoundError(path)
            self._files[new_path] = self._files.pop(path)

    def delete(self, path: str) -> None:
        with self._lock:
            self._files.pop(path, None)

    def size(self, path: str) -> int:
        with self._lock:
            data = self._files.get(path)
            return len(data) if data is not None else 0

    def exists(self, path: str) -> bool:
        with self._lock:
            return path in self._files


class _AtomicWriter:
    """A :class:`LocalFSStore` write stream: ``close`` fsyncs the file,
    ``discard`` unlinks it.  The atomicity is the caller's: the storage
    manager writes a staged name and commits by renaming it over the
    file, so a reader (or a recovery pass) sees the old file or the new
    one, never a torn hybrid, and a process killed mid-PUT leaves only a
    ``.nest-tmp`` orphan, swept at the next recovery."""

    def __init__(self, path: str):
        self._path = path
        self._f = open(path, "wb")

    def write(self, data: bytes) -> int:
        return self._f.write(data)

    def flush(self) -> None:
        self._f.flush()

    def close(self) -> None:
        if self._f.closed:
            return
        self._f.flush()
        os.fsync(self._f.fileno())
        self._f.close()

    def discard(self) -> None:
        """Drop the written bytes and the file."""
        if self._f.closed:
            return
        self._f.close()
        try:
            os.unlink(self._path)
        except FileNotFoundError:
            pass

    def __enter__(self) -> "_AtomicWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name):
        return getattr(self._f, name)


class LocalFSStore:
    """Bytes in a sandboxed directory of the host filesystem."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _resolve(self, path: str) -> str:
        rel = path.lstrip("/")
        full = os.path.abspath(os.path.join(self.root, rel))
        if not (full == self.root or full.startswith(self.root + os.sep)):
            raise PermissionError(f"path {path!r} escapes the store root")
        return full

    def open_read(self, path: str) -> BinaryIO:
        return open(self._resolve(path), "rb")

    def open_write(self, path: str) -> BinaryIO:
        full = self._resolve(path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        return _AtomicWriter(full)

    def open_update(self, path: str) -> BinaryIO:
        full = self._resolve(path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        if not os.path.exists(full):
            open(full, "wb").close()
        return open(full, "r+b")

    def rename(self, path: str, new_path: str) -> None:
        full = self._resolve(new_path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        os.replace(self._resolve(path), full)

    def delete(self, path: str) -> None:
        try:
            os.unlink(self._resolve(path))
        except FileNotFoundError:
            pass

    def size(self, path: str) -> int:
        try:
            return os.path.getsize(self._resolve(path))
        except OSError:
            return 0

    def exists(self, path: str) -> bool:
        return os.path.isfile(self._resolve(path))

    def sweep_temp(self) -> int:
        """Delete staged files a crash left uncommitted; returns how
        many were removed."""
        swept = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(TEMP_SUFFIX):
                    try:
                        os.unlink(os.path.join(dirpath, name))
                        swept += 1
                    except OSError:
                        pass
        return swept
