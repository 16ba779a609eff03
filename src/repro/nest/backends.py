"""Physical-storage backends for the storage manager.

"The storage manager has been designed to virtualize different types of
physical storage" (paper, section 5): the paper's release used the
local filesystem and planned raw disk and memory.  We provide:

* :class:`MemoryStore` -- files held in RAM (fast, hermetic tests);
* :class:`LocalFSStore` -- files in a directory of the real local
  filesystem, with path sandboxing.

A backend stores only bytes; all namespace, ACL, and lot logic lives in
:class:`repro.nest.storage.StorageManager`, which is what lets the
simulated substrate swap in a time-modelled store without touching
policy code.
"""

from __future__ import annotations

import io
import itertools
import os
import threading
from typing import BinaryIO, Protocol


class DataStore(Protocol):
    """What the storage manager needs from physical storage."""

    def open_read(self, path: str) -> BinaryIO:
        """A readable binary stream of the file's contents."""
        ...

    def open_write(self, path: str, append: bool = False) -> BinaryIO:
        """A writable binary stream (created/truncated unless append)."""
        ...

    def open_update(self, path: str) -> BinaryIO:
        """A seekable read/write stream for block-granular updates."""
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


#: Suffix of in-flight atomic-write temp files (swept at recovery).
TEMP_SUFFIX = ".nest-tmp"


class MemoryStore:
    """Bytes in RAM, keyed by path."""

    def __init__(self) -> None:
        self._files: dict[str, bytearray] = {}
        self._lock = threading.Lock()

    def open_read(self, path: str) -> BinaryIO:
        with self._lock:
            data = bytes(self._files.get(path, b""))
        return io.BytesIO(data)

    def open_write(self, path: str, append: bool = False) -> BinaryIO:
        store = self

        class _Writer(io.BytesIO):
            def close(inner) -> None:
                with store._lock:
                    if append and path in store._files:
                        store._files[path].extend(inner.getvalue())
                    else:
                        store._files[path] = bytearray(inner.getvalue())
                super(_Writer, inner).close()

        return _Writer()

    def open_update(self, path: str) -> BinaryIO:
        store = self
        with self._lock:
            current = bytes(self._files.get(path, b""))

        class _Updater(io.BytesIO):
            def close(inner) -> None:
                with store._lock:
                    store._files[path] = bytearray(inner.getvalue())
                super(_Updater, inner).close()

        buf = _Updater()
        buf.write(current)
        buf.seek(0)
        return buf

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
    """A write stream that lands atomically: bytes go to a same-directory
    temp file; ``close`` fsyncs and ``os.replace``\\ s it onto the final
    name.  A reader (or a recovery pass) therefore sees the old file or
    the new one, never a torn hybrid -- and a process killed mid-PUT
    leaves only a ``.nest-tmp`` orphan, swept at the next recovery.

    Every writer stages under a name of its own, so concurrent writers
    of one path never share a temp file: the last to close wins, whole.
    """

    #: Distinguishes this process's writers (``next`` is atomic).
    _serial = itertools.count()

    def __init__(self, final: str, append: bool = False):
        self._final = final
        self._tmp = (f"{final}.{os.getpid()}-{next(self._serial)}"
                     f"{TEMP_SUFFIX}")
        self._f = open(self._tmp, "wb")
        if append and os.path.exists(final):
            with open(final, "rb") as src:
                while True:
                    chunk = src.read(1 << 20)
                    if not chunk:
                        break
                    self._f.write(chunk)

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
        os.replace(self._tmp, self._final)

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

    def open_write(self, path: str, append: bool = False) -> BinaryIO:
        full = self._resolve(path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        return _AtomicWriter(full, append=append)

    def open_update(self, path: str) -> BinaryIO:
        full = self._resolve(path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        if not os.path.exists(full):
            open(full, "wb").close()
        return open(full, "r+b")

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
        """Delete orphaned atomic-write temp files (crash leftovers);
        returns how many were removed."""
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
