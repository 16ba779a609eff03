"""Compacted state snapshots for the metadata journal.

A snapshot is one JSON document -- the full serialized appliance
state, the journal sequence number it covers and the format version
``v`` -- written with the
classic atomic dance: temp file in the same directory, fsync, then
``os.replace`` onto the final name.  A reader therefore sees either
the old snapshot or the new one, never a torn hybrid, no matter where
a crash lands.

Compaction ordering (see :class:`~repro.durability.manager.DurabilityManager`):
the snapshot is made durable *first* -- its bytes, then its directory
entry (:func:`fsync_dir`) -- and the journal truncated *second*.  A
crash between the two leaves journal records whose ``seq`` the
snapshot already covers; replay skips them, so the window is harmless.
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional

from repro.durability.journal import FORMAT_VERSION, check_format
from repro.faults.disk import raise_for

__all__ = ["SnapshotError", "SnapshotStore", "fsync_dir"]


def fsync_dir(path: str) -> None:
    """Make the entries of directory ``path`` durable: an
    ``os.replace`` inside it survives a power cut only once the
    directory itself is synced."""
    fd = os.open(path or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class SnapshotError(Exception):
    """The snapshot file exists but cannot be parsed (real corruption
    -- atomic replace makes this unreachable without outside help)."""


class SnapshotStore:
    """Atomic save/load of one snapshot document."""

    def __init__(self, path: str, faults=None):
        self.path = str(path)
        self._faults = faults

    def save(self, state: dict[str, Any], seq: int) -> None:
        """Atomically persist ``state`` as covering journal ``seq``."""
        if self._faults is not None:
            rule = self._faults.check("snapshot")
            if rule is not None:
                raise_for(rule, "snapshot save")
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        payload = json.dumps(
            {"seq": int(seq), "state": state, "v": FORMAT_VERSION},
            sort_keys=True).encode()
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.path)
        fsync_dir(parent)

    def load(self) -> tuple[Optional[dict[str, Any]], int]:
        """The latest snapshot's ``(state, seq)``, or ``(None, 0)``
        when no snapshot has ever been taken.  A snapshot in another
        format raises :class:`~repro.durability.journal.FormatVersionError`."""
        try:
            with open(self.path, "rb") as f:
                raw = f.read()
        except FileNotFoundError:
            return None, 0
        try:
            doc = json.loads(raw)
            state, seq = doc["state"], int(doc["seq"])
        except (ValueError, KeyError, TypeError) as exc:
            raise SnapshotError(
                f"unreadable snapshot {self.path!r}: {exc}") from exc
        check_format(doc, f"snapshot {self.path!r}")
        return state, seq
