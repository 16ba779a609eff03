"""Per-user disk quotas and their I/O cost model.

The paper implements NeST *lots* on top of the filesystem quota
mechanism and measures its overhead in Fig. 6: write bandwidth drops by
roughly 50 % in the worst case (a single long sequential stream), while
small writes see negligible cost.

Accounting (:class:`QuotaTable`) and cost (the parameters consumed by
:class:`repro.models.filesystem.FileSystemModel`) are separated:

* accounting: every user has a block limit; allocations beyond it fail
  with :exc:`OverQuota` -- this is what gives lots their guarantee;
* cost: while a stream still has write-behind headroom in the buffer
  cache, quota-file updates coalesce in memory and cost nothing
  observable.  Once the stream is disk-bound, every data block flushed
  also pays a synchronous quota-file update of one metadata block,
  which is what halves throughput for long streams.

This matches both of Fig. 6's observations (negligible at small sizes,
approaching 50 % for long streams) without appealing to unavailable
ext2 internals; see DESIGN.md section 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class OverQuota(Exception):
    """Raised when an allocation would exceed the user's quota."""

    def __init__(self, user: str, requested: int, available: int):
        super().__init__(
            f"user {user!r} requested {requested} bytes but only "
            f"{available} available under quota"
        )
        self.user = user
        self.requested = requested
        self.available = available


@dataclass
class QuotaEntry:
    """One user's quota state (bytes, not blocks, for clarity)."""

    limit: int
    used: int = 0

    @property
    def available(self) -> int:
        return max(0, self.limit - self.used)


@dataclass
class QuotaTable:
    """Per-user byte quotas with charge/release accounting.

    Users absent from the table are unconstrained (matching a
    filesystem where quotas exist only for configured users).
    """

    entries: dict[str, QuotaEntry] = field(default_factory=dict)

    def set_limit(self, user: str, limit_bytes: int) -> None:
        """Create or resize a user's quota, keeping current usage."""
        entry = self.entries.get(user)
        if entry is None:
            self.entries[user] = QuotaEntry(limit=int(limit_bytes))
        else:
            entry.limit = int(limit_bytes)

    def remove(self, user: str) -> None:
        """Drop a user's quota (they become unconstrained)."""
        self.entries.pop(user, None)

    def used_by(self, user: str) -> int:
        """Bytes currently charged to the user."""
        entry = self.entries.get(user)
        return entry.used if entry else 0

    def available_to(self, user: str) -> int | None:
        """Bytes the user may still allocate, or None if unconstrained."""
        entry = self.entries.get(user)
        return entry.available if entry else None

    def charge(self, user: str, nbytes: int) -> None:
        """Charge an allocation; raises :exc:`OverQuota` if it won't fit."""
        if nbytes < 0:
            raise ValueError("negative charge")
        entry = self.entries.get(user)
        if entry is None:
            return
        if entry.used + nbytes > entry.limit:
            raise OverQuota(user, nbytes, entry.available)
        entry.used += nbytes

    def release(self, user: str, nbytes: int) -> None:
        """Return bytes to the user's quota (floored at zero)."""
        if nbytes < 0:
            raise ValueError("negative release")
        entry = self.entries.get(user)
        if entry is not None:
            entry.used = max(0, entry.used - nbytes)

    def would_fit(self, user: str, nbytes: int) -> bool:
        """True if ``charge(user, nbytes)`` would succeed."""
        entry = self.entries.get(user)
        return entry is None or entry.used + nbytes <= entry.limit
