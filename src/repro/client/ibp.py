"""IBP client: allocate, store, load, manage via capabilities.

Retry semantics respect IBP's model: ``load``/``probe``/``status`` are
idempotent and retried; ``allocate``, ``store`` (append-only!),
``increment`` and ``decrement`` are **not** -- a replay would double
their effect, so a transient failure mid-operation surfaces as a typed
:class:`~repro.client.errors.TransientError` instead of being retried.
"""

from __future__ import annotations

from typing import Any

from repro.client.base import SessionClient
from repro.protocols import ibp
from repro.protocols.common import read_exact, read_line, write_line
from repro.protocols.ibp import IbpError  # re-exported for callers


class IbpClient(SessionClient):
    """A connection to an IBP depot (a NeST serving the IBP dialect)."""

    protocol = "ibp"

    def _goodbye(self) -> None:
        write_line(self.wfile, "quit")
        read_line(self.rfile)

    def _round_trip(self, line: str) -> list[str]:
        write_line(self.wfile, line)
        return ibp.parse_reply(read_line(self.rfile))

    # -- operations ----------------------------------------------------------
    def allocate(self, size: int, duration: float,
                 atype: str = ibp.STABLE) -> dict[str, str]:
        """Allocate a byte array; returns the three capabilities.

        Not retried: a replayed allocate would leak a second
        allocation the caller never learns about.
        """

        def do() -> dict[str, str]:
            args = self._round_trip(f"allocate {size} {duration} {atype}")
            return {"read": args[0], "write": args[1], "manage": args[2]}

        return self._op("allocate", do, idempotent=False)

    def store(self, write_cap: str, data: bytes) -> int:
        """Append ``data``; returns the allocation's new used count.

        Append-only, hence never replayed automatically.
        """

        def do() -> int:
            write_line(self.wfile, f"store {write_cap} {len(data)}",
                       flush=False)
            self.wfile.write(data)
            self.wfile.flush()
            args = ibp.parse_reply(read_line(self.rfile))
            return int(args[0])

        return self._op("store", do, idempotent=False)

    def load(self, read_cap: str, offset: int = 0, nbytes: int = 1 << 30) -> bytes:
        """Read a range of the allocation."""

        def do() -> bytes:
            args = self._round_trip(f"load {read_cap} {offset} {nbytes}")
            return read_exact(self.rfile, int(args[0]))

        return self._op("load", do)

    def probe(self, manage_cap: str) -> dict[str, Any]:
        """Allocation status."""

        def do() -> dict[str, Any]:
            args = self._round_trip(f"probe {manage_cap}")
            return {
                "size": int(args[0]),
                "used": int(args[1]),
                "expires_at": float(args[2]),
                "type": args[3],
                "refcount": int(args[4]),
            }

        return self._op("probe", do)

    def extend(self, manage_cap: str, duration: float) -> float:
        """Extend a stable allocation; returns the new expiry."""

        def do() -> float:
            args = self._round_trip(f"extend {manage_cap} {duration}")
            return float(args[0])

        return self._op("extend", do)

    def increment(self, manage_cap: str) -> int:
        """Add a reference; returns the refcount (not replayed)."""
        return self._op(
            "increment",
            lambda: int(self._round_trip(f"increment {manage_cap}")[0]),
            idempotent=False)

    def decrement(self, manage_cap: str) -> int:
        """Drop a reference; at zero the allocation is freed (not
        replayed)."""
        return self._op(
            "decrement",
            lambda: int(self._round_trip(f"decrement {manage_cap}")[0]),
            idempotent=False)

    def status(self) -> dict[str, int]:
        """Depot-wide capacity numbers."""

        def do() -> dict[str, int]:
            args = self._round_trip("status")
            return {"total": int(args[0]), "used": int(args[1]),
                    "volatile": int(args[2])}

        return self._op("status", do)
