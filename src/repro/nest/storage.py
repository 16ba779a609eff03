"""The storage manager (paper, sections 2.1 and 5).

Four responsibilities, exactly as the paper lists them:

1. virtualize and control physical storage (pluggable
   :class:`~repro.nest.backends.DataStore` backends);
2. directly execute non-transfer requests (directory and metadata
   operations run synchronously -- they take "on the order of
   milliseconds" -- under a lock, so the dispatcher can serialize them
   trivially);
3. implement and enforce access control (AFS-style ACLs over ClassAd
   collections, :mod:`repro.nest.acl`), across *all* protocols;
4. manage guaranteed storage space as lots (:mod:`repro.nest.lots`).

Data transfers are *approved* here (permission + lot/space checks) and
then executed asynchronously by the transfer manager: ``approve_get``/
``approve_put`` return tickets carrying the backend stream.  A PUT's
stream writes a staged file; its settlement commits it -- one
``put_commit`` record, durable before the staged file is renamed over
the path -- so until then every reader sees the file from before it.
"""

from __future__ import annotations

import errno as _errno
import functools
from collections import Counter
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.nest.acl import AccessControl, AclError, Rights, default_acl
from repro.nest.backends import DataStore, MemoryStore, staged_name
from repro.nest.lots import Lot, LotError, LotManager, keep, restore
from repro.obs import spans as _spans
from repro.obs.metrics import MetricsRegistry
# StorageError and TransferTicket live beside the sessions that catch
# and settle them; the manager's callers still import them from here.
from repro.protocols.common import (
    Request,
    RequestType,
    Response,
    Status,
    StorageError,
    TransferTicket,
)


@dataclass
class DirNode:
    """A directory: children plus its ACL."""

    name: str
    acl: AccessControl
    children: dict[str, "DirNode | FileNode"] = field(default_factory=dict)


@dataclass
class FileNode:
    """A file's metadata; bytes live in the backend."""

    name: str
    owner: str
    size: int = 0


def _split(path: str) -> list[str]:
    return [p for p in path.split("/") if p]


def move_bytes(store: DataStore, node: "DirNode | FileNode", path: str,
               new_path: str) -> None:
    """Carry ``node``'s backing bytes -- one file's, or those of every
    file under a directory -- from ``path`` to ``new_path``, one
    ``store.rename`` per file.  Idempotent, so recovery can finish a
    move a crash cut short: a file whose old copy is gone has moved."""
    if isinstance(node, DirNode):
        for name, child in node.children.items():
            move_bytes(store, child, f"{path.rstrip('/')}/{name}",
                       f"{new_path.rstrip('/')}/{name}")
    elif store.exists(path):
        store.rename(path, new_path)


def _serialize_dir(node: DirNode) -> dict[str, Any]:
    dirs: dict[str, Any] = {}
    files: dict[str, Any] = {}
    for name, child in node.children.items():
        if isinstance(child, DirNode):
            dirs[name] = _serialize_dir(child)
        else:
            files[name] = {"owner": child.owner, "size": child.size}
    return {"acl": [[s, r] for s, r in node.acl.listing()],
            "dirs": dirs, "files": files}


def _deserialize_dir(name: str, data: dict[str, Any],
                     groups: dict[str, set[str]]) -> DirNode:
    acl = AccessControl(groups=groups)
    for subject, rights in data.get("acl", []):
        acl.set_entry(subject, Rights.parse(rights))
    node = DirNode(name=name, acl=acl)
    for child_name, child in data.get("dirs", {}).items():
        node.children[child_name] = _deserialize_dir(child_name, child, groups)
    for child_name, meta in data.get("files", {}).items():
        node.children[child_name] = FileNode(
            name=child_name, owner=meta.get("owner", ""),
            size=int(meta.get("size", 0)))
    return node


class _StorageOp:
    """One storage operation's scope (:meth:`StorageManager._op`): a
    ``storage`` child span under whatever request is being traced, the
    op/outcome count, and -- for the outermost op on this thread -- the
    journal-durability wait on the way out, then the journal's op-exit
    hook (``after_op``: the periodic snapshot).

    Callers stack it *outside* the lock (``with self._op(..),
    self._lock:``), so the durability wait runs after the lock is
    released -- the other half of the journal's group-commit split.  An
    op that touches the backing store waits earlier, under the lock
    (:meth:`StorageManager._await_durable`), or touches it only after
    this scope closes; either way every record of the op has its byte
    effect by the time the hook runs.  A failed wait has undone the
    op's records; it ends the span as an error and counts the op with
    its :class:`StorageError` status, like a failure inside the body,
    and takes no snapshot."""

    __slots__ = ("manager", "op", "span", "outermost")

    def __init__(self, manager: "StorageManager", op: str, path: str):
        self.manager = manager
        self.op = op
        self.span = _spans.maybe_span("storage", op=op, path=path)

    def __enter__(self) -> None:
        local = self.manager._local
        self.outermost = getattr(local, "waits", None) is None
        if self.outermost:
            local.waits = []
        self.span.__enter__()

    def __exit__(self, exc_type, exc, tb) -> None:
        manager = self.manager
        try:
            if exc is None and self.outermost:
                manager._await_durable()
                if manager._journal is not None:
                    manager._journal.after_op()
        except BaseException as late:
            exc = late
            raise
        finally:
            self.span.__exit__(type(exc) if exc is not None else None,
                               exc, None)
            if self.outermost:
                manager._local.waits = None
            ops = manager._m_ops
            if ops is not None:
                if exc is None:
                    ops.inc(op=self.op, outcome="ok")
                elif isinstance(exc, StorageError):
                    ops.inc(op=self.op, outcome=exc.status.value)


class StorageManager:
    """Namespace + ACLs + lots over a physical-storage backend."""

    def __init__(
        self,
        store: DataStore | None = None,
        capacity_bytes: int = 10 * (1 << 30),
        clock: Callable[[], float] = time.time,
        require_lots: bool = False,
        lot_enforcement: str = "quota",
        reclaim_policy: str = "expired-first",
        anonymous_rights: str = "rl",
        invalidate: Callable[[str], None] | None = None,
        registry: MetricsRegistry | None = None,
        heat=None,
    ):
        self.store = store if store is not None else MemoryStore()
        self.clock = clock
        #: Called with every path whose identity dies (delete, rename
        #: source, rmdir, lot reclaim) so path-keyed caches -- the NFS
        #: file-handle registry above all -- can drop stale entries.
        self.invalidate = invalidate or (lambda path: None)
        #: When True (the paper's deployment), writes require an active
        #: lot; when False, writes are charged only against raw space.
        self.require_lots = require_lots
        self.groups: dict[str, set[str]] = {}
        self.anonymous_rights = anonymous_rights
        self.root = DirNode(
            name="/", acl=default_acl("admin", self.groups, anonymous_rights)
        )
        # Anyone may create entries at the root by default; tighten via Chirp.
        self.root.acl.set_entry("*", Rights.parse("rli"))
        self.lots = LotManager(
            capacity_bytes,
            clock=clock,
            enforcement=lot_enforcement,
            reclaim_policy=reclaim_policy,
            groups=self.groups,
        )
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        #: optional per-file access-heat tracker (repro.tier.heat);
        #: every approved read feeds it so tiering and autoscaling see
        #: the same demand signal.
        self.heat = heat
        self._lock = threading.RLock()
        #: raw bytes approved puts hold in reserve until they settle.
        self._reserved = 0
        #: the metadata journal (set via :meth:`set_journal`); None
        #: means the appliance runs memory-only, exactly as before.
        self._journal = None
        #: per-thread list of ``(seq, pre-images)`` the op in flight
        #: enqueued; non-None only between _op entry and exit.
        self._local = threading.local()
        self._m_ops = None
        self._m_denied = None
        if registry is not None:
            self._m_ops = registry.counter(
                "nest_storage_ops_total",
                "Storage-manager operations, by op and outcome.",
                labelnames=("op", "outcome"), max_series=128)
            self._m_denied = registry.counter(
                "nest_acl_denials_total",
                "Requests refused by an ACL check, by missing right.",
                labelnames=("right",))
            self.lots.register_metrics(registry)

    # ------------------------------------------------------------------
    # durability wiring (see repro.durability)
    # ------------------------------------------------------------------
    def set_journal(self, journal) -> None:
        """Bind the metadata journal -- an object with
        ``record_async(rtype, **fields) -> seq``, ``wait_durable(seq)``
        and the op-exit hook ``after_op()`` (a
        :class:`~repro.durability.DurabilityManager`), or None.  Lot
        mutations are routed through :meth:`_emit` too, so a journal
        failure surfaces as one typed :class:`StorageError`
        everywhere.

        Apply, then journal: every mutation reaches memory and the
        journal together, through :meth:`_commit`.  Write-ahead rule:
        a mutation's records are durable before it is acknowledged
        *and* before the backing store is touched.
        Ops enqueue while holding the storage lock and wait in
        :meth:`_op`'s exit, after the lock is released, so concurrent
        mutators share one group-commit flush; an op that moves or
        drops backing bytes waits first (:meth:`_await_durable`).
        """
        self._journal = journal
        self.lots.journal = self._emit if journal is not None else None

    def _emit(self, rtype: str, fields: dict[str, Any], undo: list) -> None:
        """Enqueue one applied mutation in the bound journal, its
        pre-images beside its seq: into the running op's wait list or,
        outside an :meth:`_op` scope, waiting for it at once."""
        seq = self._journal.record_async(rtype, **fields)
        waits = getattr(self._local, "waits", None)
        if waits is None:
            self._await_durable([(seq, undo)])
        else:
            waits.append((seq, undo))

    def _commit(self, rtype: str, **fields) -> None:
        """Apply one durable mutation through :meth:`apply_record`, then
        journal it (:meth:`_emit`).  Crash replay calls the same
        ``apply_record``, so a record means one thing live and after a
        restart; and because the change is in memory before its record
        is handed a seq, a snapshot covering that seq holds it.  With a
        journal bound, the apply keeps the pre-image of every slot the
        record writes, for :meth:`_await_durable` to put back."""
        rec = {"type": rtype, **fields}
        if self._journal is None:
            self.apply_record(rec)
            return
        undo: list = []
        self.apply_record(rec, undo)
        self._emit(rtype, fields, undo)

    def apply_record(self, rec: dict[str, Any],
                     undo: list | None = None) -> bool:
        """Apply one journal record -- committed live, keeping the
        pre-image of each slot it writes in ``undo``, or replayed after
        a crash (no ACL or space checks: the live verb made them before
        committing).  Lot records go to the lot manager.  True when the
        type was a storage or lot record."""
        handler = getattr(self, "_r_" + str(rec.get("type")), None)
        if handler is None:
            return self.lots.apply_record(rec, undo)
        handler(rec, undo)
        return True

    def _await_durable(self, waits: list | None = None) -> None:
        """Block until every record the running op enqueued (or
        ``waits``) is on disk.  :meth:`_op`'s exit calls it after
        ``self._lock`` is released, so concurrent mutators pile onto one
        group-commit flush; an op about to touch the backing store
        calls it first, under the lock.

        The one place a failed flush surfaces, and the one undo: the
        op's pre-images go back, newest first, under the lock, and the
        failure degrades into a typed response (``ENOSPC`` to the
        protocol's no-space error, anything else to a server error)."""
        if waits is None:
            waits = getattr(self._local, "waits", None)
            if not waits:
                return
            self._local.waits = []
        # Every seq is waited for, even past a failure: the journal
        # keeps a failed flush's error for each seq until its wait.
        failure = None
        for seq, _undo in waits:
            try:
                self._journal.wait_durable(seq)
            except OSError as exc:
                failure = failure or exc
        if failure is not None:
            with self._lock:
                for _seq, undo in reversed(waits):
                    restore(undo)
            raise self._journal_failure(failure) from failure

    @staticmethod
    def _journal_failure(exc: OSError) -> StorageError:
        status = (Status.NO_SPACE if exc.errno == _errno.ENOSPC
                  else Status.SERVER_ERROR)
        return StorageError(
            status, f"metadata journal append failed: {exc}")

    def serialize_state(self) -> dict[str, Any]:
        """A JSON-able snapshot of all durable metadata: the whole
        namespace with per-directory ACLs, groups, accounting, lots."""
        with self._lock:
            return {
                "root": _serialize_dir(self.root),
                "groups": {name: sorted(members)
                           for name, members in self.groups.items()},
                "used_bytes": self.used_bytes,
                "lots": self.lots.serialize(),
            }

    def install_state(self, state: dict[str, Any]) -> None:
        """Replace in-memory metadata with a snapshot's.  The shared
        ``groups`` dict is mutated in place -- the lot manager and
        every ACL hold references to the same object."""
        with self._lock:
            self.groups.clear()
            for name, members in state.get("groups", {}).items():
                self.groups[name] = set(members)
            self.root = _deserialize_dir("/", state.get("root", {}),
                                         self.groups)
            self.used_bytes = int(state.get("used_bytes", 0))
            self.lots.restore(state.get("lots", {}))

    def _op(self, op: str, path: str = "") -> _StorageOp:
        """One storage operation's telemetry and durability scope (see
        :class:`_StorageOp`)."""
        return _StorageOp(self, op, path)

    # ------------------------------------------------------------------
    # namespace internals
    # ------------------------------------------------------------------
    def _walk_dir(self, parts: list[str]) -> DirNode:
        node = self.root
        for part in parts:
            child = node.children.get(part)
            if child is None:
                raise StorageError(Status.NOT_FOUND, "/".join(parts))
            if not isinstance(child, DirNode):
                raise StorageError(Status.NOT_DIR, part)
            node = child
        return node

    def _parent_and_name(self, path: str) -> tuple[DirNode, str]:
        parts = _split(path)
        if not parts:
            raise StorageError(Status.BAD_REQUEST, "empty path")
        return self._walk_dir(parts[:-1]), parts[-1]

    def _lookup(self, path: str) -> "DirNode | FileNode":
        return self._resolve(path)[0]

    def _resolve(self, path: str) -> tuple["DirNode | FileNode",
                                           AccessControl]:
        """One walk: the node at ``path`` and the ACL governing it --
        its own for a directory, its parent directory's for a file.
        Raises NOT_FOUND (or NOT_DIR for a file mid-path)."""
        parts = _split(path)
        if not parts:
            return self.root, self.root.acl
        parent = self._walk_dir(parts[:-1])
        node = parent.children.get(parts[-1])
        if node is None:
            raise StorageError(Status.NOT_FOUND, path)
        if isinstance(node, DirNode):
            return node, node.acl
        return node, parent.acl

    def _check(self, acl: AccessControl, user: str, letter: str) -> None:
        if not acl.allows(user, letter):
            if self._m_denied is not None:
                self._m_denied.inc(right=letter)
            _spans.annotate("acl_denied", 1)
            raise StorageError(Status.DENIED, f"{user} lacks {letter!r}")

    def create_lot(self, owner: str, capacity: int, duration: float,
                   volatile: bool = False) -> Lot:
        """Create a lot in one ``lot_create`` record
        (:meth:`LotManager.lot_record
        <repro.nest.lots.LotManager.lot_record>`) that also drops each
        file whose best-effort charges it reclaimed and that no lot
        backs any more; their bytes go once the record is durable.  An
        in-flight put's reservation has no file to lose: its commit
        charges what was taken again."""
        with self._lock:
            rec = self.lots.lot_record(owner, capacity, duration, volatile)
            taken = Counter(path for _, path, _ in rec["reclaimed"])
            dropped = [path for path, n in taken.items()
                       if n == len(self.lots.charges_of(path))
                       and self._file(path) is not None]
            self._commit("lot_create", dropped=dropped, **rec)
            if dropped:
                self._await_durable()
                for path in dropped:
                    self.store.delete(path)
                    self.invalidate(path)
            return self.lots.lots[rec["lot_id"]]

    # ------------------------------------------------------------------
    # metadata operations (synchronous; paper section 2.1)
    # ------------------------------------------------------------------
    def mkdir(self, user: str, path: str) -> None:
        """Create a directory; requires insert on the parent."""
        with self._lock:
            parent, name = self._parent_and_name(path)
            self._check(parent.acl, user, "i")
            if name in parent.children:
                raise StorageError(Status.EXISTS, path)
            self._commit("mkdir", user=user, path=path)

    def rmdir(self, user: str, path: str) -> None:
        """Remove an empty directory; requires delete on the parent."""
        with self._lock:
            parent, name = self._parent_and_name(path)
            self._check(parent.acl, user, "d")
            node = parent.children.get(name)
            if node is None:
                raise StorageError(Status.NOT_FOUND, path)
            if isinstance(node, FileNode):
                raise StorageError(Status.NOT_DIR, path)
            if node.children:
                raise StorageError(Status.NOT_EMPTY, path)
            self._commit("rmdir", path=path)
            self.invalidate(path)

    def listdir(self, user: str, path: str) -> list[dict[str, Any]]:
        """Directory listing; requires lookup."""
        with self._lock:
            node = self._lookup(path)
            if isinstance(node, FileNode):
                raise StorageError(Status.NOT_DIR, path)
            self._check(node.acl, user, "l")
            out = []
            for name, child in sorted(node.children.items()):
                if isinstance(child, DirNode):
                    out.append({"name": name, "type": "dir", "size": 0, "owner": ""})
                else:
                    out.append({"name": name, "type": "file", "size": child.size,
                                "owner": child.owner})
            return out

    def stat(self, user: str, path: str) -> dict[str, Any]:
        """Metadata for one entry; requires lookup on the parent."""
        with self._lock:
            node, acl = self._resolve(path)
            self._check(acl, user, "l")
            if isinstance(node, DirNode):
                return {"size": 0, "type": "dir", "owner": ""}
            return {"size": node.size, "type": "file", "owner": node.owner}

    def delete(self, user: str, path: str) -> None:
        """Remove a file; requires delete on the parent."""
        with self._lock:
            parent, name = self._parent_and_name(path)
            self._check(parent.acl, user, "d")
            node = parent.children.get(name)
            if node is None:
                raise StorageError(Status.NOT_FOUND, path)
            if isinstance(node, DirNode):
                raise StorageError(Status.IS_DIR, path)
            self._commit("delete", path=path)
            self._await_durable()
            self.store.delete(path)
            self.invalidate(path)

    def rename(self, user: str, path: str, new_path: str) -> None:
        """Rename a file, or a directory with everything under it;
        requires modify on the old parent and insert on the new."""
        with self._lock:
            parent, name = self._parent_and_name(path)
            self._check(parent.acl, user, "m")
            node = parent.children.get(name)
            if node is None:
                raise StorageError(Status.NOT_FOUND, path)
            new_parent, new_name = self._parent_and_name(new_path)
            self._check(new_parent.acl, user, "i")
            if new_name in new_parent.children:
                raise StorageError(Status.EXISTS, new_path)
            if _split(new_path)[:len(_split(path))] == _split(path):
                # It would hang the directory under itself, detached:
                # neither name would resolve afterwards.
                raise StorageError(Status.BAD_REQUEST,
                                   f"{new_path} is inside {path}")
            # Durable before the store rename: if a crash cuts it,
            # replay finishes it (StorageReplayer.finish_moves).
            self._commit("rename", path=path, new_path=new_path)
            self._await_durable()
            move_bytes(self.store, node, path, new_path)
            # The old name no longer resolves (and for directories the
            # whole old subtree died): stale handles must not survive.
            self.invalidate(path)

    def exists(self, path: str) -> bool:
        """True if the path names a file or directory."""
        with self._lock:
            try:
                self._lookup(path)
                return True
            except StorageError:
                return False

    # ------------------------------------------------------------------
    # ACL operations (Chirp-only on the wire, enforced everywhere)
    # ------------------------------------------------------------------
    def acl_set(self, user: str, path: str, subject: str, rights: str) -> None:
        """Change a directory's ACL; requires admin there."""
        with self._lock:
            node = self._lookup(path)
            if isinstance(node, FileNode):
                raise StorageError(Status.NOT_DIR, path)
            self._check(node.acl, user, "a")
            try:
                self._commit("acl_set", path=path, subject=subject,
                             rights=str(Rights.parse(rights)))
            except AclError as exc:
                raise StorageError(Status.BAD_REQUEST, str(exc)) from exc

    def acl_get(self, user: str, path: str) -> list[tuple[str, str]]:
        """Read a directory's ACL; requires lookup."""
        with self._lock:
            node = self._lookup(path)
            if isinstance(node, FileNode):
                raise StorageError(Status.NOT_DIR, path)
            self._check(node.acl, user, "l")
            return node.acl.listing()

    def add_group(self, name: str, members: set[str]) -> None:
        """Define or replace a user group."""
        with self._lock:
            self._commit("group_set", name=name, members=sorted(members))

    # ------------------------------------------------------------------
    # transfer approval (paper: storage manager synchronously approves,
    # transfer manager then moves the data asynchronously)
    # ------------------------------------------------------------------
    def approve_get(self, user: str, path: str) -> TransferTicket:
        """Authorize a whole-file read; returns the source ticket.

        A tiered backend may recall the file's bytes from the cold
        tier inside ``open_read`` (recall on miss); the journal those
        transitions ride is reentrant-safe under our lock.
        """
        with self._op("approve_get", path), self._lock:
            node, acl = self._resolve(path)
            if isinstance(node, DirNode):
                raise StorageError(Status.IS_DIR, path)
            self._check(acl, user, "r")
            self._record_heat(path, node.size)
            return TransferTicket(
                path=path, user=user, size=node.size,
                stream=self.store.open_read(path), is_write=False,
            )

    def check_get(self, user: str, path: str) -> int:
        """The checks of :meth:`approve_get` for a model that moves no
        bytes: resolve, IS_DIR, the read right; returns the file's
        size.  Refuses with the same statuses, but opens no stream and
        counts no op, span or ACL check."""
        with self._lock:
            node, acl = self._resolve(path)
            if isinstance(node, DirNode):
                raise StorageError(Status.IS_DIR, path)
            if "r" not in acl.rights_of(user):
                raise StorageError(Status.DENIED, f"{user} lacks 'r'")
            return node.size

    def approve_put(self, user: str, path: str, length: int) -> TransferTicket:
        """Authorize a whole-file write of ``length`` bytes.

        Reserves the growth over the file's current size -- raw space,
        and lot space when lots are required -- so the guarantee holds
        before any data moves, and opens a stream to a staged file of
        its own.  Nothing in the namespace changes until the ticket
        settles (:meth:`_settle_put`), and the approval journals
        nothing: its lot reservation is charged in memory under the
        staged name, which no DELETE or RENAME of the path reaches and
        no restart keeps (the PUT dies with the process), and the
        commit's record carries what the file is charged.
        """
        staged = staged_name(path)
        with self._op("approve_put", path), self._lock:
            parent, name = self._parent_and_name(path)
            existing = parent.children.get(name)
            if isinstance(existing, DirNode):
                raise StorageError(Status.IS_DIR, path)
            self._check(parent.acl, user, "i" if existing is None else "w")
            declared = max(0, length)
            growth = max(0, declared - (existing.size if existing else 0))
            self._check_space(growth)
            self._charge_lots(self.lots.charge, user, staged, growth)
            self._reserved += growth
        settle = functools.partial(self._settle_put, path, staged, growth)
        try:
            stream = self.store.open_write(staged)
        except BaseException:
            # A put whose stream never opened lands nothing.
            settle(None, 0)
            raise
        return TransferTicket(
            path=path, user=user, size=declared, stream=stream,
            is_write=True, on_settle=settle,
        )

    def approve_write(self, user: str, path: str, offset: int, length: int) -> TransferTicket:
        """Authorize a block write (NFS); creates the file if needed."""
        with self._op("approve_write", path), self._lock:
            parent, name = self._parent_and_name(path)
            existing = parent.children.get(name)
            if isinstance(existing, DirNode):
                raise StorageError(Status.IS_DIR, path)
            self._check(parent.acl, user, "i" if existing is None else "w")
            size = existing.size if existing is not None else 0
            growth = max(0, offset + length - size)
            # A refused charge leaves no file behind: the node and its
            # charge are made by the one record, as replay makes them.
            self._check_space(growth)
            charges = self._charge_lots(self.lots.plan_charge, user, path,
                                        growth)
            self._commit("write", user=user, path=path, size=size + growth,
                         **self._charged(charges))
        stream = self.store.open_update(path)
        stream.seek(offset)
        return TransferTicket(
            path=path, user=user, size=length, stream=stream,
            is_write=True, offset=offset,
        )

    def approve_read(self, user: str, path: str, offset: int, length: int) -> TransferTicket:
        """Authorize a block read (NFS)."""
        with self._op("approve_read", path), self._lock:
            node, acl = self._resolve(path)
            if isinstance(node, DirNode):
                raise StorageError(Status.IS_DIR, path)
            self._check(acl, user, "r")
            length = max(0, min(length, node.size - offset))
            self._record_heat(path, length)
            stream = self.store.open_read(path)
            stream.seek(offset)
            return TransferTicket(
                path=path, user=user, size=length, stream=stream,
                is_write=False, offset=offset,
            )

    def _record_heat(self, path: str, nbytes: int) -> None:
        if self.heat is not None:
            self.heat.record(path, nbytes)

    def _check_space(self, growth: int) -> None:
        """Refuse ``growth`` more bytes the raw space cannot hold."""
        if growth > 0 and growth > (self.capacity_bytes - self.used_bytes
                                    - self._reserved):
            raise StorageError(Status.NO_SPACE, "filesystem full")

    def _charge_lots(self, charge, user: str, path: str,
                     nbytes: int) -> dict[str, int]:
        """When lots are required, ``charge`` (the lot manager's
        ``charge``, or ``plan_charge`` for a record to carry) ``nbytes``
        for ``path`` to the user's lots, refusing with NO_SPACE."""
        if not (self.require_lots and nbytes > 0):
            return {}
        try:
            return charge(user, path, nbytes)
        except LotError as exc:
            raise StorageError(Status.NO_SPACE, str(exc)) from exc

    def _charged(self, charges: dict[str, int]) -> dict[str, Any]:
        """A record's fields for the lot ``charges`` it adds to its
        file."""
        return {"charges": charges, "last_used": self.clock()} if charges \
            else {}

    def _settle_put(self, path: str, staged: str, reserved: int,
                    ticket: TransferTicket | None, actual: int) -> None:
        """Settle one approved put: commit its staged bytes as the file
        (:meth:`_commit_put`).  A put that does not land -- aborted,
        its stream discarded or never opened (no ticket), or refused or
        undone at its commit -- gives back the reservation its approval
        took, in memory only, as it was taken, and leaves no staged
        bytes."""
        with self._op("commit_put", path), self._lock:
            self._reserved -= reserved
            if ticket is None or ticket.aborted:
                self.lots.release(staged)
                return
            try:
                self._commit_put(ticket.user, path, staged, actual, reserved)
            except StorageError:
                self.lots.release(staged)
                self.store.delete(staged)
                raise

    def _commit_put(self, user: str, path: str, staged: str, size: int,
                    reserved: int) -> None:
        """Make the ``size`` bytes staged under ``staged`` the file at
        ``path``: the one place a put's bytes become the file.

        Growth the approval did not reserve is taken out of the raw
        space, and growth the staged name's lot charges no longer cover
        (an under-declared put, or a reservation a lot reclaim took) out
        of the user's lots; a put whose directory went, or whose user
        has no room left, is refused here.  One ``put_commit`` record
        moves the staged name's charges to the file, or gives back what
        a shrinking overwrite frees; it is durable before the store
        renames the staged file over the path -- the call a RENAME's
        bytes move by, which replay redoes the same way.  Whichever put
        commits last wins both the bytes and the size."""
        parent, name = self._parent_and_name(path)
        node = parent.children.get(name)
        if isinstance(node, DirNode):
            raise StorageError(Status.IS_DIR, path)
        growth = size - (node.size if node is not None else 0)
        if growth > reserved:
            self._check_space(growth)
        held = sum(self.lots.charges_of(staged).values())
        self._charge_lots(self.lots.charge, user, staged, growth - held)
        charges = self.lots.charges_of(staged)
        release = sum(charges.values()) - growth
        self._commit("put_commit", path=path, size=size, user=user,
                     staged=staged, **self._charged(charges),
                     **({"release": release} if release > 0 else {}))
        self._await_durable()
        self.store.rename(staged, path)

    # ------------------------------------------------------------------
    # journal records: one apply function per type, run by _commit on
    # the live path and by apply_record during crash replay
    # ------------------------------------------------------------------
    def _file(self, path: str) -> "tuple[DirNode, str, FileNode] | None":
        """The file at ``path`` with its parent and name; None when
        there is none, its parent directory gone included."""
        try:
            parent, name = self._parent_and_name(path)
        except StorageError:
            return None
        node = parent.children.get(name)
        return (parent, name, node) if isinstance(node, FileNode) else None

    def _r_mkdir(self, rec: dict, undo: list | None) -> None:
        parent, name = self._parent_and_name(rec["path"])
        if name not in parent.children:
            keep(undo, parent.children, name)
            parent.children[name] = DirNode(
                name=name, acl=default_acl(rec.get("user", "admin"),
                                           self.groups, self.anonymous_rights))

    def _r_rmdir(self, rec: dict, undo: list | None) -> None:
        parent, name = self._parent_and_name(rec["path"])
        if isinstance(parent.children.get(name), DirNode):
            keep(undo, parent.children, name)
            del parent.children[name]

    def _drop_file(self, path: str, undo: list | None) -> None:
        found = self._file(path)
        if found is not None:
            parent, name, node = found
            keep(undo, vars(self), "used_bytes")
            keep(undo, parent.children, name)
            self.used_bytes -= node.size
            del parent.children[name]

    def _r_delete(self, rec: dict, undo: list | None) -> None:
        self._drop_file(rec["path"], undo)
        self.lots.release(rec["path"], None, undo)

    def _r_lot_create(self, rec: dict, undo: list | None) -> None:
        self.lots._r_lot_create(rec, undo)
        for path in rec.get("dropped", ()):
            self._drop_file(path, undo)

    def _r_rename(self, rec: dict, undo: list | None) -> None:
        parent, name = self._parent_and_name(rec["path"])
        node = parent.children.get(name)
        if node is None:
            return
        new_parent, new_name = self._parent_and_name(rec["new_path"])
        keep(undo, parent.children, name)
        del parent.children[name]
        keep(undo, vars(node), "name")
        node.name = new_name
        keep(undo, new_parent.children, new_name)
        new_parent.children[new_name] = node
        self.lots.rename_charges(rec["path"], rec["new_path"], undo)

    def _r_acl_set(self, rec: dict, undo: list | None) -> None:
        node = self._lookup(rec["path"])
        if isinstance(node, DirNode):
            # A new ACL, so the old one is whole for the undo to put
            # back, its rights cache included.
            acl = node.acl.copy()
            acl.set_entry(rec["subject"], Rights.parse(rec["rights"]))
            keep(undo, vars(node), "acl")
            node.acl = acl

    def _r_group_set(self, rec: dict, undo: list | None) -> None:
        keep(undo, self.groups, rec["name"])
        self.groups[rec["name"]] = set(rec.get("members", []))

    def _write_file(self, rec: dict, undo: list | None,
                    size: int) -> None:
        """Make the file ``rec`` names if it is not there, size it, and
        add the lot ``charges`` the record carries."""
        parent, name = self._parent_and_name(rec["path"])
        node = parent.children.get(name)
        if not isinstance(node, FileNode):
            keep(undo, parent.children, name)
            node = parent.children[name] = FileNode(
                name=name, owner=rec.get("user", ""))
        keep(undo, vars(self), "used_bytes")
        keep(undo, vars(node), "size")
        self.used_bytes += size - node.size
        node.size = size
        self.lots.add_charges(rec["path"], rec.get("charges", {}),
                              rec.get("last_used"), undo)

    def _r_put_commit(self, rec: dict, undo: list | None) -> None:
        # The staged name's reservation is the commit's to move; on
        # replay it is gone already, unless a snapshot caught it.
        self.lots.release(rec["staged"], None, undo)
        self._write_file(rec, undo, int(rec["size"]))
        if rec.get("release"):
            self.lots.release(rec["path"], int(rec["release"]), undo)

    def _r_write(self, rec: dict, undo: list | None) -> None:
        node = self._file(rec["path"])
        size = node[2].size if node is not None else 0
        self._write_file(rec, undo, max(size, int(rec["size"])))

    # ------------------------------------------------------------------
    # request execution (the dispatcher's synchronous path)
    # ------------------------------------------------------------------
    def execute(self, request: Request) -> Response:
        """Execute one non-transfer request synchronously."""
        handler = self._EXECUTORS.get(request.rtype)
        if handler is None:
            return Response(Status.BAD_REQUEST,
                            message=f"storage manager cannot execute {request.rtype}")
        try:
            with self._op(request.rtype.value, request.path):
                data = handler(self, request)
            return Response(Status.OK, data=data)
        except StorageError as exc:
            return Response(exc.status, message=exc.message)
        except LotError as exc:
            return Response(Status.NO_SPACE, message=str(exc))

    def _exec_lot_create(self, request: Request):
        if request.user == "anonymous":
            raise StorageError(Status.NOT_AUTHENTICATED,
                               "lot creation requires authentication")
        owner = request.params.get("owner") or request.user
        if owner.startswith("group:"):
            # Group lots: any member may create one for their group.
            members = self.groups.get(owner[len("group:"):], set())
            if request.user not in members and not self.root.acl.allows(
                request.user, "a"
            ):
                raise StorageError(
                    Status.DENIED, f"{request.user} not in {owner}"
                )
        elif owner != request.user:
            # Default lots for other users (including "anonymous") are
            # an administrator feature (paper, §5: "when system
            # administrators grant access to a NeST, they can
            # simultaneously make a set of default lots for users").
            self._check(self.root.acl, request.user, "a")
        lot = self.create_lot(
            owner=owner,
            capacity=int(request.params.get("capacity", 0)),
            duration=float(request.params.get("duration", 0)),
        )
        return lot.describe()

    def _exec_lot_delete(self, request: Request):
        orphans = self.lots.delete_lot(request.params.get("lot_id", ""),
                                       owner=request.user)
        # Terminating a lot does not delete data (best-effort semantics
        # apply only on expiry); orphan paths are reported to the caller.
        return {"orphans": orphans}

    def _exec_lot_renew(self, request: Request):
        lot = self.lots.renew(
            request.params.get("lot_id", ""),
            float(request.params.get("duration", 0)),
            owner=request.user,
        )
        return lot.describe()

    #: Request type -> executor for :meth:`execute`, built once.  The
    #: lambdas look their method up on ``self`` at call time.
    _EXECUTORS: dict[RequestType, Callable[["StorageManager", Request], Any]] = {
        RequestType.MKDIR: lambda self, r: self.mkdir(r.user, r.path),
        RequestType.RMDIR: lambda self, r: self.rmdir(r.user, r.path),
        RequestType.LIST: lambda self, r: self.listdir(r.user, r.path),
        RequestType.STAT: lambda self, r: self.stat(r.user, r.path),
        RequestType.DELETE: lambda self, r: self.delete(r.user, r.path),
        RequestType.RENAME: lambda self, r: self.rename(
            r.user, r.path, r.params.get("new_path", "")),
        RequestType.ACL_SET: lambda self, r: self.acl_set(
            r.user, r.path, r.params.get("subject", ""),
            r.params.get("rights", "")),
        RequestType.ACL_GET: lambda self, r: self.acl_get(r.user, r.path),
        RequestType.LOT_CREATE: _exec_lot_create,
        RequestType.LOT_DELETE: _exec_lot_delete,
        RequestType.LOT_RENEW: _exec_lot_renew,
        RequestType.LOT_STAT: lambda self, r: self.lots.stat(
            r.params.get("lot_id", "")),
        RequestType.LOT_ATTACH: lambda self, r: self.lots.attach(
            r.params.get("lot_id", ""), r.path, owner=r.user),
        RequestType.LOT_LIST: lambda self, r: self.lots.list_lots(owner=r.user),
    }
