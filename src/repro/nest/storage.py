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
``approve_put`` return tickets carrying the backend stream.
"""

from __future__ import annotations

import errno as _errno
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.nest.acl import AccessControl, AclError, Rights, default_acl
from repro.nest.backends import DataStore, MemoryStore
from repro.nest.lots import LotError, LotManager
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
    journal-durability wait on the way out.

    Callers stack it *outside* the lock (``with self._op(..),
    self._lock:``), so the durability wait runs after the lock is
    released -- the other half of the journal's group-commit split.  A
    failed wait ends the span as an error and counts the op with its
    :class:`StorageError` status, like a failure inside the body."""

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
            on_reclaim=self._reclaim_file,
            groups=self.groups,
        )
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        #: optional per-file access-heat tracker (repro.tier.heat);
        #: every approved read feeds it so tiering and autoscaling see
        #: the same demand signal.
        self.heat = heat
        self._lock = threading.RLock()
        #: metadata-journal sink (set via :meth:`set_journal`); None
        #: means the appliance runs memory-only, exactly as before.
        self._journal: Callable[..., Any] | None = None
        self._journal_async: Callable[..., int] | None = None
        self._journal_wait: Callable[[int], None] | None = None
        #: per-thread list of journal seqs enqueued by the op in
        #: flight; non-None only between _op entry and exit.
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
    def set_journal(self, sink: Callable[..., Any] | None, *,
                    async_sink: Callable[..., int] | None = None,
                    wait_sink: Callable[[int], None] | None = None) -> None:
        """Bind the metadata-journal sink; lot mutations are routed
        through :meth:`_emit` too so a journal failure surfaces as one
        typed :class:`StorageError` everywhere.

        When the split form is bound (``async_sink`` + ``wait_sink``),
        ops *enqueue* records while holding the storage lock and block
        for durability only in :meth:`_op`'s exit, after the lock is
        released -- otherwise the lock serializes every append and
        group commit can never batch.
        """
        self._journal = sink
        self._journal_async = async_sink if sink is not None else None
        self._journal_wait = wait_sink if sink is not None else None
        self.lots.journal = self._emit if sink is not None else None

    def _emit(self, rtype: str, **fields) -> None:
        """Record one durable mutation in the bound journal.

        Inside an :meth:`_op` scope with the split sink bound, this
        only *enqueues* (the op's exit waits for durability after the
        storage lock is gone); elsewhere it appends synchronously.

        A failed append (disk gone, out of space) must not kill the
        connection: it degrades into a typed response -- ``ENOSPC``
        maps to the protocol's no-space error, anything else to a
        server error.  The in-memory mutation has already happened;
        the journal's error counter records the divergence.
        """
        if self._journal is None:
            return
        waits = getattr(self._local, "waits", None)
        try:
            if self._journal_async is not None and waits is not None:
                waits.append(self._journal_async(rtype, **fields))
            else:
                self._journal(rtype, **fields)
        except OSError as exc:
            raise self._journal_failure(exc) from exc

    def _await_durable(self) -> None:
        """Block until every record the finishing op enqueued is on
        disk.  Runs in :meth:`_op`'s exit -- i.e. after ``self._lock``
        is released -- so concurrent mutators pile onto one
        group-commit flush instead of fsyncing one by one."""
        waits = getattr(self._local, "waits", None)
        if not waits or self._journal_wait is None:
            return
        seqs, self._local.waits = list(waits), []
        for seq in seqs:
            try:
                self._journal_wait(seq)
            except OSError as exc:
                raise self._journal_failure(exc) from exc

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

    def _reclaim_file(self, path: str) -> None:
        """Best-effort lot reclamation: delete the file's data + metadata."""
        try:
            parent, name = self._parent_and_name(path)
            node = parent.children.get(name)
            if isinstance(node, FileNode):
                self.used_bytes -= node.size
                del parent.children[name]
        except StorageError:
            pass
        self._emit("file_reclaim", path=path)
        self.store.delete(path)
        self.invalidate(path)

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
            parent.children[name] = DirNode(
                name=name, acl=default_acl(user, self.groups, self.anonymous_rights)
            )
            self._emit("mkdir", user=user, path=path)

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
            del parent.children[name]
            self._emit("rmdir", path=path)
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
            # Journal first: a crash right after leaves an orphan
            # charge, which recovery reconciles; the reverse order
            # would leave a phantom released-but-present file.
            self._emit("delete", path=path)
            self.used_bytes -= node.size
            self.lots.release(path)
            del parent.children[name]
            self.store.delete(path)
            self.invalidate(path)

    def rename(self, user: str, path: str, new_path: str) -> None:
        """Rename within the namespace; requires modify on both parents."""
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
            del parent.children[name]
            node.name = new_name
            new_parent.children[new_name] = node
            self.lots.rename_charges(path, new_path)
            # Journal before moving the bytes: if a crash interrupts
            # the move, replay re-does it from whichever path still
            # holds the data (see StorageReplayer._redo_move).
            self._emit("rename", path=path, new_path=new_path)
            if isinstance(node, FileNode):
                # Move the backing bytes through one pooled buffer.
                from repro.nest.io import copy_stream

                src = self.store.open_read(path)
                dst = self.store.open_write(new_path)
                try:
                    copy_stream(src, dst)
                finally:
                    src.close()
                    dst.close()
                self.store.delete(path)
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
                parsed = Rights.parse(rights)
                node.acl.set_entry(subject, parsed)
            except AclError as exc:
                raise StorageError(Status.BAD_REQUEST, str(exc)) from exc
            self._emit("acl_set", path=path, subject=subject,
                       rights=str(parsed))

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
            self.groups[name] = set(members)
            self._emit("group_set", name=name, members=sorted(members))

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

    def approve_put(self, user: str, path: str, length: int) -> TransferTicket:
        """Authorize a whole-file write of ``length`` bytes.

        Charges lots/space up front so the guarantee holds before any
        data moves; over-declaration is settled back on completion.
        """
        with self._op("approve_put", path), self._lock:
            parent, name = self._parent_and_name(path)
            existing = parent.children.get(name)
            if isinstance(existing, DirNode):
                raise StorageError(Status.IS_DIR, path)
            if existing is None:
                self._check(parent.acl, user, "i")
            else:
                self._check(parent.acl, user, "w")
            declared = max(0, length)
            old_size = existing.size if existing else 0
            self._charge(user, path, declared - old_size)
            if existing is None:
                parent.children[name] = FileNode(name=name, owner=user, size=declared)
            else:
                existing.size = declared
            self.used_bytes += declared - old_size
            self._emit("put_begin", user=user, path=path, size=declared,
                       old_size=old_size, existed=existing is not None)
            if declared < old_size:
                # Overwriting with less: the lot gets the shrinkage
                # back now, so its charge tracks the node's size just
                # as used_bytes does; _settle_put corrects from there.
                # Journaled after put_begin: a crash in between leaves
                # an open put for recovery to settle, never a release
                # without its put.
                self.lots.release(path, old_size - declared)
            return TransferTicket(
                path=path, user=user, size=declared,
                stream=self.store.open_write(path), is_write=True,
                on_settle=lambda ticket, actual: self._settle_put(
                    ticket, declared, actual),
            )

    def approve_write(self, user: str, path: str, offset: int, length: int) -> TransferTicket:
        """Authorize a block write (NFS); creates the file if needed."""
        with self._op("approve_write", path), self._lock:
            parent, name = self._parent_and_name(path)
            existing = parent.children.get(name)
            if isinstance(existing, DirNode):
                raise StorageError(Status.IS_DIR, path)
            if existing is None:
                self._check(parent.acl, user, "i")
                existing = FileNode(name=name, owner=user, size=0)
                parent.children[name] = existing
            else:
                self._check(parent.acl, user, "w")
            growth = max(0, offset + length - existing.size)
            self._charge(user, path, growth)
            existing.size += growth
            self.used_bytes += growth
            self._emit("write", user=user, path=path, size=existing.size)
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

    def _charge(self, user: str, path: str, growth: int) -> None:
        if growth <= 0:
            return
        if growth > self.capacity_bytes - self.used_bytes:
            raise StorageError(Status.NO_SPACE, "filesystem full")
        if self.require_lots:
            try:
                self.lots.charge(user, path, growth)
            except LotError as exc:
                raise StorageError(Status.NO_SPACE, str(exc)) from exc

    def _settle_put(self, ticket: TransferTicket, declared: int, actual: int) -> None:
        """Reconcile declared vs actual size after a put completes."""
        with self._op("commit_put", ticket.path), self._lock:
            # The commit record closes the put_begin bracket: recovery
            # treats an unmatched put_begin as an interrupted transfer.
            self._emit("put_commit", path=ticket.path, size=actual)
            if actual == declared:
                return
            try:
                parent, name = self._parent_and_name(ticket.path)
            except StorageError:
                return
            node = parent.children.get(name)
            if not isinstance(node, FileNode):
                return
            delta = actual - declared
            node.size = actual
            self.used_bytes += delta
            if delta < 0:
                self.lots.release(ticket.path, -delta)
            elif self.require_lots:
                # Under-declared: charge the remainder (may raise; the
                # transfer manager reports the failure to the client).
                self.lots.charge(ticket.user, ticket.path, delta)

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
        lot = self.lots.create_lot(
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
