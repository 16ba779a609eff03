#!/usr/bin/env python
"""Data-path lint for ``src/repro``.

Thirteen rules, enforced by AST walk (so docstrings and comments that merely
*mention* a call don't trip them).

Rule 1: no argless ``.read()`` calls.  ``stream.read()`` slurps the entire
remaining stream into one bytes object, so a single large file (or a
malicious length header) balloons resident memory -- exactly the bug
class this repo's zero-copy work removed from the GET/PUT handlers.
Data must move in bounded chunks: ``read(n)``, ``readinto(view)``, or
the pooled helpers in :mod:`repro.nest.io`.

The allowlist names the few files where a whole-file read is the
correct tool because the file is *by construction* small appliance
metadata (the journal, its snapshots), not client data.

Rule 2: a ticket is settled, a transfer is submitted and the gray-box
model is fed in one place only -- the ``ConnectionHandler`` door
(``send``/``receive``/``_move``) in ``nest/handlers.py``.  Any other
mention of ``.settle``, ``transfers.submit`` or ``graybox.observe_*``
in that file, or anywhere under ``protocols/`` (where the sessions
live) or ``jbos/``, is a protocol growing its own copy of the approve
-> move -> settle -> observe sequence, which is how "approved but never
settled" bugs got in.  (``TransferTicket.__exit__`` in
``protocols/common.py`` is the ticket settling itself.)

Rule 3: every stream socket is tuned at birth by the one helper,
``repro.protocols.runtime.tuned``.  A function under ``src/repro`` that
calls ``.accept()`` or ``create_connection(`` must also call
``tuned(``, and ``TCP_NODELAY`` is named nowhere but in that helper.
A listener or dialler that skips it brings back the 44 ms
Nagle/delayed-ACK stall on every reply it writes in two pieces.

Rule 4: one accept loop.  ``repro.protocols.runtime.Acceptor`` is the
only thing under ``src/repro`` that puts a socket into ``.listen(``
(or ``create_server(``) and serves it for a server's lifetime; the FTP/GridFTP data-channel
listeners (PASV/SPAS) are the exception because they accept once,
under ``data_timeout``, and close.  And no function both calls
``.accept()`` and ``continue``s out of a caught ``socket.timeout`` /
``TimeoutError``: that is a loop waking on a timer to look at a flag,
which made an idle appliance wake 30 times a second and ``stop()``
wait out the timer.  A loop that must be stoppable waits on a wake-up
it can be written out of.

Rule 5: the JBOS baseline shares nothing with NeST's managers.  No
module under ``jbos/`` imports ``repro.nest.storage``, ``.transfer``,
``.scheduling``, ``.lots``, ``.acl`` or ``.handlers``: Fig. 3 compares
NeST against daemons that have no storage manager, transfer manager or
scheduler, and the daemons running NeST's protocol sessions must not
quietly acquire one.

Rule 6: one periodic loop.  ``repro.protocols.runtime.Periodic`` is the
only thing under ``src/repro`` that runs ``while not <event>.wait(...)``.
Each hand-copied loop of that shape re-decided the same questions --
does an exception end it, does a zero period spin (``Event.wait(0)``
returns at once), does ``stop()`` join -- and one of them got the last
one wrong.  Periodic work is a ``Periodic``, or a subclass of it.

Rule 7: one journal write site.  In ``durability/journal.py``,
``._file.write(`` and ``_do_fsync(`` appear only in
``MetadataJournal._flush_batch`` and the ``_faulty_write`` helper it
calls.  Group commit is the only way a record reaches the journal
file; a second write path (the record-at-a-time ``append`` that fault
plans once took) is one the crash sweeps test instead of the one
production runs.

Rule 8: one commit site per journaled component.  In ``nest/storage.py``,
``nest/lots.py``, ``replica/catalog.py`` and ``tier/store.py`` the call
to the journal sink (``._emit(`` in storage, ``.journal(`` elsewhere)
appears only in the component's ``_commit``, which applies the record
through ``apply_record`` -- the function crash replay calls -- and then
journals it.  A mutation that journals anywhere else has a second
meaning for its record: live and replayed state drift apart, and a
snapshot taken inside the record's own wait can miss the change.

Rule 9: a simulation has an end.  Outside ``sim/``, an ``Environment(``
call appears only as the context expression of a ``with`` statement,
so the environment is closed -- its suspended processes ended, its
queues dropped -- when the block that reads its result is left.  A
bare ``env = Environment()`` leaves the finished model in a reference
cycle that only the cyclic collector frees, whenever it next runs, and
several finished figures' worth of memory piles up meanwhile.

Rule 10: a snapshot is taken where no record stands without its byte
effect.  Under ``durability/`` and in ``nest/storage.py`` a
``.snapshot(`` call appears only in ``DurabilityManager``'s op-exit
hook (``after_op``, which a storage operation calls once its records
are durable, their byte effects done and the storage lock released),
its ``close`` and its ``recover_into``.  A snapshot taken anywhere
else -- inside a durability wait, say -- can fold a record whose
effect has not happened, and recovery then never redoes it.

Rule 11: no closure per event.  Under ``sim/``, ``simnest/`` and
``models/`` no ``.callbacks.append(`` is handed a ``lambda``.  A model
that made the event knows what should happen when it fires: it
schedules the event itself (``Environment.schedule``) or appends a
bound method, which reads what it needs from its object.  A lambda per
event is an allocation on the hottest path and, when it only succeeds
a second event, a dispatch that does nothing.

Rule 12: a model process sleeps without an event.  Under ``simnest/``
and ``models/`` no ``yield`` hands the kernel an ``env.timeout(...)``
or ``timeout_chain(...)`` call: a process that only waits out a delay
yields the delay itself (``yield d``, or ``yield (d1, d2)`` for
back-to-back delays), which the kernel schedules under the same heap
key with no event to allocate, recycle or call back.
``Environment.timeout`` stays for events that something else waits
on (the link's wake, the gate's idle timer).

Rule 13: one undo site.  In ``nest/storage.py`` and ``nest/lots.py``
no ``_await_durable(`` or ``_commit(`` call sits in the body of a
``try`` whose handler names ``StorageError``.  A failed journal flush
is undone in one place, ``StorageManager._await_durable``, which puts
back the pre-image of every slot the op's records wrote; a verb that
wraps its own commit or wait in a handler is writing a second undo by
hand, which the verbs without one drifted apart from.

Exit status 0 when clean, 1 with one line per violation otherwise.
Usage: ``python scripts/lint_datapath.py`` (from anywhere in the repo).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Files (relative to ``src/repro``) allowed to slurp: these read the
#: appliance's own bounded metadata files, never client data streams.
READ_ALLOWED = {
    "durability/journal.py",   # replay parses the whole journal
    "durability/manager.py",   # epoch file: a few bytes
    "durability/snapshot.py",  # compacted snapshot JSON
}


def _violations(path: Path, rel: str) -> list[str]:
    if rel in READ_ALLOWED:
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "read"
                and not node.args and not node.keywords):
            out.append(
                f"{path}:{node.lineno}: argless .read() slurps the whole "
                "stream -- read bounded chunks (read(n)/readinto) or use "
                "repro.nest.io.copy_stream/stream_crc32")
    return out


#: Rule 2: the files that may touch the data path at all, and in each
#: the class whose named methods (with whatever they nest) may.
HANDLERS = "nest/handlers.py"
DOOR_CLASS = "ConnectionHandler"
DOOR = {"send", "receive", "_move"}
DOORS = {
    HANDLERS: (DOOR_CLASS, DOOR),
    "protocols/common.py": ("TransferTicket", {"__exit__"}),
}
#: ...and the directories whose other files may not.
DOORLESS = ("protocols/", "jbos/")


def _owner_name(node: ast.expr) -> str:
    """``transfers`` for ``self.server.transfers`` or bare ``transfers``
    (of a call's ``func``: the name called)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_datapath(node: ast.Attribute) -> bool:
    owner = _owner_name(node.value)
    return (node.attr == "settle"
            or (owner == "transfers" and node.attr == "submit")
            or (owner == "graybox" and node.attr.startswith("observe_")))


def _inside(tree: ast.AST, cls_name: str, methods: set[str]) -> set[int]:
    """Ids of every node in the named methods of class ``cls_name``
    (with whatever they nest)."""
    allowed: set[int] = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == cls_name:
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and item.name in methods:
                    allowed.update(id(n) for n in ast.walk(item))
    return allowed


def _door_violations(path: Path, door=(DOOR_CLASS, DOOR)) -> list[str]:
    """Data-path mentions in ``path`` outside ``door`` -- a (class,
    method names) pair, or None for a file that has no door."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = _inside(tree, *door) if door else set()
    return [
        f"{path}:{node.lineno}: .{node.attr} outside the "
        f"{DOOR_CLASS} door -- move bytes with self.send/self.receive"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and _is_datapath(node)
        and id(node) not in allowed
    ]


#: Where rule 3's helper lives (relative to ``src/repro``), and its name.
TUNER_FILE = "protocols/runtime.py"
TUNER = "tuned"


def _births_socket(node: ast.Call) -> bool:
    """``x.accept()`` (argless: ``gsi.accept(cert, ...)`` is not a
    socket) or ``[socket.]create_connection(...)``."""
    name = _owner_name(node.func)
    return (name == "create_connection"
            or (name == "accept" and isinstance(node.func, ast.Attribute)
                and not node.args and not node.keywords))


def _scope_of_calls(tree: ast.AST) -> dict[int, ast.AST]:
    """Innermost enclosing def (or the module) of every call: walk defs
    outermost first, so a nested def overwrites its parent's claim."""
    scope_of: dict[int, ast.AST] = {}
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.Module, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            for node in ast.walk(scope):
                if isinstance(node, ast.Call):
                    scope_of[id(node)] = scope
    return scope_of


def _socket_violations(path: Path, rel: str) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    scope_of = _scope_of_calls(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _births_socket(node):
            scope = scope_of[id(node)]
            if not any(isinstance(n, ast.Call)
                       and _owner_name(n.func) == TUNER
                       for n in ast.walk(scope)):
                out.append(
                    f"{path}:{node.lineno}: {_owner_name(node.func)}() without "
                    f"{TUNER}() in the same function -- pass the new "
                    "socket through repro.protocols.runtime.tuned")
        if (rel != TUNER_FILE and isinstance(node, ast.Attribute)
                and node.attr == "TCP_NODELAY"):
            out.append(
                f"{path}:{node.lineno}: TCP_NODELAY outside "
                f"{TUNER_FILE} -- sockets are tuned by {TUNER}() only")
    return out


#: Rule 4: the (file, function) pairs that may call a socket's
#: ``.listen(``: the acceptor, and the one-shot data-channel listeners.
LISTEN_ALLOWED = {
    ("protocols/runtime.py", "listen"),  # Acceptor.listen
    ("protocols/ftp.py", "cmd_pasv"),
    ("protocols/gridftp.py", "cmd_spas"),
}


def _is_socket_listen(node: ast.Call) -> bool:
    """``sock.listen()`` / ``sock.listen(backlog)`` or
    ``[socket.]create_server(...)``; ``Acceptor.listen`` takes an
    address and a callback, so its callers do not count."""
    if _owner_name(node.func) == "create_server":
        return True
    return (isinstance(node.func, ast.Attribute)
            and node.func.attr == "listen"
            and len(node.args) + len(node.keywords) <= 1)


def _catches_timeout(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(n is not None and _owner_name(n) in ("timeout", "TimeoutError")
               for n in names)


def _listener_violations(path: Path, rel: str) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    scope_of = _scope_of_calls(tree)
    polled: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        scope = scope_of[id(node)]
        if (_is_socket_listen(node)
                and (rel, getattr(scope, "name", "")) not in LISTEN_ALLOWED):
            out.append(
                f"{path}:{node.lineno}: {_owner_name(node.func)}() outside "
                "Acceptor -- "
                "serve the listener through "
                "repro.protocols.runtime.Acceptor")
        if (_owner_name(node.func) == "accept" and id(scope) not in polled
                and any(isinstance(h, ast.ExceptHandler)
                        and _catches_timeout(h)
                        and any(isinstance(n, ast.Continue)
                                for n in ast.walk(h))
                        for h in ast.walk(scope))):
            polled.add(id(scope))
            out.append(
                f"{path}:{node.lineno}: accept() polled on a timeout -- "
                "block in a selector beside a wake-up (Acceptor) instead "
                "of waking to look at a flag")
    return out


#: Rule 5: what ``repro.nest`` keeps to itself.
NEST_ONLY = {"storage", "transfer", "scheduling", "lots", "acl", "handlers"}


def _manager_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module] + [f"{node.module}.{alias.name}"
                                       for alias in node.names]
        else:
            continue
        managers = sorted({
            ".".join(module.split(".")[:3]) for module in modules
            if module.startswith("repro.nest.")
            and module.split(".")[2] in NEST_ONLY})
        out.extend(
            f"{path}:{node.lineno}: imports {module} -- the JBOS baseline "
            "shares no manager with NeST" for module in managers)
    return out


#: Rule 6: the one class (and its file) whose body may loop on a wait.
LOOP_FILE = "protocols/runtime.py"
LOOP_CLASS = "Periodic"


def _is_wait_loop(node: ast.AST) -> bool:
    """``while not <x>.wait(...)``."""
    test = getattr(node, "test", None)
    return (isinstance(node, ast.While)
            and isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Call)
            and isinstance(test.operand.func, ast.Attribute)
            and test.operand.func.attr == "wait")


def _loop_violations(path: Path, rel: str) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed: set[int] = set()
    for cls in ast.walk(tree):
        if (rel == LOOP_FILE and isinstance(cls, ast.ClassDef)
                and cls.name == LOOP_CLASS):
            allowed.update(id(n) for n in ast.walk(cls))
    return [
        f"{path}:{node.lineno}: while not .wait() loop outside "
        f"{LOOP_CLASS} -- run periodic work through "
        "repro.protocols.runtime.Periodic"
        for node in ast.walk(tree)
        if _is_wait_loop(node) and id(node) not in allowed
    ]


#: Rule 7: the journal file, and the class and methods that write it.
JOURNAL_FILE = "durability/journal.py"
JOURNAL_WRITERS = ("MetadataJournal", {"_flush_batch", "_faulty_write"})


def _writes_journal(node: ast.Call) -> bool:
    """``<x>._file.write(...)`` or ``[self.]_do_fsync(...)``."""
    func = node.func
    return (_owner_name(func) == "_do_fsync"
            or (isinstance(func, ast.Attribute) and func.attr == "write"
                and _owner_name(func.value) == "_file"))


def _journal_violations(path: Path, rel: str) -> list[str]:
    if rel != JOURNAL_FILE:
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = _inside(tree, *JOURNAL_WRITERS)
    return [
        f"{path}:{node.lineno}: {_owner_name(node.func)}() outside "
        "MetadataJournal._flush_batch -- enqueue with append_async and "
        "let group commit write the record"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _writes_journal(node)
        and id(node) not in allowed
    ]


#: Rule 8: journaled component file -> (its class, its journal sink).
COMMIT_SITES = {
    "nest/storage.py": ("StorageManager", "_emit"),
    "nest/lots.py": ("LotManager", "journal"),
    "replica/catalog.py": ("ReplicaCatalog", "journal"),
    "tier/store.py": ("TieredStore", "journal"),
}


def _commit_violations(path: Path, rel: str) -> list[str]:
    if rel not in COMMIT_SITES:
        return []
    cls, sink = COMMIT_SITES[rel]
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = _inside(tree, cls, {"_commit"})
    return [
        f"{path}:{node.lineno}: .{sink}() outside {cls}._commit -- apply "
        "the record through apply_record and journal it in _commit"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == sink and id(node) not in allowed
    ]


#: Rule 9: the kernel's own package, where environments are made bare.
SIM_DIR = "sim/"


def _environment_violations(path: Path, rel: str) -> list[str]:
    if rel.startswith(SIM_DIR):
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    managed = {id(item.context_expr) for node in ast.walk(tree)
               if isinstance(node, (ast.With, ast.AsyncWith))
               for item in node.items}
    return [
        f"{path}:{node.lineno}: Environment() outside a with statement -- "
        "write `with Environment() as env:` and read the result inside it"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _owner_name(node.func) == "Environment"
        and id(node) not in managed
    ]


#: Rule 10: where a snapshot may be taken -- the file, class and methods.
SNAPSHOT_FILE = "durability/manager.py"
SNAPSHOT_TAKERS = ("DurabilityManager", {"after_op", "close", "recover_into"})


def _snapshot_violations(path: Path, rel: str) -> list[str]:
    if not (rel.startswith("durability/") or rel == "nest/storage.py"):
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = (_inside(tree, *SNAPSHOT_TAKERS) if rel == SNAPSHOT_FILE
               else set())
    return [
        f"{path}:{node.lineno}: .snapshot() outside the op-exit hook -- "
        "count the record and let DurabilityManager.after_op take it"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "snapshot" and id(node) not in allowed
    ]


#: Rule 11: the simulator's packages, where events fire by the million.
CALLBACK_DIRS = ("sim/", "simnest/", "models/")


def _callback_violations(path: Path, rel: str) -> list[str]:
    if not rel.startswith(CALLBACK_DIRS):
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path}:{node.lineno}: a lambda appended to .callbacks -- "
        "schedule the event itself or append a bound method"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "append"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "callbacks"
        and any(isinstance(arg, ast.Lambda) for arg in node.args)
    ]


#: Rule 12: the model packages, whose processes sleep by the million.
SLEEP_DIRS = ("simnest/", "models/")


def _sleep_violations(path: Path, rel: str) -> list[str]:
    if not rel.startswith(SLEEP_DIRS):
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path}:{node.lineno}: a process yields a timeout event -- "
        "yield the delay (or a tuple of delays) instead"
        for node in ast.walk(tree)
        if isinstance(node, ast.Yield) and isinstance(node.value, ast.Call)
        and _callee_name(node.value.func) in ("timeout", "timeout_chain")
    ]


#: Rule 13: the files whose verbs undo only through _await_durable.
UNDO_FILES = ("nest/storage.py", "nest/lots.py")
UNDO_CALLS = ("_await_durable", "_commit")


def _catches_storage_error(handler: ast.ExceptHandler) -> bool:
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return any(t is not None and _callee_name(t) == "StorageError"
               for t in types)


def _undo_violations(path: Path, rel: str) -> list[str]:
    if rel not in UNDO_FILES:
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path}:{call.lineno}: {_callee_name(call.func)}() inside a try "
        "that catches StorageError -- let _await_durable undo a failed "
        "flush"
        for node in ast.walk(tree)
        if isinstance(node, ast.Try)
        and any(_catches_storage_error(h) for h in node.handlers)
        for stmt in node.body for call in ast.walk(stmt)
        if isinstance(call, ast.Call)
        and _callee_name(call.func) in UNDO_CALLS
    ]


def _callee_name(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    problems: list[str] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        problems.extend(_violations(path, rel))
        problems.extend(_socket_violations(path, rel))
        problems.extend(_listener_violations(path, rel))
        problems.extend(_loop_violations(path, rel))
        problems.extend(_journal_violations(path, rel))
        problems.extend(_commit_violations(path, rel))
        problems.extend(_environment_violations(path, rel))
        problems.extend(_snapshot_violations(path, rel))
        problems.extend(_callback_violations(path, rel))
        problems.extend(_sleep_violations(path, rel))
        problems.extend(_undo_violations(path, rel))
        if rel in DOORS or rel.startswith(DOORLESS):
            problems.extend(_door_violations(path, DOORS.get(rel)))
        if rel.startswith("jbos/"):
            problems.extend(_manager_imports(path))
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        print(f"lint_datapath: {len(problems)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
