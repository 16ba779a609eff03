#!/usr/bin/env python
"""Data-path lint for ``src/repro``.

Five rules, enforced by AST walk (so docstrings and comments that merely
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
``repro.protocols.common.tuned``.  A function under ``src/repro`` that
calls ``.accept()`` or ``create_connection(`` must also call
``tuned(``, and ``TCP_NODELAY`` is named nowhere but in that helper.
A listener or dialler that skips it brings back the 44 ms
Nagle/delayed-ACK stall on every reply it writes in two pieces.

Rule 4: one accept loop.  ``repro.protocols.common.Acceptor`` is the
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


def _door_violations(path: Path, door=(DOOR_CLASS, DOOR)) -> list[str]:
    """Data-path mentions in ``path`` outside ``door`` -- a (class,
    method names) pair, or None for a file that has no door."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed: set[int] = set()
    for cls in ast.walk(tree):
        if (door and isinstance(cls, ast.ClassDef) and cls.name == door[0]):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and item.name in door[1]:
                    allowed.update(id(n) for n in ast.walk(item))
    return [
        f"{path}:{node.lineno}: .{node.attr} outside the "
        f"{DOOR_CLASS} door -- move bytes with self.send/self.receive"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and _is_datapath(node)
        and id(node) not in allowed
    ]


#: Where rule 3's helper lives (relative to ``src/repro``), and its name.
TUNER_FILE = "protocols/common.py"
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
                    "socket through repro.protocols.common.tuned")
        if (rel != TUNER_FILE and isinstance(node, ast.Attribute)
                and node.attr == "TCP_NODELAY"):
            out.append(
                f"{path}:{node.lineno}: TCP_NODELAY outside "
                f"{TUNER_FILE} -- sockets are tuned by {TUNER}() only")
    return out


#: Rule 4: the (file, function) pairs that may call a socket's
#: ``.listen(``: the acceptor, and the one-shot data-channel listeners.
LISTEN_ALLOWED = {
    ("protocols/common.py", "listen"),   # Acceptor.listen
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
                "repro.protocols.common.Acceptor")
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


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    problems: list[str] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        problems.extend(_violations(path, rel))
        problems.extend(_socket_violations(path, rel))
        problems.extend(_listener_violations(path, rel))
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
