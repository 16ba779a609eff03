#!/usr/bin/env python
"""Observability lint: no stray output channels under ``src/repro``.

Two rules, enforced by AST walk (so docstrings and comments that merely
*mention* the forbidden calls don't trip it):

1. No ``print(...)`` calls outside ``cli.py`` -- user-facing output
   goes through ``repro.obs.log.console`` and diagnostics through
   ``repro.obs.log.get_logger``, both of which an operator can route.
2. No direct ``logging.getLogger(...)`` calls outside ``obs/log.py`` --
   loggers must come from ``get_logger`` so every one of them lives in
   the dial-able ``repro.`` namespace.
3. Files on the request path must keep their span evidence: each file
   in ``SPAN_EVIDENCE`` has to reference the named tracing hooks
   (``request_scope`` in the handlers and the protocol sessions they
   run, dispatch into the spanned ``serve_one`` path in the event
   server, span shipping in the shard layer).  A refactor that silently drops tracing from a request path
   fails here instead of in production.

Exit status 0 when clean, 1 with one line per violation otherwise.
Usage: ``python scripts/lint_obs.py`` (from anywhere in the repo).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Files where the rules don't apply (relative to ``src/repro``).
PRINT_ALLOWED = {"cli.py"}
GETLOGGER_ALLOWED = {"obs/log.py"}

#: Request-path files and the tracing hooks they must reference.
SPAN_EVIDENCE = {
    "nest/handlers.py": ("request_scope", "parse_trace_context"),
    # the sessions' own request loops: FTP, GridFTP and NFS have no
    # other, Chirp's and HTTP's serve the JBOS baseline.
    "protocols/chirp.py": ("request_scope",),
    "protocols/http.py": ("request_scope",),
    "protocols/ftp.py": ("request_scope",),
    "protocols/nfs.py": ("request_scope",),
    "nest/eventserver.py": ("step",),
    "nest/shard.py": ("spans",),
    "client/retry.py": ("maybe_span",),
    "tier/store.py": ("maybe_span",),
    "tier/policy.py": ("span",),
    "tier/autoscale.py": ("span",),
}


def _violations(path: Path, rel: str) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id == "print"
                and rel not in PRINT_ALLOWED):
            out.append(
                f"{path}:{node.lineno}: bare print() -- use "
                "repro.obs.log.console() or a repro.* logger")
        if (isinstance(func, ast.Attribute) and func.attr == "getLogger"
                and isinstance(func.value, ast.Name)
                and func.value.id == "logging"
                and rel not in GETLOGGER_ALLOWED):
            out.append(
                f"{path}:{node.lineno}: naked logging.getLogger() -- use "
                "repro.obs.log.get_logger() for the repro.* namespace")
    required = SPAN_EVIDENCE.get(rel, ())
    if required:
        seen = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        seen |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)}
        for token in required:
            if token not in seen:
                out.append(
                    f"{path}: request path lost its tracing hook "
                    f"{token!r} (spans must survive refactors)")
    return out


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    problems: list[str] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        problems.extend(_violations(path, rel))
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        print(f"lint_obs: {len(problems)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
