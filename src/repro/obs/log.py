"""Structured logging for the appliance: one ``repro.*`` namespace.

Every module logs through :func:`get_logger`, which pins the logger
into the ``repro.`` hierarchy so an operator can dial the whole
appliance (or one subsystem: ``repro.nest``, ``repro.client``...) with
a single ``logging`` configuration.  The lint lane
(``scripts/lint_obs.py``) rejects bare ``print(`` and non-namespaced
``logging.getLogger()`` calls under ``src/repro`` outside the CLI, so
this module is the only supported way to emit diagnostics.

:func:`console` is the user-facing output channel for script entry
points (``python -m repro.bench.fig3``...): a logger
whose handler writes to *the current* ``sys.stdout`` (resolved per
record, so pytest's capture and shell redirection both see it), with
no level gate and no propagation into the root logger.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["get_logger", "console"]


def get_logger(name: str) -> logging.Logger:
    """A logger guaranteed to live under the ``repro.`` namespace."""
    if name != "repro" and not name.startswith("repro."):
        name = f"repro.{name}"
    return logging.getLogger(name)


class _CurrentStdoutHandler(logging.StreamHandler):
    """A StreamHandler that re-resolves ``sys.stdout`` per record."""

    def __init__(self) -> None:
        super().__init__(sys.stdout)

    @property
    def stream(self):  # type: ignore[override]
        return sys.stdout

    @stream.setter
    def stream(self, value) -> None:  # the base __init__ assigns; ignore
        pass


def _console_logger() -> logging.Logger:
    logger = get_logger("repro.console")
    if not logger.handlers:
        handler = _CurrentStdoutHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        logger.propagate = False
    return logger


def console(message: str = "") -> None:
    """Emit user-facing CLI output through the structured logger."""
    _console_logger().info("%s", message)
