"""What each process loads: the simulator leaves the live runtime alone,
and the live server leaves the simulator alone.

Each check starts a fresh interpreter and compares the modules it holds
after one import with those a bare interpreter holds, so whatever
``site`` loads at start-up does not count.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Live-only layers: OpenSSL, sockets, logging, the server and its
#: sessions, telemetry exporters, durability and tiering.
LIVE_ONLY = {
    "_hashlib", "_ssl", "socket", "selectors", "logging",
    "repro.nest.auth", "repro.nest.server", "repro.nest.handlers",
    "repro.nest.transfer", "repro.protocols.chirp", "repro.obs.health",
    "repro.obs.slo", "repro.durability", "repro.tier",
}

#: The DES kernel and the hardware models built on it.
DES_ONLY = ("repro.models.network", "repro.models.disk",
            "repro.models.filesystem")


def _loaded(statement: str) -> set[str]:
    """Module names in ``sys.modules`` after ``statement`` runs in a
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c",
         f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def _added_by(module: str) -> set[str]:
    return _loaded(f"import {module}") - _loaded("pass")


def test_the_simulator_loads_no_live_runtime():
    added = _added_by("repro.bench")
    assert "repro.sim.core" in added  # the import did load the simulator
    assert sorted(added & LIVE_ONLY) == []


def test_the_live_server_loads_no_simulator():
    added = _added_by("repro.nest.server")
    assert "repro.models.cache" in added  # the gray-box shadow's model
    assert sorted(m for m in added
                  if m.startswith("repro.sim") or m in DES_ONLY) == []
