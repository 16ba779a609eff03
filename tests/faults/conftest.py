"""Fixtures for the fault-injection suite.

Every test here runs under a hard per-test timeout so an injected
fault can *never* hang the suite -- the whole point of the fault lane
is "retry or typed error, never hang".  When the ``pytest-timeout``
plugin is installed its marker applies; otherwise a SIGALRM fallback
(main-thread only, POSIX) enforces the same bound.
"""

from __future__ import annotations

import signal
import threading
import time

import pytest

from repro.nest.auth import CertificateAuthority
from repro.nest.config import NestConfig
from repro.nest.server import NestServer

HARD_TIMEOUT = 30.0


def pytest_collection_modifyitems(config, items):
    """Every test in this directory is part of the ``faults`` lane."""
    for item in items:
        if "tests/faults/" in str(item.fspath).replace("\\", "/"):
            item.add_marker(pytest.mark.faults)
            item.add_marker(pytest.mark.timeout(HARD_TIMEOUT))


def _have_pytest_timeout(config) -> bool:
    return config.pluginmanager.hasplugin("timeout")


@pytest.fixture(autouse=True)
def _hard_timeout(request):
    """SIGALRM fallback when pytest-timeout is not installed.

    pytest-timeout is a dev extra, not a hard dependency; this keeps
    the never-hang guarantee even in a bare environment.
    """
    if _have_pytest_timeout(request.config):
        yield
        return
    if (not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"fault-suite hard timeout: test exceeded {HARD_TIMEOUT}s "
            f"(a fault scenario hung instead of failing fast)")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, HARD_TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def thread_tracebacks(monkeypatch):
    """Uncaught exceptions of any thread; a test asserts it stays empty."""
    seen: list[BaseException] = []
    monkeypatch.setattr(threading, "excepthook",
                        lambda args: seen.append(args.exc_value))
    return seen


@pytest.fixture
def wait_idle():
    """Callable: wait for every handler of a server (but ``but_for``
    connections the test still holds open) to finish; asserts it did."""
    def wait(server, but_for: int = 0, timeout: float = 5.0) -> None:
        deadline = time.monotonic() + timeout
        while (server.active_connections() > but_for
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert server.active_connections() == but_for
    return wait


@pytest.fixture(scope="module")
def ca():
    return CertificateAuthority("Fault Test CA")


def make_server(ca, faults=None, protocols=None, **config_kwargs):
    """A started NeST with an open /data directory."""
    cfg_kwargs = dict(name="fault-nest")
    if protocols is not None:
        cfg_kwargs["protocols"] = protocols
    cfg_kwargs.update(config_kwargs)
    srv = NestServer(NestConfig(**cfg_kwargs), ca=ca, faults=faults)
    srv.start()
    srv.storage.mkdir("admin", "/data")
    srv.storage.acl_set("admin", "/data", "*", "rliwd")
    return srv


@pytest.fixture
def server_factory(ca):
    """Callable -> started server; everything stopped at teardown."""
    servers = []

    def factory(faults=None, **kwargs):
        srv = make_server(ca, faults=faults, **kwargs)
        servers.append(srv)
        return srv

    yield factory
    for srv in servers:
        srv.stop(drain_timeout=2.0)
