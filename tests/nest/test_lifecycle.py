"""The appliance's lifecycle: one ordered list of parts, walked forwards
by ``start()`` and backwards by ``stop()``, ``crash()`` and a failed
``start()``; nothing polls, so idle costs nothing and stopping is
bounded by work, not by a timer."""

import os
import selectors
import socket
import statistics
import threading
import time

import pytest

from repro.client.chirp import ChirpClient
from repro.grid.discovery import Collector
from repro.jbos import NativeChirpd
from repro.nest.config import NestConfig
from repro.nest.server import NestServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.mgmt import ManagementEndpoint

#: ``NestServer._parts`` by name, in start order.
PARTS = ["mgmt", "acceptor", "tier manager", "autoscaler", "advertisement"]


def _listening_sockets() -> set[str]:
    """Inodes of this process's TCP sockets in LISTEN."""
    listening = set()
    with open("/proc/net/tcp") as table:
        next(table)
        for row in table:
            fields = row.split()
            if fields[3] == "0A":
                listening.add(fields[9])
    ours = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            link = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # the listdir's own descriptor
        if link.startswith("socket:["):
            ours.add(link[len("socket:["):-1])
    return listening & ours


# ---------------------------------------------------------------------------
# (a) idle start()+stop() is bounded by work
# ---------------------------------------------------------------------------
IDLE = {
    "nest-threaded": lambda: NestServer(NestConfig(name="idle")),
    "nest-events": lambda: NestServer(
        NestConfig(name="idle", concurrency_server="events")),
    "nest-adaptive": lambda: NestServer(
        NestConfig(name="idle", concurrency_server="adaptive")),
    "jbos-chirpd": NativeChirpd,
    "mgmt-endpoint": lambda: ManagementEndpoint(MetricsRegistry()),
}


@pytest.mark.parametrize("kind", IDLE)
def test_idle_start_stop_takes_milliseconds(kind):
    """No connection ever made: start + stop is bind, spawn, wake,
    join.  It was 0.2-0.4 s when stop() closed listeners and then
    joined threads that only a 0.2 s poll timeout would wake."""
    walls = []
    for _ in range(5):
        began = time.perf_counter()
        server = IDLE[kind]().start()
        server.stop()
        walls.append(time.perf_counter() - began)
    assert statistics.median(walls) < 0.020


# ---------------------------------------------------------------------------
# (b) an idle appliance does not wake
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("model", ["threaded", "events"])
def test_idle_appliance_never_wakes_and_still_answers(monkeypatch, model):
    returns = []
    real_select = selectors.DefaultSelector.select

    def counting(self, timeout=None):
        ready = real_select(self, timeout)
        returns.append(ready)
        return ready

    monkeypatch.setattr(selectors.DefaultSelector, "select", counting)
    with NestServer(NestConfig(name="quiet",
                               concurrency_server=model)) as server:
        time.sleep(0.05)  # acceptor, mgmt and event loop reach select()
        del returns[:]
        time.sleep(0.3)
        assert returns == []
        with ChirpClient(*server.endpoint("chirp")) as client:
            client.mkdir("/after-idle")
            assert [e["name"] for e in client.listdir("/")] == ["after-idle"]
        assert returns  # the counter does see a wake-up when there is one


# ---------------------------------------------------------------------------
# (c) a part that fails to start takes down exactly what came up
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("failing", PARTS + ["port in use"])
def test_failed_start_stops_what_started_in_reverse(tmp_path, failing):
    threads_before = set(threading.enumerate())
    listening_before = _listening_sockets()
    collector = Collector()
    squatter = socket.socket()
    squatter.bind(("127.0.0.1", 0))
    squatter.listen(1)
    squatted = failing == "port in use"
    srv = NestServer(
        NestConfig(name="part-k", protocols=("chirp", "http"),
                   concurrency_server="events", tiering=True,
                   state_dir=str(tmp_path / "state")),
        ports={"http": squatter.getsockname()[1]} if squatted else None)
    srv.advertise_to(collector, readvertise_interval=0.02)
    assert [name for name, _, _ in srv._parts] == PARTS

    calls = []

    def logged(name, start, stop):
        def logged_start():
            calls.append(("start", name))
            if name == failing:
                raise RuntimeError(f"{name} will not start")
            if start is not None:
                start()

        def logged_stop(grace):
            calls.append(("stop", name))
            return stop(grace)

        return name, logged_start, logged_stop

    srv._parts = [logged(*part) for part in srv._parts]
    try:
        with pytest.raises(OSError if squatted else RuntimeError,
                           match="in use" if squatted else "will not start"):
            srv.start()
    finally:
        squatter.close()

    reached = PARTS.index("acceptor" if squatted else failing)
    assert [name for op, name in calls if op == "start"] \
        == PARTS[:reached + 1]
    # One walk, backwards over the whole list: the parts that came up
    # are stopped in reverse order, and stopping one that never did
    # (everything after ``reached``) is a no-op -- checked below by
    # what is left, which is nothing.
    assert [name for op, name in calls if op == "stop"] == PARTS[::-1]
    assert not srv.running
    assert set(threading.enumerate()) - threads_before == set()
    assert _listening_sockets() == listening_before
    assert srv.mgmt is None and srv._advert_thread is None
    assert srv.tier_manager._thread is None
    assert srv.durability.journal._file is None
    assert collector.names() == set()
    with pytest.raises(RuntimeError, match="build a new NestServer"):
        srv.start()


# ---------------------------------------------------------------------------
# the lifecycle is one-shot
# ---------------------------------------------------------------------------
class TestOneShot:
    @pytest.mark.parametrize("end", ["stop", "crash"])
    def test_start_after_stop_or_crash_is_refused(self, end):
        """It used to be accepted: fresh ports bound, connections
        accepted, and every request died with "connection closed while
        reading line" -- the transfer manager, event loop and journal
        stay shut."""
        srv = NestServer(NestConfig(name="once", protocols=("chirp",)))
        srv.start()
        getattr(srv, end)()
        listening = _listening_sockets()
        with pytest.raises(RuntimeError, match="build a new NestServer"):
            srv.start()
        assert _listening_sockets() == listening  # bound nothing
        assert not srv.running

    def test_stop_without_start_and_stop_twice_are_quiet(self):
        srv = NestServer(NestConfig(name="never", protocols=("chirp",)))
        assert srv.stop() == {"drained": 1, "forced": 0}
        srv = NestServer(NestConfig(name="twice", protocols=("chirp",)))
        srv.start()
        assert srv.stop() == {"drained": 1, "forced": 0}
        assert srv.stop() == {"drained": 1, "forced": 0}
