"""``repro.protocols.common.Acceptor``: the one accept loop."""

import os
import socket
import threading
import time

import pytest

from repro.protocols.common import Acceptor


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _threads(name: str) -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == name]


def _echo_name(name: str, seen: list):
    def on_connection(conn: socket.socket, addr) -> None:
        seen.append((name, threading.current_thread().name,
                     conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)))
        with conn:
            conn.sendall(name.encode())
    return on_connection


def _ask(port: int) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as conn:
        return conn.recv(64)


@pytest.fixture
def acceptor():
    acceptor = Acceptor("test-accept")
    yield acceptor
    acceptor.stop()


def test_two_listeners_one_thread(acceptor):
    seen: list = []
    first = acceptor.listen("127.0.0.1", 0, _echo_name("first", seen))
    second = acceptor.listen("127.0.0.1", 0, _echo_name("second", seen),
                             backlog=4)
    acceptor.start()
    assert first != second
    assert [_ask(second), _ask(first), _ask(second)] \
        == [b"second", b"first", b"second"]
    assert len(_threads("test-accept")) == 1
    # Each callback ran on that thread, with a socket already tuned.
    assert seen == [("second", "test-accept", 1), ("first", "test-accept", 1),
                    ("second", "test-accept", 1)]


def test_a_raising_callback_costs_one_connection_not_the_loop(acceptor):
    served: list = []

    def on_connection(conn: socket.socket, addr) -> None:
        served.append(conn)
        if len(served) == 1:
            raise ValueError("handler birth failed")
        with conn:
            conn.sendall(b"still here")

    port = acceptor.listen("127.0.0.1", 0, on_connection)
    acceptor.start()
    assert _ask(port) == b""  # closed on us, nothing said
    assert _ask(port) == b"still here"
    assert served[0].fileno() == -1
    assert _threads("test-accept")[0].is_alive()


def test_stop_under_connecting_clients_leaves_nothing():
    fds_before = _open_fds()
    acceptor = Acceptor("test-accept")
    port = acceptor.listen(
        "127.0.0.1", 0, lambda conn, addr: conn.close(), backlog=8)
    acceptor.start()
    connected = threading.Semaphore(0)
    refused = threading.Event()

    def hammer() -> None:
        while True:
            try:
                socket.create_connection(("127.0.0.1", port),
                                         timeout=5.0).close()
            except OSError:
                refused.set()
                return
            connected.release()

    client = threading.Thread(target=hammer, daemon=True)
    client.start()
    for _ in range(20):  # well into its stride
        assert connected.acquire(timeout=5.0)
    began = time.perf_counter()
    acceptor.stop()
    assert time.perf_counter() - began < 1.0
    assert refused.wait(5.0)  # the port is dead
    client.join(5.0)
    assert not client.is_alive()
    assert not _threads("test-accept")
    assert _open_fds() == fds_before


def test_stop_twice_and_stop_before_start():
    fds_before = _open_fds()
    acceptor = Acceptor("test-accept")
    port = acceptor.listen("127.0.0.1", 0, lambda conn, addr: conn.close())
    acceptor.start()
    acceptor.stop()
    acceptor.stop()
    never_started = Acceptor("test-accept")
    bound = never_started.listen("127.0.0.1", 0,
                                 lambda conn, addr: conn.close())
    never_started.stop()
    for dead in (port, bound):
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", dead), timeout=1.0).close()
    assert not _threads("test-accept")
    assert _open_fds() == fds_before


def test_a_port_in_use_is_the_callers_error_and_leaks_no_listener():
    fds_before = _open_fds()
    acceptor = Acceptor("test-accept")
    port = acceptor.listen("127.0.0.1", 0, lambda conn, addr: conn.close())
    with pytest.raises(OSError, match="in use"):
        acceptor.listen("127.0.0.1", port, lambda conn, addr: conn.close())
    acceptor.stop()
    assert _open_fds() == fds_before
