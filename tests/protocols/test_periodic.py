"""``repro.protocols.runtime.Periodic``: the one periodic loop."""

import threading

from repro.protocols.runtime import Periodic

NAME = "periodic-test"


def _threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == NAME]


def test_periodic_loop_lifecycle():
    # interval <= 0 is no thread at all: Event.wait(0) returns at once,
    # so a loop started with it would call fn flat out.
    calls = []
    for interval in (0.0, -1.0):
        idle = Periodic(NAME, interval, lambda: calls.append(1))
        idle.start()
        assert not _threads()
        idle.stop()
    assert calls == []

    # A raising fn is logged and the loop keeps calling it.
    survived = threading.Event()

    def flaky() -> None:
        calls.append(1)
        if len(calls) < 3:
            raise RuntimeError("transient")
        survived.set()

    loop = Periodic(NAME, 0.001, flaky)
    loop.start()
    (thread,) = _threads()
    loop.start()  # a second start is a no-op
    assert _threads() == [thread]
    assert survived.wait(5.0)

    # stop() wakes and joins the thread; a second stop is a no-op.
    loop.stop()
    assert not thread.is_alive() and not _threads()
    loop.stop()
