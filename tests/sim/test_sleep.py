"""Sleeping without an event: ``yield d`` and ``yield (d1, d2, ...)``.

A sleep takes the heap key a timeout made at the yield would take, so
swapping one form for the other must change no dispatch order, no
simulated time and no kernel count.  The differential test below runs
seeded process scripts full of exact-time ties both ways and compares
everything the kernel did.
"""

import random

import pytest

from repro.sim.core import Environment, Interrupt, SimulationError

#: Few distinct delays, so many wakes land on the same instant; most
#: are not binary fractions, so a sum taken in another order differs.
DELAYS = (0.0, 0.1, 0.25, 0.3, 0.7)


def _script(rng: random.Random, depth: int = 0) -> list:
    steps = []
    for _ in range(rng.randint(3, 8)):
        roll = rng.random()
        if roll < 0.5:
            steps.append(("sleep", rng.choice(DELAYS)))
        elif roll < 0.8:
            steps.append(("chain", tuple(rng.choice(DELAYS)
                                         for _ in range(rng.randint(0, 3)))))
        elif depth < 2:
            steps.append(("spawn", _script(rng, depth + 1)))
    return steps


def _run(seed: int, sleeps: bool, stepwise: bool = False):
    """Run seed's scripts; ``sleeps`` picks plain yields over events."""
    rng = random.Random(seed)
    scripts = [_script(rng) for _ in range(6)]
    log = []
    with Environment() as env:

        def proc(name, steps):
            for i, (kind, arg) in enumerate(steps):
                if kind == "sleep":
                    yield arg if sleeps else env.timeout(arg)
                elif kind == "chain":
                    if sleeps:
                        yield arg
                    else:
                        # What a chained timeout was: one event at the
                        # left-to-right sum, keyed where it was made.
                        when = env.now
                        for d in arg:
                            when += d
                        ev = env.event()
                        env.schedule(ev, when)
                        yield ev
                else:
                    env.process(proc(f"{name}.{i}", arg))
                log.append((repr(env.now), name, i))

        for n, steps in enumerate(scripts):
            env.process(proc(f"p{n}", steps))
        if stepwise:
            while env.peek() != float("inf"):
                env.step()
        else:
            env.run()
        counts = (env.events_processed, env.events_scheduled,
                  env.direct_resumes)
    return log, counts


@pytest.mark.parametrize("seed", range(20))
def test_sleeps_dispatch_exactly_as_timeouts(seed):
    timed_log, timed_counts = _run(seed, sleeps=False)
    slept_log, slept_counts = _run(seed, sleeps=True)
    assert len(slept_log) > 10
    assert slept_log == timed_log
    assert slept_counts == timed_counts


@pytest.mark.parametrize("seed", range(5))
def test_step_and_run_agree(seed):
    assert _run(seed, sleeps=True, stepwise=True) == _run(seed, sleeps=True)


def _interrupted(sleeps: bool):
    with Environment() as env:
        seen = []
        later = env.event()
        env.schedule(later, 20.0, value="later")

        def sleep(d):
            return d if sleeps else env.timeout(d)

        def sleeper():
            try:
                yield sleep(5.0)
            except Interrupt:
                seen.append(("interrupted", env.now))
            # Waiting on an event, not sleeping: the wake due at 5.0
            # must not resume this wait.
            seen.append(((yield later), env.now))
            yield sleep(10.0)
            seen.append(("woke", env.now))

        proc = env.process(sleeper())

        def attacker():
            yield sleep(1.0)
            proc.interrupt()

        env.process(attacker())
        env.run()
        return seen, env.events_processed


def test_an_interrupted_sleep_never_wakes_the_process_later():
    seen, processed = _interrupted(sleeps=True)
    assert seen == [("interrupted", 1.0), ("later", 20.0), ("woke", 30.0)]
    # The stale wake at 5.0 is dispatched and counted, as the
    # interrupted timeout was.
    assert (seen, processed) == _interrupted(sleeps=False)


@pytest.mark.parametrize("bad", [-1.0, (0.5, -0.5), (0.5, "x")],
                         ids=["float", "tuple", "not-a-delay"])
def test_a_bad_delay_raises_in_the_process(bad):
    with Environment() as env:
        caught = []

        def sleeper():
            try:
                yield bad
            except SimulationError as exc:
                caught.append((env.now, str(exc)))
            yield 2.0
            caught.append(env.now)

        env.process(sleeper(), name="sleeper")
        env.run()
        assert len(caught) == 2
        assert caught[0][0] == 0.0 and "sleeper" in caught[0][1]
        assert caught[1] == 2.0


def test_an_unhandled_negative_delay_fails_the_process():
    with Environment() as env:

        def sleeper():
            yield -0.5

        proc = env.process(sleeper())
        with pytest.raises(SimulationError):
            env.run()
        assert proc.ok is False


def test_close_runs_the_finally_block_of_a_sleeping_process():
    log = []
    with Environment() as env:

        def sleeper():
            try:
                yield 10.0
                log.append("woke")
            finally:
                log.append("closed")

        env.process(sleeper())
        env.run(until=1.0)
        assert log == []
    assert log == ["closed"]


def test_a_trace_records_each_wake():
    with Environment() as env:
        trace = env.enable_trace()

        def sleeper():
            yield 1.0
            yield (0.5, 1.5)

        env.process(sleeper(), name="sleeper")
        env.run()
    wakes = [when for name, when in trace.events() if name == "sleeper"]
    # Two wakes, then the finished process firing as an event.
    assert wakes == [1.0, 3.0, 3.0]
    assert trace.processes() == [("sleeper", 0.0, 3.0)]
