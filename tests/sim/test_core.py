"""Unit tests for the DES kernel."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError
from repro.sim.core import Event


class TestTimeAndTimeouts:
    def test_time_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_timeout_advances_clock(self):
        env = Environment()

        def proc():
            yield env.timeout(5)
            assert env.now == 5.0
            yield env.timeout(2.5)
            assert env.now == 7.5

        env.process(proc())
        env.run()
        assert env.now == 7.5

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_run_until_time_stops_exactly(self):
        env = Environment()
        fired = []

        def proc():
            yield env.timeout(10)
            fired.append(env.now)

        env.process(proc())
        env.run(until=5.0)
        assert env.now == 5.0 and not fired
        env.run(until=20.0)
        assert fired == [10.0]
        assert env.now == 20.0

    def test_run_backwards_rejected(self):
        env = Environment()
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_timeout_value_passed_through(self):
        env = Environment()
        got = []

        def proc():
            value = yield env.timeout(1, value="payload")
            got.append(value)

        env.process(proc())
        env.run()
        assert got == ["payload"]


class TestEvents:
    def test_event_succeed_wakes_waiter(self):
        env = Environment()
        ev = env.event()
        got = []

        def waiter():
            got.append((yield ev))

        def firer():
            yield env.timeout(3)
            ev.succeed(99)

        env.process(waiter())
        env.process(firer())
        env.run()
        assert got == [99]

    def test_event_fail_raises_in_waiter(self):
        env = Environment()
        ev = env.event()
        caught = []

        def waiter():
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        def firer():
            yield env.timeout(1)
            ev.fail(ValueError("boom"))

        env.process(waiter())
        env.process(firer())
        env.run()
        assert caught == ["boom"]

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_unhandled_failure_propagates_out_of_run(self):
        env = Environment()
        ev = env.event()
        ev.fail(RuntimeError("nobody caught me"))
        with pytest.raises(RuntimeError):
            env.run()

    def test_yielding_already_fired_event(self):
        env = Environment()
        ev = env.event()
        ev.succeed("early")
        env.run()
        got = []

        def late():
            got.append((yield ev))

        env.process(late())
        env.run()
        assert got == ["early"]


class TestProcesses:
    def test_process_return_value(self):
        env = Environment()

        def child():
            yield env.timeout(2)
            return "done"

        def parent():
            result = yield env.process(child())
            assert result == "done"
            return "parent-done"

        proc = env.process(parent())
        assert env.run(proc) == "parent-done"

    def test_exit_helper(self):
        env = Environment()

        def proc():
            yield env.timeout(1)
            env.exit(42)

        assert env.run(env.process(proc())) == 42

    def test_process_exception_propagates_to_waiter(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise KeyError("inside")

        def parent():
            try:
                yield env.process(bad())
            except KeyError:
                return "caught"

        assert env.run(env.process(parent())) == "caught"

    def test_uncaught_process_exception_raises_from_run(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise KeyError("unseen")

        env.process(bad())
        with pytest.raises(KeyError):
            env.run()

    def test_yielding_non_event_is_error(self):
        env = Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(42)

    def test_determinism_ties_broken_by_creation_order(self):
        order = []

        def make(env, name):
            def proc():
                yield env.timeout(1)
                order.append(name)
            return proc

        env = Environment()
        for name in ("a", "b", "c"):
            env.process(make(env, name)())
        env.run()
        assert order == ["a", "b", "c"]


class TestInterrupts:
    def test_interrupt_during_timeout(self):
        env = Environment()
        log = []

        def sleeper():
            try:
                yield env.timeout(100)
            except Interrupt as intr:
                log.append((env.now, intr.cause))

        victim = env.process(sleeper())

        def interrupter():
            yield env.timeout(3)
            victim.interrupt("wake up")

        env.process(interrupter())
        env.run()
        assert log == [(3.0, "wake up")]

    def test_interrupt_finished_process_rejected(self):
        env = Environment()

        def quick():
            yield env.timeout(1)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_process_survives_interrupt_and_continues(self):
        env = Environment()
        log = []

        def resilient():
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(5)
            log.append(env.now)

        victim = env.process(resilient())

        def interrupter():
            yield env.timeout(2)
            victim.interrupt()

        env.process(interrupter())
        env.run()
        assert log == [7.0]


class TestConditions:
    def test_all_of(self):
        env = Environment()

        def proc():
            t1 = env.timeout(3, value="a")
            t2 = env.timeout(7, value="b")
            results = yield env.all_of([t1, t2])
            assert set(results.values()) == {"a", "b"}
            return env.now

        assert env.run(env.process(proc())) == 7.0

    def test_any_of(self):
        env = Environment()

        def proc():
            t1 = env.timeout(3, value="fast")
            t2 = env.timeout(7, value="slow")
            results = yield env.any_of([t1, t2])
            assert "fast" in results.values()
            return env.now

        assert env.run(env.process(proc())) == 3.0

    def test_empty_all_of_fires_immediately(self):
        env = Environment()

        def proc():
            yield env.all_of([])
            return env.now

        assert env.run(env.process(proc())) == 0.0


class TestRunControl:
    def test_run_until_event(self):
        env = Environment()
        assert env.run(env.timeout(4, value="v")) == "v"
        assert env.now == 4.0

    def test_run_until_never_fired_event_raises(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError):
            env.run(ev)

    def test_peek(self):
        env = Environment()
        assert env.peek() == float("inf")
        env.timeout(9)
        assert env.peek() == 9.0

    def test_step_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()


class TestSchedule:
    def test_a_scheduled_event_dispatches_where_a_timeout_would(self):
        """A scheduled event takes the heap key a timeout made at the
        same moment would: after an equal-time timeout made before it,
        before one made after it, in one dispatch."""
        with Environment() as env:
            order = []
            before = env.timeout(1.0, value="before")
            ev = env.event()
            env.schedule(ev, 1.0, value="scheduled")
            after = env.timeout(1.0, value="after")
            for e in (before, ev, after):
                e.callbacks.append(lambda e: order.append(e.value))
            env.run()
            assert order == ["before", "scheduled", "after"]
            assert env.events_processed == 3

    def test_misuse_is_refused(self):
        with Environment() as env:
            ev = env.event()
            env.schedule(ev, 1.0)
            with pytest.raises(SimulationError):
                env.schedule(ev, 2.0)  # already in the heap
            env.run()
            with pytest.raises(SimulationError):
                env.schedule(ev, 2.0)  # already fired
            with pytest.raises(SimulationError):
                env.schedule(env.event(), 0.5)  # before now
