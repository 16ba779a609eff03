"""An environment's end: ``close()`` and ``with Environment() as env``.

Closing ends every suspended process (its ``finally`` runs once), drops
the queues and keeps the perf counters; a finished simulation is then
freed by refcounting alone, with no cyclic garbage left behind.
"""

import gc
import weakref

import pytest

from repro.models.platform import LINUX
from repro.sim import Environment, SimulationError
from repro.simnest import server as simnest_server
from repro.simnest.workload import run_mixed_protocols


def sleeper(env, log, delay=10.0):
    try:
        yield env.timeout(delay)
        log.append("woke")
    finally:
        log.append("finally")


class TestClose:
    def test_suspended_process_finally_runs_exactly_once(self):
        log = []
        env = Environment()
        proc = env.process(sleeper(env, log))
        env.run(until=1.0)
        env.close()
        assert log == ["finally"]
        del proc
        gc.collect()
        assert log == ["finally"]

    def test_with_block_closes(self):
        log = []
        with Environment() as env:
            env.process(sleeper(env, log))
            env.run(until=1.0)
            assert log == []
        assert log == ["finally"]

    def test_close_twice_is_harmless(self):
        log = []
        env = Environment()
        env.process(sleeper(env, log))
        env.run(until=1.0)
        env.close()
        env.close()
        assert log == ["finally"]

    def test_counters_survive_close(self):
        env = Environment()
        log = []

        def ticker():
            for _ in range(5):
                yield env.timeout(1.0)

        def releaser():
            try:
                yield env.timeout(100.0)
            finally:
                # What a finally schedules on the way out never runs,
                # and is not counted.
                env.timeout(1.0)
                env.event().succeed()

        env.process(ticker())
        env.process(sleeper(env, log, delay=100.0))
        env.process(releaser())
        env.run(until=10.0)
        before = (env.events_processed, env.direct_resumes,
                  env.timeouts_created, env.timeouts_reused,
                  env.heap_peak, env.events_scheduled)
        assert env.events_processed > 0 and env.heap_peak > 0
        env.close()
        assert (env.events_processed, env.direct_resumes,
                env.timeouts_created, env.timeouts_reused,
                env.heap_peak, env.events_scheduled) == before
        assert env.now == 10.0
        assert env.peek() == float("inf")

    def test_finished_process_left_alone(self):
        log = []
        env = Environment()
        done = env.process(sleeper(env, log, delay=1.0))
        env.run(until=5.0)
        assert log == ["woke", "finally"]
        env.close()
        assert log == ["woke", "finally"]
        assert not done.is_alive and done.ok

    def test_waiter_on_a_never_finishing_process_is_closed_too(self):
        log = []
        env = Environment()
        inner = env.process(sleeper(env, log, delay=100.0))

        def waiter():
            try:
                yield env.all_of([inner])
            finally:
                log.append("waiter")

        env.process(waiter())
        env.run(until=1.0)
        env.close()
        assert sorted(log) == ["finally", "waiter"]

    def test_run_after_close_raises(self):
        env = Environment()
        env.close()
        with pytest.raises(SimulationError):
            env.run()
        with pytest.raises(SimulationError):
            env.run(until=5.0)


def test_a_finished_simulation_is_freed_without_the_cyclic_collector(
        monkeypatch):
    """Nothing of a ``run_mixed_protocols`` call outlives it: no
    reference cycle keeps the environment or the simulated NeST."""
    built = []
    init = simnest_server.SimNest.__init__

    def recording_init(self, env, *args, **kwargs):
        init(self, env, *args, **kwargs)
        built.append((weakref.ref(env), weakref.ref(self)))

    monkeypatch.setattr(simnest_server.SimNest, "__init__", recording_init)
    gc.collect()
    gc.disable()
    try:
        result = run_mixed_protocols(LINUX, horizon=0.3, warmup=0.1)
        assert result.total_bytes > 0
        [(env, nest)] = built
        assert env() is None
        assert nest() is None
    finally:
        gc.enable()
