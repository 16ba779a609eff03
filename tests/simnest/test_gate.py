"""Unit tests for the pump gate."""

import pytest

from repro.nest.scheduling import FCFSScheduler, StrideScheduler, make_job
from repro.sim import Environment
from repro.simnest.gate import PumpGate


def drain(env, gate, job, nbytes, log, name):
    yield gate.acquire(job, nbytes)
    log.append((env.now, name, "granted"))
    yield env.timeout(1.0)
    gate.release(job, nbytes)


class TestAdmission:
    def test_worker_limit_respected(self):
        env = Environment()
        gate = PumpGate(env, FCFSScheduler(), workers=2)
        log = []
        sched = gate.scheduler
        for i in range(4):
            job = make_job("p")
            sched.add(job)
            env.process(drain(env, gate, job, 100, log, i))
        env.run()
        # Two granted at t=0, two at t=1.
        at_zero = [e for e in log if e[0] == 0.0]
        assert len(at_zero) == 2

    def test_fifo_order(self):
        env = Environment()
        gate = PumpGate(env, FCFSScheduler(), workers=1)
        log = []
        for i in range(3):
            job = make_job("p")
            gate.scheduler.add(job)
            env.process(drain(env, gate, job, 100, log, i))
        env.run()
        assert [name for _, name, _ in log] == [0, 1, 2]

    def test_stride_order(self):
        # Two jobs per class keep the wait queue deep, so the stride
        # proportions (not work-conserving slot handoffs) decide who
        # pumps next.
        env = Environment()
        sched = StrideScheduler(shares={"fast": 3, "slow": 1})
        gate = PumpGate(env, sched, workers=1)
        moved = {"fast": 0, "slow": 0}

        def pump(proto):
            job = make_job(proto)
            sched.add(job)
            while True:
                yield gate.acquire(job, 100)
                yield env.timeout(0.01)
                moved[proto] += 100
                gate.release(job, 100)

        for proto in ("fast", "slow"):
            env.process(pump(proto))
            env.process(pump(proto))
        env.run(until=4.0)
        ratio = moved["fast"] / max(moved["slow"], 1)
        assert 2.2 < ratio < 4.0

    def test_multiple_waiters_per_job(self):
        # An NFS window: two lanes share one flow job.
        env = Environment()
        gate = PumpGate(env, FCFSScheduler(), workers=1)
        job = make_job("nfs")
        gate.scheduler.add(job)
        done = []

        def lane(name):
            yield gate.acquire(job, 10)
            yield env.timeout(0.5)
            gate.release(job, 10)
            done.append((env.now, name))

        env.process(lane("a"))
        env.process(lane("b"))
        env.run()
        assert len(done) == 2
        assert done[0][0] == 0.5 and done[1][0] == 1.0

    def test_grant_cost_serializes(self):
        env = Environment()
        gate = PumpGate(env, FCFSScheduler(), workers=4, grant_cost=0.1)
        granted = []

        def pump(i):
            job = make_job("p")
            gate.scheduler.add(job)
            yield gate.acquire(job, 10)
            granted.append(env.now)
            gate.release(job, 10)

        for i in range(3):
            env.process(pump(i))
        env.run()
        # Serial arbiter: grants at 0.1, 0.2, 0.3.
        assert granted == pytest.approx([0.1, 0.2, 0.3])

    def test_a_costed_grant_is_one_kernel_event(self):
        """With ``grant_cost > 0`` the grant event itself is scheduled
        at the arbiter's release time: one dispatch per grant, no
        timeout standing in front of it."""
        with Environment() as env:
            gate = PumpGate(env, StrideScheduler({"p": 1.0}), workers=4,
                            grant_cost=0.25)
            jobs = [make_job("p") for _ in range(3)]
            grants = []
            for job in jobs:
                gate.scheduler.add(job)
                grants.append(gate.acquire(job, 10))
            env.run()
            assert env.events_processed == len(grants) == gate.grants
            assert all(g.processed and g.ok for g in grants)
            assert env.now == 0.75

    def test_withdraw(self):
        env = Environment()
        gate = PumpGate(env, FCFSScheduler(), workers=1)
        holder = make_job("p")
        gate.scheduler.add(holder)
        quitter = make_job("p")
        gate.scheduler.add(quitter)

        def hold():
            yield gate.acquire(holder, 10)
            yield env.timeout(5)
            gate.release(holder, 10)

        def quit_early():
            ev = env.timeout(1)
            yield ev
            gate.withdraw(quitter)

        env.process(hold())
        # quitter enqueues, then withdraws before being served.
        gate.acquire(quitter, 10)  # enqueue without waiting
        env.process(quit_early())
        env.run()
        assert not quitter.ready

    def test_grants_counted(self):
        env = Environment()
        gate = PumpGate(env, FCFSScheduler(), workers=2)
        job = make_job("p")
        gate.scheduler.add(job)

        def pump():
            for _ in range(5):
                yield gate.acquire(job, 1)
                gate.release(job, 1)

        env.process(pump())
        env.run()
        assert gate.grants == 5


class TestNonWorkConserving:
    def test_idles_then_grants_best_ready(self):
        env = Environment()
        sched = StrideScheduler(shares={"nfs": 4, "http": 1},
                                work_conserving=False)
        gate = PumpGate(env, sched, workers=1, idle_wait=0.5)
        nfs = make_job("nfs")
        http = make_job("http")
        sched.add(nfs)
        sched.add(http)
        sched.charge(http, 0)  # keep passes equal-ish
        nfs.ready = False  # nfs has no outstanding request
        granted = []

        def pump():
            yield gate.acquire(http, 10)
            granted.append(env.now)
            gate.release(http, 10)

        env.process(pump())
        env.run()
        # http is only admitted after the idle_wait grace period.
        assert granted and granted[0] >= 0.5
