"""The kernel's fast paths: timeout pooling, tuple sleeps, direct resume of
already-fired events, the interrupt stale-target fix, and reprs."""

import pytest

from repro.sim.core import Environment, Interrupt


# ----------------------------------------------------------------------
# timeout free-list pool
# ----------------------------------------------------------------------
def test_timeout_pool_reuses_dead_timeouts():
    env = Environment()

    def ticker():
        for _ in range(10):
            yield env.timeout(1.0)

    env.process(ticker())
    env.run()
    assert env.timeouts_reused > 0
    assert env.timeouts_created + env.timeouts_reused == 10
    # Pooled timeouts must still deliver correct values.
    seen = []

    def valued():
        for i in range(5):
            seen.append((yield env.timeout(1.0, value=i)))

    env.process(valued())
    env.run()
    assert seen == [0, 1, 2, 3, 4]


def test_referenced_timeout_is_not_recycled():
    env = Environment()
    held = []

    def holder():
        t = env.timeout(1.0, value="keep")
        held.append(t)
        yield t

    env.process(holder())
    env.run()
    # The held Timeout survives with its value intact (not reset by the
    # pool) because the external reference blocks recycling.
    assert held[0].value == "keep"
    assert held[0].processed


def test_tuple_sleep_matches_sequential_yields():
    """One tuple sleep lands at the bit-exact same instant as the
    chain of timeouts it replaces."""
    delays = [0.0013, 0.00007, 0.1, 3e-9]
    env1 = Environment()
    times1 = []

    def sequential():
        for d in delays:
            yield env1.timeout(d)
        times1.append(env1.now)

    env1.process(sequential())
    env1.run()

    env2 = Environment()
    times2 = []

    def chained():
        yield tuple(delays)
        times2.append(env2.now)

    env2.process(chained())
    env2.run()
    assert repr(times1[0]) == repr(times2[0])


def test_tuple_sleep_rejects_negative_delay():
    env = Environment()

    def sleeper():
        yield (0.1, -0.5)

    env.process(sleeper())
    with pytest.raises(Exception):
        env.run()


# ----------------------------------------------------------------------
# direct resume of already-processed events
# ----------------------------------------------------------------------
def test_yielding_processed_event_resumes_with_its_value():
    env = Environment()
    fired = env.event()
    fired.succeed("payload")
    env.run()  # fully process the event first
    got = []

    def waiter():
        got.append((yield fired))

    env.process(waiter())
    env.run()
    assert got == ["payload"]
    assert env.direct_resumes >= 1


def test_direct_resume_preserves_order_against_urgent_events():
    """A direct resume must not jump ahead of same-instant work that
    was already scheduled when it was parked."""
    env = Environment()
    fired = env.event()
    fired.succeed()
    env.run()  # fully process the event
    order = []

    def jumper():
        yield fired  # parks a direct resume during its Initialize
        order.append("jumper")

    def steady():
        order.append("steady")
        return
        yield

    # jumper spawns first, so its direct resume is parked while
    # steady's Initialize (an earlier-scheduled heap entry) is due at
    # the same instant: the heap entry must win.
    env.process(jumper())
    env.process(steady())
    env.run()
    assert order == ["steady", "jumper"]


# ----------------------------------------------------------------------
# interrupt: the stale-target hazard
# ----------------------------------------------------------------------
def test_interrupt_while_waiting_on_processed_event_is_single_resume():
    """Seed hazard: a process that yielded an already-processed event
    and is then interrupted before the resume fires must see exactly
    one resume (the Interrupt), not a double resume."""
    env = Environment()
    fired = env.event()
    fired.succeed("v")
    resumes = []

    def victim():
        try:
            resumes.append((yield fired))
        except Interrupt as exc:
            resumes.append(exc)
            yield env.timeout(1.0)
            resumes.append("recovered")

    proc = env.process(victim())

    def attacker():
        proc.interrupt("now")
        return
        yield

    env.process(attacker())
    env.run()
    assert len(resumes) == 2
    assert isinstance(resumes[0], Interrupt)
    assert resumes[1] == "recovered"


def test_interrupt_after_target_processed_still_delivers():
    env = Environment()
    caught = []

    def victim():
        try:
            yield env.timeout(10.0)
        except Interrupt as exc:
            caught.append(exc.cause)

    proc = env.process(victim())

    def attacker():
        yield env.timeout(1.0)
        proc.interrupt("cause")

    env.process(attacker())
    env.run()
    assert caught == ["cause"]


# ----------------------------------------------------------------------
# peek() with pending direct resumes
# ----------------------------------------------------------------------
def test_peek_sees_pending_direct_resume():
    env = Environment()
    fired = env.event()
    fired.succeed()
    env.run()  # fully process the event
    done = []

    def waiter():
        yield fired
        done.append(True)

    env.process(waiter())
    env.step()  # Initialize: waiter yields the processed event
    # The direct-resume is parked in the pending deque; peek() must
    # report it as due now rather than looking only at the heap.
    assert env.peek() == 0.0
    env.run()
    assert done == [True]
    assert env.direct_resumes >= 1


# ----------------------------------------------------------------------
# reprs
# ----------------------------------------------------------------------
def test_reprs_are_informative():
    env = Environment()
    ev = env.event()
    assert "Event" in repr(ev) and "pending" in repr(ev)
    ev.succeed()
    assert "triggered" in repr(ev) or "processed" in repr(ev)
    t = env.timeout(2.5)
    assert "Timeout" in repr(t) and "2.5" in repr(t)

    def body():
        yield env.timeout(1.0)

    p = env.process(body(), name="worker-1")
    assert "worker-1" in repr(p)
    cond = env.all_of([env.event(), env.event()])
    assert "AllOf" in repr(cond) and "0/2" in repr(cond)
    env.run()
