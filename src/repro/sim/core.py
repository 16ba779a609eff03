"""Core of the discrete-event simulation kernel.

The design mirrors SimPy's proven API surface (``env.process``,
``env.timeout``, ``yield event``) because it composes well with
generator-based modelling code, but the implementation here is
self-contained and deterministic.

Hot-path engineering (every figure of the reproduction is regenerated
through this kernel, so its constant factors are the whole wall-clock
story):

* :meth:`Environment.run` inlines the dispatch loop -- local aliases
  for ``heappop``, the queue, and the resume deque instead of a
  per-event :meth:`Environment.step` call;
* a process sleeps without an event: ``yield d`` (a float) or
  ``yield (d1, d2, ...)`` pushes the process itself at ``(now + d,
  NORMAL, seq)``, a tuple's delays added to ``now`` left to right.
  That is exactly the key ``yield env.timeout(d)`` got -- the same
  float addition, the same priority, ``seq`` drawn at the yield as the
  timeout drew it -- and the same sums as a chain of timeouts, so no
  dispatch order or simulated time changes.  Dispatch resumes the
  process directly and counts the wake in ``events_processed``.  The
  process keeps the seq of its pending wake; an entry with another seq
  is stale (the sleep was interrupted) and is counted and dropped.  A
  negative delay raises :exc:`SimulationError` in the process;
* :meth:`Environment.timeout` stays for events that others wait on;
  a processed :class:`Timeout` that nothing else references (checked
  via the CPython refcount) goes back to a free-list pool;
* a process that yields an *already processed* event is resumed
  through a cheap pending-resume deque rather than a freshly allocated
  bridge :class:`Event`; deque entries carry a sequence number drawn
  from the same counter as heap entries, so the dispatch order is
  bit-identical to scheduling a bridge event at ``(now, URGENT, seq)``;
* following SimPy, ``event.callbacks`` becomes ``None`` once the event
  is processed, which both drops a list allocation per event and makes
  :meth:`Process.interrupt`'s stale-target guard actually work.
* a model that knows when an event it made will fire schedules that
  event itself with :meth:`Environment.schedule`, instead of a timeout
  whose callback succeeds it: one dispatch, not two;

The kernel also keeps integer perf counters (events scheduled and
processed, direct resumes, timeout pool hits, heap high-water mark)
that :mod:`repro.perf` snapshots; each is a plain attribute increment
on the hot path.

A simulation has an end: :meth:`Environment.close` (or leaving a
``with Environment() as env:`` block) closes every still-suspended
process generator, so its ``finally`` blocks run once, and drops the
event heap, the pending-resume deque and the timeout pool, keeping only
the perf counters.  A finished simulation is one reference cycle
(environment -> queued events and sleepers -> suspended generators ->
the model -> environment); closing breaks it, so refcounting frees the
whole model as soon as its result is read, instead of whenever the
cyclic collector next runs.

Opt-in telemetry: :meth:`Environment.enable_trace` attaches a
:class:`repro.sim.trace.KernelTrace` recording dispatches (a wake under
its process's name) and process lifetimes in simulated time (exported
to ``chrome://tracing`` via :mod:`repro.obs.export_chrome`).  Disabled
-- the default -- it costs one ``is None`` test per dispatched event,
so simulated results stay bit-exact and the kernel's speed unchanged.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. yielding a non-event)."""


class StopProcess(Exception):
    """Internal: raised into a generator to return a value via ``exit()``."""

    def __init__(self, value: Any):
        self.value = value


#: Scheduling priorities: URGENT beats NORMAL at equal times.
URGENT = 0
NORMAL = 1

#: Upper bound on the timeout free list (a runaway workload should not
#: pin an unbounded graveyard of Timeout objects).
_POOL_LIMIT = 4096


class Event:
    """A one-shot occurrence in simulated time.

    An event begins *pending*, may be *triggered* (scheduled to fire,
    ``_ok`` set) and finally *processed* once its callbacks run.
    Processes wait on events by yielding them.  Once processed,
    ``callbacks`` is ``None`` (SimPy semantics): nothing may append to
    a processed event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None if still pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        return self._value

    def _state_repr(self) -> str:
        if self.callbacks is None:
            state = "processed"
        elif self._ok is not None:
            state = "triggered"
        else:
            state = "pending"
        if self._ok is False:
            state += " failed"
        return state

    def __repr__(self) -> str:
        value = ""
        if self._ok is not None and self._value is not None:
            value = f" value={self._value!r}"
        return f"<{type(self).__name__} {self._state_repr()}{value}>"

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seqno = seq = env._seqno + 1
        heappush(env._queue, (env.now, NORMAL, seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive ``exc``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exc
        env = self.env
        env._push(self, env.now, NORMAL)
        return self


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.timeouts_created += 1
        env._push(self, env.now + delay, NORMAL)

    def __repr__(self) -> str:
        value = f" value={self._value!r}" if self._value is not None else ""
        return f"<Timeout delay={self.delay!r} {self._state_repr()}{value}>"


class Initialize(Event):
    """Internal: first resume of a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment"):
        super().__init__(env)
        self._ok = True
        env._push(self, env.now, URGENT)


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        """The cause passed to ``interrupt()``."""
        return self.args[0]


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event that fires when the generator
    returns (its value is the generator's return value), so processes
    can wait on each other by yielding them.  A process sleeps by
    yielding a float delay or a tuple of them (module docstring).
    """

    __slots__ = ("_generator", "_target", "name", "_born", "_wake_seq")

    def __init__(self, env: "Environment", generator: Generator, name: str | None = None):
        if not hasattr(generator, "throw"):
            raise SimulationError("process() requires a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        self._born = env.now
        #: seq of its one live heap entry (a pending wake, or its own
        #: firing once finished); other entries holding it are stale.
        self._wake_seq = 0
        env._procs[self] = None
        init = Initialize(env)
        init.callbacks.append(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._ok is None

    def __repr__(self) -> str:
        if self._ok is None:
            target = ""
            if self._target is not None:
                t = self._target
                target = f" waiting-on=<{type(t).__name__} {t._state_repr()}>"
            return f"<Process {self.name!r} alive{target}>"
        return f"<Process {self.name!r} {self._state_repr()} value={self._value!r}>"

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        target = self._target
        if target is not None and target.callbacks is not None:
            # Deschedule from a still-unprocessed target; a processed
            # target has ``callbacks = None`` and its stale resume (if
            # queued) is filtered at dispatch by the ``_target is ev``
            # guard.
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self._wake_seq = 0  # a pending sleep wake is stale from now on
        interrupt_ev = Event(self.env)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev.callbacks.append(self._resume)
        self.env._push(interrupt_ev, self.env.now, URGENT)

    def _resume(self, event: Optional[Event]) -> None:
        """Send the generator the value of the event it waited on (None
        for a sleep's wake) or throw it the event's failure, then sleep
        or wait as its next yield asks."""
        self._target = None
        try:
            if event is None:
                next_event = self._generator.send(None)
            elif event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except (StopIteration, StopProcess) as stop:
            self._finish(True, stop.value)
            return
        except BaseException as exc:  # process crashed
            self._finish(False, exc)
            return
        env = self.env
        kind = type(next_event)
        if kind is float or kind is tuple:
            when = env.now
            try:
                for d in next_event if kind is tuple else (next_event,):
                    if d < 0:
                        break
                    when += d
                else:
                    env._seqno = seq = env._seqno + 1
                    self._wake_seq = seq
                    heappush(env._queue, (when, NORMAL, seq, self))
                    return
                problem = "slept a negative delay in"
            except TypeError:
                problem = "yielded"
        elif isinstance(next_event, Event):
            if next_event.env is not env:
                self._finish(False, SimulationError(
                    "event from a different environment"))
            elif next_event.callbacks is None:
                # Already fired: a direct resume, its seq drawn from the
                # heap's counter, dispatches where a bridge event at
                # (now, URGENT, seq) would have.
                self._target = next_event
                env._seqno = seq = env._seqno + 1
                env._pending.append((seq, self, next_event))
                env.direct_resumes += 1
            else:
                self._target = next_event
                next_event.callbacks.append(self._resume)
            return
        else:
            problem = "yielded non-event"
        # Raise the misuse in the process, at its yield.
        failed = Event(env)
        failed._ok = False
        failed._value = SimulationError(
            f"process {self.name!r} {problem} {next_event!r}")
        self._resume(failed)

    def _finish(self, ok: bool, value: Any) -> None:
        self._ok = ok
        self._value = value
        env = self.env
        del env._procs[self]
        if env._trace is not None:
            env._trace.record_process(self.name, self._born, env.now)
        env._push(self, env.now, NORMAL)
        self._wake_seq = env._seqno


class Condition(Event):
    """Base for ``AllOf`` / ``AnyOf`` composite wait conditions."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self._count}/{len(self._events)}"
                f" {self._state_repr()}>")

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self._events if ev._ok}


class AllOf(Condition):
    """Fires when all given events have fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self._events)


class AnyOf(Condition):
    """Fires when any one of the given events has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class Environment:
    """The simulation environment: clock plus event queue.

    Perf counters (plain integers; see :mod:`repro.perf.counters`):

    ``events_processed``
        heap entries dispatched -- events and sleep wakes, stale ones
        included (direct resumes counted separately);
    ``direct_resumes``
        already-processed-event resumes served from the deque;
    ``timeouts_created`` / ``timeouts_reused``
        Timeout allocations vs free-list pool hits;
    ``heap_peak``
        high-water mark of the event heap;
    ``events_scheduled``
        total scheduling operations (heap pushes + direct resumes).

    The counters stay readable after :meth:`close`.
    """

    def __init__(self, initial_time: float = 0.0):
        #: current simulated time (written only by the dispatch loop).
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seqno = 0
        #: direct resumes waiting to dispatch: (seq, process, event).
        self._pending: deque[tuple[int, Process, Event]] = deque()
        self._timeout_pool: list[Timeout] = []
        #: processes whose generator has not finished, in creation
        #: order (a dict as an ordered set): what :meth:`close` ends.
        self._procs: dict[Process, None] = {}
        self._closed = False
        #: opt-in simulated-time trace (None = zero-overhead default).
        self._trace = None
        # perf counters
        self.events_processed = 0
        self.direct_resumes = 0
        self.timeouts_created = 0
        self.timeouts_reused = 0
        self.heap_peak = 0

    def enable_trace(self, limit: int = 65536):
        """Attach (and return) a :class:`~repro.sim.trace.KernelTrace`
        recording every dispatch from now on in simulated time."""
        from repro.sim.trace import KernelTrace

        self._trace = KernelTrace(limit=limit)
        return self._trace

    @property
    def trace(self):
        """The attached kernel trace, or None when tracing is off."""
        return self._trace

    @property
    def events_scheduled(self) -> int:
        """Total scheduling operations (heap pushes + direct resumes)."""
        return self._seqno

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """End the simulation.

        Every process still suspended has its generator closed (so its
        ``finally`` blocks run, once), then the event heap, the
        pending-resume deque and the timeout pool are dropped.  Finished
        processes are left as they are, and the perf counters stay
        readable.  Closing twice is harmless; :meth:`run` afterwards
        raises :exc:`SimulationError`.

        What the ``finally`` blocks schedule on the way out (a resource
        released to its next waiter, say) is dropped with the queue and
        is not counted: the counters describe the simulation that ran.
        """
        self._closed = True
        counted = (self._seqno, self.timeouts_created, self.timeouts_reused)
        # A finally block may start a process of its own: close until
        # none is left.
        while self._procs:
            procs, self._procs = self._procs, {}
            for proc in procs:
                # Nothing it waits on, and nothing waiting on it, will
                # fire again: drop both links along with the frame.
                proc._target = None
                proc.callbacks = []
                proc._generator.close()
        self._queue = []
        self._pending.clear()
        self._timeout_pool.clear()
        self._seqno, self.timeouts_created, self.timeouts_reused = counted

    def __enter__(self) -> "Environment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay {delay!r}")
            # A pooled timeout is ok, triggered and not defused
            # already: only what processing changed is reset.
            ev = pool.pop()
            ev.callbacks = []
            ev._value = value
            ev.delay = delay
            self.timeouts_reused += 1
            self._seqno = seq = self._seqno + 1
            heappush(self._queue, (self.now + delay, NORMAL, seq, ev))
            return ev
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: all of ``events``."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: any one of ``events``."""
        return AnyOf(self, events)

    def exit(self, value: Any = None) -> None:
        """Terminate the calling process, returning ``value``."""
        raise StopProcess(value)

    # -- scheduling ---------------------------------------------------------
    def _push(self, event: Event, when: float, priority: int) -> None:
        """Schedule ``event`` at absolute time ``when``."""
        self._seqno = seq = self._seqno + 1
        heappush(self._queue, (when, priority, seq, event))

    def schedule(self, event: Event, when: float, value: Any = None) -> None:
        """Trigger ``event`` to succeed with ``value`` at absolute time
        ``when``: one event standing in for a timeout whose callback
        would succeed it.  Its heap key is the one that timeout would
        get, ``(when, NORMAL, seq)`` with a fresh ``seq``.
        """
        if when < self.now:
            raise SimulationError(f"cannot schedule at {when!r} before now")
        if event._ok is not None:
            raise SimulationError("event already triggered")
        event._ok = True
        event._value = value
        self._seqno = seq = self._seqno + 1
        heappush(self._queue, (when, NORMAL, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        if self._pending:
            return self.now
        return self._queue[0][0] if self._queue else float("inf")

    def _next_is_pending(self) -> bool:
        """True if the pending-resume deque dispatches before the heap."""
        if not self._pending:
            return False
        if not self._queue:
            return True
        when, priority, seq, _ev = self._queue[0]
        now = self.now
        # A pending resume dispatches at (now, URGENT, its seq).
        return when > now or (when == now and (priority == NORMAL
                                               or seq > self._pending[0][0]))

    def step(self) -> None:
        """Process the single next event (slow path; :meth:`run` inlines
        this loop)."""
        if self._next_is_pending():
            _seq, proc, ev = self._pending.popleft()
            if proc._target is ev:
                proc._resume(ev)
            return
        if not self._queue:
            raise SimulationError("no more events")
        when, _prio, seq, event = heappop(self._queue)
        qlen = len(self._queue) + 1
        if qlen > self.heap_peak:
            self.heap_peak = qlen
        self.now = when
        if self._trace is not None:
            self._trace.record_event(when, event)
        if type(event) is Process and (event._wake_seq != seq
                                       or event._ok is None):
            # A sleep's wake (or a stale one, dropped).
            if event._wake_seq == seq:
                event._resume(None)
            self.events_processed += 1
            return
        callbacks = event.callbacks
        event.callbacks = None
        for cb in callbacks:
            cb(event)
        self.events_processed += 1
        if event._ok is False and not event._defused:
            raise event._value
        if type(event) is Timeout and getrefcount(event) == 2 \
                and len(self._timeout_pool) < _POOL_LIMIT:
            event._value = None
            self._timeout_pool.append(event)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        * ``until=None`` -- run to exhaustion;
        * a number -- run until that simulated time;
        * an :class:`Event` -- run until it fires, returning its value.
        """
        if self._closed:
            raise SimulationError("environment is closed")
        if until is None:
            self._dispatch(None)
            return None
        if isinstance(until, Event):
            target = until
            self._dispatch(target)
            if target.callbacks is not None:
                raise SimulationError("event never fired; queue exhausted")
            if target._ok:
                return target._value
            target._defused = True
            raise target._value
        horizon = float(until)
        if horizon < self.now:
            raise SimulationError("cannot run backwards in time")
        self._dispatch(horizon)
        self.now = horizon
        return None

    def _dispatch(self, until: Optional[float | Event]) -> None:
        """The inlined hot dispatch loop behind every :meth:`run` mode.

        ``until`` is ``None`` (exhaust), a float horizon, or a target
        event; the stop checks are arranged so the common per-event
        work touches only local aliases.
        """
        queue = self._queue
        pending = self._pending
        pool = self._timeout_pool
        heappop_ = heappop
        refcount_ = getrefcount
        timeout_type = Timeout
        process_type = Process
        trace_ = self._trace
        horizon = until if type(until) is float else None
        target = until if isinstance(until, Event) else None
        now = self.now
        processed = self.events_processed
        peak = self.heap_peak
        try:
            while True:
                if target is not None and target.callbacks is None:
                    return
                if pending:
                    # A pending resume dispatches at (now, URGENT, seq):
                    # before anything later-or-NORMAL, after earlier
                    # URGENT heap entries -- exactly where the seed
                    # kernel's bridge event would have fired.
                    if queue:
                        head = queue[0]
                        head_when = head[0]
                        run_pending = head_when > now or (
                            head_when == now
                            and (head[1] == NORMAL or head[2] > pending[0][0])
                        )
                    else:
                        run_pending = True
                    if run_pending:
                        _seq, proc, ev = pending.popleft()
                        if proc._target is ev:
                            proc._resume(ev)
                        continue
                elif not queue:
                    return  # exhausted (run() reports a never-fired target)
                if horizon is not None and queue[0][0] > horizon:
                    return
                qlen = len(queue)
                if qlen > peak:
                    peak = qlen
                when, _prio, seq, event = heappop_(queue)
                now = self.now = when
                if trace_ is not None:
                    trace_.record_event(when, event)
                if type(event) is process_type and (
                        event._wake_seq != seq or event._ok is None):
                    # A sleep's wake; a stale one (interrupted) is dropped.
                    if event._wake_seq == seq:
                        event._resume(None)
                    processed += 1
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
                processed += 1
                if event._ok is False and not event._defused:
                    raise event._value
                # Recycle a dead timeout nothing else references: the
                # only live refs are our local and getrefcount's arg.
                if type(event) is timeout_type and refcount_(event) == 2 \
                        and len(pool) < _POOL_LIMIT:
                    event._value = None
                    pool.append(event)
        finally:
            self.events_processed = processed
            self.heap_peak = peak
