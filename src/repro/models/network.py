"""Max-min fair-share network link model.

Concurrent TCP flows through one switch port share its capacity
approximately max-min fairly; each flow may additionally be capped by
the remote NIC (e.g. the 100 Mbit Netra clients).  The model is fluid:
every active flow progresses at its current allocation, and the
allocation is recomputed whenever the set of active flows changes.

This is the behaviour Figs. 3 and 4 of the paper depend on: total
delivered bandwidth saturates at the link capacity, and the per-flow
split is decided by who is actively sending -- which is exactly the
knob NeST's transfer-manager scheduling turns.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.core import Environment, Event, SimulationError


class _Flow:
    __slots__ = ("remaining", "kind", "rate", "event")

    def __init__(self, remaining: float, cap: float, event: Event,
                 group: str | None = None):
        self.remaining = remaining
        #: what its allocation depends on: its own cap and its group.
        self.kind = (cap, group)
        self.rate = 0.0
        self.event = event


_EPSILON_BYTES = 1e-6
_EPSILON_TIME = 1e-12
_INF = float("inf")


class FairShareLink:
    """A shared link of ``capacity`` bytes/second with max-min fair flows."""

    def __init__(self, env: Environment, capacity: float, name: str = "link"):
        if capacity <= 0:
            raise SimulationError("link capacity must be positive")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        self._flows: list[_Flow] = []
        #: each flow's ``kind``, in flow order: the allocation's key.
        self._kinds: tuple[tuple[float, Optional[str]], ...] = ()
        self._last_update = env.now
        self._generation = 0
        #: Optional aggregate caps per flow group (e.g. one protocol's
        #: flows collectively limited by its implementation).
        self.group_caps: dict[str, float] = {}
        #: Total bytes ever delivered (for utilization accounting).
        self.bytes_delivered = 0.0
        #: Max-min allocations keyed by the *ordered* tuple of flow
        #: kinds.  The rates are a pure function of that tuple (capacity
        #: and group caps are constant; setting a group cap clears the
        #: cache), and keeping the key ordered preserves the exact
        #: ``budget -= rate`` float sequence, so a cached allocation is
        #: bit-identical to a recomputed one.
        self._alloc_cache: dict[tuple, tuple] = {}
        #: perf counters (see repro.perf): allocation runs vs cache hits.
        self.reallocations = 0
        self.alloc_cache_hits = 0

    # -- public API ---------------------------------------------------------
    def set_group_cap(self, group: str, cap: float) -> None:
        """Limit the aggregate rate of all flows tagged ``group``."""
        self.group_caps[group] = float(cap)
        self._alloc_cache.clear()

    def transfer(self, nbytes: float, cap: float | None = None,
                 group: str | None = None) -> Event:
        """Send ``nbytes`` through the link; the event fires on completion.

        ``cap`` limits this flow's rate (bytes/s), modelling the slower
        endpoint of the path; ``group`` tags the flow for an aggregate
        group cap set via :meth:`set_group_cap`.
        """
        if nbytes < 0:
            raise SimulationError("negative transfer size")
        ev = Event(self.env)
        if nbytes == 0:
            ev.succeed(0.0)
            return ev
        self._reallocate(_Flow(float(nbytes), float(cap) if cap else _INF,
                               ev, group))
        return ev

    @property
    def active_flows(self) -> int:
        """Number of flows currently in progress."""
        return len(self._flows)

    def current_rate(self) -> float:
        """Aggregate bytes/second currently being delivered."""
        return sum(f.rate for f in self._flows)

    # -- internals ----------------------------------------------------------
    def _reallocate(self, new: _Flow | None = None) -> None:
        """Advance all flows to the current time at their assigned rates,
        add ``new``, recompute max-min fair rates and schedule the next
        completion."""
        now = self.env.now
        flows = self._flows
        any_done = False
        elapsed = now - self._last_update
        if elapsed > 0:
            # Local accumulation with the same per-flow addition order is
            # bit-identical to adding onto the attribute each iteration.
            delivered = self.bytes_delivered
            for flow in flows:
                moved = flow.rate * elapsed
                flow.remaining -= moved
                delivered += moved
                if flow.remaining <= _EPSILON_BYTES:
                    any_done = True
            self.bytes_delivered = delivered
        else:
            for flow in flows:
                if flow.remaining <= _EPSILON_BYTES:
                    any_done = True
                    break
        self._last_update = now
        if any_done:
            finished = []
            active = []
            for flow in flows:
                (active if flow.remaining > _EPSILON_BYTES
                 else finished).append(flow)
            self._flows = flows = active
            self._kinds = tuple([f.kind for f in active])
            for flow in finished:
                flow.event.succeed(now)
        if new is not None:
            flows.append(new)
            self._kinds += (new.kind,)
        self._generation += 1
        if not flows:
            return
        self.reallocations += 1
        key = self._kinds
        rates = self._alloc_cache.get(key)
        if rates is not None:
            self.alloc_cache_hits += 1
        else:
            rates = self._allocate(key)
            if len(self._alloc_cache) >= 512:
                self._alloc_cache.clear()
            self._alloc_cache[key] = rates
        # ``horizon`` (time to the next completion) is folded into the
        # rate-assignment loop: same divisions, same minimum as a
        # separate ``min()`` pass, one traversal less.
        horizon = _INF
        for f, rate in zip(flows, rates):
            f.rate = rate
            if rate > 0:
                h = f.remaining / rate
                if h < horizon:
                    horizon = h
        if horizon == _INF:
            # No flow is moving: mirror the seed's empty-min() error.
            raise SimulationError("reallocation with no positive rate")
        horizon = max(horizon, _EPSILON_TIME)
        # The wake carries its generation as its value, so one bound
        # method serves every wake, with no closure per timeout.
        wake = self.env.timeout(horizon, self._generation)
        wake.callbacks.append(self._on_wake)

    def _allocate(self, kinds: tuple) -> tuple[float, ...]:
        """Max-min fair rates for flows of these ``(cap, group)`` kinds,
        in order."""
        # Group caps become tighter per-flow caps for symmetric members:
        # each of a group's n active flows may use at most cap/n, which
        # is exact max-min for symmetric flows (our workloads) and a
        # close bound otherwise.
        group_caps = self.group_caps
        counts: dict[str, int] = {}
        for _cap, g in kinds:
            if g in group_caps:
                counts[g] = counts.get(g, 0) + 1
        shares = {g: group_caps[g] / n for g, n in counts.items()}
        eff = [cap if (share := shares.get(g)) is None or share >= cap
               else share for cap, g in kinds]
        capacity = self.capacity
        if len(eff) == 1:
            # Single flow: the water-fill reduces to min(cap, capacity),
            # spelled with the same comparison it would perform.
            e = eff[0]
            return (e if e <= capacity else capacity,)
        # Water-filling with per-flow caps.
        rates = [0.0] * len(eff)
        pending = list(enumerate(eff))
        budget = capacity
        while pending:
            fair = budget / len(pending)
            capped = [ie for ie in pending if ie[1] <= fair]
            if not capped:
                for i, _e in pending:
                    rates[i] = fair
                break
            for i, e in capped:
                rates[i] = e
                budget -= e
            pending = [ie for ie in pending if ie[1] > fair]
            if budget <= 0:
                for i, _e in pending:
                    rates[i] = 0.0
                break
        return tuple(rates)

    def _on_wake(self, wake: Event) -> None:
        # A wake a newer allocation superseded does nothing.
        if wake._value == self._generation:
            self._reallocate()
