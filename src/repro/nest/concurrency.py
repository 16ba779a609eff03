"""Concurrency-model selection (paper, section 4.1).

NeST supports three concurrency architectures -- threads, processes,
and events -- because no single choice wins everywhere: "requests that
hit in the cache may perform best with events, and those that are I/O
bound perform best with threads or processes" [Pai et al.'s Flash].
Rather than asking an administrator, NeST adapts: "distributing
requests among the architectures equally at first, monitoring their
progress, and then slowly biasing requests toward the most effective
choice" -- while still trying all models periodically, which is the
visible *cost of adaptation* in Fig. 5.

The policy here is pure (no threads, no simulated time): harnesses call
:meth:`AdaptiveSelector.choose` per request and
:meth:`AdaptiveSelector.report` per completion.  The simulated server
deals each transfer this way (Fig. 5); the live server makes the
choice once per accepted connection, through
:class:`ServerModelSwitcher`, which embeds the same selector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

#: Model names, as in the paper -- plus SEDA, the staged architecture
#: the paper plans to investigate ("e.g., SEDA and Crovella's
#: experimental server").
THREADS = "threads"
PROCESSES = "processes"
EVENTS = "events"
SEDA = "seda"
ALL_MODELS = (THREADS, PROCESSES, EVENTS, SEDA)


@dataclass
class ModelStats:
    """Running performance statistics for one concurrency model."""

    completions: int = 0
    ewma_goodput: float = 0.0  #: bytes per second of service, smoothed

    def observe(self, nbytes: int, elapsed: float, alpha: float) -> None:
        goodput = nbytes / elapsed if elapsed > 0 else float(nbytes or 1)
        if self.completions == 0:
            self.ewma_goodput = goodput
        else:
            self.ewma_goodput = alpha * goodput + (1 - alpha) * self.ewma_goodput
        self.completions += 1


class Selector:
    """Interface: pick a concurrency model for each incoming transfer."""

    def choose(self) -> str:
        raise NotImplementedError

    def report(self, model: str, nbytes: int, elapsed: float) -> None:
        """Feed back one completed transfer's size and service time."""


class FixedSelector(Selector):
    """Always the same model (the non-adaptive baselines of Fig. 5)."""

    def __init__(self, model: str):
        self.model = model

    def choose(self) -> str:
        return self.model

    def report(self, model: str, nbytes: int, elapsed: float) -> None:
        pass


class AdaptiveSelector(Selector):
    """Explore-then-bias adaptive selection.

    Phases:

    1. **warmup** -- until every model has ``warmup`` completions,
       requests are dealt round-robin (the paper's "distributing
       requests among the architectures equally at first");
    2. **biased** -- requests are distributed by deterministic weighted
       round-robin with each model's weight proportional to its
       smoothed goodput ("slowly biasing requests toward the most
       effective choice").  Every model keeps a weight floor of
       ``probe_floor`` of the best, so NeST "tries all models
       periodically" and can re-adapt when the workload shifts -- this
       continued sampling of the slower model is the visible *cost of
       adaptation* in Fig. 5.

    Deterministic by construction: no randomness, so simulation runs
    reproduce exactly.
    """

    def __init__(
        self,
        models: Sequence[str] = (THREADS, EVENTS),
        warmup: int = 4,
        probe_floor: float = 0.08,
        ewma_alpha: float = 0.25,
    ):
        if not models:
            raise ValueError("need at least one concurrency model")
        self.models = list(models)
        self.warmup = warmup
        self.probe_floor = probe_floor
        self.ewma_alpha = ewma_alpha
        self.stats: dict[str, ModelStats] = {m: ModelStats() for m in self.models}
        self._issued: dict[str, int] = {m: 0 for m in self.models}
        self._credit: dict[str, float] = {m: 0.0 for m in self.models}
        self._counter = 0

    # -- policy ---------------------------------------------------------------
    def _weights(self) -> dict[str, float]:
        best = max(self.stats[m].ewma_goodput for m in self.models)
        if best <= 0:
            return {m: 1.0 for m in self.models}
        return {
            m: max(self.stats[m].ewma_goodput, self.probe_floor * best)
            for m in self.models
        }

    def choose(self) -> str:
        self._counter += 1
        # Warmup: equal distribution until every model has evidence.
        unwarm = [m for m in self.models if self.stats[m].completions < self.warmup]
        if unwarm:
            pick = min(unwarm, key=lambda m: self._issued[m])
            self._issued[pick] += 1
            return pick
        # Biased phase: deterministic weighted round-robin (stride-like
        # credit accumulation) by smoothed goodput.
        weights = self._weights()
        total = sum(weights.values())
        for m in self.models:
            self._credit[m] += weights[m]
        pick = max(self.models, key=lambda m: (self._credit[m], m))
        self._credit[pick] -= total
        self._issued[pick] += 1
        return pick

    def report(self, model: str, nbytes: int, elapsed: float) -> None:
        if model not in self.stats:
            raise ValueError(f"unknown model {model!r}")
        self.stats[model].observe(nbytes, elapsed, self.ewma_alpha)

    # -- introspection -----------------------------------------------------------
    def best_model(self) -> str:
        """The model with the highest smoothed goodput so far."""
        return max(
            self.models,
            key=lambda m: (self.stats[m].ewma_goodput, -self.models.index(m)),
        )

    def distribution(self) -> dict[str, int]:
        """Requests issued per model (for experiment reporting)."""
        return dict(self._issued)


class ServerModelSwitcher:
    """Adaptive *server* architecture selection (Fig. 5, live).

    Where :class:`AdaptiveSelector` deals individual transfers across
    models by measured goodput, the server-architecture choice is
    regime-defining: thread-per-connection collapses at high
    connection counts no matter how good its per-request latency is.
    The switcher is therefore threshold-driven on the live load
    signals -- active connections and transfer queue depth -- with a
    hysteresis band, and only consults measured per-request goodput
    (an embedded :class:`AdaptiveSelector` fed by the server's
    ``observe_request``) in the low-load regime where both
    architectures are viable:

    * ``connections >= high`` (or queue depth >= high): **events** --
      the per-connection thread cost dominates;
    * ``connections <= low``: whichever model has measured better
      (threads until there is evidence);
    * in between: keep the current choice (no flapping).

    Signals are injected as callables so the policy itself stays pure
    and unit-testable; ``interval`` rate-limits signal reads (0
    re-evaluates on every accept).  ``throughput`` (MB/s) is sampled
    into ``last_signals`` for operator visibility alongside the
    decision inputs.

    ``slo_degraded`` is an optional extra signal: when the appliance's
    error budget is burning (see :mod:`repro.obs.slo`), the switcher
    stops consulting per-request goodput and holds the events model --
    the architecture that degrades most gracefully under pressure --
    until the budget recovers.  ``registry`` and ``tracer`` are
    likewise optional: when given, every flip increments
    ``server_model_switch_total{to=...}`` and records an instant
    ``server.model_switch`` span carrying the signal values that
    triggered it, so a trace timeline shows *why* the server changed
    architecture mid-run.
    """

    def __init__(self, connections, queue_depth=None, throughput=None,
                 high: int = 256, low: int = 32, interval: float = 0.25,
                 models: Sequence[str] = (THREADS, EVENTS), clock=None,
                 slo_degraded=None, registry=None, tracer=None):
        import time as _time

        self.connections = connections
        self.queue_depth = queue_depth or (lambda: 0)
        self.throughput = throughput or (lambda: 0.0)
        self.slo_degraded = slo_degraded or (lambda: False)
        self.high = high
        self.low = low
        self.interval = interval
        self.selector = AdaptiveSelector(models=list(models))
        self.clock = clock or _time.monotonic
        self.model = THREADS
        self.flips = 0
        self.last_signals: dict[str, float] = {}
        self._last_eval: float | None = None
        self.tracer = tracer
        self._m_switches = None
        if registry is not None:
            self._m_switches = registry.counter(
                "server_model_switch_total",
                "Server concurrency-architecture switches, by new model.",
                labelnames=("to",))

    def choose(self) -> str:
        """The architecture for the next accepted connection."""
        now = self.clock()
        if (self._last_eval is not None and self.interval > 0
                and now - self._last_eval < self.interval):
            return self.model
        self._last_eval = now
        conns = self.connections()
        depth = self.queue_depth()
        degraded = bool(self.slo_degraded())
        self.last_signals = {
            "connections": conns,
            "queue_depth": depth,
            "throughput_mbps": self.throughput(),
            "slo_degraded": degraded,
        }
        if degraded or conns >= self.high or depth >= self.high:
            pick = EVENTS
        elif conns <= self.low:
            pick = self.selector.best_model()
        else:
            pick = self.model  # hysteresis: hold in the middle band
        if pick != self.model:
            self.flips += 1
            self.model = pick
            self._observe_switch(pick)
        return self.model

    def _observe_switch(self, to: str) -> None:
        if self._m_switches is not None:
            self._m_switches.inc(to=to)
        if self.tracer is not None:
            self.tracer.span("server.model_switch", to=to,
                             **self.last_signals).end()

    def report(self, model: str, nbytes: int, elapsed: float) -> None:
        """Feed one completed request's service time back (the
        low-load regime's evidence)."""
        self.selector.report(model, nbytes, elapsed)


def make_selector(name: str, models: Sequence[str] = (THREADS, EVENTS)) -> Selector:
    """Factory: ``"adaptive"`` or a fixed model name."""
    if name == "adaptive":
        return AdaptiveSelector(models=models)
    if name in ALL_MODELS:
        return FixedSelector(name)
    raise ValueError(f"unknown concurrency selection {name!r}")
