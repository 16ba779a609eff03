"""The live server's concurrency-architecture choice (paper, section 4.1).

NeST supports several concurrency architectures because no single
choice wins everywhere: "requests that hit in the cache may perform
best with events, and those that are I/O bound perform best with
threads or processes" [Pai et al.'s Flash].  Rather than asking an
administrator, NeST adapts.  The live server makes that choice once
per accepted connection, between its two architectures -- a thread per
connection and the selector-driven event loop -- through
:class:`ServerModelSwitcher`.  The per-transfer selection of Fig. 5
(explore, then bias toward the best model) runs on the simulated
substrate and lives there: :mod:`repro.simnest.concurrency`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The two architectures the live server can route a connection to.
THREADS = "threads"
EVENTS = "events"

#: Smoothing of each model's measured goodput.
EWMA_ALPHA = 0.25


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


class ServerModelSwitcher:
    """Adaptive *server* architecture selection (Fig. 5, live).

    The server-architecture choice is regime-defining:
    thread-per-connection collapses at high connection counts no
    matter how good its per-request latency is.  The switcher is
    therefore threshold-driven on the live load signals -- active
    connections and transfer queue depth -- with a hysteresis band,
    and only consults measured per-request goodput (one
    :class:`ModelStats` per model, fed by the server's
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
                 clock=None, slo_degraded=None, registry=None, tracer=None):
        import time as _time

        self.connections = connections
        self.queue_depth = queue_depth or (lambda: 0)
        self.throughput = throughput or (lambda: 0.0)
        self.slo_degraded = slo_degraded or (lambda: False)
        self.high = high
        self.low = low
        self.interval = interval
        #: measured per-request goodput; THREADS first, so it wins a
        #: tie (and the no-evidence case).
        self.stats = {THREADS: ModelStats(), EVENTS: ModelStats()}
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
            pick = max(self.stats, key=lambda m: self.stats[m].ewma_goodput)
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
        self.stats[model].observe(nbytes, elapsed, EWMA_ALPHA)
