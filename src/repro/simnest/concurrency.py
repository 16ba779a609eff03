"""Per-transfer concurrency-model selection (paper, section 4.1; Fig. 5).

"Distributing requests among the architectures equally at first,
monitoring their progress, and then slowly biasing requests toward the
most effective choice" -- while still trying all models periodically,
which is the visible *cost of adaptation* in Fig. 5.

The policy is pure (no threads, no simulated time): :class:`SimNest`
calls :meth:`Selector.choose` per transfer and :meth:`Selector.report`
per completion.  Only the simulated substrate deals individual
transfers across models; the live server decides once per accepted
connection (:class:`repro.nest.concurrency.ServerModelSwitcher`).
"""

from __future__ import annotations

from typing import Sequence

from repro.nest.concurrency import EVENTS, EWMA_ALPHA, THREADS, ModelStats

#: Model names, as in the paper -- plus SEDA, the staged architecture
#: the paper plans to investigate ("e.g., SEDA and Crovella's
#: experimental server").
PROCESSES = "processes"
SEDA = "seda"
ALL_MODELS = (THREADS, PROCESSES, EVENTS, SEDA)


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
        ewma_alpha: float = EWMA_ALPHA,
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


def make_selector(name: str, models: Sequence[str] = (THREADS, EVENTS)) -> Selector:
    """Factory: ``"adaptive"`` or a fixed model name."""
    if name == "adaptive":
        return AdaptiveSelector(models=models)
    if name in ALL_MODELS:
        return FixedSelector(name)
    raise ValueError(f"unknown concurrency selection {name!r}")
