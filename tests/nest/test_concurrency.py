"""Unit tests for adaptive concurrency-model selection (the simulated
substrate's per-transfer selector)."""

import pytest

from repro.simnest.concurrency import (
    ALL_MODELS,
    AdaptiveSelector,
    FixedSelector,
    make_selector,
)


class TestFixed:
    def test_always_same(self):
        sel = FixedSelector("events")
        assert [sel.choose() for _ in range(5)] == ["events"] * 5

    def test_report_is_noop(self):
        FixedSelector("threads").report("threads", 10, 1.0)


class TestWarmup:
    def test_equal_distribution_during_warmup(self):
        sel = AdaptiveSelector(models=("threads", "events"), warmup=5)
        picks = [sel.choose() for _ in range(10)]
        assert picks.count("threads") == 5
        assert picks.count("events") == 5

    def test_warmup_ends_per_model_on_completions(self):
        sel = AdaptiveSelector(models=("threads", "events"), warmup=2)
        for _ in range(2):
            sel.report("threads", 100, 1.0)
        # events still unwarm: the next choices go there.
        assert sel.choose() == "events"


class TestBiasing:
    def warm(self, sel, goodputs):
        for model, goodput in goodputs.items():
            for _ in range(sel.warmup):
                sel.report(model, int(goodput), 1.0)

    def test_biases_toward_best(self):
        sel = AdaptiveSelector(models=("threads", "events"), warmup=2)
        self.warm(sel, {"threads": 100, "events": 900})
        picks = [sel.choose() for _ in range(100)]
        assert picks.count("events") > 80

    def test_still_samples_worse_model(self):
        sel = AdaptiveSelector(models=("threads", "events"), warmup=2)
        self.warm(sel, {"threads": 100, "events": 900})
        picks = [sel.choose() for _ in range(100)]
        assert picks.count("threads") >= 5  # the cost of adaptation

    def test_proportional_biasing(self):
        sel = AdaptiveSelector(models=("threads", "events"), warmup=2)
        self.warm(sel, {"threads": 300, "events": 900})
        picks = [sel.choose() for _ in range(400)]
        fraction = picks.count("events") / len(picks)
        assert fraction == pytest.approx(0.75, abs=0.05)

    def test_readapts_when_workload_shifts(self):
        sel = AdaptiveSelector(models=("threads", "events"), warmup=2,
                               ewma_alpha=0.5)
        self.warm(sel, {"threads": 100, "events": 900})
        assert sel.best_model() == "events"
        # The workload turns disk-bound: events throughput collapses.
        for _ in range(20):
            sel.report("events", 10, 1.0)
            sel.report("threads", 500, 1.0)
        assert sel.best_model() == "threads"

    def test_deterministic(self):
        def sequence():
            sel = AdaptiveSelector(models=("threads", "events"), warmup=2)
            out = []
            for i in range(50):
                m = sel.choose()
                out.append(m)
                sel.report(m, 100 if m == "threads" else 300, 1.0)
            return out

        assert sequence() == sequence()


class TestValidation:
    def test_empty_models_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveSelector(models=())

    def test_report_unknown_model_rejected(self):
        sel = AdaptiveSelector(models=("threads",))
        with pytest.raises(ValueError):
            sel.report("fibers", 1, 1.0)

    def test_factory(self):
        assert isinstance(make_selector("adaptive"), AdaptiveSelector)
        for model in ALL_MODELS:
            fixed = make_selector(model)
            assert isinstance(fixed, FixedSelector)
            assert fixed.choose() == model
        with pytest.raises(ValueError):
            make_selector("magic")

    def test_distribution_tracks_issues(self):
        sel = AdaptiveSelector(models=("threads", "events"), warmup=1)
        sel.choose()
        sel.choose()
        assert sum(sel.distribution().values()) == 2
