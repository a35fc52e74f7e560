"""Tests for the engine's per-slot fallback chain."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strategies import HYBRID
from repro.engine.horizon import HorizonEngine
from repro.engine.protocol import SlotResult
from repro.obs.ledger import load_run
from repro.obs.metrics import MetricsRegistry
from repro.sim.simulator import Simulator


@pytest.fixture(scope="module")
def problems(small_model, small_bundle):
    sim = Simulator(small_model, small_bundle)
    return [sim.problem_for_slot(t, HYBRID) for t in range(4)]


class _StubSolver:
    """Base stub satisfying the SlotSolver protocol."""

    def compile(self, model, strategy):
        return None

    def _result(self, problem):
        from repro.engine.registry import create_solver

        result = create_solver("proportional").solve(problem)
        return SlotResult(
            allocation=result.allocation,
            ufc=result.ufc,
            iterations=1,
            converged=True,
        )


class BrokenSolver(_StubSolver):
    """Never succeeds."""

    name = "broken"

    def solve(self, problem, compiled=None):
        raise RuntimeError("hard failure")


class DegradedSolver(_StubSolver):
    """Succeeds, but reports every result as a degraded completion."""

    name = "degraded"

    def solve(self, problem, compiled=None):
        result = self._result(problem)
        result.extras["degraded"] = True
        return result


class TestArmedButIdle:
    def test_results_bit_identical_to_plain_engine(self, problems):
        """An armed fallback chain must not perturb healthy runs."""
        plain = HorizonEngine("centralized", workers=1).run(problems)
        armed = HorizonEngine(
            "centralized", workers=1, fallback=("proportional",)
        ).run(problems)
        for a, b in zip(plain, armed):
            assert b.ok
            assert b.attempts == 1
            assert not b.degraded
            assert b.fallback_solver is None
            assert b.chain_errors == ()
            np.testing.assert_array_equal(
                a.result.allocation.lam, b.result.allocation.lam
            )
            assert a.result.ufc == b.result.ufc


class TestRetry:
    def test_budget_exhaustion_without_fallback_fails(self, problems):
        engine = HorizonEngine(BrokenSolver(), workers=1)
        outcomes = engine.run(problems[:2])
        for outcome in outcomes:
            assert not outcome.ok
            assert outcome.attempts == 1
            assert outcome.error_type == "RuntimeError"
            assert outcome.chain_errors == ()


class TestFallbackChain:
    def test_broken_primary_rescued(self, problems):
        engine = HorizonEngine(
            BrokenSolver(),
            workers=1,
            certify=True,
            fallback=("centralized", "proportional"),
        )
        outcomes = engine.run(problems[:2])
        for outcome in outcomes:
            assert outcome.ok
            assert outcome.degraded
            assert outcome.fallback_solver == "centralized"
            assert outcome.attempts == 2  # primary + first fallback
            assert outcome.chain_errors == (
                "broken: RuntimeError: hard failure",
            )
            assert outcome.certificate is not None
            assert outcome.certificate.feasible
        summary = engine.last_summary
        assert summary.fallbacks_total == 2
        assert summary.degraded_slots == (0, 1)
        assert "resilience" in summary.format_table()

    def test_unknown_fallback_name_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown fallback solver.*'bogus'"):
            HorizonEngine("centralized", fallback=("proportional", "bogus"))

    def test_ledger_header_names_the_chain(self, problems, tmp_path):
        engine = HorizonEngine(
            "centralized", fallback=("proportional",), ledger=tmp_path
        )
        engine.run(problems[:1])
        header = load_run(engine.last_ledger_path).header
        assert header["config"]["fallback"] == ["proportional"]


class TestResilienceMetrics:
    def test_counters_recorded(self, problems):
        registry = MetricsRegistry()
        engine = HorizonEngine(
            BrokenSolver(),
            workers=1,
            metrics=registry,
            fallback=("proportional",),
        )
        engine.run(problems[:3])
        retries = registry.counter(
            "repro_engine_slot_retries_total", solver="broken"
        )
        fallbacks = registry.counter(
            "repro_engine_slot_fallbacks_total",
            solver="broken",
            fallback="proportional",
        )
        degraded = registry.counter(
            "repro_engine_degraded_slots_total", solver="broken"
        )
        # 3 slots x (1 failed primary attempt + 1 fallback) = 1 retry each.
        assert retries.value == 3
        assert fallbacks.value == 3
        assert degraded.value == 3


class TestParallelResilience:
    def test_pool_path_carries_resilience(self, problems):
        """The fallback chain rides the process-pool path too."""
        engine = HorizonEngine(
            "distributed",
            workers=2,
            oversubscribe=True,
            fallback=("proportional",),
        )
        outcomes = engine.run(problems)
        assert all(o.ok for o in outcomes)
        # Healthy primary: nothing escalates, ordering preserved.
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert all(o.fallback_solver is None for o in outcomes)


class TestDegradedCompletion:
    def test_flagged_and_never_stored_without_resilience(self, problems, tmp_path):
        """A solver-reported degraded result is flagged on every lane."""
        engine = HorizonEngine(DegradedSolver(), store=tmp_path)
        outcomes = engine.run(problems)
        assert all(o.ok and o.degraded for o in outcomes)
        assert all(o.fallback_solver is None for o in outcomes)
        assert engine.last_summary.degraded_slots == tuple(range(len(problems)))
        # Degraded results never reach the store, so a re-run re-solves.
        engine.run(problems)
        assert engine.last_summary.store_hits == 0
        assert engine.last_summary.store_misses == len(problems)
