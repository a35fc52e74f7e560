"""Tests for the engine's retry / fallback-chain / quarantine layer."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.strategies import HYBRID
from repro.engine.horizon import HorizonEngine, SlotTimeoutError
from repro.engine.protocol import SlotResult
from repro.engine.resilience import ResilienceConfig, RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.sim.simulator import Simulator


@pytest.fixture(scope="module")
def problems(small_model, small_bundle):
    sim = Simulator(small_model, small_bundle)
    return [sim.problem_for_slot(t, HYBRID) for t in range(4)]


class _StubSolver:
    """Base stub satisfying the SlotSolver protocol."""

    supports_warm_start = False

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


class FlakySolver(_StubSolver):
    """Fails the first attempt on every slot, succeeds on the retry."""

    name = "flaky"

    def __init__(self):
        self.calls: dict[int, int] = {}

    def solve(self, problem, compiled=None, warm=None):
        key = id(problem)
        self.calls[key] = self.calls.get(key, 0) + 1
        if self.calls[key] == 1:
            raise RuntimeError("transient solver hiccup")
        return self._result(problem)


class BrokenSolver(_StubSolver):
    """Never succeeds."""

    name = "broken"

    def solve(self, problem, compiled=None, warm=None):
        raise RuntimeError("hard failure")


class DegradedSolver(_StubSolver):
    """Succeeds, but reports every result as a degraded completion."""

    name = "degraded"

    def solve(self, problem, compiled=None, warm=None):
        result = self._result(problem)
        result.extras["degraded"] = True
        return result


class SlowSolver(_StubSolver):
    """Succeeds, but blows any sub-50ms slot budget."""

    name = "slow"

    def solve(self, problem, compiled=None, warm=None):
        time.sleep(0.05)
        return self._result(problem)


class TestResilienceConfig:
    def test_retry_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(retry=RetryPolicy(), slot_timeout_s=0.0)

    def test_quarantine_requires_fallback(self):
        with pytest.raises(ValueError, match="fallback"):
            ResilienceConfig(retry=RetryPolicy(), quarantine_after=2)

    def test_warm_start_rejected(self, problems):
        engine = HorizonEngine(
            "distributed",
            resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=2)),
        )
        with pytest.raises(ValueError, match="warm-start"):
            engine.run(problems, warm_start=True)


class TestArmedButIdle:
    def test_results_bit_identical_to_plain_engine(self, problems):
        """An armed resilience config must not perturb healthy runs."""
        plain = HorizonEngine("centralized", workers=1).run(problems)
        armed = HorizonEngine(
            "centralized",
            workers=1,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2),
                fallback=("proportional",),
            ),
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
    def test_transient_failures_absorbed(self, problems):
        solver = FlakySolver()
        engine = HorizonEngine(
            solver,
            workers=1,
            resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=2)),
        )
        outcomes = engine.run(problems)
        for outcome in outcomes:
            assert outcome.ok
            assert outcome.attempts == 2
            assert outcome.fallback_solver is None
            assert not outcome.degraded  # the primary recovered
            assert len(outcome.chain_errors) == 1
            assert "transient solver hiccup" in outcome.chain_errors[0]
        assert engine.last_summary.retries_total == len(problems)
        assert engine.last_summary.fallbacks_total == 0

    def test_budget_exhaustion_without_fallback_fails(self, problems):
        engine = HorizonEngine(
            BrokenSolver(),
            workers=1,
            resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=3)),
        )
        outcomes = engine.run(problems[:2])
        for outcome in outcomes:
            assert not outcome.ok
            assert outcome.attempts == 3
            assert outcome.error_type == "RuntimeError"
            assert len(outcome.chain_errors) == 3


class TestFallbackChain:
    def test_broken_primary_rescued(self, problems):
        engine = HorizonEngine(
            BrokenSolver(),
            workers=1,
            certify=True,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1),
                fallback=("centralized", "proportional"),
            ),
        )
        outcomes = engine.run(problems[:2])
        for outcome in outcomes:
            assert outcome.ok
            assert outcome.degraded
            assert outcome.fallback_solver == "centralized"
            assert outcome.attempts == 2  # primary + first fallback
            assert outcome.chain_errors and "broken" in outcome.chain_errors[0]
            assert outcome.certificate is not None
            assert outcome.certificate.feasible
        summary = engine.last_summary
        assert summary.fallbacks_total == 2
        assert summary.degraded_slots == (0, 1)
        assert "resilience" in summary.format_table()

    def test_quarantine_skips_doomed_primary(self, problems):
        engine = HorizonEngine(
            BrokenSolver(),
            workers=1,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2),
                fallback=("proportional",),
                quarantine_after=2,
            ),
        )
        outcomes = engine.run(problems)
        # First two slots burn the primary's full budget before the
        # fallback rescue; from the third on the primary is quarantined.
        assert [o.attempts for o in outcomes] == [3, 3, 1, 1]
        for outcome in outcomes:
            assert outcome.ok
            assert outcome.fallback_solver == "proportional"
        assert any("quarantined" in e for e in outcomes[2].chain_errors)

    def test_timeout_escalates_to_fallback(self, problems):
        engine = HorizonEngine(
            SlowSolver(),
            workers=1,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1),
                fallback=("proportional",),
                slot_timeout_s=0.005,
            ),
        )
        outcomes = engine.run(problems[:1])
        outcome = outcomes[0]
        assert outcome.ok
        assert outcome.fallback_solver == "proportional"
        assert "SlotTimeoutError" in outcome.chain_errors[0]

    def test_slot_timeout_error_is_a_runtime_error(self):
        assert issubclass(SlotTimeoutError, RuntimeError)


class TestResilienceMetrics:
    def test_counters_recorded(self, problems):
        registry = MetricsRegistry()
        engine = HorizonEngine(
            BrokenSolver(),
            workers=1,
            metrics=registry,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2),
                fallback=("proportional",),
            ),
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
        # 3 slots x (2 failed primary attempts + 1 fallback) = 2 retries each.
        assert retries.value == 6
        assert fallbacks.value == 3
        assert degraded.value == 3


class TestParallelResilience:
    def test_pool_path_carries_resilience(self, problems):
        """Fallback rescue works through the process-pool path too."""
        engine = HorizonEngine(
            "distributed",
            workers=2,
            oversubscribe=True,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1),
                fallback=("proportional",),
            ),
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
