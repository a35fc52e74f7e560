"""Tests for the solve-engine layer (repro.engine).

The load-bearing guarantee is *bit-identity*: the engine's compiled
structures, adapters and executors are pure plumbing, so the same
horizon must produce exactly equal arrays whichever path computes it —
serial or process pool, cold or cached, engine or legacy solver call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.admg.solver import DistributedUFCSolver
from repro.baselines.dual_subgradient import DualSubgradientSolver
from repro.core.centralized import CentralizedSolver
from repro.core.compiled import CompiledQPStructure
from repro.core.problem import SlotInputs, UFCProblem
from repro.core.strategies import ALL_STRATEGIES, HYBRID
from repro.costs.carbon import SteppedCarbonTax
from repro.engine import (
    CentralizedSlotSolver,
    CompileCache,
    DistributedSlotSolver,
    DualSubgradientSlotSolver,
    HorizonEngine,
    SlotSolver,
    available_solvers,
    create_solver,
    parallel_map,
    register_solver,
    usable_cpu_count,
)
from repro.engine import registry as registry_module
from repro.obs import list_runs
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulator, build_model
from repro.traces.datasets import default_bundle

WEEK_HOURS = 168


@pytest.fixture(scope="module")
def week_bundle():
    """The paper's full one-week evaluation bundle."""
    return default_bundle(hours=WEEK_HOURS, seed=2014)


@pytest.fixture(scope="module")
def week_model(week_bundle):
    return build_model(week_bundle)


def _assert_results_equal(a: SimulationResult, b: SimulationResult) -> None:
    """Exact (bitwise) equality of every array in two results."""
    assert a.strategy == b.strategy
    for field in (
        "ufc",
        "energy_cost",
        "carbon_cost",
        "carbon_kg",
        "utility",
        "avg_latency_ms",
        "utilization",
        "iterations",
        "converged",
    ):
        lhs, rhs = getattr(a, field), getattr(b, field)
        assert (lhs == rhs).all(), field


class TestRegistry:
    def test_default_is_centralized(self):
        solver = create_solver()
        assert isinstance(solver, CentralizedSlotSolver)
        assert isinstance(solver, SlotSolver)

    def test_all_registered_names_resolve(self):
        for name in available_solvers():
            solver = create_solver(name)
            assert isinstance(solver, SlotSolver)
            assert solver.name == name

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="centralized"):
            create_solver("no-such-solver")

    def test_legacy_instances_are_adapted(self):
        inner = CentralizedSolver()
        adapted = create_solver(inner)
        assert isinstance(adapted, CentralizedSlotSolver)
        assert adapted.inner is inner

        dist = DistributedUFCSolver(rho=0.7)
        adapted = create_solver(dist)
        assert isinstance(adapted, DistributedSlotSolver)
        assert adapted.inner is dist

        dual = DualSubgradientSolver()
        adapted = create_solver(dual)
        assert isinstance(adapted, DualSubgradientSlotSolver)
        assert adapted.inner is dual

    def test_slot_solver_passes_through(self):
        solver = CentralizedSlotSolver()
        assert create_solver(solver) is solver

    def test_unsupported_spec_rejected(self):
        with pytest.raises(TypeError):
            create_solver(42)

    def test_register_custom_solver(self):
        name = "custom-for-test"
        register_solver(name, lambda **kwargs: CentralizedSlotSolver(**kwargs))
        try:
            assert name in available_solvers()
            assert isinstance(create_solver(name), CentralizedSlotSolver)
        finally:
            del registry_module._FACTORIES[name]

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_solver("", lambda **kwargs: CentralizedSlotSolver())


class TestCompiledStructure:
    def test_qp_bit_identical_to_uncompiled(self, week_bundle, week_model):
        for strategy in ALL_STRATEGIES:
            compiled = CompiledQPStructure(week_model, strategy)
            for t in (0, 17, 93, 167):
                slot = week_bundle.slot(t)
                inputs = SlotInputs(
                    arrivals=slot["arrivals"],
                    prices=slot["prices"],
                    carbon_rates=slot["carbon_rates"],
                )
                problem = UFCProblem(week_model, inputs, strategy=strategy)
                reference = problem.to_qp()
                cached = compiled.qp_for(inputs)
                for part in ("P", "q", "A", "b", "G", "h"):
                    assert (getattr(cached, part) == getattr(reference, part)).all(), (
                        f"{strategy.name} slot {t} {part}"
                    )

    def test_epigraph_cost_falls_back_bit_identically(self, week_bundle):
        # Stepped taxes add epigraph variables whose count varies per
        # slot, so the compiled skeleton cannot apply; the fallback
        # must still match to_qp exactly.
        model = build_model(week_bundle).with_emission_costs(
            SteppedCarbonTax(thresholds_kg=(0.0, 200.0), rates_per_tonne=(10.0, 40.0))
        )
        compiled = CompiledQPStructure(model, HYBRID)
        slot = week_bundle.slot(5)
        inputs = SlotInputs(
            arrivals=slot["arrivals"],
            prices=slot["prices"],
            carbon_rates=slot["carbon_rates"],
        )
        reference = UFCProblem(model, inputs, strategy=HYBRID).to_qp()
        cached = compiled.qp_for(inputs)
        for part in ("P", "q", "A", "b", "G", "h"):
            assert (getattr(cached, part) == getattr(reference, part)).all(), part

    def test_matches_rejects_other_model_or_strategy(self, week_bundle, week_model):
        compiled = CompiledQPStructure(week_model, HYBRID)
        slot = week_bundle.slot(0)
        inputs = SlotInputs(
            arrivals=slot["arrivals"],
            prices=slot["prices"],
            carbon_rates=slot["carbon_rates"],
        )
        assert compiled.matches(UFCProblem(week_model, inputs, strategy=HYBRID))
        other_strategy = UFCProblem(week_model, inputs, strategy=ALL_STRATEGIES[0])
        assert other_strategy.strategy is not HYBRID
        assert not compiled.matches(other_strategy)
        other_model = build_model(week_bundle, fuel_cell_price=55.0)
        assert not compiled.matches(
            UFCProblem(other_model, inputs, strategy=HYBRID)
        )


class TestSerialVsProcessEquality:
    """The issue's headline test: the default week-long bundle solved

    serially and through the process pool yields *exactly* equal
    SimulationResult arrays, for all three strategies and both
    optimizing solver kinds.
    """

    def test_centralized_week(self, week_bundle, week_model):
        # oversubscribe forces a real process pool even on 1-CPU CI
        # (the guarded default would fall back to serial there).
        sim = Simulator(
            week_model, week_bundle, solver="centralized", oversubscribe=True
        )
        serial = sim.compare_strategies(workers=1)
        pooled = sim.compare_strategies(workers=3)
        for field in ("grid", "fuel_cell", "hybrid"):
            _assert_results_equal(getattr(serial, field), getattr(pooled, field))

    def test_distributed_week(self, week_bundle, week_model):
        # Executor equality is independent of convergence, so the
        # iteration cap keeps this full-week test fast; Fig. 11 tests
        # cover converged ADM-G behavior.
        solver = DistributedUFCSolver(max_iter=8)
        sim = Simulator(week_model, week_bundle, solver=solver, oversubscribe=True)
        serial = sim.compare_strategies(workers=1)
        pooled = sim.compare_strategies(workers=3)
        for field in ("grid", "fuel_cell", "hybrid"):
            _assert_results_equal(getattr(serial, field), getattr(pooled, field))

    def test_heuristic_day(self, week_bundle, week_model):
        sim = Simulator(
            week_model, week_bundle, solver="nearest", oversubscribe=True
        )
        _assert_results_equal(
            sim.run(HYBRID, hours=24, workers=1),
            sim.run(HYBRID, hours=24, workers=2),
        )

    def test_clamped_pool_equals_serial(self, week_bundle, week_model):
        # The default (guarded) policy: whatever executor it picks on
        # this machine, the results match the serial reference.
        sim = Simulator(week_model, week_bundle, solver="nearest")
        _assert_results_equal(
            sim.run(HYBRID, hours=24, workers=1),
            sim.run(HYBRID, hours=24, workers=4),
        )

    def test_cached_equals_cold(self, week_bundle, week_model):
        # The engine's compiled-structure cache against the per-slot
        # uncompiled reference: each slot assembled from scratch.
        sim = Simulator(week_model, week_bundle)
        problems = [sim.problem_for_slot(t, HYBRID) for t in range(24)]
        solver = create_solver("centralized")
        hot = HorizonEngine("centralized").run(problems)
        for problem, b in zip(problems, hot):
            a = solver.solve(problem)
            assert (a.allocation.lam == b.result.allocation.lam).all()
            assert (a.allocation.mu == b.result.allocation.mu).all()
            assert (a.allocation.nu == b.result.allocation.nu).all()
            assert a.ufc == b.result.ufc
            assert a.iterations == b.result.iterations


class _TrippingSolver:
    """Delegates to the centralized solver, raising on marked slots.

    Slots are marked by their arrivals vector (the only slot identity
    visible to a solver), so the poison survives pickling into pool
    workers.
    """

    name = "tripping"

    def __init__(self, poison_arrivals: np.ndarray) -> None:
        self.poison_arrivals = np.asarray(poison_arrivals)
        self.inner = CentralizedSlotSolver()

    def compile(self, model, strategy):
        """Delegate to the wrapped centralized solver."""
        return self.inner.compile(model, strategy)

    def solve(self, problem, compiled=None):
        """Raise on poisoned slots, delegate otherwise."""
        if np.array_equal(problem.inputs.arrivals, self.poison_arrivals):
            raise RuntimeError("poisoned slot")
        return self.inner.solve(problem, compiled=compiled)


class TestPoisonedSlot:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_is_captured_per_slot(self, week_bundle, week_model, workers):
        poison_index = 7
        solver = _TrippingSolver(week_bundle.slot(poison_index)["arrivals"])
        sim = Simulator(week_model, week_bundle, solver=solver)
        problems = [sim.problem_for_slot(t, HYBRID) for t in range(12)]
        outcomes = HorizonEngine(solver, workers=workers, oversubscribe=True).run(
            problems
        )
        assert [o.index for o in outcomes] == list(range(12))
        for outcome in outcomes:
            if outcome.index == poison_index:
                assert not outcome.ok
                assert outcome.result is None
                assert "poisoned slot" in outcome.error
                # Structured error info survives process-pool pickling.
                assert outcome.error_type == "RuntimeError"
                assert outcome.error_message == "poisoned slot"
                assert outcome.telemetry.error_type == "RuntimeError"
            else:
                assert outcome.ok, outcome.error
                assert outcome.error_type is None
                assert outcome.error_message is None
                assert outcome.result.converged

    def test_simulator_surfaces_failed_slot(self, week_bundle, week_model):
        poison_index = 3
        solver = _TrippingSolver(week_bundle.slot(poison_index)["arrivals"])
        sim = Simulator(week_model, week_bundle, solver=solver)
        with pytest.raises(RuntimeError, match=r"slot 3"):
            sim.run(HYBRID, hours=6)


class TestWarmStart:
    """``warm_start=True`` asks for the batched lane, whose solver walks
    the slots; a solver without ``solve_batch`` refuses it."""

    @staticmethod
    def _problems(week_bundle, week_model, hours=2):
        sim = Simulator(week_model, week_bundle)
        return [sim.problem_for_slot(t, HYBRID) for t in range(hours)]

    def test_centralized_rejects_warm_start(self, week_bundle, week_model):
        problems = self._problems(week_bundle, week_model)
        with pytest.raises(ValueError, match="solve_batch"):
            HorizonEngine("centralized").run(problems, warm_start=True)

    def test_engine_rejects_warm_start_without_support(self, week_bundle, week_model):
        problems = self._problems(week_bundle, week_model)
        with pytest.raises(ValueError, match="solve_batch"):
            HorizonEngine("distributed").run(problems, warm_start=True)

    def test_warm_start_rejects_the_per_slot_path(self, week_bundle, week_model):
        problems = self._problems(week_bundle, week_model)
        with pytest.raises(ValueError, match="batch=None"):
            HorizonEngine("centralized-warm").run(
                problems, warm_start=True, batch=False
            )

    def test_warm_start_runs_on_a_pool(self, week_bundle, week_model):
        problems = self._problems(week_bundle, week_model, hours=8)
        engine = HorizonEngine(
            "centralized-warm", workers=2, oversubscribe=True, certify=True
        )
        outcomes = engine.run(problems, warm_start=True)
        assert engine.last_summary.executor == "pool-batch"
        dense = HorizonEngine("centralized").run(problems)
        for a, b in zip(dense, outcomes):
            assert b.certificate.ok
            assert b.result.ufc == pytest.approx(a.result.ufc, rel=1e-6)


class TestPoolPolicy:
    """Worker clamping and the serial fallback (the 0.95x regression fix)."""

    def test_serial_requested(self):
        engine = HorizonEngine("centralized", workers=1)
        effective, decision, _ = engine.plan_workers(100)
        assert effective == 1
        assert decision == "serial:requested"

    def test_single_slot_is_serial(self):
        engine = HorizonEngine("centralized", workers=4)
        effective, decision, _ = engine.plan_workers(1)
        assert effective == 1
        assert decision == "serial:single-slot"

    def test_clamped_to_usable_cpus(self):
        usable = usable_cpu_count()
        engine = HorizonEngine("centralized", workers=usable + 7)
        effective, decision, reported = engine.plan_workers(100)
        assert reported == usable
        assert effective <= usable
        if usable <= 1:
            assert effective == 1
            assert decision == "serial:fallback-single-cpu"
        else:
            assert effective == usable
            assert decision == "pool:clamped-to-cpus"

    def test_oversubscribe_disables_clamp(self):
        engine = HorizonEngine(
            "centralized", workers=usable_cpu_count() + 7, oversubscribe=True
        )
        effective, decision, _ = engine.plan_workers(100)
        assert effective == usable_cpu_count() + 7
        assert decision == "pool:oversubscribed"

    def test_decision_is_recorded_not_silent(
        self, week_bundle, week_model, tmp_path
    ):
        sim = Simulator(week_model, week_bundle, solver="nearest", ledger=tmp_path)
        result = sim.run(HYBRID, hours=4, workers=64)
        summary = result.horizon_summary
        (run,) = list_runs(tmp_path)
        assert run.summary["workers_requested"] == summary.workers_requested == 64
        assert run.summary["decision"] == summary.decision
        assert run.summary["workers_effective"] == summary.workers_effective
        assert summary.workers_effective <= usable_cpu_count()


class TestCompileCacheIdentity:
    """The compiled-structure cache must never serve a stale entry.

    The old cache keyed on bare ``id(model)``: after a transient model
    was garbage-collected, CPython could hand its address to a new
    model, which then *hit* the stale compiled structure.  The cache
    now holds a strong reference to each keyed model and verifies
    identity on hit.
    """

    def test_hit_requires_same_object(self, week_bundle, week_model):
        cache = CompileCache(CentralizedSlotSolver())
        compiled, hit, elapsed = cache.lookup(week_model, HYBRID)
        assert not hit and elapsed >= 0.0
        again, hit, _ = cache.lookup(week_model, HYBRID)
        assert hit and again is compiled
        assert (cache.hits, cache.misses) == (1, 1)

    def test_recycled_id_never_hits_stale_entry(self, week_bundle, week_model):
        # Simulate the failure mode directly: plant week_model's
        # compiled structure under another model's id-key, exactly the
        # state a freed-then-reallocated address would leave behind.
        cache = CompileCache(CentralizedSlotSolver())
        stale, _, _ = cache.lookup(week_model, HYBRID)
        other_model = build_model(week_bundle, fuel_cell_price=55.0)
        cache._entries[(id(other_model), HYBRID)] = (week_model, stale)
        compiled, hit, _ = cache.lookup(other_model, HYBRID)
        assert not hit
        assert compiled is not stale
        assert compiled.matches(
            UFCProblem(
                other_model,
                SlotInputs(
                    arrivals=week_bundle.slot(0)["arrivals"],
                    prices=week_bundle.slot(0)["prices"],
                    carbon_rates=week_bundle.slot(0)["carbon_rates"],
                ),
                strategy=HYBRID,
            )
        )

    def test_cached_model_cannot_be_collected(self, week_bundle):
        # The strong reference makes id recycling impossible while the
        # cache lives: a cached model must survive its external refs.
        import gc
        import weakref

        model = build_model(week_bundle)
        ref = weakref.ref(model)
        cache = CompileCache(CentralizedSlotSolver())
        cache.lookup(model, HYBRID)
        del model
        gc.collect()
        assert ref() is not None, "cache must pin the keyed model"
        del cache
        gc.collect()
        assert ref() is None


class TestEngineValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            HorizonEngine("centralized", workers=0)

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError):
            HorizonEngine("centralized", chunk_size=0)

    def test_empty_horizon(self):
        assert HorizonEngine("centralized").run([]) == []


def _square(x: float) -> float:
    return x * x


def _raise_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("three")
    return x


class TestParallelMap:
    def test_order_preserved(self):
        items = list(range(10))
        assert parallel_map(_square, items, workers=3) == [x * x for x in items]

    def test_serial_fallback(self):
        assert parallel_map(_square, [2.0], workers=4) == [4.0]

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError, match="three"):
            parallel_map(_raise_on_three, [1, 2, 3], workers=2)
