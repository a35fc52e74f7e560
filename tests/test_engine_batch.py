"""Tests for the batched engine lane (repro.engine.batch + HorizonEngine).

The lane's contract: same SlotOutcome stream, telemetry, metrics and
certificates as the scalar path, with allocations matching within
certification tolerance (batched and scalar interior-point iterates
both stop at solver tolerance; along degenerate flat-valley directions
the allocations may differ while every KKT certificate still passes —
UFC values agree tightly).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compiled import CompiledQPStructure
from repro.core.strategies import ALL_STRATEGIES, FUEL_CELL, HYBRID
from repro.engine import HorizonEngine, available_solvers, create_solver
from repro.engine.batch import CentralizedBatchSlotSolver, _share_groups
from repro.engine.resilience import ResilienceConfig
from repro.sim.simulator import Simulator


HOURS = 24


@pytest.fixture(scope="module")
def sim(request):
    small_model = request.getfixturevalue("small_model")
    small_bundle = request.getfixturevalue("small_bundle")
    return Simulator(small_model, small_bundle)


@pytest.fixture(scope="module")
def hybrid_problems(sim):
    return [sim.problem_for_slot(t, HYBRID) for t in range(HOURS)]


@pytest.fixture(scope="module")
def mixed_problems(sim):
    """Alternating strategies: exercises per-group batch dispatch."""
    return [
        sim.problem_for_slot(t, ALL_STRATEGIES[t % len(ALL_STRATEGIES)])
        for t in range(HOURS)
    ]


class TestRegistration:
    def test_registered_and_constructible(self):
        assert "centralized-batch" in available_solvers()
        solver = create_solver("centralized-batch")
        assert isinstance(solver, CentralizedBatchSlotSolver)
        assert solver.name == "centralized-batch"

    def test_scalar_solve_delegates_bit_identically(self, hybrid_problems):
        batch_solver = CentralizedBatchSlotSolver()
        scalar_solver = create_solver("centralized")
        problem = hybrid_problems[0]
        compiled = batch_solver.compile(problem.model, problem.strategy)
        a = batch_solver.solve(problem, compiled=compiled)
        b = scalar_solver.solve(
            problem, compiled=scalar_solver.compile(problem.model, problem.strategy)
        )
        assert np.array_equal(a.allocation.lam, b.allocation.lam)
        assert np.array_equal(a.allocation.mu, b.allocation.mu)
        assert np.array_equal(a.allocation.nu, b.allocation.nu)
        assert a.ufc == b.ufc


class TestSolveBatch:
    def test_results_in_input_order_with_diagnostics(self, hybrid_problems):
        solver = CentralizedBatchSlotSolver()
        problems = hybrid_problems[:6]
        compiled = solver.compile(problems[0].model, problems[0].strategy)
        results = solver.solve_batch(problems, compiled=compiled)
        assert len(results) == len(problems)
        for res, problem in zip(results, problems):
            assert res.converged
            assert res.extras["batched"] is True
            assert res.extras["batch_size"] == len(problems)
            eq_dual, ineq_dual = res.extras["duals"]
            assert eq_dual.ndim == 1 and ineq_dual.ndim == 1
            assert res.ufc == problem.ufc(res.allocation)

    def test_single_slot_batch_matches_scalar_within_tolerance(self, hybrid_problems):
        solver = CentralizedBatchSlotSolver()
        problem = hybrid_problems[3]
        compiled = solver.compile(problem.model, problem.strategy)
        [batched] = solver.solve_batch([problem], compiled=compiled)
        scalar = solver.solve(problem, compiled=compiled)
        assert batched.converged and scalar.converged
        assert batched.ufc == pytest.approx(scalar.ufc, rel=1e-6, abs=1e-3)

    def test_empty_batch(self):
        assert CentralizedBatchSlotSolver().solve_batch([]) == []

    def test_without_compiled_structure(self, hybrid_problems):
        """to_qp() fallback when no compiled structure is passed."""
        solver = CentralizedBatchSlotSolver()
        results = solver.solve_batch(hybrid_problems[:3])
        assert all(r.converged for r in results)

    def test_share_groups_partition(self, mixed_problems):
        qps = [p.to_qp() for p in mixed_problems[:6]]
        groups = _share_groups(qps)
        covered = sorted(i for members in groups for i in members)
        assert covered == list(range(6))
        for members in groups:
            rep = qps[members[0]]
            for i in members[1:]:
                assert np.array_equal(rep.A, qps[i].A)
                assert np.array_equal(rep.G, qps[i].G)
        # Alternating strategies cannot all share one structure.
        assert len(groups) > 1


class TestCompiledBatchAssembly:
    def test_qp_for_batch_bit_identical_to_qp_for(self, sim, hybrid_problems):
        for strategy in ALL_STRATEGIES:
            problems = [sim.problem_for_slot(t, strategy) for t in range(8)]
            compiled = CompiledQPStructure(problems[0].model, strategy)
            batch_forms = compiled.qp_for_batch([p.inputs for p in problems])
            for t, problem in enumerate(problems):
                ref = compiled.qp_for(problem.inputs)
                assert np.array_equal(batch_forms[t].P, ref.P), (strategy.name, t)
                assert np.array_equal(batch_forms[t].q, ref.q), (strategy.name, t)
                assert np.array_equal(batch_forms[t].b, ref.b), (strategy.name, t)
                assert batch_forms[t].A is compiled.qp_for(problem.inputs).A
                assert np.array_equal(batch_forms[t].G, ref.G)
                assert np.array_equal(batch_forms[t].h, ref.h)


class TestEngineLane:
    def test_auto_enables_for_capable_solver(self, hybrid_problems):
        engine = HorizonEngine("centralized-batch")
        outcomes = engine.run(hybrid_problems)
        assert engine.last_summary.executor == "serial-batch"
        assert all(o.result is not None and o.result.converged for o in outcomes)
        assert all(o.result.extras.get("batched") for o in outcomes)

    def test_scalar_solver_stays_on_scalar_path(self, hybrid_problems):
        engine = HorizonEngine("centralized")
        engine.run(hybrid_problems[:4])
        assert engine.last_summary.executor == "serial"

    def test_batch_false_forces_scalar_path(self, hybrid_problems):
        engine = HorizonEngine("centralized-batch")
        outcomes = engine.run(hybrid_problems[:4], batch=False)
        assert engine.last_summary.executor == "serial"
        assert all(not o.result.extras.get("batched", False) for o in outcomes)

    def test_parity_with_scalar_lane(self, sim):
        # The paper's three strategies over one day, as one batched
        # run: every slot converges and certifies, and no UFC moves by
        # 1e-2 or more from the scalar lane's.
        problems = [
            sim.problem_for_slot(t, strategy)
            for strategy in ALL_STRATEGIES
            for t in range(HOURS)
        ]
        engine = HorizonEngine("centralized-batch", certify=True)
        batched = engine.run(problems)
        scalar = HorizonEngine("centralized").run(problems)
        assert engine.last_summary.executor == "serial-batch"
        for b, s in zip(batched, scalar):
            assert b.result.converged and s.result.converged
            assert b.certificate is not None and b.certificate.ok
            assert abs(b.result.ufc - s.result.ufc) < 1e-2

    def test_mixed_strategies_group_per_structure(self, mixed_problems):
        engine = HorizonEngine("centralized-batch")
        outcomes = engine.run(mixed_problems)
        assert engine.last_summary.executor == "serial-batch"
        for o, p in zip(outcomes, mixed_problems):
            assert o.result.converged, p.strategy.name
            assert o.result.extras.get("batched")

    def test_every_batched_slot_certifies(self, hybrid_problems):
        engine = HorizonEngine("centralized-batch", certify=True)
        outcomes = engine.run(hybrid_problems)
        assert len(outcomes) == HOURS
        for o in outcomes:
            assert o.certificate is not None, o.index
            assert o.certificate.ok, (o.index, o.certificate)

    def test_telemetry_compile_accounting(self, hybrid_problems):
        engine = HorizonEngine("centralized-batch")
        outcomes = engine.run(hybrid_problems[:6])
        # First slot of the (single) group pays the compile; the rest
        # are cache hits with zero compile time, like the scalar path.
        assert outcomes[0].telemetry.cache_hit is False
        assert all(o.telemetry.cache_hit for o in outcomes[1:])
        assert all(o.telemetry.compile_s == 0.0 for o in outcomes[1:])
        assert all(o.telemetry.wall_s > 0 for o in outcomes)

    def test_pool_batch_executor(self, hybrid_problems):
        engine = HorizonEngine("centralized-batch", workers=2, oversubscribe=True)
        outcomes = engine.run(hybrid_problems)
        assert engine.last_summary.executor == "pool-batch"
        assert all(o.result is not None and o.result.converged for o in outcomes)
        assert [o.index for o in outcomes] == list(range(HOURS))


class TestEngineLaneErrors:
    def test_batch_true_requires_capable_solver(self, hybrid_problems):
        engine = HorizonEngine("centralized")
        with pytest.raises(ValueError, match="solve_batch"):
            engine.run(hybrid_problems[:2], batch=True)

    def test_batch_true_rejects_warm_start(self, hybrid_problems):
        engine = HorizonEngine("centralized-batch")
        with pytest.raises(ValueError, match="warm"):
            engine.run(hybrid_problems[:2], warm_start=True, batch=True)

    def test_batch_true_rejects_resilience(self, hybrid_problems):
        engine = HorizonEngine(
            "centralized-batch", resilience=ResilienceConfig()
        )
        with pytest.raises(ValueError, match="resilience"):
            engine.run(hybrid_problems[:2], batch=True)

    def test_resilience_auto_disables_batching(self, hybrid_problems):
        engine = HorizonEngine(
            "centralized-batch", resilience=ResilienceConfig()
        )
        engine.run(hybrid_problems[:3])
        assert engine.last_summary.executor == "serial"

    def test_poisoned_group_falls_back_per_slot(self, hybrid_problems):
        class PoisonedBatchSolver(CentralizedBatchSlotSolver):
            def solve_batch(self, problems, compiled=None):
                raise RuntimeError("batch kernel poisoned")

        engine = HorizonEngine(PoisonedBatchSolver())
        outcomes = engine.run(hybrid_problems[:5])
        assert engine.last_summary.executor == "serial-batch"
        for o in outcomes:
            assert o.error is None
            assert o.result is not None and o.result.converged
            assert not o.result.extras.get("batched", False)

    def test_per_slot_solve_error_is_isolated(self, hybrid_problems, sim):
        """A group-level failure plus one genuinely broken slot: the
        broken slot reports its error, the others still solve."""

        class BrokenSlotSolver(CentralizedBatchSlotSolver):
            def solve_batch(self, problems, compiled=None):
                raise RuntimeError("force scalar fallback")

            def solve(self, problem, compiled=None, warm=None):
                if problem.inputs.arrivals[0] < 0:
                    raise RuntimeError("poisoned slot")
                return super().solve(problem, compiled=compiled, warm=warm)

        problems = [sim.problem_for_slot(t, HYBRID) for t in range(3)]
        bad = problems[1]
        bad_inputs = type(bad.inputs)(
            arrivals=bad.inputs.arrivals.copy(),
            prices=bad.inputs.prices,
            carbon_rates=bad.inputs.carbon_rates,
        )
        bad_inputs.arrivals[0] = -1.0
        problems[1] = type(bad)(bad.model, bad_inputs, strategy=bad.strategy)

        engine = HorizonEngine(BrokenSlotSolver())
        outcomes = engine.run(problems)
        assert outcomes[0].result is not None
        assert outcomes[2].result is not None
        assert outcomes[1].result is None
        assert outcomes[1].error_type is not None


class TestSolverStrategies:
    @pytest.mark.parametrize("strategy", [HYBRID, FUEL_CELL], ids=lambda s: s.name)
    def test_batched_week_strategy_parity(self, sim, strategy):
        problems = [sim.problem_for_slot(t, strategy) for t in range(12)]
        batched = HorizonEngine("centralized-batch", certify=True).run(problems)
        scalar = HorizonEngine("centralized").run(problems)
        for b, s in zip(batched, scalar):
            assert b.certificate.ok
            assert b.result.ufc == pytest.approx(s.result.ufc, rel=1e-4, abs=1e-2)
