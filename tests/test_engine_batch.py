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
from repro.core.problem import UFCProblem
from repro.core.strategies import ALL_STRATEGIES, FUEL_CELL, GRID, HYBRID
from repro.costs.carbon import SteppedCarbonTax
from repro.engine import HorizonEngine, available_solvers, create_solver
from repro.engine.batch import ANCHOR_SPACING, CentralizedBatchSlotSolver, _share_groups
from repro.obs import load_run
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

    def test_group_hessians_are_not_copied(self, hybrid_problems, monkeypatch):
        """A group of consecutive compiled slots hands solve_qp_batch its
        anchors as rows of the stack qp_for_batch built, not a copy."""
        import repro.engine.batch as engine_batch

        solver = CentralizedBatchSlotSolver()
        problems = hybrid_problems[:6]
        compiled = solver.compile(problems[0].model, problems[0].strategy)
        forms, seen = [], []
        build = compiled.qp_for_batch

        def record(inputs):
            forms.extend(build(inputs))
            return forms

        monkeypatch.setattr(compiled, "qp_for_batch", record)
        real = engine_batch.solve_qp_batch

        def spy(P, q, **kwargs):
            seen.append((P, q, kwargs["b"]))
            return real(P, q, **kwargs)

        monkeypatch.setattr(engine_batch, "solve_qp_batch", spy)
        results = solver.solve_batch(problems, compiled=compiled)
        assert all(r.converged for r in results)
        [(P, q, b)] = seen
        anchors = forms[::ANCHOR_SPACING]
        assert len(P) == len(anchors)
        for t, form in enumerate(anchors):
            assert np.shares_memory(P[t], form.P)
            assert np.shares_memory(q[t], form.q)
            assert np.shares_memory(b[t], form.b)
            assert np.array_equal(P[t], form.P)

    def test_stack_copies_rows_that_are_not_consecutive(self):
        from repro.engine.batch import _stack

        base = np.zeros((4, 2, 3))
        base[:] = np.arange(24.0).reshape(4, 2, 3)
        assert np.shares_memory(_stack([base[1], base[2]]), base)
        for rows in ([base[0], base[2]], [base[2], base[1]], [base[1].copy()]):
            stacked = _stack(rows)
            assert not np.shares_memory(stacked, base)
            np.testing.assert_array_equal(stacked, np.stack(rows))

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
        # run: every slot converges and certifies, and every UFC is
        # within 1e-6 relative of the scalar lane's.
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
            assert b.result.ufc == pytest.approx(s.result.ufc, rel=1e-6)

    def test_batch_true_with_warm_start_walks(self, hybrid_problems):
        # The batched lane chains its slots itself: asking for warm
        # starts too runs the same lane, anchor then walks.
        engine = HorizonEngine("centralized-batch", certify=True)
        outcomes = engine.run(hybrid_problems, warm_start=True, batch=True)
        plain = HorizonEngine("centralized-batch").run(hybrid_problems, batch=True)
        assert engine.last_summary.executor == "serial-batch"
        mechanisms = [o.result.extras["warm_mechanism"] for o in outcomes]
        assert mechanisms[0] == "batch"
        assert mechanisms[1:].count("active-set") >= 0.9 * (len(outcomes) - 1)
        for a, b in zip(plain, outcomes):
            assert b.certificate.ok
            assert a.result.ufc == b.result.ufc

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


class TestAnchorsAndWalks:
    """Cold anchors, one per ANCHOR_SPACING slots, and walks between them."""

    MECHANISMS = {"batch", "batch-scalar-fallback", "active-set", "cold"}

    def test_every_slot_records_its_mechanism(self, sim, tmp_path):
        problems = [sim.problem_for_slot(t, strategy)
                    for strategy in ALL_STRATEGIES for t in range(HOURS)]
        engine = HorizonEngine("centralized-batch", ledger=tmp_path)
        outcomes = engine.run(problems)
        records = load_run(engine.last_ledger_path).slots
        assert len(records) == len(outcomes)
        for o, record in zip(outcomes, records):
            mechanism = o.result.extras["warm_mechanism"]
            assert mechanism in self.MECHANISMS
            assert record["warm_mechanism"] == mechanism
            # Each strategy's day is one group: its first slot is the
            # anchor, the others are walked from it.
            anchor = o.index % HOURS % ANCHOR_SPACING == 0
            assert (mechanism in ("batch", "batch-scalar-fallback")) == anchor
            if mechanism == "cold":
                assert o.result.extras["warm_fallback_reason"]
        walked = [o for o in outcomes if o.index % HOURS % ANCHOR_SPACING]
        active = [o for o in walked if o.result.extras["warm_mechanism"] == "active-set"]
        assert len(active) >= 0.9 * len(walked)

    def test_anchors_every_spacing_slots(self, hybrid_problems, monkeypatch):
        """A group longer than the spacing gets one anchor per spacing."""
        import repro.engine.batch as engine_batch

        problems = hybrid_problems * 3
        seen = []
        real = engine_batch.solve_qp_batch

        def spy(P, q, **kwargs):
            seen.append(len(q))
            return real(P, q, **kwargs)

        monkeypatch.setattr(engine_batch, "solve_qp_batch", spy)
        solver = CentralizedBatchSlotSolver()
        compiled = solver.compile(problems[0].model, problems[0].strategy)
        results = solver.solve_batch(problems, compiled=compiled)
        assert seen == [-(-len(problems) // ANCHOR_SPACING)]
        for t, res in enumerate(results):
            assert res.converged
            anchor = res.extras["warm_mechanism"] in ("batch", "batch-scalar-fallback")
            assert anchor == (t % ANCHOR_SPACING == 0)

    @pytest.mark.parametrize("strategy", [HYBRID, GRID], ids=lambda s: s.name)
    def test_epigraph_slots_run_on_their_own_kernel(self, sim, strategy):
        """A stepped carbon tax gives every slot epigraph variables, so
        the compiled structure hands out QPs with constraint matrices of
        their own: the lane must solve them on a kernel of those
        matrices, not the structure's, and not drop to the scalar path."""
        model = sim.model.with_emission_costs(
            SteppedCarbonTax(thresholds_kg=[0, 500], rates_per_tonne=[25, 60])
        )
        problems = [
            UFCProblem(model, p.inputs, strategy=strategy)
            for p in (sim.problem_for_slot(t, strategy) for t in range(HOURS))
        ]
        solver = CentralizedBatchSlotSolver()
        compiled = solver.compile(model, strategy)
        assert compiled.qp_for(problems[0].inputs).A is not compiled._A
        assert len(solver.solve_batch(problems, compiled=compiled)) == HOURS

        outcomes = HorizonEngine("centralized-batch", certify=True).run(problems)
        reference = HorizonEngine("centralized").run(problems)
        assert len(outcomes) == HOURS
        for o, ref in zip(outcomes, reference):
            assert o.result.extras["warm_mechanism"] in self.MECHANISMS, o.index
            assert o.certificate is not None and o.certificate.ok, o.index
            assert abs(o.result.ufc - ref.result.ufc) <= 1e-6 * abs(ref.result.ufc)


class TestEngineLaneErrors:
    def test_batch_true_requires_capable_solver(self, hybrid_problems):
        engine = HorizonEngine("centralized")
        with pytest.raises(ValueError, match="solve_batch"):
            engine.run(hybrid_problems[:2], batch=True)

    def test_idle_fallback_keeps_the_batched_lane(self, hybrid_problems):
        plain = HorizonEngine("centralized-batch").run(hybrid_problems)
        engine = HorizonEngine("centralized-batch", fallback=("proportional",))
        armed = engine.run(hybrid_problems)
        assert engine.last_summary.executor == "serial-batch"
        for a, b in zip(plain, armed):
            assert b.result.extras.get("batched")
            assert b.attempts == 1 and b.fallback_solver is None
            for name in ("lam", "mu", "nu"):
                assert np.array_equal(
                    getattr(a.result.allocation, name),
                    getattr(b.result.allocation, name),
                )
            assert a.result.ufc == b.result.ufc

    def test_poisoned_batch_falls_back_per_slot(self, hybrid_problems):
        """A failed group is re-solved slot by slot through the chain."""

        class PoisonedSolver(CentralizedBatchSlotSolver):
            def solve_batch(self, problems, compiled=None):
                raise RuntimeError("batch kernel poisoned")

            def solve(self, problem, compiled=None):
                raise RuntimeError("scalar kernel poisoned")

        engine = HorizonEngine(PoisonedSolver(), fallback=("centralized",))
        outcomes = engine.run(hybrid_problems[:4])
        assert engine.last_summary.executor == "serial-batch"
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        for o in outcomes:
            assert o.ok and o.degraded
            assert o.fallback_solver == "centralized"
            assert o.attempts == 2
            assert o.telemetry.solver == "centralized"
        assert engine.last_summary.fallbacks_total == 4

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

            def solve(self, problem, compiled=None):
                if problem.inputs.arrivals[0] < 0:
                    raise RuntimeError("poisoned slot")
                return super().solve(problem, compiled=compiled)

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
            assert b.result.ufc == pytest.approx(s.result.ufc, rel=1e-6)
