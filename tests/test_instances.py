"""Tests for repro.instances: hyperscale instance generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.centralized import CentralizedSolver
from repro.core.compiled import CompiledQPStructure
from repro.core.strategies import GRID, HYBRID
from repro.engine import create_solver
from repro.instances import ScaleSpec, generate_instance
from repro.optim.kkt import StructuredQPCompiler, solve_structured_qp


@pytest.fixture(scope="module")
def small_instance():
    return generate_instance(
        ScaleSpec(num_datacenters=6, num_frontends=25, hours=24, fan_in=3, seed=7)
    )


class TestSpecValidation:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            ScaleSpec(num_datacenters=0, num_frontends=5)
        with pytest.raises(ValueError):
            ScaleSpec(num_datacenters=5, num_frontends=-1)

    def test_rejects_bad_fan_in(self):
        with pytest.raises(ValueError):
            ScaleSpec(num_datacenters=5, num_frontends=5, fan_in=0)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            ScaleSpec(num_datacenters=5, num_frontends=5, utilization_target=1.5)
        with pytest.raises(ValueError):
            ScaleSpec(num_datacenters=5, num_frontends=5, home_load_fraction=0.0)


class TestGenerator:
    def test_deterministic_in_spec(self, small_instance):
        again = generate_instance(small_instance.spec)
        np.testing.assert_array_equal(again.reach, small_instance.reach)
        np.testing.assert_array_equal(again.arrivals, small_instance.arrivals)
        np.testing.assert_array_equal(again.prices, small_instance.prices)
        np.testing.assert_array_equal(
            again.carbon_rates, small_instance.carbon_rates
        )

    def test_registered_scenario_regions_do_not_change_instances(self, small_instance):
        # The Europe scenario adds its sites to the shared region
        # tables; a spec must still generate the same instance.
        from repro.traces.scenarios import europe_bundle

        europe_bundle(hours=24)
        again = generate_instance(small_instance.spec)
        np.testing.assert_array_equal(again.reach, small_instance.reach)
        np.testing.assert_array_equal(again.prices, small_instance.prices)
        np.testing.assert_array_equal(
            again.carbon_rates, small_instance.carbon_rates
        )

    def test_seed_changes_everything(self, small_instance):
        spec = ScaleSpec(
            num_datacenters=6, num_frontends=25, hours=24, fan_in=3, seed=8
        )
        other = generate_instance(spec)
        assert not np.array_equal(other.arrivals, small_instance.arrivals)
        assert not np.array_equal(other.prices, small_instance.prices)

    def test_shapes(self, small_instance):
        inst = small_instance
        assert inst.model.num_datacenters == 6
        assert inst.model.num_frontends == 25
        assert inst.reach.shape == (25, 3)
        assert inst.arrivals.shape == (24, 25)
        assert inst.prices.shape == (24, 6)
        assert inst.carbon_rates.shape == (24, 6)

    def test_reach_rows_valid(self, small_instance):
        reach = small_instance.reach
        assert reach.dtype.kind == "i"
        assert (reach >= 0).all() and (reach < 6).all()
        # Sorted, duplicate-free rows.
        assert (np.diff(reach, axis=1) > 0).all()

    def test_home_inside_reach(self, small_instance):
        inst = small_instance
        assert (inst.reach == inst.home[:, None]).any(axis=1).all()

    def test_home_routing_is_feasibility_witness(self, small_instance):
        """Routing everything home never exceeds the home budget."""
        inst = small_instance
        budget = inst.spec.home_load_fraction * inst.model.capacities
        for t in range(inst.spec.hours):
            load = np.bincount(
                inst.home, weights=inst.arrivals[t], minlength=6
            )
            assert (load <= budget * (1 + 1e-9)).all()

    def test_full_reach_when_fan_in_none(self):
        inst = generate_instance(
            ScaleSpec(num_datacenters=4, num_frontends=7, hours=6, fan_in=None)
        )
        assert inst.fan_in == 4
        np.testing.assert_array_equal(
            inst.reach, np.tile(np.arange(4), (7, 1))
        )

    def test_fan_in_clamped_to_n(self):
        inst = generate_instance(
            ScaleSpec(num_datacenters=3, num_frontends=5, hours=6, fan_in=10)
        )
        assert inst.fan_in == 3

    def test_traces_physical(self, small_instance):
        inst = small_instance
        assert (inst.arrivals >= 0).all()
        assert (inst.prices > 0).all()
        assert (inst.carbon_rates > 0).all()
        assert 0 < inst.utilization <= inst.spec.utilization_target

    def test_problem_accessors(self, small_instance):
        p = small_instance.problem(3)
        assert p.inputs.arrivals.shape == (25,)
        probs = small_instance.problems(GRID)
        assert len(probs) == 24
        np.testing.assert_array_equal(
            probs[3].inputs.arrivals, p.inputs.arrivals
        )


class TestScaleSolves:
    """Generated slots solve and the structured compiler accepts them."""

    def test_structured_solver_certifies_a_slot(self, small_instance):
        from repro.obs.certify import certify_structured_solution

        inst = small_instance
        sc = StructuredQPCompiler(inst.model, HYBRID, reach=inst.reach)
        sqp = sc.structured_qp_for(inst.inputs(0))
        res = solve_structured_qp(sqp, tol=1e-8, max_iter=120)
        assert res.converged
        alloc = sqp.extract(res.x)
        report = certify_structured_solution(
            sqp,
            inst.problem(0),
            alloc,
            x=res.x,
            duals=(res.eq_dual, res.ineq_dual),
            solver="test",
            slot=0,
        )
        assert report.ok

    def test_dense_and_structured_agree_on_objective(self, small_instance):
        inst = small_instance
        problem = inst.problem(5)
        compiled = CompiledQPStructure(inst.model, HYBRID)
        dense = CentralizedSolver(tol=1e-8).solve(problem, compiled)
        structured = create_solver("centralized-structured", tol=1e-8).solve(problem)
        assert dense.converged and structured.converged
        scale = 1.0 + abs(dense.ufc)
        assert abs(structured.ufc - dense.ufc) <= 1e-4 * scale

    def test_admg_decomposition_solves_generated_instances(self, small_instance):
        """ADM-G is the decomposition alternative on the same instances.

        A generated slot is an ordinary ``UFCProblem``, so the distributed
        ADM-G solver must converge on it and land on the same objective as
        the centralized reference (to decomposition tolerance).
        """
        from repro.admg.solver import DistributedUFCSolver

        inst = small_instance
        problem = inst.problem(0)
        distributed = DistributedUFCSolver().solve(problem)
        centralized = CentralizedSolver(tol=1e-8).solve(problem)
        assert distributed.converged
        scale = 1.0 + abs(centralized.ufc)
        assert abs(distributed.ufc - centralized.ufc) <= 1e-4 * scale
