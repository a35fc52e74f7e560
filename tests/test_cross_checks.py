"""Cross-checks between independent solver implementations.

Every optimization kernel is verified against a *different* solver on
the same instance (active-set vs interior-point, exact water-filling
vs interior-point, prox vs epigraph), so a bug would have to appear
identically in two unrelated code paths to slip through.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.admg.solver import ADMGState, DistributedUFCSolver
from repro.core.centralized import optimal_power_split
from repro.core.problem import SlotInputs, UFCProblem
from repro.core.strategies import HYBRID
from repro.optim.ipqp import solve_qp
from repro.optim.rank_one import solve_capped_rank_one_qp
from repro.optim.simplex import minimize_qp_simplex


class TestSimplexQPvsInteriorPoint:
    @given(seed=st.integers(0, 400), total=st.floats(min_value=0.5, max_value=20))
    # The generic cold start's period-3 limit cycle (see
    # tests/test_ipqp.py::TestGenericStartCycle).
    @example(seed=294, total=10.0)
    @settings(max_examples=60, deadline=None)
    def test_same_optimum(self, seed, total):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        half = rng.normal(size=(n, n))
        H = half @ half.T + 0.05 * np.eye(n)
        q = rng.normal(size=n) * 3

        active_set = minimize_qp_simplex(H, q, total)
        ip = solve_qp(
            H, q,
            A=np.ones((1, n)), b=np.array([total]),
            G=-np.eye(n), h=np.zeros(n),
        )
        assert active_set.value == pytest.approx(
            ip.value, abs=1e-5 * max(1.0, abs(ip.value))
        )


class TestRankOneQPvsInteriorPoint:
    @given(seed=st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_same_optimum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        c = rng.normal(size=n) * 4
        rho = float(rng.uniform(0.1, 2.0))
        beta = float(rng.uniform(0.0, 1.0))
        cap = float(rng.uniform(0.5, 10.0))

        exact = solve_capped_rank_one_qp(c, rho=rho, beta=beta, cap=cap)
        P = rho * (np.eye(n) + beta**2 * np.ones((n, n)))
        ip = solve_qp(
            P, -c,
            G=np.vstack([-np.eye(n), np.ones((1, n))]),
            h=np.concatenate([np.zeros(n), [cap]]),
        )

        def value(a):
            return 0.5 * a @ P @ a - c @ a

        assert value(exact) == pytest.approx(
            value(ip.x), abs=1e-5 * max(1.0, abs(value(ip.x)))
        )


class TestPowerSplitVsInteriorPoint:
    def test_fixed_routing_split_matches_full_qp(self, tiny_model, tiny_inputs):
        """For a fixed routing, optimal_power_split must equal the full
        QP restricted to that routing (solved by the IP method)."""
        problem = UFCProblem(tiny_model, tiny_inputs)
        lam = np.array([[300.0, 100.0], [200.0, 400.0], [100.0, 400.0]])
        loads = lam.sum(axis=0)
        mu, nu = optimal_power_split(tiny_model, tiny_inputs, loads)

        # Restricted QP over (mu, nu): power balance per site + bounds.
        n = 2
        demand = tiny_model.alphas + tiny_model.betas * loads
        P = np.zeros((2 * n, 2 * n))
        q = np.concatenate(
            [
                np.full(n, tiny_model.fuel_cell_price),
                tiny_inputs.prices
                + 0.025 * tiny_inputs.carbon_rates,  # $25/t flat tax
            ]
        )
        A = np.hstack([np.eye(n), np.eye(n)])
        G = np.vstack(
            [
                -np.eye(2 * n),
                np.hstack([np.eye(n), np.zeros((n, n))]),
            ]
        )
        h = np.concatenate([np.zeros(2 * n), tiny_model.mu_max])
        ip = solve_qp(P, q, A=A, b=demand, G=G, h=h)
        split_cost = q[:n] @ mu + q[n:] @ nu
        assert split_cost == pytest.approx(ip.value, abs=1e-5)


class TestADMGTrajectoryInvariants:
    def test_lambda_rows_always_feasible(self, small_model, small_bundle):
        """Every prediction's routing block lies on its simplex — an
        invariant of the lambda subproblem, at every iteration."""
        from repro.sim.simulator import Simulator

        problem = Simulator(small_model, small_bundle).problem_for_slot(3, HYBRID)
        solver = DistributedUFCSolver(rho=0.3, tol=1e-3, max_iter=60)
        view, scaled_inputs = solver.scaled_context(problem)
        state = ADMGState.zeros(view.num_frontends, view.num_datacenters)
        for _ in range(25):
            state, prediction = solver.iterate(problem, state)
            np.testing.assert_allclose(
                prediction.lam.sum(axis=1), scaled_inputs.arrivals, rtol=1e-6
            )
            assert (prediction.lam >= -1e-10).all()
            assert (prediction.mu >= -1e-12).all()
            assert (prediction.mu <= view.mu_max + 1e-12).all()
            assert (prediction.nu >= -1e-12).all()
            assert (prediction.a >= -1e-12).all()
            assert (
                prediction.a.sum(axis=0) <= view.capacities * (1 + 1e-9)
            ).all()

    def test_residuals_eventually_small(self, small_model, small_bundle):
        from repro.sim.simulator import Simulator

        problem = Simulator(small_model, small_bundle).problem_for_slot(3, HYBRID)
        solver = DistributedUFCSolver(rho=0.3, tol=1e-4, max_iter=2000)
        res = solver.solve(problem)
        assert res.converged
        # Residual trajectories decay by orders of magnitude overall.
        assert res.coupling_residuals[-1] < 1e-4
        assert res.power_residuals[-1] < 1e-4


class TestObjectiveConsistency:
    @given(seed=st.integers(0, 200))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_qp_and_metrics_agree_on_random_points(self, seed, tiny_model):
        """At random feasible points the compiled QP objective differs
        from the exact metric objective by the same constant (PL
        intercepts), regardless of the point."""
        rng = np.random.default_rng(seed)
        arrivals = rng.uniform(100, 800, size=3)
        inputs = SlotInputs(
            arrivals=arrivals,
            prices=rng.uniform(10, 120, size=2),
            carbon_rates=rng.uniform(100, 900, size=2),
        )
        problem = UFCProblem(tiny_model, inputs)
        qp = problem.to_qp()

        def qp_value(alloc):
            x = np.concatenate(
                [alloc.lam.ravel() / qp.lam_scale, alloc.mu, alloc.nu]
            )
            return 0.5 * x @ qp.P @ x + qp.q @ x

        from repro.core.repair import polish_allocation

        gaps = []
        for _ in range(3):
            w = rng.random((3, 2))
            lam = arrivals[:, None] * w / w.sum(axis=1, keepdims=True)
            alloc = polish_allocation(tiny_model, inputs, lam)
            gaps.append(problem.objective_min(alloc) - qp_value(alloc))
        assert max(gaps) - min(gaps) < 1e-7 * max(1.0, abs(gaps[0]))
