"""Edge-case coverage for the dense interior-point QP solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.optim.ipqp import solve_qp


class TestIPQPEdgeCases:
    def test_iteration_cap_reported(self):
        """An artificially tight cap returns converged=False rather than
        raising, with the best iterate so far."""
        rng = np.random.default_rng(0)
        n = 5
        half = rng.normal(size=(n, n))
        P = half @ half.T + np.eye(n)
        q = rng.normal(size=n)
        res = solve_qp(P, q, G=-np.eye(n), h=np.zeros(n), max_iter=2)
        assert not res.converged
        assert res.iterations == 2
        assert np.isfinite(res.x).all()

    def test_equality_only_duals_satisfy_stationarity(self):
        P = np.diag([2.0, 6.0])
        q = np.array([1.0, -2.0])
        A = np.array([[1.0, -1.0]])
        b = np.array([0.5])
        res = solve_qp(P, q, A=A, b=b)
        stationarity = P @ res.x + q + A.T @ res.eq_dual
        np.testing.assert_allclose(stationarity, 0.0, atol=1e-8)
        np.testing.assert_allclose(A @ res.x, b, atol=1e-10)

    def test_redundant_inequalities_harmless(self):
        """Duplicated rows (rank-deficient G) still solve."""
        res = solve_qp(
            np.array([[2.0]]),
            np.array([-4.0]),
            G=np.array([[1.0], [1.0], [1.0]]),
            h=np.array([1.0, 1.0, 1.0]),
        )
        assert res.converged
        assert res.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_zero_objective_pure_feasibility(self):
        res = solve_qp(
            np.zeros((2, 2)),
            np.zeros(2),
            A=np.array([[1.0, 1.0]]),
            b=np.array([2.0]),
            G=-np.eye(2),
            h=np.zeros(2),
        )
        assert res.converged
        assert res.x.sum() == pytest.approx(2.0, abs=1e-6)
        assert (res.x >= -1e-8).all()
