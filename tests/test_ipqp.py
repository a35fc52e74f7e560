"""Tests for repro.optim.ipqp: the dense interior-point QP solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.optim.ipqp import solve_qp


def scipy_reference(P, q, A=None, b=None, G=None, h=None):
    """Solve the same QP with scipy's trust-constr as an oracle."""
    n = len(q)
    constraints = []
    if A is not None and len(A):
        constraints.append(optimize.LinearConstraint(A, b, b))
    if G is not None and len(G):
        constraints.append(optimize.LinearConstraint(G, -np.inf, h))
    res = optimize.minimize(
        lambda x: 0.5 * x @ P @ x + q @ x,
        np.zeros(n),
        jac=lambda x: P @ x + q,
        method="trust-constr",
        constraints=constraints,
        options={"gtol": 1e-10, "xtol": 1e-12, "maxiter": 3000},
    )
    return res.x, res.fun


class TestUnconstrained:
    def test_simple_quadratic(self):
        res = solve_qp(np.diag([2.0, 4.0]), np.array([-2.0, -8.0]))
        np.testing.assert_allclose(res.x, [1.0, 2.0], atol=1e-8)
        assert res.converged


class TestEqualityOnly:
    def test_projection_onto_hyperplane(self):
        # min ||x||^2 s.t. x1 + x2 = 2 -> x = (1, 1).
        res = solve_qp(
            2 * np.eye(2), np.zeros(2), A=np.array([[1.0, 1.0]]), b=np.array([2.0])
        )
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)
        assert res.converged
        # Dual satisfies stationarity: 2x + A^T y = 0 -> y = -2.
        assert res.eq_dual[0] == pytest.approx(-2.0, abs=1e-8)


class TestInequality:
    def test_active_box_constraint(self):
        # min (x-3)^2 s.t. x <= 1 -> x = 1.
        res = solve_qp(
            np.array([[2.0]]),
            np.array([-6.0]),
            G=np.array([[1.0]]),
            h=np.array([1.0]),
        )
        assert res.converged
        assert res.x[0] == pytest.approx(1.0, abs=1e-7)
        assert res.ineq_dual[0] == pytest.approx(4.0, abs=1e-5)

    def test_inactive_constraint(self):
        res = solve_qp(
            np.array([[2.0]]),
            np.array([-2.0]),
            G=np.array([[1.0]]),
            h=np.array([10.0]),
        )
        assert res.x[0] == pytest.approx(1.0, abs=1e-7)
        assert res.ineq_dual[0] == pytest.approx(0.0, abs=1e-6)

    def test_simplex_lp(self):
        """Pure LP (P = 0) over a simplex picks the cheapest vertex."""
        n = 4
        res = solve_qp(
            np.zeros((n, n)),
            np.array([3.0, 1.0, 2.0, 5.0]),
            A=np.ones((1, n)),
            b=np.array([1.0]),
            G=-np.eye(n),
            h=np.zeros(n),
        )
        assert res.converged
        np.testing.assert_allclose(res.x, [0, 1, 0, 0], atol=1e-6)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_qp(np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            solve_qp(np.eye(2), np.zeros(2), A=np.eye(3), b=np.zeros(3))
        with pytest.raises(ValueError):
            solve_qp(np.eye(2), np.zeros(2), G=np.eye(2), h=np.zeros(3))


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_strictly_convex_qps(self, seed):
        rng = np.random.default_rng(seed)
        n, p, m = 6, 2, 8
        a_half = rng.normal(size=(n, n))
        P = a_half @ a_half.T + 0.5 * np.eye(n)
        q = rng.normal(size=n)
        A = rng.normal(size=(p, n))
        x_feas = rng.uniform(0.5, 1.0, size=n)
        b = A @ x_feas
        G = rng.normal(size=(m, n))
        h = G @ x_feas + rng.uniform(0.2, 2.0, size=m)
        res = solve_qp(P, q, A=A, b=b, G=G, h=h)
        assert res.converged
        _, ref_val = scipy_reference(P, q, A, b, G, h)
        assert res.value == pytest.approx(ref_val, abs=1e-5 * max(1.0, abs(ref_val)))

    @pytest.mark.parametrize("seed", range(4))
    def test_badly_scaled_problems(self, seed):
        """Mixed 1e4 / 1e-4 variable scales (the UFC regime)."""
        rng = np.random.default_rng(100 + seed)
        scales = np.array([1e4, 1e4, 1.0, 1e-2])
        n = 4
        P = np.diag(1.0 / scales**2)
        q = -1.0 / scales
        G = np.vstack([-np.eye(n), np.eye(n)])
        h = np.concatenate([np.zeros(n), 3 * scales])
        res = solve_qp(P, q, G=G, h=h)
        assert res.converged
        np.testing.assert_allclose(res.x, scales, rtol=1e-5)


class TestUFCInstances:
    def test_hybrid_slot_feasible_and_stable(self, small_model, small_bundle):
        """Every strategy/slot compiles and solves to feasibility."""
        from repro.core.problem import SlotInputs, UFCProblem
        from repro.core.strategies import ALL_STRATEGIES

        for t in (0, 7, 15):
            slot = small_bundle.slot(t)
            for strategy in ALL_STRATEGIES:
                problem = UFCProblem(
                    small_model,
                    SlotInputs(
                        arrivals=slot["arrivals"],
                        prices=slot["prices"],
                        carbon_rates=slot["carbon_rates"],
                    ),
                    strategy=strategy,
                )
                qp = problem.to_qp()
                res = solve_qp(qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h)
                assert res.converged, f"slot {t} {strategy.name}"
                alloc = qp.extract(res.x)
                report = problem.check_feasibility(alloc, tol=1e-4)
                assert report.ok, (t, strategy.name, report)


class TestEquilibration:
    @given(seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_equilibration_does_not_change_solution(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        a_half = rng.normal(size=(n, n))
        P = a_half @ a_half.T + np.eye(n)
        q = rng.normal(size=n)
        G = -np.eye(n)
        h = np.zeros(n) + 2.0
        plain = solve_qp(P, q, G=G, h=h, equilibrate=False)
        scaled = solve_qp(P, q, G=G, h=h, equilibrate=True)
        np.testing.assert_allclose(plain.x, scaled.x, atol=1e-6)


class TestEquilibrationCycleFallback:
    def test_limit_cycle_instance_converges(self):
        # Regression: on this instance (hypothesis seed=57 of the
        # simplex cross-check) the 15-sweep equilibration sent the
        # Mehrotra iteration into a period-3 limit cycle that stalled at
        # value 72.4, and only the raw-data retry found the true optimum
        # 19.6.  The 6-sweep Ruiz and the W = I start converge on the
        # equilibrated data, to the raw data's optimum.
        rng = np.random.default_rng(57)
        n = int(rng.integers(2, 7))
        half = rng.normal(size=(n, n))
        P = half @ half.T + 0.05 * np.eye(n)
        q = rng.normal(size=n) * 3
        A = np.ones((1, n))
        b = np.array([7.0])
        res = solve_qp(P, q, A=A, b=b, G=-np.eye(n), h=np.zeros(n))
        assert res.converged
        raw = solve_qp(
            P, q, A=A, b=b, G=-np.eye(n), h=np.zeros(n), equilibrate=False
        )
        assert raw.converged
        assert res.value == pytest.approx(raw.value, rel=1e-12)
        np.testing.assert_allclose(res.x, raw.x, atol=1e-8)

    def test_unconverged_equilibrated_solve_retries_raw(self):
        # A non-converged equilibrated solve falls back to the raw data.
        # On the seed-57 instance the equilibrated run needs one
        # iteration more than the raw one, so a cap between the two
        # makes the retry answer, bit for bit.
        rng = np.random.default_rng(57)
        n = int(rng.integers(2, 7))
        half = rng.normal(size=(n, n))
        P = half @ half.T + 0.05 * np.eye(n)
        q = rng.normal(size=n) * 3
        kwargs = dict(A=np.ones((1, n)), b=np.array([7.0]), G=-np.eye(n),
                      h=np.zeros(n))
        raw = solve_qp(P, q, equilibrate=False, **kwargs)
        assert raw.converged
        assert solve_qp(P, q, max_iter=raw.iterations + 1, **kwargs).iterations > raw.iterations
        res = solve_qp(P, q, max_iter=raw.iterations, **kwargs)
        assert res.converged
        assert res.value == raw.value
        assert (res.x == raw.x).all()

    def test_fallback_reports_trace_of_returned_solve(self):
        rng = np.random.default_rng(57)
        n = int(rng.integers(2, 7))
        half = rng.normal(size=(n, n))
        P = half @ half.T + 0.05 * np.eye(n)
        q = rng.normal(size=n) * 3
        res = solve_qp(
            P, q, A=np.ones((1, n)), b=np.array([7.0]),
            G=-np.eye(n), h=np.zeros(n), trace=True,
        )
        assert res.converged
        assert res.trace is not None
        assert len(res.trace) == res.iterations


class TestGenericStartCycle:
    def test_seed_294_simplex_qp_converges(self):
        # Regression: on this simplex QP (hypothesis seed=294, total=10
        # of the simplex cross-check) the Mehrotra iteration from the
        # generic cold start (x = 0, s = max(h, 1), z = 1) reached
        # primal-dual feasibility (residual 1e-12) and then orbited a
        # period-3 cycle of the gap (56.7, 5.79, 40.9) to the iteration
        # cap at value 65.53, on the equilibrated and on the raw data
        # alike.  From the W = I point it converges on both.
        from repro.optim.simplex import minimize_qp_simplex

        rng = np.random.default_rng(294)
        n = int(rng.integers(2, 7))
        half = rng.normal(size=(n, n))
        H = half @ half.T + 0.05 * np.eye(n)
        q = rng.normal(size=n) * 3
        kwargs = dict(A=np.ones((1, n)), b=np.array([10.0]), G=-np.eye(n),
                      h=np.zeros(n))
        exact = minimize_qp_simplex(H, q, 10.0)
        assert exact.value == pytest.approx(-23.1234, abs=1e-4)
        for equilibrate in (True, False):
            res = solve_qp(H, q, equilibrate=equilibrate, **kwargs)
            assert res.converged
            assert res.value == pytest.approx(exact.value, rel=1e-9)
            np.testing.assert_allclose(res.x, [8.497, 1.503], atol=1e-3)


class TestWorkspaceReuse:
    """The preallocated-workspace micro-optimizations must be invisible:
    repeated solves are bit-identical and inputs are never mutated."""

    def _instance(self, seed=3):
        rng = np.random.default_rng(seed)
        n = 6
        half = rng.normal(size=(n, n))
        P = half @ half.T + np.eye(n)
        q = rng.normal(size=n)
        A = np.ones((1, n))
        b = np.array([2.0])
        G = np.vstack([-np.eye(n), rng.normal(size=(2, n))])
        h = np.concatenate([np.zeros(n), rng.uniform(3.0, 5.0, size=2)])
        return P, q, A, b, G, h

    def test_repeated_solves_bit_identical(self):
        P, q, A, b, G, h = self._instance()
        first = solve_qp(P, q, A=A, b=b, G=G, h=h)
        second = solve_qp(P, q, A=A, b=b, G=G, h=h)
        assert first.converged and second.converged
        assert (first.x == second.x).all()
        assert (first.eq_dual == second.eq_dual).all()
        assert (first.ineq_dual == second.ineq_dual).all()
        assert first.iterations == second.iterations
        assert first.value == second.value

    def test_inputs_not_mutated(self):
        P, q, A, b, G, h = self._instance(seed=4)
        copies = tuple(arr.copy() for arr in (P, q, A, b, G, h))
        res = solve_qp(P, q, A=A, b=b, G=G, h=h)
        assert res.converged
        for original, copy in zip((P, q, A, b, G, h), copies):
            assert (original == copy).all()

    def test_trace_does_not_change_iterates(self):
        P, q, A, b, G, h = self._instance(seed=5)
        plain = solve_qp(P, q, A=A, b=b, G=G, h=h)
        traced = solve_qp(P, q, A=A, b=b, G=G, h=h, trace=True)
        assert (plain.x == traced.x).all()
        assert plain.iterations == traced.iterations


class TestKKTResidualSafeguard:
    """_solve_kkt retries on bad residuals, not only on LinAlgError."""

    def test_healthy_solve_bit_identical(self):
        from scipy.linalg.lapack import dgetrf, dgetrs

        from repro.optim.ipqp import _solve_kkt

        # The residual check observes, never perturbs: a healthy solve
        # is the plain LAPACK LU back-solve of the same matrix.
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 8))
        kkt = a @ a.T + np.eye(8)
        rhs = rng.normal(size=8)
        lu, piv, info = dgetrf(kkt)
        assert info == 0
        np.testing.assert_array_equal(
            _solve_kkt(kkt, rhs)[0], dgetrs(lu, piv, rhs)[0]
        )

    def test_healthy_solve_factors_once_per_iteration(self, monkeypatch):
        import repro.optim.ipqp as ipqp

        # The predictor and the corrector back-solve against one LU:
        # one getrf per Newton step, i.e. every iteration but the final
        # one, which only tests convergence, plus one for the W = I
        # starting point.
        calls = []
        real = ipqp.dgetrf

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ipqp, "dgetrf", counting)
        rng = np.random.default_rng(3)
        n, p, m = 8, 2, 12
        half = rng.normal(size=(n, n))
        x0 = rng.uniform(0.5, 1.0, size=n)
        A = rng.normal(size=(p, n))
        G = rng.normal(size=(m, n))
        res = solve_qp(half @ half.T + np.eye(n), rng.normal(size=n), A=A, b=A @ x0,
                       G=G, h=G @ x0 + 1.0)
        assert res.converged and res.iterations > 3
        assert len(calls) == res.iterations

    def test_bad_residual_triggers_regularized_retry(self):
        from repro.optim.ipqp import _solve_kkt

        # Condition ~1e22: np.linalg.solve does NOT raise (no exactly
        # zero pivot) but returns a direction whose residual is ~40.
        # The safeguard must catch that via the residual check — the
        # old LinAlgError-only fallback silently accepted it.
        r = np.random.default_rng(1)
        n = 6
        q1, _ = np.linalg.qr(r.normal(size=(n, n)))
        q2, _ = np.linalg.qr(r.normal(size=(n, n)))
        kkt = (q1 * np.array([1e3, 1.0, 1.0, 1e-2, 1e-8, 1e-19])) @ q2.T
        rhs = r.normal(size=n)
        raw = np.linalg.solve(kkt, rhs)
        raw_resid = np.abs(kkt @ raw - rhs).max()
        assert raw_resid > 1.0  # the unguarded direction really is bad
        sol, resid = _solve_kkt(kkt, rhs)
        assert np.isfinite(sol).all()
        # The returned residual is the returned direction's own.
        assert resid == np.abs(kkt @ sol - rhs).max() < raw_resid / 10

    def test_exactly_singular_consistent_rhs_recovers(self):
        from repro.optim.ipqp import _solve_kkt

        # Exactly singular (LinAlgError path) with a consistent rhs:
        # the regularized retry produces an accurate direction.
        kkt = np.ones((2, 2))
        sol, _ = _solve_kkt(kkt, rhs=np.array([1.0, 1.0]))
        assert np.abs(kkt @ sol - np.array([1.0, 1.0])).max() < 1e-6

    def test_exactly_singular_after_regularization_raises(self):
        from repro.optim.ipqp import _solve_kkt

        kkt = np.full((2, 2), np.nan)
        with pytest.raises(np.linalg.LinAlgError):
            _solve_kkt(kkt, rhs=np.ones(2))


class TestZeroRowEquilibration:
    """Ruiz equilibration must not inflate exactly-zero rows.

    A vacuous inequality row (all-zero G row with positive h — e.g. a
    capacity constraint for a datacenter outside every front-end's
    reach) used to be upscaled by 1e6 per sweep, producing data so
    badly scaled the relative convergence test passed on garbage
    iterates.
    """

    def _instance_with_zero_row(self, seed=0):
        rng = np.random.default_rng(seed)
        n = 6
        a = rng.normal(size=(n, n))
        P = a @ a.T + np.eye(n)
        q = rng.normal(size=n)
        A = np.ones((1, n))
        b = np.array([3.0])
        G = np.vstack([-np.eye(n), np.zeros((1, n))])
        h = np.concatenate([np.zeros(n), [5.0]])
        return P, q, A, b, G, h

    def test_zero_row_stays_zero_after_equilibration(self):
        from repro.optim.ipqp import QPKernel

        # The scaled row is r_g * G * d: it stays zero whatever r_g is,
        # and its right-hand side r_g * h keeps its value only if the
        # zero row keeps unit scale.
        P, q, A, b, G, h = self._instance_with_zero_row()
        _d, _ra, r_g, _g = QPKernel(A, G).ruiz(P, q)
        assert r_g[-1] == 1.0
        assert r_g[-1] * h[-1] == 5.0

    def test_solve_with_vacuous_row_matches_without(self):
        P, q, A, b, G, h = self._instance_with_zero_row()
        with_row = solve_qp(P, q, A=A, b=b, G=G, h=h)
        without = solve_qp(P, q, A=A, b=b, G=G[:-1], h=h[:-1])
        assert with_row.converged and without.converged
        np.testing.assert_allclose(with_row.x, without.x, atol=1e-7)
        # The genuinely converged solve satisfies its constraints.
        assert np.abs(A @ with_row.x - b).max() < 1e-7
