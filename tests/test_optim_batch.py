"""Tests for repro.optim.batch: batched kernels against the scalar solvers.

Two kinds of guarantee are exercised here.  The closed-form kernels
(``project_simplex_batch``, ``solve_capped_rank_one_qp_batch``) promise
*bit-identical* rows versus the scalar calls — those tests use
``np.array_equal``.  The batched interior-point solver promises scalar
*semantics* (same convergence test, same tolerances) but iterates all
instances of one shared constraint structure jointly, so its tests
compare solutions to the scalar solver within solver tolerance and
check the masking/fallback machinery exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.optim.batch import (
    BatchIPQPResult,
    project_simplex_batch,
    solve_capped_rank_one_qp_batch,
    solve_qp_batch,
)
from repro.optim.ipqp import QPKernel, solve_qp
from repro.optim.rank_one import solve_capped_rank_one_qp
from repro.optim.simplex import project_simplex


def _random_qp(rng, n, p, m, scale=1.0):
    """A feasible strictly convex QP with interior point x0."""
    M = rng.normal(size=(n, n))
    P = M @ M.T + 0.5 * np.eye(n)
    q = rng.normal(size=n) * scale
    x0 = rng.normal(size=n)
    A = rng.normal(size=(p, n)) if p else None
    b = A @ x0 if p else None
    G = rng.normal(size=(m, n)) if m else None
    h = G @ x0 + rng.uniform(0.5, 2.0, size=m) if m else None
    return P, q, A, b, G, h


class TestProjectSimplexBatch:
    def test_rows_bit_identical_to_scalar(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(16, 7)) * 10
        totals = rng.uniform(0.0, 5.0, size=16)
        out = project_simplex_batch(v, totals)
        for r in range(16):
            assert np.array_equal(out[r], project_simplex(v[r], totals[r]))

    def test_scalar_total_broadcasts(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(5, 4))
        out = project_simplex_batch(v, 2.0)
        for r in range(5):
            assert np.array_equal(out[r], project_simplex(v[r], 2.0))

    def test_1d_input_rejected(self):
        with pytest.raises(ValueError):
            project_simplex_batch(np.zeros(3), 1.0)


class TestCappedRankOneBatch:
    def test_rows_bit_identical_to_scalar(self):
        rng = np.random.default_rng(2)
        c = rng.normal(size=(24, 6)) * 3
        rho, beta = 0.7, 0.02
        caps = rng.uniform(0.0, 4.0, size=24)
        out = solve_capped_rank_one_qp_batch(c, rho=rho, beta=beta, cap=caps)
        for t in range(24):
            ref = solve_capped_rank_one_qp(c[t], rho=rho, beta=beta, cap=float(caps[t]))
            assert np.array_equal(out[t], ref), t

    def test_binding_cap_rows_match_scalar(self):
        # Large rewards force the capacity to bind on every row.
        rng = np.random.default_rng(3)
        c = rng.uniform(5.0, 10.0, size=(8, 5))
        out = solve_capped_rank_one_qp_batch(c, rho=0.3, beta=0.01, cap=1.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        for t in range(8):
            ref = solve_capped_rank_one_qp(c[t], rho=0.3, beta=0.01, cap=1.0)
            assert np.array_equal(out[t], ref), t

    def test_all_negative_rewards_give_zero(self):
        c = -np.ones((3, 4))
        out = solve_capped_rank_one_qp_batch(c, rho=1.0, beta=0.1, cap=2.0)
        np.testing.assert_allclose(out, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_capped_rank_one_qp_batch(np.zeros(3), rho=1.0, beta=0.1, cap=1.0)
        with pytest.raises(ValueError):
            solve_capped_rank_one_qp_batch(np.zeros((2, 3)), rho=0.0, beta=0.1, cap=1.0)
        with pytest.raises(ValueError):
            solve_capped_rank_one_qp_batch(np.zeros((2, 3)), rho=1.0, beta=0.1, cap=-1.0)


def _shared_batch(rng, n, p, m, T, scale=1.0):
    """T feasible strictly convex QPs sharing one A and G.

    Hessians and linear terms differ per instance; every instance is
    strictly feasible around its own interior point ``x0_t`` (so ``b``
    and ``h`` differ per instance too).
    """
    A = rng.normal(size=(p, n)) if p else None
    G = rng.normal(size=(m, n))
    Ps, qs, bs, hs = [], [], [], []
    for _ in range(T):
        M = rng.normal(size=(n, n))
        Ps.append(M @ M.T + 0.5 * np.eye(n))
        qs.append(rng.normal(size=n) * scale)
        x0 = rng.normal(size=n)
        bs.append(A @ x0 if p else np.zeros(0))
        hs.append(G @ x0 + rng.uniform(0.5, 2.0, size=m))
    return np.stack(Ps), np.stack(qs), A, np.stack(bs) if p else None, G, np.stack(hs)


class TestSolveQPBatchStacked:
    """Per-instance data stacked over the batch axis, one shared A/G."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        P, q, A, b, G, h = _shared_batch(rng, n=6, p=2, m=8, T=5)
        res = solve_qp_batch(P, q, A=A, b=b, G=G, h=h)
        assert res.converged.all()
        assert not res.fallback.any()
        for t in range(len(q)):
            ref = solve_qp(P[t], q[t], A=A, b=b[t], G=G, h=h[t])
            assert ref.converged
            np.testing.assert_allclose(res.x[t], ref.x, atol=1e-6, rtol=1e-6)
            # The shared route equilibrates differently from the scalar
            # one, so both stop inside tol but not at the same point.
            assert res.value[t] == pytest.approx(ref.value, rel=1e-7, abs=1e-7)

    def test_single_instance_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        P, q, A, b, G, h = _shared_batch(rng, n=5, p=1, m=6, T=1)
        res = solve_qp_batch(P, q, A=A, b=b, G=G, h=h)
        ref = solve_qp(P[0], q[0], A=A, b=b[0], G=G, h=h[0])
        assert len(res) == 1
        assert bool(res.converged[0]) == ref.converged
        np.testing.assert_allclose(res.x[0], ref.x, atol=1e-7, rtol=1e-7)

    def test_mixed_difficulty_iteration_masking(self):
        """Joint iteration is per-instance: each instance converges in
        exactly the iterations it would take alone (convergence masking
        freezes finished instances without perturbing stragglers).  The
        solutions agree to rounding, not bit for bit: the shared-matrix
        products run as one BLAS call over the batch, whose rounding
        depends on the batch size."""
        rng = np.random.default_rng(12)
        P, q, _, _, G, h = _shared_batch(rng, n=6, p=0, m=6, T=2)
        q[1] *= 1e4  # badly scaled linear term
        P[1] *= 1e3
        res = solve_qp_batch(P, q, G=G, h=h)
        assert res.converged.all()
        for t in range(2):
            solo = solve_qp_batch(P[t : t + 1], q[t : t + 1], G=G, h=h[t : t + 1])
            assert int(solo.iterations[0]) == int(res.iterations[t])
            np.testing.assert_allclose(solo.x[0], res.x[t], rtol=1e-10, atol=1e-10)

    def test_fallback_instances_carry_scalar_solution(self):
        """Instances the batch cannot converge within max_iter are
        re-solved scalar (same budget) and flagged in the mask."""
        rng = np.random.default_rng(13)
        P, q, _, _, G, h = _shared_batch(rng, n=5, p=0, m=6, T=3)
        res = solve_qp_batch(P, q, G=G, h=h, max_iter=2)
        # Two iterations are never enough: every instance falls back.
        assert res.fallback.all()
        for t in np.nonzero(res.fallback)[0]:
            ref = solve_qp(P[t], q[t], G=G, h=h[t], max_iter=2)
            assert np.array_equal(res.x[t], ref.x)
            assert bool(res.converged[t]) == ref.converged
            assert int(res.iterations[t]) == ref.iterations


class TestSolveQPBatchShared:
    """The shared-structure fast path: one 2-D A/G for the whole batch."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_matches_scalar(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, p, m, T = 7, 2, 10, 6
        _, _, A, _, G, _ = _random_qp(rng, n, p, m)
        x0 = rng.normal(size=n)
        b0 = A @ x0
        qs, Ps, hs = [], [], []
        for _ in range(T):
            M = rng.normal(size=(n, n))
            Ps.append(M @ M.T + 0.5 * np.eye(n))
            qs.append(rng.normal(size=n))
            hs.append(G @ x0 + rng.uniform(0.5, 2.0, size=m))
        res = solve_qp_batch(
            np.stack(Ps), np.stack(qs),
            A=A, b=np.tile(b0, (T, 1)), G=G, h=np.stack(hs),
        )
        assert res.converged.all()
        for t in range(T):
            ref = solve_qp(Ps[t], qs[t], A=A, b=b0, G=G, h=hs[t])
            assert ref.converged
            np.testing.assert_allclose(res.x[t], ref.x, atol=1e-6, rtol=1e-6)
            assert res.value[t] == pytest.approx(ref.value, rel=1e-8, abs=1e-8)

    def test_bound_rows_plus_dense_rows(self):
        """Simple-bound G rows (one nonzero) split from dense rows must
        not change solutions: box-constrained batch vs scalar."""
        rng = np.random.default_rng(42)
        n, T = 5, 4
        G = np.vstack([-np.eye(n), np.eye(n), rng.normal(size=(2, n))])
        x0 = rng.uniform(0.2, 0.8, size=n)
        Ps, qs, hs = [], [], []
        for _ in range(T):
            M = rng.normal(size=(n, n))
            Ps.append(M @ M.T + np.eye(n))
            qs.append(rng.normal(size=n))
            hs.append(G @ x0 + rng.uniform(0.5, 1.5, size=2 * n + 2))
        res = solve_qp_batch(np.stack(Ps), np.stack(qs), G=G, h=np.stack(hs))
        assert res.converged.all()
        for t in range(T):
            ref = solve_qp(Ps[t], qs[t], G=G, h=hs[t])
            # Structural check (split correctness), not a precision
            # race: both solvers stop at tol, so allow solver-tolerance
            # slack along weakly determined directions.
            np.testing.assert_allclose(res.x[t], ref.x, atol=1e-4, rtol=1e-4)
            assert res.value[t] == pytest.approx(ref.value, rel=1e-7, abs=1e-7)

    def test_zero_row_keeps_unit_scale(self):
        """An all-zero inequality row must not inflate its Ruiz scale:
        a 1e36-scaled row made the convergence test vacuously true."""
        rng = np.random.default_rng(0)
        n, T = 3, 3
        P = np.stack([np.diag(rng.uniform(1.0, 3.0, n)) for _ in range(T)])
        q = rng.normal(size=(T, n))
        A, b = np.ones((1, n)), np.ones((T, 1))
        G = np.vstack([-np.eye(n), np.zeros((1, n))])
        h = np.array([0.0, 0.0, 0.0, 1.0])
        _d, _r_a, r_g, _gamma = QPKernel(A, G).ruiz(P, q)
        np.testing.assert_array_equal(r_g[:, -1], 1.0)
        res = solve_qp_batch(P, q, A=A, b=b, G=G, h=h)
        assert res.converged.all()
        for t in range(T):
            ref = solve_qp(P[t], q[t], A=A, b=b[t], G=G, h=h)
            np.testing.assert_allclose(res.x[t], ref.x, atol=1e-6)


class TestSharedLadder:
    """The batched route factors each instance once per iteration and
    sends only the failing instances to the dense route's ladder."""

    def test_batched_rescue_is_the_dense_ladder(self):
        from scipy.linalg.lapack import dgetrf, dgetrs

        from repro.optim.ipqp import _solve_kkt

        # Instance 1 is test_ipqp's ill-conditioned matrix (condition
        # ~1e22, plain residual ~40); instance 0 is healthy.
        r = np.random.default_rng(1)
        n = 6
        q1, _ = np.linalg.qr(r.normal(size=(n, n)))
        q2, _ = np.linalg.qr(r.normal(size=(n, n)))
        bad = (q1 * np.array([1e3, 1.0, 1.0, 1e-2, 1e-8, 1e-19])) @ q2.T
        rhs = r.normal(size=n)
        good = 2.0 * np.eye(n) + 0.1 * r.normal(size=(n, n))
        H = np.stack([good, bad])
        ones, empty = np.ones((2, n)), np.zeros((2, 0))
        system = QPKernel(np.zeros((0, n)), -np.eye(n)).system(
            H, np.zeros((2, n)), empty, ones, (ones, empty, ones, np.ones(2))
        )
        system._factor(H)
        dx, dy = system.solve(np.stack([rhs, rhs]), empty)
        assert dy.shape == (2, 0)
        assert np.abs(bad @ dgetrs(*dgetrf(bad)[:2], rhs)[0] - rhs).max() > 1.0
        np.testing.assert_array_equal(dx[1], _solve_kkt(bad, rhs)[0])
        np.testing.assert_array_equal(dx[0], dgetrs(*dgetrf(good)[:2], rhs)[0])

    def test_singular_instance_rescued_alone(self):
        """An exactly singular instance (a variable no Hessian entry or
        constraint touches) is regularized on its own; the others keep
        the bits they get without it in the batch."""
        rng = np.random.default_rng(21)
        P, q, A, b, G, h = _shared_batch(rng, n=6, p=2, m=8, T=4)
        # A seventh variable, free and untouched by A and G; its
        # curvature is 1 except in instance 2, where it is 0.
        pad = np.zeros((4, 7, 7))
        pad[:, :6, :6] = P
        pad[:, 6, 6] = 1.0
        pad[2, 6, 6] = 0.0
        q = np.hstack([q, np.zeros((4, 1))])
        A = np.hstack([A, np.zeros((2, 1))])
        G = np.hstack([G, np.zeros((8, 1))])
        res = solve_qp_batch(pad, q, A=A, b=b, G=G, h=h)
        assert res.converged.all() and not res.fallback.any()
        assert res.x[2, 6] == 0.0
        rest = [0, 1, 3]
        alone = solve_qp_batch(pad[rest], q[rest], A=A, b=b[rest], G=G, h=h[rest])
        np.testing.assert_array_equal(alone.iterations, res.iterations[rest])
        np.testing.assert_array_equal(alone.x, res.x[rest])
        np.testing.assert_array_equal(alone.ineq_dual, res.ineq_dual[rest])


class TestSolveQPBatchEdges:
    def test_empty_batch(self):
        res = solve_qp_batch(np.zeros((0, 3, 3)), np.zeros((0, 3)))
        assert isinstance(res, BatchIPQPResult)
        assert len(res) == 0
        assert res.x.shape == (0, 3)

    def test_unconstrained_closed_form(self):
        rng = np.random.default_rng(21)
        Ps, qs = [], []
        for _ in range(4):
            M = rng.normal(size=(4, 4))
            Ps.append(M @ M.T + np.eye(4))
            qs.append(rng.normal(size=4))
        res = solve_qp_batch(np.stack(Ps), np.stack(qs))
        assert res.converged.all()
        for t in range(4):
            np.testing.assert_allclose(res.x[t], np.linalg.solve(Ps[t], -qs[t]), atol=1e-8)

    def test_equality_only_closed_form(self):
        rng = np.random.default_rng(22)
        n, p = 5, 2
        M = rng.normal(size=(n, n))
        P = M @ M.T + np.eye(n)
        A = rng.normal(size=(p, n))
        qs = rng.normal(size=(3, n))
        bs = rng.normal(size=(3, p))
        res = solve_qp_batch(np.broadcast_to(P, (3, n, n)), qs, A=A, b=bs)
        assert res.converged.all()
        for t in range(3):
            ref = solve_qp(P, qs[t], A=A, b=bs[t])
            np.testing.assert_allclose(res.x[t], ref.x, atol=1e-7)
            np.testing.assert_allclose(res.eq_dual[t], ref.eq_dual, atol=1e-6)

    def test_shared_2d_hessian_broadcasts(self):
        rng = np.random.default_rng(23)
        M = rng.normal(size=(3, 3))
        P = M @ M.T + np.eye(3)
        qs = rng.normal(size=(5, 3))
        res = solve_qp_batch(P, qs)
        for t in range(5):
            np.testing.assert_allclose(res.x[t], np.linalg.solve(P, -qs[t]), atol=1e-8)

    def test_instance_view(self):
        rng = np.random.default_rng(24)
        P, q, _, _, G, h = _random_qp(rng, 4, 0, 5)
        res = solve_qp_batch(P[None], q[None], G=G, h=h[None])
        inst = res.instance(0)
        assert np.array_equal(inst.x, res.x[0])
        assert inst.value == float(res.value[0])
        assert inst.iterations == int(res.iterations[0])
        assert inst.converged == bool(res.converged[0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_qp_batch(np.zeros((2, 3, 3)), np.zeros(3))  # 1-D q
        with pytest.raises(ValueError):
            solve_qp_batch(np.zeros((2, 4, 4)), np.zeros((2, 3)))  # P/q mismatch
        with pytest.raises(ValueError):
            solve_qp_batch(
                np.zeros((2, 3, 3)), np.zeros((2, 3)),
                G=np.zeros((3, 2, 3)), h=np.zeros((3, 2)),  # wrong batch dim
            )
