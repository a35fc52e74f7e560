"""Tests for repro.optim.kkt: the block-elimination KKT path.

The precision contract lives at the linear-algebra layer: for any
barrier weights, the block elimination must solve the same condensed
KKT system as a dense factorization to ~1e-10.  End-to-end solver
parity is gap-limited (any two interior-point runs differ by
O(sqrt(gap)) along weakly-active directions), so whole-solve tests
compare objectives and KKT residuals, not raw iterates.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.core.centralized import CentralizedSolver
from repro.core.compiled import CompiledQPStructure
from repro.core.model import CloudModel
from repro.core.problem import UFCProblem
from repro.core.strategies import HYBRID
from repro.costs.latency import LatencyUtility
from repro.engine import create_solver
from repro.optim.ipqp import solve_qp
from repro.optim.kkt import (
    _EQ_DELTA,
    _BlockKKTFactor,
    StructuredQPCompiler,
    StructuredSlotQP,
    full_reach,
    solve_structured_qp,
)


def random_sqp(
    seed: int,
    m: int = 12,
    n: int = 5,
    k: int = 3,
    include_mu: bool = True,
    include_nu: bool = True,
    diag: float = 2.0,
) -> StructuredSlotQP:
    """A feasible convex reach-sparse QP with random sparsity.

    Each front end's Hessian block is ``diag * I + c l l^T`` with
    ``c > 0``: the paper's Eq. (2) rank-one form.  The default diagonal
    keeps the QP strictly convex, so solver parity compares unique
    solutions; ``diag=0`` gives the bare blocks the latency utilities
    emit.  Feasibility by construction: capacities cover the uniform
    split of every front-end's arrivals, and the power rows are always
    satisfiable because ``nu`` (or ``mu`` up to ``mu_max`` sized above
    peak demand) can absorb any demand.
    """
    rng = np.random.default_rng(seed)
    reach = np.stack([rng.choice(n, size=k, replace=False) for _ in range(m)])
    h_coef = rng.uniform(0.5, 4.0, m)
    h_vec = rng.uniform(0.2, 1.5, (m, k))
    arrivals = rng.uniform(0.5, 2.0, m)
    lam0 = np.repeat(arrivals[:, None] / k, k, axis=1)
    colsum = np.bincount(reach.ravel(), weights=lam0.ravel(), minlength=n)
    capacities = colsum * 1.4 + 0.3
    betas = rng.uniform(0.5, 1.5, n)
    kw = {}
    if include_mu:
        kw["q_mu"] = rng.uniform(40, 90, n)
        # Sized above worst-case demand so mu alone can cover power
        # when the grid block is disabled.
        kw["mu_max"] = betas * capacities + 1.0
    if include_nu:
        kw["p_nu"] = rng.uniform(0.2, 1.0, n)
        kw["q_nu"] = rng.uniform(10, 60, n)
    return StructuredSlotQP(
        reach=reach,
        h_coef=h_coef,
        h_vec=h_vec,
        h_diag=np.full((m, k), diag),
        q_lam=rng.normal(size=(m, k)) * 2.0,
        arrivals=arrivals,
        capacities=capacities,
        alphas=rng.uniform(0.1, 0.4, n),
        betas=betas,
        lam_scale=1.0,
        num_datacenters=n,
        **kw,
    )


def dense_condensed_kkt(sqp: StructuredSlotQP, w: np.ndarray) -> np.ndarray:
    """``[[P + G' diag(w) G, A'], [A, -delta I]]`` via the dense bridge."""
    P, _q, A, _b, G, _h = sqp.to_dense()
    dim, ne = sqp.dim, sqp.num_eq
    kkt = np.zeros((dim + ne, dim + ne))
    kkt[:dim, :dim] = P + G.T @ (w[:, None] * G)
    kkt[:dim, dim:] = A.T
    kkt[dim:, :dim] = A
    kkt[dim:, dim:] = -_EQ_DELTA * np.eye(ne)
    return kkt


def kkt_residuals(sqp: StructuredSlotQP, res) -> tuple[float, float, float]:
    """(dual, equality, complementarity-ish) residuals via matvecs."""
    r_dual = sqp.obj_grad(res.x) + sqp.at_mul(res.eq_dual) + sqp.gt_mul(res.ineq_dual)
    r_eq = sqp.eq_residual(res.x)
    slack = sqp.ineq_slack(res.x)
    comp = float(np.abs(res.ineq_dual * slack).max())
    return float(np.abs(r_dual).max()), float(np.abs(r_eq).max()), comp


SHAPE_CASES = [
    {},  # hybrid-shaped: mu and nu blocks
    {"include_mu": False},  # grid-only
    {"include_nu": False},  # fuel-cell-only
    {"k": 1},  # degenerate fan-in: a single reachable DC per front-end
    {"m": 30, "n": 8, "k": 4},
]


class TestEliminationAlgebra:
    """The elimination solves the same system a dense LU solves."""

    @pytest.mark.parametrize("case", SHAPE_CASES, ids=["hybrid", "no_mu", "no_nu", "k1", "wide"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_kkt_solve(self, case, seed):
        sqp = random_sqp(seed, **case)
        rng = np.random.default_rng(seed + 1000)
        # Barrier weights spanning 12 orders of magnitude — mid-solve
        # interior-point territory.
        w = np.exp(rng.uniform(-6, 6, sqp.num_ineq))
        factor = _BlockKKTFactor(sqp, w)
        kkt = dense_condensed_kkt(sqp, w)
        r1 = rng.normal(size=sqp.dim)
        r2 = rng.normal(size=sqp.num_eq)
        ref = np.linalg.solve(kkt, np.concatenate([r1, r2]))
        dx, dy, resid = factor.solve_refined(r1, r2, 1e-13)
        assert resid < 1e-10
        np.testing.assert_allclose(dx, ref[: sqp.dim], atol=1e-10)
        np.testing.assert_allclose(dy, ref[sqp.dim :], atol=1e-10)

    @pytest.mark.parametrize("case", SHAPE_CASES, ids=["hybrid", "no_mu", "no_nu", "k1", "wide"])
    @pytest.mark.parametrize("seed", range(6))
    def test_saturated_datacenter_matches_dense_accuracy(self, case, seed):
        # Datacenter 0 saturates its capacity and pins its generation
        # bounds: the weights of its capacity, mu and nu rows sit at
        # 1e13.  Refinement must reach the accuracy a pivoted dense LU
        # of the whole condensed system reaches on the same rhs.
        sqp = random_sqp(seed, **case)
        rng = np.random.default_rng(seed + 1000)
        w = np.exp(rng.uniform(-6, 6, sqp.num_ineq))
        cap, _lam, mu_lo, mu_hi, nu_lo = sqp.split_ineq(w)
        for rows in (cap, mu_lo, mu_hi, nu_lo):
            if rows is not None:
                rows[0] = 1e13
        factor = _BlockKKTFactor(sqp, w)
        kkt = dense_condensed_kkt(sqp, w)
        r1 = rng.normal(size=sqp.dim)
        r2 = rng.normal(size=sqp.num_eq)
        rhs = np.concatenate([r1, r2])
        dense_resid = np.abs(kkt @ np.linalg.solve(kkt, rhs) - rhs).max()
        _dx, _dy, resid = factor.solve_refined(r1, r2, 1e-13)
        assert resid <= 4.0 * dense_resid

    @pytest.mark.parametrize("seed", range(6))
    def test_bare_rank_one_blocks_match_dense_kkt_solve(self, seed):
        # The blocks the latency utilities emit: no diagonal, and
        # c = 0 (the linear utility, an idle front end) in every third.
        sqp = random_sqp(seed, diag=0.0)
        sqp.h_coef[::3] = 0.0
        rng = np.random.default_rng(seed + 1000)
        w = np.exp(rng.uniform(-6, 6, sqp.num_ineq))
        factor = _BlockKKTFactor(sqp, w)
        kkt = dense_condensed_kkt(sqp, w)
        r1 = rng.normal(size=sqp.dim)
        r2 = rng.normal(size=sqp.num_eq)
        ref = np.linalg.solve(kkt, np.concatenate([r1, r2]))
        dx, dy, resid = factor.solve_refined(r1, r2, 1e-13)
        assert resid < 1e-10
        np.testing.assert_allclose(dx, ref[: sqp.dim], atol=1e-10)
        np.testing.assert_allclose(dy, ref[sqp.dim :], atol=1e-10)

    def test_residual_vec_matches_dense_matvec(self):
        sqp = random_sqp(3)
        rng = np.random.default_rng(99)
        w = np.exp(rng.uniform(-3, 3, sqp.num_ineq))
        factor = _BlockKKTFactor(sqp, w)
        kkt = dense_condensed_kkt(sqp, w)
        dx = rng.normal(size=sqp.dim)
        dy = rng.normal(size=sqp.num_eq)
        r1 = rng.normal(size=sqp.dim)
        r2 = rng.normal(size=sqp.num_eq)
        res_x, res_eq = factor.residual_vec(dx, dy, r1, r2)
        dense = kkt @ np.concatenate([dx, dy]) - np.concatenate([r1, r2])
        np.testing.assert_allclose(res_x, dense[: sqp.dim], atol=1e-10)
        np.testing.assert_allclose(res_eq, dense[sqp.dim :], atol=1e-10)

    def test_extended_precision_schur_agrees(self):
        sqp = random_sqp(7)
        rng = np.random.default_rng(7)
        w = np.exp(rng.uniform(-4, 4, sqp.num_ineq))
        plain = _BlockKKTFactor(sqp, w)
        extended = _BlockKKTFactor(sqp, w)
        extended.enable_extended()
        r1 = rng.normal(size=sqp.dim)
        r2 = rng.normal(size=sqp.num_eq)
        dx_p, dy_p = plain.solve(r1, r2)
        dx_e, dy_e = extended.solve(r1, r2)
        np.testing.assert_allclose(dx_e, dx_p, atol=1e-10)
        np.testing.assert_allclose(dy_e, dy_p, atol=1e-10)


class TestStructuredSolver:
    """End-to-end solves against the dense route on the same QP."""

    @pytest.mark.parametrize("case", SHAPE_CASES, ids=["hybrid", "no_mu", "no_nu", "k1", "wide"])
    @pytest.mark.parametrize("seed", range(4))
    def test_parity_with_dense_route(self, case, seed):
        sqp = random_sqp(seed, **case)
        rs = solve_structured_qp(sqp, tol=1e-10, max_iter=200)
        P, q, A, b, G, h = sqp.to_dense()
        rd = solve_qp(P, q, A=A, b=b, G=G, h=h, tol=1e-10, max_iter=200)
        assert rs.converged and rd.converged
        # Objectives agree to gap-level accuracy; iterates only to
        # O(sqrt(gap)) (weak-activity degeneracy is generic, and the
        # dense route itself moves as much under a tolerance change).
        scale = 1.0 + abs(rd.value)
        assert abs(rs.value - rd.value) <= 1e-5 * scale
        np.testing.assert_allclose(rs.x, rd.x, atol=1e-3)
        rdual, req, comp = kkt_residuals(sqp, rs)
        assert rdual < 1e-6 and req < 1e-6 and comp < 1e-6

    def test_degenerate_fan_in_forces_lambda(self):
        # k=1: the simplex rows pin lam to the arrivals exactly.
        sqp = random_sqp(11, k=1)
        res = solve_structured_qp(sqp, tol=1e-10, max_iter=200)
        assert res.converged
        lam, _mu, _nu = sqp.split_x(res.x)
        np.testing.assert_allclose(lam[:, 0], sqp.arrivals, atol=1e-7)

    def test_duals_and_value_match_dense(self):
        sqp = random_sqp(5)
        rs = solve_structured_qp(sqp, tol=1e-10, max_iter=200)
        P, q, A, b, G, h = sqp.to_dense()
        rd = solve_qp(P, q, A=A, b=b, G=G, h=h, tol=1e-10, max_iter=200)
        # Capacity prices (the economically meaningful duals) agree.
        np.testing.assert_allclose(
            rs.ineq_dual[: sqp.num_datacenters],
            rd.ineq_dual[: sqp.num_datacenters],
            atol=1e-4,
        )
        assert abs(rs.gap) < 1e-7

    def test_nonconverged_returns_best_iterate(self):
        # Starved of iterations, the solver must hand back its best
        # iterate rather than whatever the last step produced.
        sqp = random_sqp(0)
        res = solve_structured_qp(sqp, tol=1e-12, max_iter=3)
        assert not res.converged
        assert np.isfinite(res.x).all()
        assert np.abs(sqp.eq_residual(res.x)).max() < 10.0


class TestFullReachBridge:
    """reach=None reproduces the dense compiled layout."""

    def test_full_reach_pattern(self):
        reach = full_reach(3, 4)
        assert reach.shape == (3, 4)
        assert (reach == np.arange(4)).all()

    def test_compiler_on_paper_model(self, tiny_model, tiny_inputs):
        compiled = CompiledQPStructure(tiny_model, HYBRID)
        sc = StructuredQPCompiler(tiny_model, HYBRID)
        sqp = sc.structured_qp_for(tiny_inputs)
        qp = compiled.qp_for(tiny_inputs)
        P, q, A, b, G, h = sqp.to_dense()
        # Primal blocks and equality rows share one canonical layout.
        np.testing.assert_array_equal(P, qp.P)
        np.testing.assert_array_equal(q, qp.q)
        np.testing.assert_array_equal(A, qp.A)
        np.testing.assert_array_equal(b, qp.b)
        # Inequality rows agree as sets (the mu bound families are
        # interleaved differently); compare via sorted row signatures.
        sig = lambda M, v: sorted(map(tuple, np.column_stack([M, v]).tolist()))  # noqa: E731
        assert sig(G, h) == sig(qp.G, qp.h)

    def test_forced_structured_mode_agrees_on_objective(
        self, tiny_model, tiny_inputs
    ):
        problem = UFCProblem(tiny_model, tiny_inputs, strategy=HYBRID)
        compiled = CompiledQPStructure(tiny_model, HYBRID)
        dense = CentralizedSolver().solve(problem, compiled)
        structured = create_solver("centralized-structured").solve(problem)
        assert structured.converged
        assert abs(structured.ufc - dense.ufc) <= 1e-4 * (1.0 + abs(dense.ufc))


class _SeparableLatencyUtility(LatencyUtility):
    """``U = -sum_j lam_j^2 L_j / A_i``: a diagonal, full-rank Hessian."""

    def value(self, lam_row, latency_ms, arrival):
        if arrival <= 0:
            return 0.0
        return -float(lam_row**2 @ latency_ms) * 1e-3 / arrival

    def neg_quad_form(self, latency_ms, arrival, weight):
        n = len(latency_ms)
        if arrival <= 0:
            return np.zeros((n, n)), np.zeros(n)
        return np.diag(2e-3 * weight * np.asarray(latency_ms) / arrival), np.zeros(n)


class TestUtilityRouting:
    """A utility without a rank-one form never reaches the block path."""

    def test_non_rank_one_utility_takes_the_dense_route(
        self, tiny_model, tiny_inputs
    ):
        model = CloudModel(
            datacenters=tiny_model.datacenters,
            frontends=tiny_model.frontends,
            latency_ms=tiny_model.latency_ms,
            fuel_cell_price=tiny_model.fuel_cell_price,
            latency_weight=tiny_model.latency_weight,
            utility=_SeparableLatencyUtility(),
            emission_costs=tiny_model.emission_costs,
        )
        problem = UFCProblem(model, tiny_inputs, strategy=HYBRID)
        compiled = CompiledQPStructure(model, HYBRID)
        assert CentralizedSolver().solve(problem, compiled).converged
        with pytest.raises(NotImplementedError, match="rank-one"):
            create_solver("centralized-structured").solve(problem)


class TestReachValidation:
    def test_rejects_duplicate_dc(self):
        reach = np.array([[0, 0]])
        with pytest.raises(ValueError, match="repeat"):
            random_sqp_with_reach(reach)

    def test_rejects_out_of_range(self):
        reach = np.array([[0, 7]])
        with pytest.raises(ValueError):
            random_sqp_with_reach(reach)

    def test_rejects_float_reach(self):
        reach = np.array([[0.0, 1.0]])
        with pytest.raises(ValueError, match="integer"):
            random_sqp_with_reach(reach)


def random_sqp_with_reach(reach: np.ndarray) -> StructuredSlotQP:
    m, k = reach.shape
    n = 3
    return StructuredSlotQP(
        reach=reach,
        h_coef=np.ones(m),
        h_vec=np.ones((m, k)),
        q_lam=np.zeros((m, k)),
        arrivals=np.ones(m),
        capacities=np.full(n, 10.0),
        alphas=np.full(n, 0.1),
        betas=np.ones(n),
        lam_scale=1.0,
        p_nu=np.ones(n),
        q_nu=np.ones(n),
        num_datacenters=n,
    )


def _exact_inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse in exact rational arithmetic."""
    dim = len(mat)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(dim)] for i, row in enumerate(mat)]
    for col in range(dim):
        piv = next(r for r in range(col, dim) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(dim):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[dim:] for row in aug]


#: (barrier weights, latencies in s, curvature c) per bordered block.
CLOSED_FORM_BLOCKS = {
    "weight_spread": (
        [1e-2, 3.0, 1e5, 1e9, 1e13, 1e16],
        [0.012, 0.047, 0.031, 0.008, 0.055, 0.026],
        37.5,
    ),
    "large_c": (
        [1e-2, 3.0, 1e5, 1e9, 1e13, 1e16],
        [0.012, 0.047, 0.031, 0.008, 0.055, 0.026],
        4.0e9,
    ),
    "linear_c0": (
        [1e-2, 3.0, 1e5, 1e9, 1e13, 1e16],
        [0.012, 0.047, 0.031, 0.008, 0.055, 0.026],
        0.0,
    ),
    "ties": (
        [0.5, 2e-2, 1e8, 1e8, 7.0, 1e16],
        [0.02, 0.02, 0.035, 0.035, 0.02, 0.011],
        900.0,
    ),
    "ties_small_weights": (
        [1e-2, 1e-2, 1e-2, 1e-2, 1e-2, 1e-2],
        [0.03, 0.03, 0.03, 0.01, 0.01, 0.05],
        1.0e6,
    ),
    "k1": ([1e-2], [0.04], 250.0),
    "k1_ceiling": ([1e16], [0.04], 0.0),
}


class TestClosedFormBlocks:
    """Each front end's bordered block inverse against exact arithmetic."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_BLOCKS))
    def test_matches_exact_inverse(self, name):
        weights, latencies, coef = CLOSED_FORM_BLOCKS[name]
        k = len(weights)
        sqp = StructuredSlotQP(
            reach=full_reach(1, k),
            h_coef=np.array([coef]),
            h_vec=np.array([latencies]),
            q_lam=np.zeros((1, k)),
            arrivals=np.ones(1),
            capacities=np.full(k, 10.0),
            alphas=np.full(k, 0.1),
            betas=np.ones(k),
            lam_scale=1.0,
            num_datacenters=k,
        )
        w = np.ones(sqp.num_ineq)
        _cap, w_lam, *_ = sqp.split_ineq(w)
        w_lam[0] = weights
        k_inv = _BlockKKTFactor(sqp, w).k_inv[0]

        c, l = Fraction(coef), [Fraction(v) for v in latencies]
        block = [
            [
                (Fraction(weights[a]) if a == b else 0) + c * l[a] * l[b]
                for b in range(k)
            ]
            + [Fraction(1)]
            for a in range(k)
        ]
        block.append([Fraction(1)] * k + [-Fraction(_EQ_DELTA)])
        exact = np.array([[float(v) for v in row] for row in _exact_inverse(block)])

        diag = np.diagonal(exact)
        # Diagonal entries and the corner are relatively accurate.
        np.testing.assert_allclose(np.diagonal(k_inv), diag, rtol=1e-9, atol=0.0)
        # W_top is positive definite, so sqrt(W_aa W_bb) bounds every
        # entry of its row and column: a scale-free bound.
        w_scale = np.sqrt(np.outer(diag[:k], diag[:k]))
        assert (np.abs(k_inv[:k, :k] - exact[:k, :k]) <= 1e-9 * w_scale).all()
        border_scale = np.sqrt(diag[:k] * abs(diag[k]))
        assert (np.abs(k_inv[:k, k] - exact[:k, k]) <= 1e-9 * border_scale).all()
        np.testing.assert_array_equal(k_inv[:k, k], k_inv[k, :k])
