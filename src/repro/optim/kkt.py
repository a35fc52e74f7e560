"""Block-elimination KKT path for the UFC QP at scale.

The dense Mehrotra solver in :mod:`repro.optim.ipqp` factorizes an
``(n + p)``-dimensional KKT system per Newton step; with ``n = M*N +
2N`` that is O((MN)^3) per slot and already minutes-per-slot at 100
datacenters x 1000 front-ends.  But the UFC QP is nowhere near dense:

- each front-end ``i`` owns a private ``lambda_i`` block whose Hessian
  is diagonal-plus-rank-one (the quadratic latency utility contributes
  ``c l l^T`` with ``c = 2w/A_i``; the log-barrier weights contribute
  the diagonal), tied together only by its own simplex row
  ``1^T lambda_i = a_i``;
- each datacenter ``j`` owns two scalars (``mu_j``, ``nu_j``) with a
  diagonal Hessian, tied only to its own power-balance row;
- the *only* cross-front-end coupling is the N capacity rows and the N
  power rows.

This module exploits that: the per-front-end ``(k+1) x (k+1)``
bordered blocks (``k`` = reachable datacenters per front-end) are
inverted by a cancellation-free closed form (no LAPACK inverse, no
stored Hessian block), and the per-datacenter scalars and the
power-balance multipliers are eliminated in closed form too, leaving
a dense ``N x N`` Schur system per Newton step.  Cost per
interior-point iteration drops from O((Mk + 2N)^3) to O(M k^3 + N^3)
— linear in the number of front-ends.

Three public layers:

- :class:`StructuredSlotQP` — a reach-sparse slot QP (never
  materializes the dense ``P``/``G``; a (100, 1000) instance fits in a
  few MB instead of ~80 GB of dense constraint matrices).
- :func:`solve_structured_qp` — the interior-point loop of
  :mod:`repro.optim.ipqp` (same residuals, same step rule, same
  convergence test as :func:`~repro.optim.ipqp.solve_qp`) over the
  block-arrowhead Newton system, where every Newton step goes through
  the block elimination.  Each Newton solution is verified by an
  explicit ``||KKT . sol - rhs||`` residual check with escalating
  regularization on failure — the structured analogue of the dense
  solver's singular-KKT fallback.
- :class:`StructuredQPCompiler` — the slot-invariant compilation
  (reach pattern, restricted latency rows, scaled capacities/betas),
  the structured twin of
  :class:`~repro.core.compiled.CompiledQPStructure`.

This is the one route of the ``centralized-structured`` lane; the
dense ``centralized`` lane never takes it.  Every solve starts cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from repro.optim.ipqp import IPQPResult, _mehrotra, _NewtonSystem, _record_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.model import CloudModel
    from repro.core.problem import SlotInputs, UFCProblem
    from repro.core.strategies import Strategy

__all__ = [
    "StructuredSlotQP",
    "StructuredQPCompiler",
    "solve_structured_qp",
    "full_reach",
]

#: Equality-row regularization, matching the dense solver's
#: ``kkt[n:, n:] = -1e-12`` diagonal exactly.
_EQ_DELTA = 1e-12

#: Relative Newton-residual threshold above which iterative refinement
#: (and then the regularized retry) is triggered (mirrors the ipqp
#: residual-check satellite).
_NEWTON_RESIDUAL_TOL = 1e-6

#: Escalating diagonal regularization levels for retried
#: factorizations, *relative* to the condensed Hessian's diagonal
#: scale — the barrier weights reach 1e9+ near convergence, where an
#: absolute 1e-8 would be far below roundoff.
_REG_LEVELS = (1e-12, 1e-9, 1e-6)

#: Iterative-refinement sweep cap per factorization.  The block
#: elimination (closed-form per-front-end inverses + dense Schur) is not
#: backward stable the way a pivoted LU of the full KKT matrix is;
#: each refinement sweep against the exact structured matvec contracts
#: the error by the factorization's relative accuracy, so a handful of
#: sweeps recovers LU-grade residuals even at barrier weights ~1e12.
_MAX_REFINE_SWEEPS = 6

#: Refinement target relative to the right-hand-side scale.  Meeting
#: merely the acceptance threshold (1e-6) is not enough near
#: convergence: the interior-point dual residual floors at the Newton
#: residual while the complementarity gap keeps shrinking, and the
#: joint convergence test never fires.  Refining to ~100 eps keeps the
#: structured directions LU-grade, so the residuals collapse in
#: lockstep exactly like the dense path's.
_REFINE_TARGET = 1e-13

#: Consecutive iterations without a 10% worst-residual improvement
#: before the solve is declared stalled and the best iterate returned.
_STALL_LIMIT = 12

#: Complementarity floor as a fraction of the convergence threshold.
#: Mehrotra steps can drive the gap orders of magnitude below ``tol *
#: scale`` while the dual residual is still catching up; with the gap
#: at 1e-14 the barrier weights hit the ceiling and the condensed
#: systems lose exactly the accuracy the dual residual needs.  The
#: step is cut so the gap never undershoots ``tol * scale`` by more
#: than this factor — comfortably converged on complementarity, still
#: in the region where the block factorization is accurate.
_MU_FLOOR_FRACTION = 1e-3


def full_reach(num_frontends: int, num_datacenters: int) -> np.ndarray:
    """The dense fan-in pattern: every front-end reaches every DC.

    With this pattern the reduced variable layout is exactly the dense
    compiled layout (``lam`` row-major by front-end), which is what
    makes the structured path a drop-in for
    :class:`~repro.core.compiled.CompiledQPStructure`.
    """
    return np.tile(np.arange(num_datacenters), (num_frontends, 1))


def _latency_diff(vec: np.ndarray) -> np.ndarray:
    """``vec[:, a] - vec[:, b]`` as an (M, k, k) array.

    It is a view of a contiguous (k, k, M) buffer: the layout
    :class:`_BlockKKTFactor` sweeps.
    """
    vt = np.ascontiguousarray(vec.T)
    return (vt[:, None, :] - vt[None, :, :]).transpose(2, 0, 1)


def _validate_reach(reach: np.ndarray, num_datacenters: int) -> np.ndarray:
    reach = np.asarray(reach)
    if reach.ndim != 2:
        raise ValueError(f"reach must be 2-D (M, k), got shape {reach.shape}")
    if not np.issubdtype(reach.dtype, np.integer):
        raise ValueError("reach must be an integer index array")
    reach = reach.astype(np.int64, copy=False)
    if reach.size == 0:
        raise ValueError("reach must be non-empty")
    if reach.min() < 0 or reach.max() >= num_datacenters:
        raise ValueError(
            f"reach entries must lie in [0, {num_datacenters}), "
            f"got range [{reach.min()}, {reach.max()}]"
        )
    sorted_rows = np.sort(reach, axis=1)
    if (sorted_rows[:, 1:] == sorted_rows[:, :-1]).any():
        raise ValueError("reach rows must not repeat a datacenter")
    return reach


@dataclass
class StructuredSlotQP:
    """One slot's UFC QP in reach-sparse block form.

    Reduced primal layout ``x = [lam (M*k, row-major by front-end),
    mu (N, if enabled), nu (N, if enabled)]`` where ``lam[i, a]``
    routes front-end ``i`` to datacenter ``reach[i, a]``.  Constraint
    row order is canonical: equalities ``[simplex (M); power (N)]``,
    inequalities ``[capacity (N); lam >= 0 (M*k); mu >= 0 (N);
    mu <= mu_max (N); nu >= 0 (N)]`` (mu/nu families only when the
    block is enabled).  With a full reach pattern this is the dense
    compiled layout up to the interleaving of the two mu bound
    families.

    All workload quantities are in scaled routing units
    (``lam_scale`` servers per unit), exactly like the dense
    compilation.

    Front end ``i``'s Hessian block is diagonal plus rank one,
    ``diag(h_diag[i]) + h_coef[i] * outer(h_vec[i], h_vec[i])``, and is
    never materialized.  The latency utilities give a zero diagonal
    and the rank-one part (Eq. (2): ``c = 2w/A_i`` over the reachable
    latencies in seconds; the linear utility and an idle front end
    give ``c = 0``).  ``h_diag`` (zero when not given), ``h_vec`` and
    ``h_diff`` (``l_a - l_b``, derived from ``h_vec`` when not given)
    are slot-invariant and shared by reference across the slots of one
    compilation.
    """

    reach: np.ndarray  # (M, k) int64
    h_coef: np.ndarray  # (M,) per-front-end utility curvature c
    h_vec: np.ndarray  # (M, k) per-front-end utility direction l
    q_lam: np.ndarray  # (M, k)
    arrivals: np.ndarray  # (M,) scaled
    capacities: np.ndarray  # (N,) scaled
    alphas: np.ndarray  # (N,) MW
    betas: np.ndarray  # (N,) MW per routing unit (scaled)
    lam_scale: float
    q_mu: np.ndarray | None = None  # (N,) fuel-cell price
    mu_max: np.ndarray | None = None  # (N,) MW
    p_nu: np.ndarray | None = None  # (N,) diagonal Hessian (2a_j)
    q_nu: np.ndarray | None = None  # (N,) grid price + carbon slope
    num_datacenters: int = 0
    h_diff: np.ndarray | None = None  # (M, k, k) h_vec[:, a] - h_vec[:, b]
    h_diag: np.ndarray | None = None  # (M, k) diagonal of the Hessian blocks
    # Derived index caches (filled in __post_init__).
    _reach_flat: np.ndarray = field(init=False, repr=False)
    _qq_idx: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.num_datacenters or int(self.reach.max()) + 1
        self.num_datacenters = n
        self.reach = _validate_reach(self.reach, n)
        self._reach_flat = self.reach.ravel()
        if self.h_diff is None:
            self.h_diff = _latency_diff(self.h_vec)
        if self.h_diag is None:
            self.h_diag = np.zeros_like(self.h_vec)
        # Flat (j, j') index pairs for scattering per-front-end k x k
        # blocks, in the factorization's (k, k, M) layout, into the
        # N x N Schur core.
        reach_t = self.reach.T
        self._qq_idx = (reach_t[:, None, :] * n + reach_t[None, :, :]).ravel()

    # -- shape properties ------------------------------------------------------

    @property
    def num_frontends(self) -> int:
        return self.reach.shape[0]

    @property
    def fan_in(self) -> int:
        return self.reach.shape[1]

    @property
    def include_mu(self) -> bool:
        return self.q_mu is not None

    @property
    def include_nu(self) -> bool:
        return self.q_nu is not None

    @property
    def dim(self) -> int:
        m, n = self.num_frontends, self.num_datacenters
        return m * self.fan_in + (n if self.include_mu else 0) + (
            n if self.include_nu else 0
        )

    @property
    def num_eq(self) -> int:
        return self.num_frontends + self.num_datacenters

    @property
    def num_ineq(self) -> int:
        m, n, k = self.num_frontends, self.num_datacenters, self.fan_in
        return n + m * k + (2 * n if self.include_mu else 0) + (
            n if self.include_nu else 0
        )

    # -- layout helpers --------------------------------------------------------

    def split_x(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Views ``(lam (M,k), mu, nu)`` into a stacked primal vector."""
        m, n, k = self.num_frontends, self.num_datacenters, self.fan_in
        lam = x[: m * k].reshape(m, k)
        off = m * k
        mu = None
        if self.include_mu:
            mu = x[off : off + n]
            off += n
        nu = x[off : off + n] if self.include_nu else None
        return lam, mu, nu

    def split_ineq(
        self, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """Views ``(cap, lam (M,k), mu_lo, mu_hi, nu_lo)`` into a
        stacked inequality-row vector."""
        m, n, k = self.num_frontends, self.num_datacenters, self.fan_in
        cap = v[:n]
        lam = v[n : n + m * k].reshape(m, k)
        off = n + m * k
        mu_lo = mu_hi = nu_lo = None
        if self.include_mu:
            mu_lo = v[off : off + n]
            mu_hi = v[off + n : off + 2 * n]
            off += 2 * n
        if self.include_nu:
            nu_lo = v[off : off + n]
        return cap, lam, mu_lo, mu_hi, nu_lo

    def col_sums(self, lam: np.ndarray) -> np.ndarray:
        """Per-datacenter load ``sum_i lam[i, a(j)]`` over the reach."""
        return np.bincount(
            self._reach_flat, weights=lam.ravel(), minlength=self.num_datacenters
        )

    # -- structured matvecs ----------------------------------------------------

    def h_mul(self, lam: np.ndarray) -> np.ndarray:
        """The Hessian blocks times ``lam`` (M, k)."""
        proj = self.h_coef * np.einsum("ij,ij->i", self.h_vec, lam)
        return proj[:, None] * self.h_vec + self.h_diag * lam

    def obj_grad(self, x: np.ndarray) -> np.ndarray:
        """``P x + q`` without materializing ``P``."""
        lam, mu, nu = self.split_x(x)
        out = np.empty_like(x)
        o_lam, o_mu, o_nu = self.split_x(out)
        o_lam[:] = self.h_mul(lam) + self.q_lam
        if self.include_mu:
            o_mu[:] = self.q_mu
        if self.include_nu:
            o_nu[:] = self.p_nu * nu + self.q_nu
        return out

    def objective(self, x: np.ndarray) -> float:
        """``0.5 x' P x + q' x`` (same constant convention as the
        dense compilation: epigraph-free slots only)."""
        lam, mu, nu = self.split_x(x)
        proj = np.einsum("ij,ij->i", self.h_vec, lam)
        val = 0.5 * float(self.h_coef @ (proj * proj) + np.sum(self.h_diag * lam * lam))
        val += float(np.sum(self.q_lam * lam))
        if self.include_mu:
            val += float(self.q_mu @ mu)
        if self.include_nu:
            val += 0.5 * float(self.p_nu @ (nu * nu)) + float(self.q_nu @ nu)
        return val

    def eq_residual(self, x: np.ndarray) -> np.ndarray:
        """``A x - b`` over the canonical equality rows."""
        lam, mu, nu = self.split_x(x)
        out = np.empty(self.num_eq)
        m = self.num_frontends
        out[:m] = lam.sum(axis=1) - self.arrivals
        power = self.betas * self.col_sums(lam) + self.alphas
        if self.include_mu:
            power = power - mu
        if self.include_nu:
            power = power - nu
        out[m:] = power
        return out

    def ineq_slack(self, x: np.ndarray) -> np.ndarray:
        """``h - G x`` over the canonical inequality rows."""
        lam, mu, nu = self.split_x(x)
        out = np.empty(self.num_ineq)
        s_cap, s_lam, s_mulo, s_muhi, s_nulo = self.split_ineq(out)
        s_cap[:] = self.capacities - self.col_sums(lam)
        s_lam[:] = lam
        if self.include_mu:
            s_mulo[:] = mu
            s_muhi[:] = self.mu_max - mu
        if self.include_nu:
            s_nulo[:] = nu
        return out

    def g_mul(self, dx: np.ndarray) -> np.ndarray:
        """``G dx`` over the canonical inequality rows."""
        lam, mu, nu = self.split_x(dx)
        out = np.empty(self.num_ineq)
        o_cap, o_lam, o_mulo, o_muhi, o_nulo = self.split_ineq(out)
        o_cap[:] = self.col_sums(lam)
        o_lam[:] = -lam
        if self.include_mu:
            o_mulo[:] = -mu
            o_muhi[:] = mu
        if self.include_nu:
            o_nulo[:] = -nu
        return out

    def gt_mul(self, v: np.ndarray) -> np.ndarray:
        """``G^T v`` for a stacked inequality-row vector."""
        v_cap, v_lam, v_mulo, v_muhi, v_nulo = self.split_ineq(v)
        out = np.empty(self.dim)
        o_lam, o_mu, o_nu = self.split_x(out)
        o_lam[:] = v_cap[self.reach] - v_lam
        if self.include_mu:
            o_mu[:] = v_muhi - v_mulo
        if self.include_nu:
            o_nu[:] = -v_nulo
        return out

    def at_mul(self, y: np.ndarray) -> np.ndarray:
        """``A^T y`` for stacked equality multipliers ``[y_s; y_p]``."""
        m = self.num_frontends
        y_s, y_p = y[:m], y[m:]
        out = np.empty(self.dim)
        o_lam, o_mu, o_nu = self.split_x(out)
        o_lam[:] = y_s[:, None] + self.betas[self.reach] * y_p[self.reach]
        if self.include_mu:
            o_mu[:] = -y_p
        if self.include_nu:
            o_nu[:] = -y_p
        return out

    # -- dense bridges ---------------------------------------------------------

    def to_dense(self) -> tuple[np.ndarray, ...]:
        """``(P, q, A, b, G, h)`` of the reduced QP, canonical row order.

        For parity tests and the scale benchmark's same-QP dense
        baseline only — this materializes O(dim^2) arrays and defeats
        the whole point at hyperscale.
        """
        m, n, k = self.num_frontends, self.num_datacenters, self.fan_in
        dim = self.dim
        mk = m * k
        mu_off = mk if self.include_mu else None
        nu_off = mk + (n if self.include_mu else 0) if self.include_nu else None

        p_mat = np.zeros((dim, dim))
        q_vec = np.zeros(dim)
        for i in range(m):
            sl = slice(i * k, (i + 1) * k)
            l_i = self.h_vec[i]
            p_mat[sl, sl] = self.h_coef[i] * (l_i[:, None] * l_i[None, :])
            p_mat[sl, sl] += np.diag(self.h_diag[i])
            q_vec[sl] = self.q_lam[i]
        if self.include_mu:
            q_vec[mu_off : mu_off + n] = self.q_mu
        if self.include_nu:
            idx = np.arange(nu_off, nu_off + n)
            p_mat[idx, idx] = self.p_nu
            q_vec[idx] = self.q_nu

        a_mat = np.zeros((self.num_eq, dim))
        b_vec = np.empty(self.num_eq)
        rows = np.arange(m)
        for a in range(k):
            a_mat[rows, rows * k + a] = 1.0
        b_vec[:m] = self.arrivals
        for i in range(m):
            for a in range(k):
                j = self.reach[i, a]
                a_mat[m + j, i * k + a] = self.betas[j]
        if self.include_mu:
            a_mat[m + np.arange(n), mu_off + np.arange(n)] = -1.0
        if self.include_nu:
            a_mat[m + np.arange(n), nu_off + np.arange(n)] = -1.0
        b_vec[m:] = -self.alphas

        g_mat = np.zeros((self.num_ineq, dim))
        h_vec = np.zeros(self.num_ineq)
        for i in range(m):
            for a in range(k):
                g_mat[self.reach[i, a], i * k + a] = 1.0
        h_vec[:n] = self.capacities
        g_mat[n + np.arange(mk), np.arange(mk)] = -1.0
        off = n + mk
        if self.include_mu:
            g_mat[off + np.arange(n), mu_off + np.arange(n)] = -1.0
            g_mat[off + n + np.arange(n), mu_off + np.arange(n)] = 1.0
            h_vec[off + n : off + 2 * n] = self.mu_max
            off += 2 * n
        if self.include_nu:
            g_mat[off + np.arange(n), nu_off + np.arange(n)] = -1.0
        return p_mat, q_vec, a_mat, b_vec, g_mat, h_vec

    def extract(self, x: np.ndarray):
        """Scatter a reduced primal vector into a dense
        :class:`~repro.core.solution.Allocation` (unreachable pairs
        get exactly zero, matching the reduced feasible set)."""
        from repro.core.solution import Allocation

        m, n = self.num_frontends, self.num_datacenters
        lam_r, mu, nu = self.split_x(x)
        lam = np.zeros((m, n))
        np.put_along_axis(lam, self.reach, lam_r * self.lam_scale, axis=1)
        return Allocation(
            lam=np.maximum(lam, 0.0),
            mu=np.clip(mu, 0.0, None) if mu is not None else np.zeros(n),
            nu=np.maximum(nu, 0.0) if nu is not None else np.zeros(n),
        )


class _BlockKKTFactor:
    """One factorization of the condensed structured KKT system.

    Holds the per-front-end ``(k+1) x (k+1)`` inverses, the eliminated
    mu/nu diagonals and the LU of the ``N x N`` Schur complement for a
    given set of barrier weights ``w = z / s`` (plus an optional
    diagonal regularization ``reg``).

    Each front end's bordered block ``[[D + c l l^T, 1], [1^T, -delta]]``
    (``D = diag(w_lam + reg + h_diag)``) is inverted in closed form,
    O(k^3) per front end.  With ``d`` the diagonal, ``S0 = sum 1/d_a``, ``S2 = sum
    l_a^2/d_a``, ``Lam = 1/2 sum_ab (l_a - l_b)^2/(d_a d_b)`` and
    ``Delta = delta (1 + c S2) + S0 + c Lam``::

        W_aa    = Delta_-a / (d_a Delta)
        W_ab    = -(1 + delta c l_a l_b + c sum_e (l_a-l_e)(l_b-l_e)/d_e)
                  / (d_a d_b Delta)
        border_a = (1 - c sum_b (l_a - l_b) l_b / d_b) / (d_a Delta)
        corner  = -(1 + c S2) / Delta

    where ``Delta_-a`` is the same sum over the indices other than
    ``a``.  Every sum is built from latency *differences* and each
    ``Delta_-a`` is summed directly rather than as ``Delta`` minus
    ``a``'s terms, so no entry cancels: barrier weights spanning 1e-2
    to the 1e16 ceiling in one block keep every entry relatively
    accurate, where a plain Sherman-Morrison update loses the small
    ``~1/w`` entries the Schur core is built from.

    Eliminating the front-end blocks leaves, per datacenter, the
    capacity direction ``t`` and the power multiplier ``d`` coupled
    through the core ``C = sum_i W_i`` (scattered top-left blocks of
    the per-front-end inverses): ``[[C + D1, C B], [B C, B C B + D2]]``
    with ``B = diag(beta)``, ``D1 = 1/(w_cap + reg)`` and ``D2`` the
    power rows' eliminated mu/nu diagonal.  Both rows only ever see
    ``u = t + B d``, so the power multipliers drop out in closed form:
    ``(C + E) u = g - B D1 r_p / den`` with ``den = D2 + B^2 D1`` and
    the diagonal ``E = D1 D2 / den``, then ``d = (B D1 u - r_p) /
    den``.  The remaining ``N x N`` system is symmetric positive
    definite, and its Jacobi-scaled form stays well conditioned when a
    datacenter saturates its capacity and pins its generation bounds,
    where ``t`` and ``d`` alone have near-parallel rows.
    """

    def __init__(self, sqp: StructuredSlotQP, w: np.ndarray, reg: float = 0.0) -> None:
        self.sqp, self.reg = sqp, reg
        self.d_mu = self.d_nu = None
        self.w_cap, self.w_lam, w_mulo, w_muhi, w_nulo = sqp.split_ineq(w)
        if sqp.include_mu:
            self.d_mu = w_mulo + w_muhi + reg
        if sqp.include_nu:
            self.d_nu = sqp.p_nu + w_nulo + reg
        m, n, k = sqp.num_frontends, sqp.num_datacenters, sqp.fan_in

        # The closed-form block inverses (class docstring), swept in a
        # (k, k, M) layout so every elementwise pass and reduction runs
        # over contiguous front-end rows.  ``off`` masks index ``a`` out
        # of the ``Delta_-a`` sums.
        inv_d = np.ascontiguousarray((1.0 / (self.w_lam + reg + sqp.h_diag)).T)
        c, diff = sqp.h_coef, sqp.h_diff.transpose(1, 2, 0)
        vec = np.ascontiguousarray(sqp.h_vec.T)
        off = 1.0 - np.eye(k)
        l2_d = vec * vec * inv_d
        diff_d = diff * inv_d  # (l_a - l_e) / d_e at [a, e]
        pair = diff_d * diff
        pair *= inv_d[:, None, :]  # (l_a - l_e)^2 / (d_a d_e)
        # Per-index terms of ``S0 + delta c S2``: Delta sums them over
        # every index, Delta_-a over the others.
        terms = inv_d + (_EQ_DELTA * c) * l2_d
        half_c = 0.5 * c
        delta = _EQ_DELTA + terms.sum(axis=0) + half_c * pair.sum(axis=(0, 1))
        pair_off = (off @ pair.reshape(k, -1)).reshape(pair.shape)
        delta_off = (
            _EQ_DELTA
            + off @ terms
            + half_c * (pair_off * off[:, :, None]).sum(axis=1)
        )
        inv_dd = inv_d / delta
        # W_ab off the diagonal; the diagonal is then overwritten with
        # the cancellation-free W_aa.
        w_top = np.einsum("aem,bem->abm", diff_d, diff)
        w_top += (_EQ_DELTA * vec)[:, None, :] * vec
        w_top *= -c
        w_top -= 1.0
        w_top *= inv_dd[:, None, :]
        w_top *= inv_d
        diag = np.arange(k)
        w_top[diag, diag] = delta_off * inv_dd
        border = (1.0 - c * (diff_d * vec).sum(axis=1)) * inv_dd
        self.k_inv = np.empty((m, k + 1, k + 1))
        self.k_inv[:, :k, :k] = w_top.transpose(2, 0, 1)
        self.k_inv[:, :k, k] = border.T
        self.k_inv[:, k, :k] = border.T
        self.k_inv[:, k, k] = -(1.0 + c * l2_d.sum(axis=0)) / delta

        schur = np.bincount(
            sqp._qq_idx, weights=w_top.ravel(), minlength=n * n
        ).reshape(n, n)
        d_power = np.full(n, _EQ_DELTA + reg)
        if sqp.include_mu:
            d_power = d_power + 1.0 / self.d_mu
        if sqp.include_nu:
            d_power = d_power + 1.0 / self.d_nu
        # Factor-time pieces of the power-multiplier elimination.
        self.d1 = 1.0 / (self.w_cap + reg)
        self.den = d_power + sqp.betas**2 * self.d1
        idx = np.arange(n)
        schur[idx, idx] += self.d1 * d_power / self.den
        # Jacobi-scale before factoring: the Schur diagonal mixes
        # ~1/w_cap (can be 1e-13) with O(1) core sums; factoring the
        # scaled system keeps the solve accurate.
        self.schur_d = np.sqrt(np.abs(np.diagonal(schur)))
        self.schur_d[self.schur_d == 0.0] = 1.0
        self.schur_scaled = schur / np.outer(self.schur_d, self.schur_d)
        self.schur_lu = lu_factor(self.schur_scaled, check_finite=False)
        # Lazily-built extended-precision LU of the scaled Schur; see
        # :meth:`enable_extended`.
        self._ld_lu: tuple[np.ndarray, np.ndarray] | None = None
        self.use_extended = False

    def enable_extended(self) -> None:
        """Switch the Schur solve to an extended-precision LU.

        The last rescue before the regularization ladder: when
        double-precision refinement stalls at the float64 residual
        floor (measured on a (100, 1000) day at scaled Schur condition
        numbers from 5 to ~5e6), the scaled ``N x N`` system is
        refactored with a hand-rolled pivoted LU in ``np.longdouble``
        (80-bit on x86: eps ~ 1e-19).  The extra digits per solve let
        the outer refinement contract again.
        """
        if self._ld_lu is None:
            a = self.schur_scaled.astype(np.longdouble)
            dim = a.shape[0]
            piv = np.arange(dim)
            for j in range(dim - 1):
                p = j + int(np.abs(a[j:, j]).argmax())
                if p != j:
                    a[[j, p]] = a[[p, j]]
                    piv[[j, p]] = piv[[p, j]]
                if a[j, j] != 0.0:
                    a[j + 1 :, j] /= a[j, j]
                    a[j + 1 :, j + 1 :] -= np.outer(a[j + 1 :, j], a[j, j + 1 :])
            self._ld_lu = (a, piv)
        self.use_extended = True

    def _schur_solve(self, rhs_scaled: np.ndarray) -> np.ndarray:
        """Solve the *scaled* ``N x N`` Schur system for one right-hand
        side."""
        if not self.use_extended:
            return lu_solve(self.schur_lu, rhs_scaled, check_finite=False)
        a, piv = self._ld_lu
        dim = a.shape[0]
        v = rhs_scaled.astype(np.longdouble)[piv]
        for j in range(1, dim):
            v[j] -= a[j, :j] @ v[:j]
        for j in range(dim - 1, -1, -1):
            v[j] = (v[j] - a[j, j + 1 :] @ v[j + 1 :]) / a[j, j]
        return v.astype(np.float64)

    def solve(
        self, r1: np.ndarray, r2: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve the condensed KKT system ``[[H, A'], [A, -delta]]``
        for ``(dx, dy)`` given the stacked right-hand side: local
        block solves, one ``N x N`` Schur solve for ``u = t + B d``
        (see the class docstring), the power multipliers ``d`` in
        closed form, then back-substitution."""
        sqp = self.sqp
        m, n, k = sqp.num_frontends, sqp.num_datacenters, sqp.fan_in
        r1_lam, r1_mu, r1_nu = sqp.split_x(r1)
        r2_s, r2_p = r2[:m], r2[m:]

        rhs_loc = np.empty((m, k + 1))
        rhs_loc[:, :k] = r1_lam
        rhs_loc[:, k] = r2_s
        y_loc = (self.k_inv @ rhs_loc[..., None])[..., 0]

        g = np.bincount(
            sqp._reach_flat, weights=y_loc[:, :k].ravel(), minlength=n
        )
        rp = r2_p.copy()
        if sqp.include_mu:
            rp += r1_mu / self.d_mu
        if sqp.include_nu:
            rp += r1_nu / self.d_nu
        betas = sqp.betas
        rhs_schur = g - betas * self.d1 * rp / self.den
        u = self._schur_solve(rhs_schur / self.schur_d) / self.schur_d
        dy_p = (betas * self.d1 * u - rp) / self.den

        sol = y_loc - (self.k_inv[:, :, :k] @ u[sqp.reach][..., None])[..., 0]

        dx = np.empty(sqp.dim)
        d_lam, d_mu_v, d_nu_v = sqp.split_x(dx)
        d_lam[:] = sol[:, :k]
        if sqp.include_mu:
            d_mu_v[:] = (r1_mu + dy_p) / self.d_mu
        if sqp.include_nu:
            d_nu_v[:] = (r1_nu + dy_p) / self.d_nu
        dy = np.concatenate([sol[:, k], dy_p])
        return dx, dy

    def solve_refined(
        self, r1: np.ndarray, r2: np.ndarray, tol: float
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """:meth:`solve` plus iterative refinement to residual ``tol``.

        Each sweep solves for the correction of the *true*
        (unregularized) system's residual with this factorization, so
        a regularized or merely inaccurate factor still converges to
        the exact Newton direction as long as its error contraction is
        below one.  Sweeps stop at ``tol``, on stagnation, or after
        :data:`_MAX_REFINE_SWEEPS`; the best iterate is returned with
        its residual norm.
        """
        dx, dy = self.solve(r1, r2)
        res_x, res_eq = self.residual_vec(dx, dy, r1, r2)
        resid = _res_norm(res_x, res_eq)
        for _ in range(2 * _MAX_REFINE_SWEEPS):
            if not np.isfinite(resid) or resid <= tol:
                break
            cx, cy = self.solve(-res_x, -res_eq)
            ndx, ndy = dx + cx, dy + cy
            nres_x, nres_eq = self.residual_vec(ndx, ndy, r1, r2)
            nresid = _res_norm(nres_x, nres_eq)
            if not np.isfinite(nresid) or nresid >= resid:
                if not self.use_extended:
                    # Double-precision refinement diverged or stalled
                    # at the float64 floor.  Rebuild the Schur LU in
                    # extended precision and restart the sweep from
                    # scratch (the stalled iterate may be arbitrarily
                    # contaminated).
                    self.enable_extended()
                    dx, dy = self.solve(r1, r2)
                    res_x, res_eq = self.residual_vec(dx, dy, r1, r2)
                    resid = _res_norm(res_x, res_eq)
                    continue
                break
            dx, dy, resid = ndx, ndy, nresid
            res_x, res_eq = nres_x, nres_eq
        return dx, dy, resid

    def residual_vec(
        self, dx: np.ndarray, dy: np.ndarray, r1: np.ndarray, r2: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``KKT . (dx, dy) - rhs`` via structured matvecs.

        The condensed Hessian here is ``P + G' diag(w) G`` with the
        *unregularized* weights — so a regularized factorization is
        judged against the true system it approximates.
        """
        sqp = self.sqp
        m = sqp.num_frontends
        d_lam, d_mu_v, d_nu_v = sqp.split_x(dx)
        dy_s, dy_p = dy[:m], dy[m:]
        dcol = sqp.col_sums(d_lam)

        res_x = np.empty(sqp.dim)
        r_lam, r_mu, r_nu = sqp.split_x(res_x)
        r1_lam, r1_mu, r1_nu = sqp.split_x(r1)
        r_lam[:] = (
            sqp.h_mul(d_lam)
            + self.w_lam * d_lam
            + (self.w_cap * dcol)[sqp.reach]
            + dy_s[:, None]
            + sqp.betas[sqp.reach] * dy_p[sqp.reach]
            - r1_lam
        )
        if sqp.include_mu:
            r_mu[:] = (self.d_mu - self.reg) * d_mu_v - dy_p - r1_mu
        if sqp.include_nu:
            r_nu[:] = (self.d_nu - self.reg) * d_nu_v - dy_p - r1_nu

        # Equality rows of the KKT system: A dx - delta dy - r2.
        res_eq = np.empty(sqp.num_eq)
        res_eq[:m] = d_lam.sum(axis=1) - _EQ_DELTA * dy_s - r2[:m]
        power = sqp.betas * dcol - _EQ_DELTA * dy_p - r2[m:]
        if sqp.include_mu:
            power = power - d_mu_v
        if sqp.include_nu:
            power = power - d_nu_v
        res_eq[m:] = power
        return res_x, res_eq


def _res_norm(res_x: np.ndarray, res_eq: np.ndarray) -> float:
    return max(float(np.abs(res_x).max()), float(np.abs(res_eq).max(initial=0.0)))


#: Smallest normal double; slacks below this are clamped when forming
#: the barrier weights ``w = z / s`` so the weights stay finite.
_TINY = float(np.finfo(float).tiny)

#: Barrier-weight ceiling (LIPSOL-style).  A constraint with
#: ``z / s > 1e16`` is active to machine precision; capping the weight
#: there keeps the condensed systems finite without measurably moving
#: the Newton direction, and prevents overflow cascades in the final
#: iterations when slacks underflow to denormals.
_W_CEILING = 1e16


class _BlockArrowheadSystem(_NewtonSystem):
    """The block-arrowhead Newton system of one :class:`StructuredSlotQP`.

    Every Newton system goes through a :class:`_BlockKKTFactor`; each
    solution is refined against the exact structured matvec and, when
    it still misses the residual gate, the factorization is rebuilt up
    the relative regularization ladder.  The route also carries the
    safeguards its accuracy floor needs: the best-iterate/stall exit,
    the complementarity floor and the barrier-weight clamp.
    """

    def __init__(self, sqp: StructuredSlotQP, tol: float) -> None:
        self.sqp, self.tol = sqp, tol
        self.g_mul, self.gt_mul = sqp.g_mul, sqp.gt_mul
        q_max = max(
            float(np.abs(sqp.q_lam).max(initial=0.0)),
            float(np.abs(sqp.q_mu).max(initial=0.0)) if sqp.include_mu else 0.0,
            float(np.abs(sqp.q_nu).max(initial=0.0)) if sqp.include_nu else 0.0,
        )
        h_max = max(
            float(np.abs(sqp.capacities).max(initial=0.0)),
            float(np.abs(sqp.mu_max).max(initial=0.0)) if sqp.include_mu else 0.0,
        )
        b_max = max(
            float(np.abs(sqp.arrivals).max(initial=0.0)),
            float(np.abs(sqp.alphas).max(initial=0.0)),
        )
        self.scale = 1.0 + max(q_max, h_max, b_max)
        # Best-iterate safety net: at extreme barrier weights (a
        # datacenter saturating capacity and both generation bounds at
        # once) the elimination's accessible accuracy floors around
        # 1e-8..1e-9 relative while the convergence test asks for
        # ``tol``.  Track the iterate with the smallest worst-case
        # residual and return it if the final iterate is not the best —
        # a stalled solve then degrades to "almost converged" instead of
        # "contaminated".
        self.best_merit = np.inf
        self.best: tuple[np.ndarray, ...] | None = None
        self.stall = 0

    def residuals(self, x, y, s, z):
        sqp = self.sqp
        # r_ineq = Gx + s - h = s - (h - Gx).
        return (
            sqp.obj_grad(x) + sqp.at_mul(y) + sqp.gt_mul(z),
            sqp.eq_residual(x),
            s - sqp.ineq_slack(x),
        )

    def stalled(self, residuals, mu, x, y, s, z) -> bool:
        merit = max(*(float(np.abs(r).max(initial=0.0)) for r in residuals), mu)
        if merit < 0.9 * self.best_merit:
            self.best_merit = merit
            self.best = (x.copy(), y.copy(), s.copy(), z.copy())
            self.stall = 0
            return False
        # Floored: further iterations only drift along garbage
        # directions.  Bail out with the best iterate.
        self.stall += 1
        return self.stall >= _STALL_LIMIT

    def finish(self, x, y, s, z, converged):
        if not converged and self.best is not None:
            return self.best
        return x, y, s, z

    def factor(self, s, z) -> None:
        sqp = self.sqp
        # Slacks can underflow to exact zero in the final iterations
        # (mu is far below tolerance by then); clamping keeps the
        # barrier weights finite without affecting healthy iterations.
        w = np.minimum(z / np.maximum(s, _TINY), _W_CEILING)
        # Regularization is relative to the condensed Hessian's
        # diagonal scale: near convergence the barrier weights reach
        # 1e9+, where an absolute 1e-8 shift is below roundoff.
        h_max = np.abs(sqp.h_diag).max(axis=1) + np.abs(sqp.h_coef) * (
            sqp.h_vec * sqp.h_vec
        ).max(axis=1)
        diag_scale = 1.0 + max(float(w.max(initial=0.0)), float(h_max.max(initial=0.0)))
        self.block, self.w, self.diag_scale = _BlockKKTFactor(sqp, w), w, diag_scale

    def solve(self, r1, r2):
        rhs_scale = 1.0 + max(
            float(np.abs(r1).max()), float(np.abs(r2).max(initial=0.0))
        )
        newton_tol = _NEWTON_RESIDUAL_TOL * rhs_scale
        refine_tol = _REFINE_TARGET * rhs_scale
        dx, dy, resid = self.block.solve_refined(r1, r2, refine_tol)
        if not np.isfinite(resid) or resid > newton_tol:
            best = (dx, dy, resid) if np.isfinite(resid) else None
            for reg in _REG_LEVELS:
                rblock = _BlockKKTFactor(self.sqp, self.w, reg=reg * self.diag_scale)
                self.block = rblock
                dx, dy, resid = rblock.solve_refined(r1, r2, refine_tol)
                if np.isfinite(resid) and resid <= newton_tol:
                    break
                if np.isfinite(resid) and (best is None or resid < best[2]):
                    best = (dx, dy, resid)
            else:
                if best is not None:
                    # No attempt met the threshold: take the least-bad
                    # direction and let the step-length cut cope.
                    dx, dy, resid = best
        return dx, dy

    def cut_step(self, alpha, s, ds, z, dz, mu):
        # Complementarity safeguard: cut the step so the gap never
        # undershoots the convergence threshold by more than
        # ``_MU_FLOOR_FRACTION``.  An unchecked Mehrotra step can drive
        # the gap to 1e-14 while the dual residual is still 1e-5; the
        # barrier weights then pin at the ceiling and the condensed
        # systems are too ill-conditioned to recover.  Backtracking is
        # finite: alpha -> 0 leaves the gap at its current value, which
        # is above the floor whenever the loop is entered.
        mu_floor = _MU_FLOOR_FRACTION * self.tol * self.scale
        if mu > mu_floor:
            for _ in range(60):
                mu_next = float((s + alpha * ds) @ (z + alpha * dz)) / len(s)
                if mu_next >= mu_floor:
                    break
                alpha *= 0.5
        return alpha


def solve_structured_qp(
    sqp: StructuredSlotQP,
    tol: float = 1e-9,
    max_iter: int = 120,
    metrics=None,
) -> IPQPResult:
    """Solve a reach-sparse UFC slot QP by block-elimination Mehrotra.

    This is :func:`~repro.optim.ipqp._mehrotra`, the loop behind
    :func:`~repro.optim.ipqp.solve_qp`, run on the raw (unequilibrated)
    data — same residual definitions, same ``scale = 1 + max(|q|, |h|,
    |b|)`` convergence test, same predictor-corrector step rule — over
    the block-arrowhead Newton system: every Newton system is solved by
    eliminating the M per-front-end simplex blocks, the N mu/nu
    scalars and the N power multipliers into a dense ``N x N`` Schur
    system, residual-checked, iteratively refined against the exact
    structured matvec and, failing that, retried with escalating
    diagonal regularization (relative to the condensed Hessian scale)
    before being accepted.

    ``metrics`` is the same duck-typed registry the dense solver
    accepts; structured solves share its counters.  Every solve starts
    cold from ``x = 0``, ``s = max(h, 1)``, ``z = 1``.  The result is
    the dense solver's :class:`~repro.optim.ipqp.IPQPResult`, its
    vectors in the reduced canonical layout.
    """
    system = _BlockArrowheadSystem(sqp, tol)
    x0 = np.zeros(sqp.dim)
    x, y, s, z, it, converged, gap = _mehrotra(
        system, x0, np.zeros(sqp.num_eq), np.maximum(sqp.ineq_slack(x0), 1.0),
        np.ones(sqp.num_ineq), tol, max_iter,
    )
    _record_metrics(metrics, it, converged)
    return IPQPResult(
        x=x,
        eq_dual=y,
        ineq_dual=z,
        value=sqp.objective(x),
        iterations=it,
        converged=converged,
        gap=gap,
    )


class StructuredQPCompiler:
    """Slot-invariant compilation of the reach-sparse UFC QP.

    The structured twin of
    :class:`~repro.core.compiled.CompiledQPStructure`: performs the
    reach restriction, workload scaling and latency-row gather once per
    (model, strategy, reach), then emits a :class:`StructuredSlotQP`
    per slot.  With ``reach=None`` the full fan-in pattern is used and
    the emitted QP is the dense compiled QP in block form (same
    scaling, same coefficients).

    Args:
        model: the static cloud model.
        strategy: operating strategy (decides the mu/nu blocks).
        reach: (M, k) integer fan-in pattern, or None for full reach.

    Raises:
        ValueError: for an invalid reach pattern.
    """

    def __init__(
        self,
        model: "CloudModel",
        strategy: "Strategy",
        reach: np.ndarray | None = None,
    ) -> None:
        from repro.core.compiled import default_workload_scale

        m, n = model.num_frontends, model.num_datacenters
        if reach is None:
            reach = full_reach(m, n)
        reach = _validate_reach(reach, n)
        if reach.shape[0] != m:
            raise ValueError(
                f"reach has {reach.shape[0]} rows for {m} front-ends"
            )
        self.model = model
        self.strategy = strategy
        self.reach = reach
        self.scale = float(default_workload_scale(model))
        self.capacities = model.capacities / self.scale
        self.betas = model.betas * self.scale
        self.weight = model.latency_weight * self.scale
        self.include_mu = strategy.fuel_cell_enabled
        self.include_nu = strategy.grid_enabled
        self.latency_reach_ms = np.take_along_axis(
            model.latency_ms, reach, axis=1
        )
        # Slot-invariant utility state hoisted once: the rank-one
        # directions and their pairwise differences, shared by every
        # emitted slot; per-slot emission only touches the
        # arrival-dependent coefficients.
        self._utility_form = model.utility.neg_rank_one_compiled(
            self.latency_reach_ms, self.weight
        )
        if self._utility_form is not None:
            self._h_diff = _latency_diff(self._utility_form.vec)
            self._h_diag = np.zeros_like(self._utility_form.vec)

    @property
    def dim(self) -> int:
        m, n = self.model.num_frontends, self.model.num_datacenters
        return m * self.reach.shape[1] + (n if self.include_mu else 0) + (
            n if self.include_nu else 0
        )

    def matches(self, problem: "UFCProblem") -> bool:
        """Whether this compiler was built for ``problem``'s shape."""
        return problem.model is self.model and problem.strategy == self.strategy

    def structured_qp_for(self, inputs: "SlotInputs") -> StructuredSlotQP:
        """Emit one slot's :class:`StructuredSlotQP`.

        Raises:
            NotImplementedError: when the latency utility offers no
                rank-one Hessian form, or an emission cost needs
                epigraph variables (multi-segment piecewise-linear) or
                is not QP-representable — those slots must take the
                generic dense path.
        """
        if self._utility_form is None:
            raise NotImplementedError(
                "latency utility offers no rank-one Hessian form; the "
                "structured path needs c * l l^T blocks"
            )
        model, n = self.model, self.model.num_datacenters
        arrivals = inputs.arrivals / self.scale
        h_coef, q_lam = self._utility_form(arrivals)
        q_mu = mu_max = p_nu = q_nu = None
        if self.include_mu:
            q_mu = np.full(n, float(model.fuel_cell_price))
            mu_max = np.asarray(model.mu_max, dtype=float)
        if self.include_nu:
            p_nu = np.empty(n)
            q_nu = np.empty(n)
            for j, (cost, c_rate) in enumerate(
                zip(model.emission_costs, inputs.carbon_rates)
            ):
                quad = cost.nu_quadratic(float(c_rate))
                if quad is None:
                    segments = cost.nu_epigraph(float(c_rate))
                    if segments is None or len(segments) != 1:
                        raise NotImplementedError(
                            "emission cost needs epigraph variables; the "
                            "structured path only handles quadratic and "
                            "single-segment costs"
                        )
                    quad = (0.0, segments[0][0])
                p_nu[j] = 2.0 * quad[0]
                q_nu[j] = inputs.prices[j] + quad[1]
        return StructuredSlotQP(
            reach=self.reach,
            h_coef=h_coef,
            h_vec=self._utility_form.vec,
            q_lam=q_lam,
            arrivals=arrivals,
            capacities=self.capacities,
            alphas=np.asarray(model.alphas, dtype=float),
            betas=self.betas,
            lam_scale=self.scale,
            q_mu=q_mu,
            mu_max=mu_max,
            p_nu=p_nu,
            q_nu=q_nu,
            num_datacenters=n,
            h_diff=self._h_diff,
            h_diag=self._h_diag,
        )
