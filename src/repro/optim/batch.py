"""Batched solver kernels over stacked slot instances.

The horizon's T slot QPs are independent and share one compiled
structure — only the parameter vectors differ hour to hour.  Solving
them one by one pays the Python/numpy dispatch overhead of every small
linear-algebra call T times per iteration; driving one *masked*
Mehrotra iteration over the whole batch pays it once.  This module
provides

- :func:`solve_qp_batch` — the interior-point loop of
  :mod:`repro.optim.ipqp` over a batch sharing one constraint
  structure, with per-instance step lengths, per-instance convergence
  masking (converged instances are frozen and the active set shrinks as
  the batch drains), per-instance Ruiz scalings, and a per-instance
  fallback to the scalar :func:`~repro.optim.ipqp.solve_qp` for
  instances that fail to converge;
- :func:`project_simplex_batch` — row-wise simplex projection over
  ``(T, M)`` matrices (each row bit-identical to the scalar call);
- :func:`solve_capped_rank_one_qp_batch` — the ADM-G per-datacenter
  ``a``-minimization solved for T slots at once with a vectorized
  sort-based support sweep (bit-identical to the scalar solver per row).

The projections and the rank-one sweep replicate the scalar kernels'
arithmetic per row.  The interior-point route does not: its Newton
solves and coordinate-form equilibration sweeps go through batched
BLAS calls that round differently from the scalar matvecs, so batched
IPQP solutions agree with the scalar path to solver tolerance rather
than bit-for-bit.

The shared-structure Newton system exploits three facts about compiled
horizon batches: the constraint matrices are literally the same arrays
for every slot (so residuals collapse to single dgemms against the
shared matrix, with per-instance Ruiz scalings carried as factored
row/column vectors), most inequality rows are single-nonzero variable
bounds (so the ``G^T W G`` term of the condensed KKT splits into a
cheap diagonal scatter plus a tiny dense-row product), and the Hessians
are sparse (so equilibration sweeps touch only the nonzero
coordinates).  Each instance's full (n+p) condensed KKT is then
LU-factored once per iteration with LAPACK ``getrf``, in place in one
stacked buffer, and the predictor and the corrector back-solve against
it with ``getrs``.  Residuals are checked for the whole batch at once;
an instance that fails the check goes through the dense route's
regularization ladder (:func:`~repro.optim.ipqp._solve_kkt`) on its
own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from repro.optim.ipqp import (
    _KKT_RESIDUAL_TOL,
    IPQPResult,
    _closed_form,
    _constraint_block,
    _fill_kkt,
    _mehrotra,
    _NewtonSystem,
    _solve_kkt,
    solve_qp,
)
from repro.optim.simplex import project_simplex

__all__ = [
    "BatchIPQPResult",
    "solve_qp_batch",
    "project_simplex_batch",
    "solve_capped_rank_one_qp_batch",
]


@dataclass(frozen=True)
class BatchIPQPResult:
    """Result of a batched interior-point QP solve over T instances.

    Attributes:
        x: (T, n) primal minimizers, one row per instance.
        eq_dual: (T, p) equality multipliers.
        ineq_dual: (T, m) inequality multipliers.
        value: (T,) objective values at ``x``.
        iterations: (T,) interior-point iterations each instance used
            (a frozen instance stops counting when it converges).
        converged: (T,) per-instance convergence flags.
        gap: (T,) final average complementarity per instance.
        fallback: (T,) True where the batched iteration did not
            converge and the scalar :func:`~repro.optim.ipqp.solve_qp`
            re-solved the instance (those entries carry the scalar
            solver's full semantics, including its equilibration
            retry).
    """

    x: np.ndarray
    eq_dual: np.ndarray
    ineq_dual: np.ndarray
    value: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    gap: np.ndarray
    fallback: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def instance(self, t: int) -> IPQPResult:
        """Instance ``t``'s solution as a scalar-shaped result."""
        return IPQPResult(
            x=self.x[t],
            eq_dual=self.eq_dual[t],
            ineq_dual=self.ineq_dual[t],
            value=float(self.value[t]),
            iterations=int(self.iterations[t]),
            converged=bool(self.converged[t]),
            gap=float(self.gap[t]),
        )


def project_simplex_batch(
    v: np.ndarray, total: float | np.ndarray = 1.0
) -> np.ndarray:
    """Row-wise simplex projection of a ``(T, n)`` batch.

    Each row is projected onto ``{x >= 0, sum(x) = total}`` with the
    exact arithmetic of the 1-D :func:`~repro.optim.simplex.project_simplex`
    (bit-identical per row); ``total`` may be a scalar or a (T,) vector
    of per-row totals.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"expected a 2-d batch, got shape {v.shape}")
    return project_simplex(v, total)


def solve_capped_rank_one_qp_batch(
    c: np.ndarray, rho: float, beta: float, cap: float | np.ndarray
) -> np.ndarray:
    """Batched exact solve of the capped diagonal-plus-rank-one QP.

    Row ``t`` minimizes ``rho/2 ||a||^2 + rho*beta^2/2 (sum a)^2 -
    c[t]^T a`` subject to ``sum(a) <= cap_t`` and ``a >= 0`` — the
    ADM-G per-datacenter ``a``-minimization for T slots at once.  The
    sort-based support sweep of
    :func:`~repro.optim.rank_one.solve_capped_rank_one_qp` is
    vectorized over rows with identical arithmetic, so every row is
    bit-identical to the scalar call.

    Args:
        c: (T, n) linear reward coefficients, one slot per row.
        rho: positive quadratic curvature (the ADMM penalty).
        beta: the rank-one coupling coefficient; shared by all rows.
        cap: non-negative total capacity, scalar or per-row (T,).

    Returns:
        The (T, n) stack of unique minimizers.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2:
        raise ValueError(f"expected a 2-d batch, got shape {c.shape}")
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    rows, n = c.shape
    caps = np.broadcast_to(np.asarray(cap, dtype=float), (rows,))
    if (caps < 0).any():
        raise ValueError(f"cap must be non-negative, got {caps.min()}")
    if n == 0 or rows == 0:
        return np.zeros((rows, n))

    beta2 = float(beta) * float(beta)
    # Uncapped support sweep: for support size k (the k largest c_i),
    # T_k = prefix_k / (rho (1 + k beta^2)); the support is correct when
    # the k-th largest exceeds rho beta^2 T_k and the (k+1)-th does not.
    order = np.argsort(c, axis=1)[:, ::-1]
    sorted_c = np.take_along_axis(c, order, axis=1)
    prefix = np.cumsum(sorted_c, axis=1)
    ks = np.arange(1, n + 1)
    threshold = rho * beta2 * (prefix / (rho * (1.0 + ks * beta2)))
    next_c = np.concatenate(
        [sorted_c[:, 1:], np.full((rows, 1), -np.inf)], axis=1
    )
    cond = (sorted_c > threshold) & (next_c <= threshold)
    # The scalar sweep scans k from n down and takes the first valid
    # support, i.e. the largest k with cond; rows with none stay zero.
    has_support = cond.any(axis=1)
    k_idx = np.where(
        has_support, n - 1 - np.argmax(cond[:, ::-1], axis=1), -1
    )
    thr = threshold[np.arange(rows), np.maximum(k_idx, 0)]
    active = np.arange(n)[None, :] <= k_idx[:, None]
    a_sorted = np.where(active, (sorted_c - thr[:, None]) / rho, 0.0)
    a = np.zeros((rows, n))
    np.put_along_axis(a, order, a_sorted, axis=1)

    # Capacity binds: the rank-one term becomes a constant linear shift
    # and the problem reduces to a scaled-simplex projection.
    total = a.sum(axis=1)
    over = total > caps
    if over.any():
        v = (c[over] - rho * beta2 * caps[over, None]) / rho
        a[over] = project_simplex(v, caps[over])
    return a


def _bmv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product: ``(T, r, c) @ (T, c) -> (T, r)``."""
    return np.matmul(M, v[:, :, None])[:, :, 0]


class _GroupMax:
    """Segmented row-wise max over fixed coordinate groups.

    Built once from the (shared) sparsity coordinates of a matrix,
    grouped by row or by column; each Ruiz sweep then reduces the
    per-instance scaled values ``(T, nnz)`` to per-group maxima with one
    ``np.maximum.reduceat`` instead of a pass over the dense matrix.
    """

    def __init__(self, keys: np.ndarray, size: int):
        self.order = np.argsort(keys, kind="stable")
        sorted_keys = keys[self.order]
        if sorted_keys.size:
            self.starts = np.flatnonzero(
                np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
            )
            self.present = sorted_keys[self.starts]
        else:
            self.starts = np.zeros(0, dtype=int)
            self.present = np.zeros(0, dtype=int)
        self.size = size

    def max_into(self, vals: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fold each group's max of ``vals`` (T, nnz) into ``out``."""
        if self.present.size:
            seg = np.maximum.reduceat(
                vals[:, self.order], self.starts, axis=1
            )
            out[:, self.present] = np.maximum(out[:, self.present], seg)
        return out


def _ruiz_step(norm: np.ndarray) -> np.ndarray:
    """One sweep's scale factors ``1/sqrt(norm)``.

    An exactly-zero row or column keeps scale 1, as in the scalar
    sweep (:func:`~repro.optim.ipqp._ruiz_equilibrate`): the clamp
    would otherwise inflate it by 1e6 per sweep, and the astronomically
    scaled data makes the relative convergence test vacuously true.
    """
    step = 1.0 / np.sqrt(np.maximum(norm, 1e-12))
    step[norm == 0.0] = 1.0
    return step


def _ruiz_scales_shared(
    P: np.ndarray,
    q: np.ndarray,
    A0: np.ndarray,
    G0: np.ndarray,
    iterations: int = 6,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ruiz scale vectors for a batch sharing one constraint structure.

    Runs the scalar equilibration's sweep structure (column phase over
    ``[P; A; G]``, then row phases over ``A`` and ``G``) but never
    materializes scaled matrices: the per-instance scaled magnitudes
    are recomputed from the sparsity coordinates and the accumulated
    scale vectors each sweep, so a sweep costs O(nnz) per instance
    rather than O(n^2).  Six sweeps (vs. the scalar solver's 15) are
    enough here: the scalings converge geometrically and the
    interior-point convergence test is unaffected — iteration counts
    and certification on the UFC horizon are measurably identical.

    Returns ``(d, r_a, r_g, gamma)`` — column scales, equality and
    inequality row scales, and the objective normalization.
    """
    batch, n = q.shape
    p_rows, m_rows = A0.shape[0], G0.shape[0]
    pattern = np.abs(P).max(axis=0) > 0
    rows_p, cols_p = np.nonzero(pattern)
    vals_p = np.abs(P[:, rows_p, cols_p])
    p_by_col = _GroupMax(cols_p, n)
    rows_a, cols_a = np.nonzero(A0)
    base_a = np.abs(A0[rows_a, cols_a])[None, :]
    a_by_col = _GroupMax(cols_a, n)
    a_by_row = _GroupMax(rows_a, p_rows)
    rows_g, cols_g = np.nonzero(G0)
    base_g = np.abs(G0[rows_g, cols_g])[None, :]
    g_by_col = _GroupMax(cols_g, n)
    g_by_row = _GroupMax(rows_g, m_rows)

    d = np.ones((batch, n))
    r_a = np.ones((batch, p_rows))
    r_g = np.ones((batch, m_rows))
    for _ in range(iterations):
        col_norm = np.zeros((batch, n))
        p_by_col.max_into(vals_p * (d[:, rows_p] * d[:, cols_p]), col_norm)
        if p_rows:
            a_by_col.max_into(
                base_a * (r_a[:, rows_a] * d[:, cols_a]), col_norm
            )
        if m_rows:
            g_by_col.max_into(
                base_g * (r_g[:, rows_g] * d[:, cols_g]), col_norm
            )
        d *= _ruiz_step(col_norm)
        if p_rows:
            row_norm = np.zeros((batch, p_rows))
            a_by_row.max_into(
                base_a * (r_a[:, rows_a] * d[:, cols_a]), row_norm
            )
            r_a *= _ruiz_step(row_norm)
        if m_rows:
            row_norm = np.zeros((batch, m_rows))
            g_by_row.max_into(
                base_g * (r_g[:, rows_g] * d[:, cols_g]), row_norm
            )
            r_g *= _ruiz_step(row_norm)
    p_max = np.zeros(batch)
    if rows_p.size:
        p_max = (vals_p * (d[:, rows_p] * d[:, cols_p])).max(axis=1)
    gamma = np.maximum(
        1e-12, np.maximum(np.abs(d * q).max(axis=1, initial=0.0), p_max)
    )
    return d, r_a, r_g, gamma


class _SharedSplit:
    """Row split of a shared inequality matrix for fast KKT assembly.

    ``G^T diag(w) G = sum_i w_i g_i g_i^T``; rows with a single nonzero
    (variable bounds — the vast majority in compiled horizon QPs)
    contribute only to the diagonal, so they reduce to one small
    ``(T, mb) @ (mb, n)`` product against a precomputed scatter of
    squared bound coefficients.  The remaining dense rows go through a
    precomputed ``(md, n*n)`` outer-product matrix (one dgemm) when
    small, or a batched matmul otherwise.
    """

    _OUTER_LIMIT = 4_000_000

    def __init__(self, G0: np.ndarray):
        m, n = G0.shape
        self.n = n
        nnz_per_row = (G0 != 0).sum(axis=1)
        bound = nnz_per_row == 1
        self.bound_rows = np.flatnonzero(bound)
        if self.bound_rows.size:
            b_cols = np.nonzero(G0[self.bound_rows])[1]
            b_vals = G0[self.bound_rows, b_cols]
            self.bound_sq = np.zeros((self.bound_rows.size, n))
            self.bound_sq[np.arange(self.bound_rows.size), b_cols] = (
                b_vals * b_vals
            )
        else:
            self.bound_sq = None
        self.dense_rows = np.flatnonzero(~bound)
        self.Gd = G0[self.dense_rows]
        if self.Gd.size and self.Gd.shape[0] * n * n <= self._OUTER_LIMIT:
            self.outer = (
                self.Gd[:, :, None] * self.Gd[:, None, :]
            ).reshape(self.Gd.shape[0], n * n)
        else:
            self.outer = None

    def assemble(
        self, Pw: np.ndarray, wt: np.ndarray, d: np.ndarray
    ) -> np.ndarray:
        """``Pw + diag(d) (sum_i wt_i g_i g_i^T) diag(d)`` batched."""
        k, n = Pw.shape[:2]
        if self.outer is not None:
            core = (wt[:, self.dense_rows] @ self.outer).reshape(k, n, n)
        elif self.dense_rows.size:
            scaled = wt[:, self.dense_rows, None] * self.Gd[None]
            core = np.matmul(self.Gd.T[None], scaled)
        else:
            core = np.zeros((k, n, n))
        if self.bound_sq is not None:
            diag = np.einsum("kii->ki", core)
            diag += wt[:, self.bound_rows] @ self.bound_sq
        core *= d[:, :, None]
        core *= d[:, None, :]
        core += Pw
        return core


class _SharedBatchSystem(_NewtonSystem):
    """The shared-structure batched Newton system.

    Every instance has its own Hessian and right-hand sides but the same
    constraint matrices ``A0``/``G0``.  The per-instance Ruiz scalings
    stay factored (``A_t = diag(r_a[t]) A0 diag(d[t])`` and likewise for
    ``G``), so constraint products are single dgemms against the shared
    matrix.  Each iteration LU-factors every instance's full condensed
    KKT ``[[H_t, A_t'], [A_t, -1e-12 I]]`` once with LAPACK ``getrf``,
    in place in one ``(T, n+p, n+p)`` buffer allocated per solve; the
    predictor and the corrector back-solve against it with ``getrs``.
    Residuals are checked for the whole batch with batched matmuls, and
    only the instances that fail go through the dense route's
    regularization ladder (:func:`~repro.optim.ipqp._solve_kkt`),
    seeded with their plain factors.  :meth:`drop` removes converged
    instances as the batch drains.
    """

    def __init__(self, Pw, qw, A0, bw, G0, hw, d, r_a, r_g) -> None:
        self.Pw, self.qw, self.bw, self.hw = Pw, qw, bw, hw
        self.d, self.r_a, self.r_g = d, r_a, r_g
        self.A0, self.G0 = A0, G0
        self.A0T, self.G0T = A0.T.copy(), G0.T.copy()
        self.p = A0.shape[0]
        self.split = _SharedSplit(G0)
        #: ``A_t`` per instance; the scalings are fixed for the solve.
        self.A_scaled = (A0[None] * d[:, None, :]) * r_a[:, :, None]
        batch, n = qw.shape
        self.lu = np.empty((batch, n + self.p, n + self.p))
        self.piv = np.empty((batch, n + self.p), dtype=np.int32)
        self.scale = 1.0 + np.maximum(
            np.abs(qw).max(axis=1, initial=0.0),
            np.maximum(
                np.abs(hw).max(axis=1, initial=0.0),
                np.abs(bw).max(axis=1, initial=0.0),
            ),
        )

    def drop(self, keep: np.ndarray) -> None:
        for name in ("Pw", "qw", "bw", "hw", "d", "r_a", "r_g", "A_scaled", "scale"):
            setattr(self, name, getattr(self, name)[keep])

    def residuals(self, x, y, s, z):
        d, r_a, r_g = self.d, self.r_a, self.r_g
        dx_ = d * x
        Ax = r_a * (dx_ @ self.A0T) if self.p else np.zeros((len(x), 0))
        r_dual = _bmv(self.Pw, x) + self.qw + d * ((r_g * z) @ self.G0)
        if self.p:
            r_dual += d * ((r_a * y) @ self.A0)
        return r_dual, Ax - self.bw, r_g * (dx_ @ self.G0T) + s - self.hw

    def g_mul(self, v):
        return self.r_g * ((self.d * v) @ self.G0T)

    def gt_mul(self, v):
        return self.d * ((self.r_g * v) @ self.G0)

    def _factor(self, H: np.ndarray) -> None:
        """LU-factor each instance's condensed KKT around ``H`` in place.

        Each buffer row holds the transposed matrix, so its transpose
        is the matrix itself in Fortran order and ``getrf`` overwrites
        it with the factors :func:`~repro.optim.ipqp._lu` would compute.
        """
        self.H, k = H, len(H)
        kkt = _fill_kkt(self.lu[:k], H.transpose(0, 2, 1), self.A_scaled)
        self.info = np.empty(k, dtype=int)
        for t in range(k):
            _, self.piv[t], self.info[t] = dgetrf(kkt[t].T, overwrite_a=1)
        self.rescue = {}

    def start(self) -> tuple[np.ndarray, ...]:
        """The starting iterate: the generic cold start with its primal
        part replaced, where finite and moderate, by the ``W = I``
        equality-regularized solve.  That point lies near the central
        path's analytic region; it typically removes a few
        interior-point iterations and never changes what convergence
        means.  Slacks are clamped exactly like the cold start clamps
        ``h``."""
        Pw, qw, bw, hw, d, r_g = self.Pw, self.qw, self.bw, self.hw, self.d, self.r_g
        batch, n = qw.shape
        x = np.zeros((batch, n))
        y = np.zeros((batch, self.p))
        s = np.maximum(hw, 1.0)
        z = np.ones((batch, self.G0.shape[0]))
        try:
            self._factor(self.split.assemble(Pw, r_g * r_g, d))
            x0, y0 = self.solve(-qw + d * ((r_g * hw) @ self.G0), bw)
        except np.linalg.LinAlgError:
            return x, y, s, z
        good = np.isfinite(x0).all(axis=1) & (np.abs(x0).max(axis=1, initial=0.0) < 1e6)
        if good.any():
            x[good] = x0[good]
            if self.p:
                y[good] = np.where(np.isfinite(y0[good]), y0[good], 0.0)
            slack = hw[good] - r_g[good] * ((d[good] * x0[good]) @ self.G0T)
            s[good] = np.maximum(slack, 1.0)
        return x, y, s, z

    def factor(self, it, s, z) -> None:
        self._factor(
            self.split.assemble(self.Pw, (z / s) * (self.r_g * self.r_g), self.d)
        )

    def solve(self, r1, r2):
        n, lu, piv = r1.shape[1], self.lu, self.piv
        rhs = np.concatenate([r1, r2], axis=1)
        sol = np.empty_like(rhs)
        for t in range(len(rhs)):
            sol[t] = dgetrs(lu[t].T, piv[t], rhs[t])[0]
        dx, dy = sol[:, :n], sol[:, n:]
        resid = _bmv(self.H, dx) - r1
        if self.p:
            resid += np.matmul(dy[:, None, :], self.A_scaled)[:, 0]
            resid = np.concatenate(
                [resid, _bmv(self.A_scaled, dx) - 1e-12 * dy - r2], axis=1
            )
        resid = np.abs(resid).max(axis=1, initial=0.0)
        rhs_scale = 1.0 + np.abs(rhs).max(axis=1, initial=0.0)
        ok = np.isfinite(resid) & (resid <= _KKT_RESIDUAL_TOL * rhs_scale)
        for t in np.flatnonzero(~ok | (self.info != 0)):
            factors = self.rescue.setdefault(
                t, {0.0: None if self.info[t] else (lu[t].T, piv[t])}
            )
            kkt = _fill_kkt(np.empty(lu.shape[1:]), self.H[t], self.A_scaled[t])
            sol[t] = _solve_kkt(kkt, rhs[t], factors)
        return dx, dy


def solve_qp_batch(
    P: np.ndarray,
    q: np.ndarray,
    A: np.ndarray | None = None,
    b: np.ndarray | None = None,
    G: np.ndarray | None = None,
    h: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 100,
) -> BatchIPQPResult:
    """Solve T independent convex QPs sharing one constraint structure.

    Instance ``t`` solves ``min 0.5 x^T P_t x + q_t^T x`` subject to
    ``A x = b_t`` and ``G x <= h_t``: the constraint matrices are one
    2-D matrix each, shared by the whole batch (the compiled-horizon
    case), while Hessians, linear terms and right-hand sides may differ
    per instance.  The batch is Ruiz-equilibrated per instance and
    driven through one masked Mehrotra iteration (the scalar
    :func:`~repro.optim.ipqp.solve_qp` convergence test, per instance);
    converged instances are frozen mid-flight so stragglers don't pay
    for the drained majority.  Without inequalities every instance is
    solved in closed form.

    Instances the batched iteration fails to converge are re-solved by
    the scalar solver, inheriting its full semantics — including the
    raw-data retry after a failed equilibrated solve — and flagged in
    the result's ``fallback`` mask.

    Args:
        P: (T, n, n) stacked Hessians, or (n, n) shared.
        q: (T, n) stacked linear terms (defines T and n).
        A: optional (p, n) equality matrix.
        b: equality rhs, (p,) shared or (T, p); required with ``A``.
        G: optional (m, n) inequality matrix.
        h: inequality rhs, (m,) shared or (T, m); required with ``G``.
        tol: per-instance convergence tolerance (scalar semantics).
        max_iter: per-instance iteration cap.

    Raises:
        ValueError: on inconsistent shapes, a constraint matrix that is
            not 2-D, or one given without its right-hand side.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ValueError(f"expected a 2-d stacked q, got shape {q.shape}")
    batch, n = q.shape
    P = np.asarray(P, dtype=float)
    if P.ndim == 2:
        P = np.broadcast_to(P, (batch, n, n))
    if P.shape != (batch, n, n):
        raise ValueError(
            f"P shape {P.shape} incompatible with stacked q {q.shape}"
        )
    A0, b2 = _constraint_block(A, b, n, "A", batch)
    G0, h2 = _constraint_block(G, h, n, "G", batch)
    p, m = A0.shape[0], G0.shape[0]

    x = np.zeros((batch, n))
    y = np.zeros((batch, p))
    z = np.zeros((batch, m))
    iters = np.zeros(batch, dtype=int)
    conv = np.zeros(batch, dtype=bool)
    gap = np.zeros(batch)
    fallback = np.zeros(batch, dtype=bool)
    if m == 0:
        for t in range(batch):
            res = _closed_form(P[t], q[t], A0, b2[t])
            x[t], y[t] = res.x, res.eq_dual
        conv[:] = True
    elif batch:
        try:
            d, r_a, r_g, gamma = _ruiz_scales_shared(P, q, A0, G0)
            P_s = P * d[:, :, None]
            P_s *= d[:, None, :]
            P_s /= gamma[:, None, None]
            system = _SharedBatchSystem(
                P_s, d * q / gamma[:, None], A0, r_a * b2, G0, r_g * h2, d, r_a, r_g
            )
            x_h, y_h, _, z_h, iters, conv, gap = _mehrotra(
                system, *system.start(), tol, max_iter
            )
            x = d * x_h
            y = gamma[:, None] * r_a * y_h
            z = gamma[:, None] * r_g * z_h
            gap = gap * gamma
        except np.linalg.LinAlgError:
            pass
        for t in np.nonzero(~conv)[0]:
            res = solve_qp(
                P[t], q[t],
                A=A0 if p else None, b=b2[t] if p else None,
                G=G0, h=h2[t], tol=tol, max_iter=max_iter,
            )
            x[t], y[t], z[t] = res.x, res.eq_dual, res.ineq_dual
            iters[t] = res.iterations
            conv[t] = res.converged
            gap[t] = res.gap
            fallback[t] = True

    value = 0.5 * np.einsum("ti,tij,tj->t", x, P, x) + (q * x).sum(axis=1)
    return BatchIPQPResult(
        x=x, eq_dual=y, ineq_dual=z, value=value, iterations=iters,
        converged=conv, gap=gap, fallback=fallback,
    )
