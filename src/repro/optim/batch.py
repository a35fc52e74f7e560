"""Batched solver kernels over stacked slot instances.

Independent QPs that share one compiled structure differ only in
their parameter vectors.  Solving them one by one pays the
Python/numpy dispatch overhead of every small linear-algebra call once
per QP and iteration; driving one *masked* Mehrotra iteration over the
whole stack pays it once per iteration.  This module provides

- :func:`solve_qp_batch` — the interior-point loop of
  :mod:`repro.optim.ipqp` over a stack sharing one constraint
  structure, with per-instance step lengths, per-instance convergence
  masking (converged instances are frozen and the active set shrinks as
  the batch drains), per-instance Ruiz scalings, and a per-instance
  fallback to the scalar :func:`~repro.optim.ipqp.solve_qp` semantics
  (on the batch's kernel) for instances that fail to converge.  The
  ``centralized-batch`` engine lane (:mod:`repro.engine.batch`) solves
  its cold anchors, one slot per day of each strategy's horizon, as
  one such stack and walks the slots between them by active set;
- :func:`solve_capped_rank_one_qp_batch` — the ADM-G per-datacenter
  ``a``-minimization solved for T slots at once with a vectorized
  sort-based support sweep (bit-identical to the scalar solver per row).

The rank-one sweep replicates the scalar kernel's arithmetic per row
(its row-wise simplex projections are
:func:`~repro.optim.simplex.project_simplex` on a 2-D batch).  The interior-point route does not: its Newton
solves and coordinate-form equilibration sweeps go through batched
BLAS calls that round differently from the scalar matvecs, so batched
IPQP solutions agree with the scalar path to solver tolerance rather
than bit-for-bit.

The batch runs on the same :class:`~repro.optim.ipqp.QPKernel` (the
caller's, when it holds one) and Newton system as the one-QP route (``_SharedSystem`` in
:mod:`repro.optim.ipqp`, with ``(T, .)`` iterates): the constraint
matrices are the same arrays for every slot, so residuals collapse to
single dgemms against the shared matrix with per-instance Ruiz
scalings carried as factored row/column vectors; most inequality rows
are variable bounds, so ``G^T W G`` splits into a diagonal scatter plus
a tiny dense-row product; and the equilibration sweeps touch only the
nonzero coordinates.  Each instance's condensed KKT is LU-factored once
per iteration with LAPACK ``getrf``, in place in one stacked buffer;
residuals are checked for the whole batch at once, and an instance that
fails the check goes through the regularization ladder
(:func:`~repro.optim.ipqp._solve_kkt`) on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.optim.ipqp import IPQPResult, QPKernel, _constraint_block, _mehrotra
from repro.optim.simplex import project_simplex

__all__ = [
    "BatchIPQPResult",
    "solve_qp_batch",
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


def solve_qp_batch(
    P: np.ndarray,
    q: np.ndarray,
    A: np.ndarray | None = None,
    b: np.ndarray | None = None,
    G: np.ndarray | None = None,
    h: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 100,
    kernel: QPKernel | None = None,
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
        kernel: the :class:`~repro.optim.ipqp.QPKernel` of ``A`` and
            ``G`` when the caller holds one (a compiled horizon's
            :meth:`~repro.core.compiled.CompiledQPStructure.kernel`);
            built here otherwise.

    Raises:
        ValueError: on inconsistent shapes, a constraint matrix that is
            not 2-D, one given without its right-hand side, or a
            ``kernel`` of other matrices.
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

    if kernel is None:
        kernel = QPKernel(A0, G0)
    elif not kernel.matches(A0, G0):
        raise ValueError("kernel was compiled for other constraint matrices")
    x = np.zeros((batch, n))
    y = np.zeros((batch, p))
    z = np.zeros((batch, m))
    iters = np.zeros(batch, dtype=int)
    conv = np.zeros(batch, dtype=bool)
    gap = np.zeros(batch)
    fallback = np.zeros(batch, dtype=bool)
    if m == 0:
        for t in range(batch):
            kkt = kernel.equality_kkt(P[t])
            x[t], y[t], _, _ = kernel.solve_equality(kkt, q[t], b2[t], h2[t])
        conv[:] = True
    elif batch:
        try:
            scalings = d, r_a, r_g, gamma = kernel.ruiz(P, q)
            system = kernel.system(P, q, b2, h2, scalings)
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
            res = kernel.solve(P[t], q[t], b2[t], h2[t], tol, max_iter)
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
