"""The interior-point core, and the QP kernel its dense routes run on.

Solves problems of the form

    min   0.5 * x^T P x + q^T x
    s.t.  A x  = b        (p equality rows, optional)
          G x <= h        (m inequality rows, optional)

with a Mehrotra predictor-corrector method.  :func:`_mehrotra` is the
one predictor-corrector loop in :mod:`repro.optim`: residuals and
convergence test, predictor, centring, corrector, fraction-to-boundary
step and update.  It runs over a *Newton system* that solves the
condensed KKT system of one route:

- :class:`_SharedSystem` here — QPs sharing one :class:`QPKernel`
  (the same ``A`` and ``G``), one at a time for :func:`solve_qp` and
  the cold rung of :func:`~repro.optim.warm.solve_qp_warm`, or as a
  stack for :func:`~repro.optim.batch.solve_qp_batch`;
- ``_BlockArrowheadSystem`` in :mod:`repro.optim.kkt` — block
  elimination of the reach-sparse UFC QP, for
  :func:`~repro.optim.kkt.solve_structured_qp`.

A :class:`QPKernel` is compiled once per constraint structure
(:meth:`~repro.core.compiled.CompiledQPStructure.kernel` for the
paper's horizon): the coordinates of the factored Ruiz equilibration
(one, six sweeps, for every dense route) and the bound-row/dense-row
split of ``G``.  Cold solves start from the
``W = I`` point (:meth:`_SharedSystem.start`); the structured lane's
warm start is another starting point for the same loop
(:func:`_warm_point`), not a loop of its own.  A QP without
inequalities is one equality-KKT solve (:meth:`QPKernel.solve_equality`),
and the warm chain's active-set homotopy is a sequence of them.

Each Newton matrix is LU-factored once per iteration with LAPACK
``getrf`` (:func:`_lu`); the predictor, the corrector and any
regularized retry back-solve against those factors under one
residual-checked ladder, :func:`_solve_kkt`.

:func:`solve_qp` is the *centralized reference solver* the paper's
distributed ADM-G algorithm is verified against.  It is dense and sized
for the paper's scale (``M*N + 2N`` ~ tens of variables per time
slot), trading sparsity for robustness and simplicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

__all__ = ["IPQPTrace", "IPQPResult", "QPKernel", "solve_qp"]


@dataclass
class IPQPTrace:
    """Per-iteration interior-point diagnostics (``trace=True``).

    ``gap`` and ``residual`` are recorded at the top of each iteration
    (including the final, converged one), so their length equals the
    reported iteration count; the step-size series are recorded after
    the direction computation, so on a converged solve they are one
    entry shorter.  With ``trace_every=k > 1`` only every k-th
    iteration is kept (same phase for all four series), bounding trace
    memory on long horizons.  On equilibrated solves the values are in the
    scaled problem's units — shapes and trends are what matter.

    Attributes:
        gap: average complementarity ``s^T z / m`` per iteration.
        residual: max KKT residual (dual, equality, inequality) per
            iteration.
        alpha_affine: predictor step length ``min(alpha_p, alpha_d)``.
        alpha: corrector (actual) step length.
    """

    gap: list[float] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)
    alpha_affine: list[float] = field(default_factory=list)
    alpha: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.gap)


@dataclass(frozen=True)
class IPQPResult:
    """Result of an interior-point QP solve.

    Attributes:
        x: primal minimizer.
        eq_dual: multipliers for ``Ax = b`` (empty when no equalities).
        ineq_dual: multipliers for ``Gx <= h`` (empty when none).
        value: objective value at ``x``.
        iterations: interior-point iterations performed.
        converged: True when all residuals and the duality gap met the
            tolerance; False means the iterate at the cap is returned.
        gap: final average complementarity ``s^T z / m`` (0 if m == 0).
        trace: per-iteration :class:`IPQPTrace` when the solve was
            called with ``trace=True``; None otherwise (the hot loop
            stays allocation-free by default).
    """

    x: np.ndarray
    eq_dual: np.ndarray
    ineq_dual: np.ndarray
    value: float
    iterations: int
    converged: bool
    gap: float
    trace: IPQPTrace | None = None


def _dot(a: np.ndarray, b: np.ndarray):
    """``a . b`` per instance: a float for 1-D iterates, (T,) for 2-D."""
    if a.ndim == 1:
        return float(a @ b)
    return (a * b).sum(axis=1)


def _norm(r: np.ndarray):
    """Infinity norm per instance (0 for an empty block)."""
    if r.ndim == 1:
        return float(np.abs(r).max(initial=0.0))
    return np.abs(r).max(axis=1, initial=0.0)


def _step_length(
    v: np.ndarray,
    dv: np.ndarray,
    fraction: float = 0.99,
    work: np.ndarray | None = None,
    mask: np.ndarray | None = None,
):
    """Largest alpha in (0, 1] keeping ``v + alpha dv > 0``, per instance.

    ``work`` (float) and ``mask`` (bool) are optional scratch buffers of
    ``v``'s shape; the hot loop passes them so the call allocates
    nothing.  The fused form is bit-identical to the masked-indexing
    one it replaced: ``-(v/dv)`` equals ``(-v)/dv`` exactly in IEEE
    arithmetic, and the min of negations is the negated max.  Returns a
    float for 1-D ``v`` and a (T,) array for a 2-D batch.
    """
    if work is None:
        work = np.empty_like(v)
    if mask is None:
        mask = np.empty(v.shape, dtype=bool)
    np.less(dv, 0.0, out=mask)
    work.fill(-np.inf)
    np.divide(v, dv, out=work, where=mask)
    worst = work.max(axis=-1, initial=-np.inf)
    if v.ndim == 2:
        return np.where(np.isneginf(worst), 1.0, np.minimum(1.0, fraction * -worst))
    if worst == -np.inf:
        return 1.0
    return float(min(1.0, fraction * -worst))


def _centering(mu_aff, mu):
    """Mehrotra's centring parameter ``sigma = (mu_aff / mu)^3``."""
    if not isinstance(mu, np.ndarray):
        return (mu_aff / mu) ** 3 if mu > 0 else 0.0
    sigma = np.zeros(len(mu))
    pos = mu > 0
    np.divide(mu_aff, mu, out=sigma, where=pos)
    return np.where(pos, sigma**3, 0.0)


#: Matches repro.obs.metrics.DEFAULT_ITERATION_BUCKETS; kept literal so
#: the optim layer stays import-free of obs.
_ITERATION_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

#: Relative Newton-residual threshold above which a KKT solve is
#: considered to have gone bad (see :func:`_solve_kkt`).  Healthy
#: factorizations sit many orders of magnitude below this.
_KKT_RESIDUAL_TOL = 1e-6

#: Escalating diagonal regularizations for retried KKT solves.
_KKT_REG_LEVELS = (1e-10, 1e-8)


def _fill_kkt(out: np.ndarray, H: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Write the condensed KKT matrix ``[[H, A'], [A, -1e-12 I]]`` into
    ``out``; stacked ``(k, ., .)`` operands fill a stack of matrices."""
    n = H.shape[-1]
    out[..., :n, :n] = H
    out[..., :n, n:] = np.swapaxes(A, -1, -2)
    out[..., n:, :n] = A
    out[..., n:, n:] = 0.0
    np.einsum("...ii->...i", out[..., n:, n:])[...] = -1e-12
    return out


def _lu(kkt: np.ndarray, reg: float = 0.0):
    """LAPACK LU factors ``(lu, piv)`` of ``kkt + reg I`` (``getrf`` on a
    Fortran-ordered copy, as ``np.linalg.solve`` does), or None when a
    pivot is exactly zero.  ``dgetrs(lu, piv, rhs)`` back-solves."""
    a = kkt + reg * np.eye(len(kkt)) if reg else kkt
    lu, piv, info = dgetrf(a)
    return (lu, piv) if info == 0 else None


def _solve_kkt(
    kkt: np.ndarray, rhs: np.ndarray, factors: dict | None = None
) -> tuple[np.ndarray, float]:
    """Solve the Newton KKT system with a residual safeguard.

    A nearly singular KKT matrix (e.g. a degenerate slot whose active
    constraints are linearly dependent at the barrier's limit) factors
    without complaint and back-solves to a finite garbage direction.
    On an exactly zero LU pivot *or* a relative residual
    ``||KKT sol - rhs||_inf > 1e-6 (1 + ||rhs||_inf)`` the solve is
    retried with an escalating diagonal regularization (1e-10 then
    1e-8), and when no attempt meets the threshold the least-bad
    direction is returned.  A healthy solve returns the plain LU
    back-solve bit-for-bit — the residual check observes, never
    perturbs.  ``factors`` caches :func:`_lu`'s factors per
    regularization level (0.0 for the plain matrix), so every solve
    against one matrix shares one factorization of each level.

    Returns:
        ``(sol, resid)`` — the solution and its residual
        ``||KKT sol - rhs||_inf``.

    Raises:
        np.linalg.LinAlgError: when every attempt is exactly singular.
    """
    if factors is None:
        factors = {}
    rhs_scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
    best: np.ndarray | None = None
    best_resid = np.inf
    for reg in (0.0, *_KKT_REG_LEVELS):
        if reg not in factors:
            factors[reg] = _lu(kkt, reg)
        if factors[reg] is None:
            continue
        sol = dgetrs(*factors[reg], rhs)[0]
        resid = float(np.abs(kkt @ sol - rhs).max(initial=0.0))
        # A NaN residual fails both comparisons, an infinite one too.
        if resid <= _KKT_RESIDUAL_TOL * rhs_scale:
            return sol, resid
        if resid < best_resid:
            best, best_resid = sol, resid
    if best is None:
        raise np.linalg.LinAlgError(
            "KKT system is singular even after regularization"
        )
    # No attempt met the threshold: return the least-bad direction and
    # let the interior-point globalization (step-length cut) cope.
    return best, best_resid


def _record_metrics(metrics, iterations: int, converged: bool) -> None:
    """Record one solve into a duck-typed metrics registry, if any."""
    if metrics is None:
        return
    metrics.counter("repro_ipqp_solves_total").inc()
    metrics.counter("repro_ipqp_iterations_total").inc(iterations)
    if converged:
        metrics.counter("repro_ipqp_converged_total").inc()
    metrics.histogram(
        "repro_ipqp_iterations", buckets=_ITERATION_BUCKETS
    ).observe(iterations)


def _constraint_block(
    M, r, n: int, name: str, batch: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """One constraint block ``M x (=|<=) r`` as float arrays.

    A missing or row-less matrix is an empty block.  A matrix without
    its right-hand side is an error, not NaN data.  With ``batch`` the
    right-hand side may be shared (1-D) or per instance (``(batch,
    rows)``) and is returned as ``(batch, rows)``; the matrix is always
    one 2-D matrix shared by every instance.

    Raises:
        ValueError: on a missing right-hand side or inconsistent shapes.
    """
    rows_shape = (0,) if batch is None else (batch, 0)
    if M is None or np.size(M) == 0:
        return np.zeros((0, n)), np.zeros(rows_shape)
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2 or M.shape[1] != n:
        raise ValueError(f"{name} shape {M.shape} incompatible with n {n}")
    if r is None:
        raise ValueError(f"{name} given without its right-hand side")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    rows = M.shape[0]
    if batch is not None and r.ndim == 1:
        r = np.broadcast_to(r, (batch, len(r)))
    want = (rows,) if batch is None else (batch, rows)
    if r.shape != want:
        raise ValueError(f"rhs shape {r.shape} incompatible with {name} rows {rows}")
    return M, r


def _normalize_qp(P, q, A, b, G, h) -> tuple[np.ndarray, ...]:
    """The dense entry points' shared input normalization."""
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    n = len(q)
    if P.shape != (n, n):
        raise ValueError(f"P shape {P.shape} incompatible with q length {n}")
    A, b = _constraint_block(A, b, n, "A")
    G, h = _constraint_block(G, h, n, "G")
    return P, q, A, b, G, h


class _NewtonSystem:
    """What :func:`_mehrotra` asks of a route's Newton system.

    A route supplies ``scale`` (the convergence test's reference
    magnitude), ``residuals(x, y, s, z)`` returning ``(r_dual, r_eq,
    r_ineq)``, ``slack(x) = h - G x`` (for warm points), the products
    ``g_mul(v) = G v`` and ``gt_mul(v) = G' v``, and a factor/solve
    pair for the condensed system ``[[P + G' W G, A'], [A, -delta]]
    (dx, dy) = (r1, r2)`` with ``W = diag(z / s)``: ``factor(it, s,
    z)`` once per iteration, then ``solve(r1, r2)`` for the predictor
    and the corrector.  The loop does everything else.  The hooks
    below are no-ops here; a route whose accuracy floors before the
    convergence test can fire overrides them with its own safeguards.
    """

    def stalled(self, residuals, mu, x, y, s, z) -> bool:
        """Whether to stop early (called on every unconverged iteration
        with ``(r_dual, r_eq, r_ineq)``)."""
        return False

    def cut_step(self, alpha, s, ds, z, dz, mu):
        """The step actually taken along ``(ds, dz)``."""
        return alpha

    def finish(self, x, y, s, z, converged):
        """The iterate to report when the loop ends."""
        return x, y, s, z


def _newton(system, r_ineq, negated, s, z, r_comp) -> tuple[np.ndarray, ...]:
    """One Newton direction: eliminate ``ds = -r_ineq - G dx`` and
    ``dz = (r_comp - z ds) / s``, solve the condensed system for
    ``(dx, dy)``, then recover ``ds`` and ``dz``.  ``negated`` is
    ``(-r_dual, -r_eq, -r_ineq)``, formed once for the predictor and
    the corrector."""
    neg_dual, neg_eq, neg_ineq = negated
    dx, dy = system.solve(
        neg_dual - system.gt_mul((r_comp + z * r_ineq) / s), neg_eq
    )
    ds = neg_ineq - system.g_mul(dx)
    return dx, dy, ds, (r_comp - z * ds) / s


def _mehrotra(
    system,
    x: np.ndarray,
    y: np.ndarray,
    s: np.ndarray,
    z: np.ndarray,
    tol: float,
    max_iter: int,
    trace: IPQPTrace | None = None,
    trace_every: int = 1,
) -> tuple:
    """The Mehrotra predictor-corrector loop every route of
    :mod:`repro.optim` runs, from the given (strictly interior) iterate.

    Each iteration forms the residuals, tests convergence against
    ``tol * system.scale`` (dual, equality and inequality residuals and
    the average complementarity ``mu`` all below it), solves the
    predictor, sets ``sigma = (mu_aff / mu)^3``, solves the corrector
    and takes one fraction-to-boundary step common to primal and dual.
    Separate primal/dual steps are marginally faster on easy problems
    but can cycle between vertices on degenerate QPs (observed on small
    equality+nonnegativity instances), while the common step is
    provably monotone in the merit sense.

    Iterates are 1-D for one QP or 2-D ``(T, .)`` for a batch sharing
    one Newton system; in a batch each instance has its own step
    lengths, and an instance that converges is frozen (its state copied
    out, its rows dropped through ``system.drop``) so the cost of an
    iteration tracks the instances still running.

    Returns:
        ``(x, y, s, z, iterations, converged, gap)`` — scalars for the
        last three on a single QP, ``(T,)`` arrays on a batch (an
        instance still running at the cap reports ``max_iter``).
    """
    m = s.shape[-1]
    batched = s.ndim == 2
    if batched:
        idx = np.arange(len(s))
        out = [np.zeros_like(v) for v in (x, y, s, z)]
        iters = np.full(len(s), max_iter, dtype=int)
        conv = np.zeros(len(s), dtype=bool)
        gaps = np.zeros(len(s))
    converged = False
    work = np.empty_like(s)
    mask = np.empty(s.shape, dtype=bool)

    def col(v):
        # A per-instance scalar shaped to broadcast against iterates.
        return v[:, None] if batched else v

    it = 0
    for it in range(1, max_iter + 1):
        r_dual, r_eq, r_ineq = system.residuals(x, y, s, z)
        mu = _dot(s, z) / m
        if trace is not None and (it - 1) % trace_every == 0:
            trace.gap.append(mu)
            trace.residual.append(max(_norm(r_dual), _norm(r_eq), _norm(r_ineq)))

        thr = tol * system.scale
        if not batched:
            if (_norm(r_dual) < thr and _norm(r_eq) < thr and _norm(r_ineq) < thr
                    and mu < thr):
                converged = True
                break
        else:
            done = ((_norm(r_dual) < thr) & (_norm(r_eq) < thr)
                    & (_norm(r_ineq) < thr) & (mu < thr))
            if done.any():
                fin = idx[done]
                for o, v in zip(out, (x, y, s, z)):
                    o[fin] = v[done]
                iters[fin] = it
                conv[fin] = True
                gaps[fin] = mu[done]
                keep = ~done
                idx = idx[keep]
                if not idx.size:
                    break
                system.drop(keep)
                x, y, s, z = x[keep], y[keep], s[keep], z[keep]
                r_dual, r_eq, r_ineq = r_dual[keep], r_eq[keep], r_ineq[keep]
                mu = mu[keep]
                work = np.empty_like(s)
                mask = np.empty(s.shape, dtype=bool)
        if system.stalled((r_dual, r_eq, r_ineq), mu, x, y, s, z):
            break

        system.factor(it, s, z)
        # Affine (predictor) direction.
        negated = (-r_dual, -r_eq, -r_ineq)
        neg_sz = -s * z
        _, _, ds_a, dz_a = _newton(system, r_ineq, negated, s, z, neg_sz)
        alpha_p = _step_length(s, ds_a, 1.0, work, mask)
        alpha_d = _step_length(z, dz_a, 1.0, work, mask)
        mu_aff = _dot(s + col(alpha_p) * ds_a, z + col(alpha_d) * dz_a) / m
        sigma = _centering(mu_aff, mu)

        # Corrector direction and the common step.
        r_comp = neg_sz + col(sigma * mu) - ds_a * dz_a
        dx, dy, ds, dz = _newton(system, r_ineq, negated, s, z, r_comp)
        step_s = _step_length(s, ds, work=work, mask=mask)
        step_z = _step_length(z, dz, work=work, mask=mask)
        alpha = np.minimum(step_s, step_z) if batched else min(step_s, step_z)
        alpha = system.cut_step(alpha, s, ds, z, dz, mu)
        if trace is not None and (it - 1) % trace_every == 0:
            trace.alpha_affine.append(min(alpha_p, alpha_d))
            trace.alpha.append(alpha)

        step = col(alpha)
        x = x + step * dx
        s = s + step * ds
        y = y + step * dy
        z = z + step * dz

    if batched:
        if idx.size:
            for o, v in zip(out, (x, y, s, z)):
                o[idx] = v
            gaps[idx] = _dot(s, z) / m
        return (*out, iters, conv, gaps)
    x, y, s, z = system.finish(x, y, s, z, converged)
    return x, y, s, z, it, converged, _dot(s, z) / m


#: Floor applied to carried inequality duals before a warm point is
#: measured (previously inactive duals underflow toward zero).
_DUAL_FLOOR = 1e-10

#: Smallest centring shift: even a perfectly coherent warm point is
#: pushed this far off the boundary so the first Mehrotra step is not
#: crushed by zero slacks.
_SHIFT_FLOOR = 1e-7


def _warm_point(system, x, y, z, cap: float):
    """A carried iterate made into a starting point for :func:`_mehrotra`.

    Floors the duals, measures the point's relative KKT residual on the
    system's current data (dual and equality residuals, and how far the
    slacks ``h - G x`` go negative, over ``system.scale``) and rejects
    it above ``cap`` — at that distance a cold start converges as fast
    and more robustly.  An accepted point gets a centring shift: slacks
    and duals are pushed at least ``delta`` off the boundary, with
    ``delta`` proportional to the residual, so a tiny drift starts
    almost converged and a larger one with a commensurate barrier.

    Returns:
        ``((x, y, s, z) or None, relative residual)``.
    """
    z = np.maximum(z, _DUAL_FLOOR)
    slack = system.slack(x)
    r_dual, r_eq, _ = system.residuals(x, y, slack, z)
    viol = max(_norm(r_dual), _norm(r_eq), max(0.0, -float(slack.min(initial=0.0))))
    rel = viol / system.scale
    if not rel <= cap:
        return None, rel
    delta = min(1.0, max(_SHIFT_FLOOR, rel))
    return (x, y, np.maximum(slack, delta), np.maximum(z, delta)), rel




#: Ruiz sweeps per equilibration.  The scalings converge geometrically;
#: on the paper's QP six sweeps leave iteration counts and
#: certification where fifteen put them.
_RUIZ_SWEEPS = 6


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, present)`` of the runs of equal values in sorted ``keys``."""
    if not keys.size:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    starts = np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1))
    return starts, keys[starts]


def _group_max(vals: np.ndarray, groups: tuple, size: int) -> np.ndarray:
    """Per-group max of ``vals`` (``(., nnz)``, grouped along the last
    axis); a group with no entries reads 0."""
    starts, present = groups
    if present.size == size:
        return np.maximum.reduceat(vals, starts, axis=-1)
    out = np.zeros(vals.shape[:-1] + (size,))
    if present.size:
        out[..., present] = np.maximum.reduceat(vals, starts, axis=-1)
    return out


def _ruiz_step(norm: np.ndarray) -> np.ndarray:
    """One sweep's scale factors ``1/sqrt(norm)``.

    An exactly-zero row or column keeps scale 1: the clamp would
    otherwise inflate it by 1e6 per sweep, and the astronomically scaled
    data makes the relative convergence test vacuously true.  Sparse
    reach patterns produce genuinely zero capacity rows (a datacenter no
    front-end reaches), so this is reachable.
    """
    step = 1.0 / np.sqrt(np.maximum(norm, 1e-12))
    step[norm == 0.0] = 1.0
    return step


class _SharedSplit:
    """Row split of a shared inequality matrix for fast KKT assembly.

    ``G^T diag(w) G = sum_i w_i g_i g_i^T``; rows with a single nonzero
    (variable bounds — the vast majority in compiled horizon QPs)
    contribute only to the diagonal, so they reduce to one small
    ``(., mb) @ (mb, n)`` product against a precomputed scatter of
    squared bound coefficients.  The remaining dense rows go through a
    precomputed ``(md, n*n)`` outer-product matrix (one dgemm) when
    small, or a matmul otherwise.
    """

    _OUTER_LIMIT = 4_000_000

    def __init__(self, G0: np.ndarray):
        m, n = G0.shape
        self.n = n
        bound = (G0 != 0).sum(axis=1) == 1
        self.bound_rows = np.flatnonzero(bound)
        #: Per row: the one variable a bound row holds and its
        #: coefficient (-1 and 0 on dense rows).
        self.bound_col = np.full(m, -1)
        self.bound_coef = np.zeros(m)
        if self.bound_rows.size:
            b_cols = np.nonzero(G0[self.bound_rows])[1]
            self.bound_col[self.bound_rows] = b_cols
            self.bound_coef[self.bound_rows] = G0[self.bound_rows, b_cols]
        self.dense_rows = np.flatnonzero(~bound)
        self.Gd = G0[self.dense_rows]
        self._products = None

    def _assembly_products(self) -> tuple:
        """The squared-bound scatter and the dense rows' outer products,
        built on the first stacked assembly (a warm chain's kernel
        never needs them)."""
        if self._products is None:
            n, rows = self.n, self.bound_rows
            bound_sq = None
            if rows.size:
                bound_sq = np.zeros((rows.size, n))
                bound_sq[np.arange(rows.size), self.bound_col[rows]] = self.bound_coef[rows] ** 2
            outer = None
            if self.Gd.size and self.Gd.shape[0] * n * n <= self._OUTER_LIMIT:
                outer = (self.Gd[:, :, None] * self.Gd[:, None, :]).reshape(-1, n * n)
            self._products = bound_sq, outer
        return self._products

    def assemble(self, Pw: np.ndarray, wt: np.ndarray, d: np.ndarray) -> np.ndarray:
        """``Pw + diag(d) (sum_i wt_i g_i g_i^T) diag(d)`` for a stack
        (``wt`` of shape ``(k, m)``)."""
        n = self.n
        lead = wt.shape[:-1]
        bound_sq, outer = self._assembly_products()
        if outer is not None:
            core = (wt[..., self.dense_rows] @ outer).reshape(lead + (n, n))
        elif self.dense_rows.size:
            core = np.matmul(self.Gd.T, wt[..., self.dense_rows, None] * self.Gd)
        else:
            core = np.zeros(lead + (n, n))
        if bound_sq is not None:
            diag = np.einsum("...ii->...i", core)
            diag += wt[..., self.bound_rows] @ bound_sq
        core *= d[..., :, None]
        core *= d[..., None, :]
        core += Pw
        return core


class QPKernel:
    """What a family of QPs sharing ``A`` and ``G`` compiles once.

    The paper's horizon compiles every slot of one (model, strategy) to
    the same constraint matrices (see
    :meth:`~repro.core.compiled.CompiledQPStructure.kernel`); only
    ``P``, ``q``, ``b`` and ``h`` move.  The kernel holds what the
    interior-point route derives from ``A`` and ``G`` alone: the
    sparsity coordinates of the factored Ruiz sweep (the rows of
    ``[A; G]`` and its columns, each pre-sorted so a sweep is two
    segmented maxima) and the bound-row/dense-row split of ``G`` that
    assembles a stack's ``G' W G`` and eliminates active bounds.  It
    holds no per-solve state, so one kernel serves any number of
    solves.  :meth:`solve` and :meth:`solve_equality` run one QP on it;
    ``solve_qp_batch`` and ``solve_qp_warm`` run theirs on the same
    kernel.

    The kernel keeps its own copies of ``A`` and ``G``, so
    :meth:`matches` compares contents and a caller that edits its arrays
    in place gets a fresh kernel, not a stale one.
    """

    def __init__(self, A: np.ndarray, G: np.ndarray) -> None:
        #: ``[A; G]``, a copy: the rows an equality-KKT solve borders
        #: with; ``A`` and ``G`` are views of it.
        self.AG = np.vstack([A, G]).astype(float, copy=False)
        self.p, self.n = np.shape(A)
        self.m = np.shape(G)[0]
        self.A, self.G = self.AG[:self.p], self.AG[self.p:]
        # Ruiz coordinates of [A; G], as indices into one scale vector
        # [d, r_a, r_g]: row-sorted for the row phase, column-sorted
        # for the column phase (which merges in P's entries per QP).
        rows, cols = np.nonzero(self.AG)
        self._row_coords = (rows + self.n, cols, np.abs(self.AG[rows, cols]), _groups(rows))
        cols, rows = np.nonzero(self.AG.T)
        self._col_coords = (rows + self.n, cols, np.abs(self.AG[rows, cols]))
        self.split = _SharedSplit(self.G)

    def matches(self, A: np.ndarray, G: np.ndarray) -> bool:
        """Whether ``A`` and ``G`` hold this kernel's matrices."""
        return (A.shape == self.A.shape and G.shape == self.G.shape
                and np.array_equal(A, self.A) and np.array_equal(G, self.G))

    def ruiz(self, P: np.ndarray, q: np.ndarray, sweeps: int = _RUIZ_SWEEPS):
        """Ruiz scalings ``(d, r_a, r_g, gamma)`` of one QP (``P``
        ``(n, n)``, ``q`` ``(n,)``) or of a stack (``(T, .)``, scaled per
        instance).

        Each sweep scales columns over ``[P; A; G]``, then the rows of
        ``A`` and ``G``, toward unit infinity norm; ``gamma`` then
        normalizes the objective.  The scaled matrices are never formed:
        a sweep recomputes the scaled magnitudes at the sparsity
        coordinates from the accumulated scale vectors, so it costs
        O(nnz).  The scaled problem is ``diag(d) P diag(d) / gamma``,
        ``d q / gamma``, ``diag(r_a) A diag(d)``, ``r_a b``,
        ``diag(r_g) G diag(d)``, ``r_g h``, and maps back as ``x = d
        x_hat``, ``y = gamma r_a y_hat``, ``z = gamma r_g z_hat``.
        """
        n, p = self.n, self.p
        pattern = P != 0 if P.ndim == 2 else np.abs(P).max(axis=0) > 0
        cols_p, rows_p = np.nonzero(pattern.T)
        vals_p = np.abs(P[..., rows_p, cols_p])
        rows_c, cols_c, base_c = self._col_coords
        lead = q.shape[:-1]
        order = np.argsort(np.concatenate([cols_p, cols_c]), kind="stable")
        rows_c = np.concatenate([rows_p, rows_c])[order]
        cols_c = np.concatenate([cols_p, cols_c])[order]
        base_c = np.concatenate([vals_p, np.broadcast_to(base_c, lead + base_c.shape)],
                                axis=-1)[..., order]
        groups_c = _groups(cols_c)
        rows_r, cols_r, base_r, groups_r = self._row_coords
        scales = np.ones(lead + (n + p + self.m,))
        d, r = scales[..., :n], scales[..., n:]
        for _ in range(sweeps):
            d *= _ruiz_step(_group_max(
                base_c * (scales[..., rows_c] * scales[..., cols_c]), groups_c, n))
            r *= _ruiz_step(_group_max(
                base_r * (scales[..., rows_r] * scales[..., cols_r]), groups_r, p + self.m))
        p_max = (vals_p * (d[..., rows_p] * d[..., cols_p])).max(axis=-1, initial=0.0)
        gamma = np.maximum(1e-12, np.maximum(np.abs(d * q).max(axis=-1, initial=0.0),
                                             p_max))
        return d, r[..., :p], r[..., p:], gamma

    def system(self, P, q, b, h, scalings) -> "_SharedSystem":
        """The Newton system of the QP(s) scaled by ``scalings``."""
        d, r_a, r_g, gamma = scalings
        g = np.asarray(gamma)[..., None]
        Pw = P * d[..., :, None]
        Pw *= d[..., None, :]
        Pw /= g[..., None]
        return _SharedSystem(self, Pw, d * q / g, r_a * b, r_g * h, d, r_a, r_g)

    def solve(
        self, P, q, b, h, tol: float = 1e-9, max_iter: int = 100,
        equilibrate: bool = True, trace: bool = False, trace_every: int = 1,
        metrics=None,
    ) -> IPQPResult:
        """One QP on this kernel.

        The arguments are :func:`solve_qp`'s, on data already
        normalized to float arrays of matching shapes.

        Cold solves start from the ``W = I`` point
        (:meth:`_SharedSystem.start`).  An equilibrated solve that does
        not converge is retried on the raw data: equilibration helps
        badly scaled instances but can send the Mehrotra iteration into
        a limit cycle on small well-scaled ones (the gap orbits a
        period-3 cycle while the KKT residual sits at 1e-12).  A
        converged solve never gets there, so its iterates are untouched.
        Without inequalities the minimizer is one equality-KKT solve.
        """
        if trace_every < 1:
            raise ValueError(f"trace_every must be >= 1, got {trace_every}")
        if not self.m:
            x, y, _, _ = self.solve_equality(self.equality_kkt(P), q, b, h)
            res = IPQPResult(
                x=x, eq_dual=y, ineq_dual=np.zeros(0), value=float(0.5 * x @ P @ x + q @ x),
                iterations=0, converged=True, gap=0.0,
                trace=IPQPTrace() if trace else None,
            )
        else:
            raw = np.ones(self.n), np.ones(self.p), np.ones(self.m), 1.0
            scalings = self.ruiz(P, q) if equilibrate else raw
            res = self._run(P, q, b, h, scalings, tol, max_iter, trace, trace_every)
            if not res.converged and equilibrate:
                retry = self._run(P, q, b, h, raw, tol, max_iter, trace, trace_every)
                if retry.converged:
                    res = retry
        _record_metrics(metrics, res.iterations, res.converged)
        return res

    def _run(self, P, q, b, h, scalings, tol, max_iter, trace, trace_every) -> IPQPResult:
        """The Mehrotra loop from the cold start under ``scalings``."""
        d, r_a, r_g, gamma = scalings
        system = self.system(P, q, b, h, scalings)
        trace_rec = IPQPTrace() if trace else None
        x, y, _, z, it, converged, gap = _mehrotra(
            system, *system.start(), tol, max_iter, trace_rec, trace_every
        )
        x = d * x
        return IPQPResult(
            x=x, eq_dual=gamma * r_a * y, ineq_dual=gamma * r_g * z,
            value=float(0.5 * x @ P @ x + q @ x), iterations=it,
            converged=converged, gap=gap * gamma, trace=trace_rec,
        )

    def equality_kkt(self, P: np.ndarray) -> np.ndarray:
        """The bordered KKT matrix ``[[P, AG'], [AG, -1e-12 I]]`` that
        :meth:`solve_equality` gathers its reduced systems from, built
        once for any number of working sets under one Hessian ``P``."""
        return _fill_kkt(np.empty((self.n + len(self.AG),) * 2), P, self.AG)

    def solve_equality(self, kkt, q, b, h, active: np.ndarray | None = None):
        """The QP with the inequality rows in ``active`` held at equality
        and every other inequality row dropped: one KKT solve.

        An active bound row fixes its variable, which leaves the system
        instead of bordering it; only the equality rows and the active
        dense rows border the Hessian of the free variables.  A bound
        row's multiplier then follows from its variable's stationarity
        row.  The reduced matrix is gathered from ``kkt``
        (:meth:`equality_kkt` of the QP's Hessian) and solved under
        :func:`_solve_kkt`'s ladder.

        Returns:
            ``(x, y, z, residual)`` — ``z`` the full-length inequality
            multipliers (zero on dropped rows, unclipped), ``residual``
            the reduced system's max residual relative to ``1 +
            ||rhs||_inf`` — or None when two active rows bound one
            variable.

        Raises:
            np.linalg.LinAlgError: when the system is singular even
                after regularization.
        """
        n, p, split = self.n, self.p, self.split
        act = np.zeros(0, dtype=int) if active is None else np.flatnonzero(active)
        cols = split.bound_col[act]
        on_bound = cols >= 0
        fixed, act_b = cols[on_bound], act[on_bound]
        keep = np.ones(n, dtype=bool)
        keep[fixed] = False
        free = np.flatnonzero(keep)
        if free.size != n - fixed.size:
            return None
        # The unknowns: the free variables, then the bordering rows'
        # multipliers (every equality row, then the active dense rows).
        idx = np.concatenate([free, n + np.arange(p), n + p + act[~on_bound]])
        x = np.zeros(n)
        x[fixed] = h[act_b] / split.bound_coef[act_b]
        rhs = (np.concatenate([-q, b, h]) - kkt[:, :n] @ x)[idx]
        reduced = kkt.take(idx, 0).take(idx, 1)
        sol, resid = _solve_kkt(reduced, rhs)
        resid /= 1.0 + float(np.abs(rhs).max(initial=0.0))
        full = np.zeros(len(kkt))
        full[:n] = x
        full[idx] = sol
        # A fixed variable's stationarity row, P x + q + A'y + G'z = 0,
        # gives its bound row's multiplier (still zero in ``full``).
        grad = (kkt[:n] @ full)[fixed] + q[fixed]
        full[n + p + act_b] = -grad / split.bound_coef[act_b]
        return full[:n], full[n:n + p], full[n + p:], resid


class _SharedSystem(_NewtonSystem):
    """The Newton system of every dense route: QPs sharing one kernel.

    Runs one QP (1-D iterates, for :func:`solve_qp` and the cold rung of
    ``solve_qp_warm``) or a stack of them (``(T, .)`` iterates, for
    ``solve_qp_batch``) with their own Hessians, right-hand sides and
    Ruiz scalings but the kernel's ``A``/``G``.  The scalings stay
    factored (``A_t = diag(r_a[t]) A diag(d[t])`` and likewise for
    ``G``), so constraint products are single matrix products against
    the shared matrices, and ``G' W G`` is assembled from the kernel's
    bound/dense split.  Each iteration LU-factors each instance's
    condensed KKT ``[[H, A_t'], [A_t, -1e-12 I]]`` once with LAPACK
    ``getrf``; the predictor and the corrector back-solve against it
    with ``getrs`` under the residual-checked ladder
    (:func:`_solve_kkt`).  A stack checks residuals for all instances at
    once and sends only those that fail to the ladder, seeded with their
    plain factors; :meth:`drop` removes converged instances as the batch
    drains.
    """

    def __init__(self, kernel: QPKernel, Pw, qw, bw, hw, d, r_a, r_g) -> None:
        self.kernel = kernel
        self.Pw, self.qw, self.bw, self.hw = Pw, qw, bw, hw
        self.d, self.r_a, self.r_g = d, r_a, r_g
        self.p = kernel.p
        #: ``A_t`` per instance; the scalings are fixed for the solve.
        self.A_scaled = (kernel.A * d[..., None, :]) * r_a[..., :, None]
        self.scale = 1.0 + np.maximum(
            np.abs(qw).max(axis=-1, initial=0.0),
            np.maximum(np.abs(hw).max(axis=-1, initial=0.0),
                       np.abs(bw).max(axis=-1, initial=0.0)),
        )
        size = kernel.n + self.p
        #: One QP's scaled ``G`` in full: at one instance a product
        #: against it is one call, where the factored form takes three.
        self.G_scaled = None
        if qw.ndim == 1:
            self.scale = float(self.scale)
            self.G_scaled = (kernel.G * d) * r_g[:, None]
            # The equality block of the KKT matrix is fixed for the
            # solve; each iteration writes only the Hessian block.
            self.kkt = _fill_kkt(np.empty((size, size)), np.zeros((kernel.n,) * 2),
                                 self.A_scaled)
        else:
            self.lu = np.empty((len(qw), size, size))
            self.piv = np.empty((len(qw), size), dtype=np.int32)
            self.AT, self.GT = kernel.A.T.copy(), kernel.G.T.copy()

    def drop(self, keep: np.ndarray) -> None:
        for name in ("Pw", "qw", "bw", "hw", "d", "r_a", "r_g", "A_scaled", "scale"):
            setattr(self, name, getattr(self, name)[keep])

    def residuals(self, x, y, s, z):
        if x.ndim == 1:
            A = self.A_scaled
            r_dual = self.Pw @ x + self.qw + z @ self.G_scaled
            if self.p:
                r_dual += y @ A
            return r_dual, A @ x - self.bw, self.G_scaled @ x + s - self.hw
        k, d, r_a, r_g = self.kernel, self.d, self.r_a, self.r_g
        dx_ = d * x
        r_dual = np.matmul(self.Pw, x[:, :, None])[:, :, 0]
        r_dual += self.qw
        r_dual += d * ((r_g * z) @ k.G)
        if self.p:
            r_dual += d * ((r_a * y) @ k.A)
        return r_dual, r_a * (dx_ @ self.AT) - self.bw, r_g * (dx_ @ self.GT) + s - self.hw

    def slack(self, x):
        return self.hw - self.g_mul(x)

    def g_mul(self, v):
        if self.G_scaled is not None:
            return self.G_scaled @ v
        return self.r_g * ((self.d * v) @ self.GT)

    def gt_mul(self, v):
        if self.G_scaled is not None:
            return v @ self.G_scaled
        return self.d * ((self.r_g * v) @ self.kernel.G)

    def _factor(self, H: np.ndarray) -> None:
        """LU-factor the condensed KKT around ``H`` (one or a stack).

        A stack's buffer rows hold the transposed matrices, so each
        transpose is the matrix itself in Fortran order and ``getrf``
        overwrites it in place with the factors :func:`_lu` would
        compute.
        """
        self.H = H
        if H.ndim == 2:
            n = len(H)
            self.kkt[:n, :n] = H
            self.factors = {}
            return
        k = len(H)
        kkt = _fill_kkt(self.lu[:k], H.transpose(0, 2, 1), self.A_scaled)
        self.info = np.empty(k, dtype=int)
        for t in range(k):
            _, self.piv[t], self.info[t] = dgetrf(kkt[t].T, overwrite_a=1)
        self.rescue = {}

    def start(self) -> tuple[np.ndarray, ...]:
        """The cold starting iterate: ``x`` from the ``W = I``
        equality-regularized solve ``[[P + G'G, A'], [A, -1e-12 I]] (x,
        y) = (G'h - q, b)`` where it is finite and moderate (zero
        elsewhere), ``s = max(h - G x, 1)`` and ``z = 1``.  That point
        lies near the central path's analytic region; it typically
        removes a few interior-point iterations and never changes what
        convergence means."""
        qw, hw = self.qw, self.hw
        x = np.zeros_like(qw)
        y = np.zeros(qw.shape[:-1] + (self.p,))
        z = np.ones_like(hw)
        try:
            self._factor(self._hessian(z))
            x0, y0 = self.solve(-qw + self.gt_mul(hw), self.bw)
        except np.linalg.LinAlgError:
            return x, y, np.maximum(hw, 1.0), z
        good = np.asarray(np.isfinite(x0).all(axis=-1)
                          & (np.abs(x0).max(axis=-1, initial=0.0) < 1e6))[..., None]
        x = np.where(good, x0, x)
        if self.p:
            y = np.where(good & np.isfinite(y0), y0, 0.0)
        return x, y, np.maximum(self.slack(x), 1.0), z

    def _hessian(self, w: np.ndarray) -> np.ndarray:
        """``P + G' diag(w) G`` in scaled units: one product against the
        scaled ``G`` for one QP, the kernel's row split for a stack."""
        if self.G_scaled is not None:
            return self.Pw + self.G_scaled.T @ (w[:, None] * self.G_scaled)
        return self.kernel.split.assemble(self.Pw, w * (self.r_g * self.r_g), self.d)

    def factor(self, it, s, z) -> None:
        self._factor(self._hessian(z / s))

    def solve(self, r1, r2):
        n = r1.shape[-1]
        rhs = np.concatenate([r1, r2], axis=-1)
        if rhs.ndim == 1:
            sol = _solve_kkt(self.kkt, rhs, self.factors)[0]
            return sol[:n], sol[n:]
        lu, piv = self.lu, self.piv
        sol = np.empty_like(rhs)
        for t in range(len(rhs)):
            sol[t] = dgetrs(lu[t].T, piv[t], rhs[t])[0]
        dx, dy = sol[:, :n], sol[:, n:]
        resid = np.matmul(self.H, dx[:, :, None])[:, :, 0] - r1
        if self.p:
            resid += np.matmul(dy[:, None, :], self.A_scaled)[:, 0]
            resid = np.concatenate(
                [resid, np.matmul(self.A_scaled, dx[:, :, None])[:, :, 0]
                 - 1e-12 * dy - r2], axis=1
            )
        resid = np.abs(resid).max(axis=1, initial=0.0)
        rhs_scale = 1.0 + np.abs(rhs).max(axis=1, initial=0.0)
        ok = np.isfinite(resid) & (resid <= _KKT_RESIDUAL_TOL * rhs_scale)
        for t in np.flatnonzero(~ok | (self.info != 0)):
            factors = self.rescue.setdefault(
                t, {0.0: None if self.info[t] else (lu[t].T, piv[t])}
            )
            kkt = _fill_kkt(np.empty(lu.shape[1:]), self.H[t], self.A_scaled[t])
            sol[t] = _solve_kkt(kkt, rhs[t], factors)[0]
        return dx, dy


def solve_qp(
    P: np.ndarray,
    q: np.ndarray,
    A: np.ndarray | None = None,
    b: np.ndarray | None = None,
    G: np.ndarray | None = None,
    h: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 100,
    equilibrate: bool = True,
    trace: bool = False,
    trace_every: int = 1,
    metrics=None,
) -> IPQPResult:
    """Solve a dense convex QP with a Mehrotra predictor-corrector method.

    ``P`` must be symmetric positive semidefinite.  Equality and
    inequality blocks are each optional; without inequalities the
    minimizer is returned via one linear solve.  By default the data is
    Ruiz-equilibrated first, which makes the solver robust to badly
    scaled problems (the UFC QP mixes workload variables ~1e4 with
    power variables ~1 and couplings ~1e-4).  With ``trace=True`` the
    result carries a per-iteration :class:`IPQPTrace` (duality gap,
    KKT residual, step lengths); the iterates themselves are identical
    with tracing on or off.  ``trace_every=k`` keeps only every k-th
    iteration of the trace, bounding memory on long traced horizons.
    ``metrics`` accepts a duck-typed
    :class:`~repro.obs.metrics.MetricsRegistry` (anything with
    ``counter``/``histogram``) and records solve counts, iteration
    totals and an iteration histogram — once per outer solve, not per
    equilibration retry.

    This compiles a :class:`QPKernel` for ``A`` and ``G`` and runs
    :meth:`QPKernel.solve`; a caller solving many QPs with the same
    constraint matrices compiles the kernel once and calls it instead.

    Raises:
        ValueError: on inconsistent shapes, or a constraint matrix
            given without its right-hand side.
        np.linalg.LinAlgError: if the KKT system is numerically singular
            even after regularization.
    """
    P, q, A, b, G, h = _normalize_qp(P, q, A, b, G, h)
    return QPKernel(A, G).solve(P, q, b, h, tol, max_iter, equilibrate, trace,
                                trace_every, metrics)
