"""The interior-point core, and the dense QP solver built on it.

Solves problems of the form

    min   0.5 * x^T P x + q^T x
    s.t.  A x  = b        (p equality rows, optional)
          G x <= h        (m inequality rows, optional)

with a Mehrotra predictor-corrector method.  :func:`_mehrotra` is the
one predictor-corrector loop in :mod:`repro.optim`: residuals and
convergence test, predictor, centring, corrector, fraction-to-boundary
step and update.  It runs over a *Newton system* that solves the
condensed KKT system of one route:

- :class:`_DenseSystem` here — the full condensed KKT matrix, for
  :func:`solve_qp` and :func:`~repro.optim.warm.solve_qp_warm`;
- ``_SharedBatchSystem`` in :mod:`repro.optim.batch` — a batch sharing
  one constraint structure, for
  :func:`~repro.optim.batch.solve_qp_batch`;
- ``_BlockArrowheadSystem`` in :mod:`repro.optim.kkt` — block
  elimination of the reach-sparse UFC QP, for
  :func:`~repro.optim.kkt.solve_structured_qp`.

A warm start is a starting point for the same loop
(:func:`_warm_point`), not a loop of its own.

The dense and the shared-batch systems factor each Newton matrix once
per iteration with LAPACK ``getrf`` (:func:`_lu`); the predictor, the
corrector and any regularized retry back-solve against those factors
under one residual-checked ladder, :func:`_solve_kkt`.

:func:`solve_qp` is the *centralized reference solver* the paper's
distributed ADM-G algorithm is verified against.  It is dense and sized
for the paper's scale (``M*N + 2N`` ~ tens of variables per time
slot), trading sparsity for robustness and simplicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

__all__ = ["IPQPTrace", "IPQPResult", "solve_qp"]


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


def _ruiz_equilibrate(
    P: np.ndarray,
    q: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    G: np.ndarray,
    h: np.ndarray,
    iterations: int = 15,
) -> tuple[np.ndarray, ...]:
    """Ruiz equilibration of the QP data.

    Iteratively scales variables (columns) and constraint rows toward
    unit infinity-norm, then normalizes the objective.  Returns the
    scaled data plus the diagonal scalings needed to map the scaled
    solution back: ``x = d * x_hat``, ``y = gamma * r_a * y_hat``,
    ``z = gamma * r_g * z_hat``.
    """
    n = len(q)
    p_rows, m_rows = A.shape[0], G.shape[0]
    d = np.ones(n)
    r_a = np.ones(p_rows)
    r_g = np.ones(m_rows)
    P = P.copy()
    A = A.copy()
    G = G.copy()
    # Scratch buffers: the scaling loop is pure max/multiply arithmetic,
    # so working in place (row scale, then column scale — the same
    # association as the expression it replaces) is bit-identical while
    # avoiding a dense stack copy per sweep.
    abs_buf_p = np.empty_like(P)
    abs_buf_a = np.empty_like(A)
    abs_buf_g = np.empty_like(G)
    for _ in range(iterations):
        col_norm = np.abs(P, out=abs_buf_p).max(axis=0)
        if p_rows:
            np.maximum(col_norm, np.abs(A, out=abs_buf_a).max(axis=0), out=col_norm)
        if m_rows:
            np.maximum(col_norm, np.abs(G, out=abs_buf_g).max(axis=0), out=col_norm)
        col_scale = 1.0 / np.sqrt(np.maximum(col_norm, 1e-12))
        # An exactly-zero column (or row, below) must keep scale 1:
        # the clamp would otherwise inflate it by 1e6 per sweep,
        # compounding into astronomically scaled data that makes the
        # solver's relative convergence test vacuously true.  Sparse
        # reach patterns produce genuinely zero capacity rows (a
        # datacenter no front-end reaches), so this is reachable.
        col_scale[col_norm == 0.0] = 1.0
        P *= col_scale[:, None]
        P *= col_scale[None, :]
        A *= col_scale[None, :]
        G *= col_scale[None, :]
        d *= col_scale
        if p_rows:
            row_norm = np.abs(A, out=abs_buf_a).max(axis=1)
            row_scale = 1.0 / np.sqrt(np.maximum(row_norm, 1e-12))
            row_scale[row_norm == 0.0] = 1.0
            A *= row_scale[:, None]
            r_a *= row_scale
        if m_rows:
            row_norm = np.abs(G, out=abs_buf_g).max(axis=1)
            row_scale = 1.0 / np.sqrt(np.maximum(row_norm, 1e-12))
            row_scale[row_norm == 0.0] = 1.0
            G *= row_scale[:, None]
            r_g *= row_scale
    q_scaled = d * q
    gamma = max(1e-12, np.abs(q_scaled).max(initial=0.0), np.abs(P).max(initial=0.0))
    return (
        P / gamma,
        q_scaled / gamma,
        A,
        r_a * b,
        G,
        r_g * h,
        d,
        r_a,
        r_g,
        gamma,
    )


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


def _solve_kkt(kkt: np.ndarray, rhs: np.ndarray, factors: dict | None = None) -> np.ndarray:
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
        if np.isfinite(resid) and resid <= _KKT_RESIDUAL_TOL * rhs_scale:
            return sol
        if np.isfinite(resid) and resid < best_resid:
            best, best_resid = sol, resid
    if best is None:
        raise np.linalg.LinAlgError(
            "KKT system is singular even after regularization"
        )
    # No attempt met the threshold: return the least-bad direction and
    # let the interior-point globalization (step-length cut) cope.
    return best


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


class _DenseSystem(_NewtonSystem):
    """The dense route: the condensed KKT matrix assembled in full,
    LU-factored once per iteration (on the predictor's solve) and
    solved under :func:`_solve_kkt`'s residual-checked regularization
    ladder."""

    def __init__(self, P, q, A, b, G, h) -> None:
        self.P, self.q, self.A, self.b, self.G, self.h = P, q, A, b, G, h
        n, p = len(q), A.shape[0]
        self.n = n
        self.scale = 1.0 + max(np.abs(q).max(initial=0.0), np.abs(h).max(initial=0.0),
                               np.abs(b).max(initial=0.0))
        # Workspaces allocated once: refilling them each iteration is
        # bit-identical to reallocating (and to the np.block expression),
        # without the per-iteration list/concatenate overhead.
        self.kkt = np.empty((n + p, n + p))
        self.rhs = np.empty(n + p)

    def residuals(self, x, y, s, z):
        r_dual = self.P @ x + self.q + self.A.T @ y + self.G.T @ z
        return r_dual, self.A @ x - self.b, self.G @ x + s - self.h

    def slack(self, x):
        return self.h - self.G @ x

    def g_mul(self, v):
        return self.G @ v

    def gt_mul(self, v):
        return self.G.T @ v

    def factor(self, it, s, z) -> None:
        G, w = self.G, z / s
        _fill_kkt(self.kkt, self.P + G.T @ (w[:, None] * G), self.A)
        self.factors = {}

    def solve(self, r1, r2):
        n = self.n
        self.rhs[:n] = r1
        self.rhs[n:] = r2
        sol = _solve_kkt(self.kkt, self.rhs, self.factors)
        return sol[:n], sol[n:]


def _newton(system, r_dual, r_eq, r_ineq, s, z, r_comp) -> tuple[np.ndarray, ...]:
    """One Newton direction: eliminate ``ds = -r_ineq - G dx`` and
    ``dz = (r_comp - z ds) / s``, solve the condensed system for
    ``(dx, dy)``, then recover ``ds`` and ``dz``."""
    dx, dy = system.solve(
        -r_dual - system.gt_mul((r_comp + z * r_ineq) / s), -r_eq
    )
    ds = -r_ineq - system.g_mul(dx)
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
        _, _, ds_a, dz_a = _newton(system, r_dual, r_eq, r_ineq, s, z, -s * z)
        alpha_p = _step_length(s, ds_a, 1.0, work, mask)
        alpha_d = _step_length(z, dz_a, 1.0, work, mask)
        mu_aff = _dot(s + col(alpha_p) * ds_a, z + col(alpha_d) * dz_a) / m
        sigma = _centering(mu_aff, mu)

        # Corrector direction and the common step.
        r_comp = -s * z + col(sigma * mu) - ds_a * dz_a
        dx, dy, ds, dz = _newton(system, r_dual, r_eq, r_ineq, s, z, r_comp)
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


def _closed_form(P, q, A, b, trace: bool = False) -> IPQPResult:
    """A QP without inequalities: one (regularized) linear solve."""
    n, p = len(q), A.shape[0]
    if p == 0:
        x = np.linalg.solve(P + 1e-12 * np.eye(n), -q)
        y = np.zeros(0)
    else:
        kkt = np.block([[P, A.T], [A, np.zeros((p, p))]])
        reg = 1e-12 * np.eye(n + p)
        reg[n:, n:] *= -1.0
        sol = np.linalg.solve(kkt + reg, np.concatenate([-q, b]))
        x, y = sol[:n], sol[n:]
    return IPQPResult(
        x=x, eq_dual=y, ineq_dual=np.zeros(0), value=float(0.5 * x @ P @ x + q @ x),
        iterations=0, converged=True, gap=0.0, trace=IPQPTrace() if trace else None,
    )


def _solve_dense(P, q, A, b, G, h, tol, max_iter, trace, trace_every) -> IPQPResult:
    """The dense route from the generic well-centred cold start."""
    system = _DenseSystem(P, q, A, b, G, h)
    x0 = np.zeros(len(q))
    trace_rec = IPQPTrace() if trace else None
    x, y, _, z, it, converged, gap = _mehrotra(
        system, x0, np.zeros(A.shape[0]), np.maximum(system.slack(x0), 1.0),
        np.ones(G.shape[0]), tol, max_iter, trace_rec, trace_every,
    )
    return IPQPResult(
        x=x, eq_dual=y, ineq_dual=z, value=float(0.5 * x @ P @ x + q @ x),
        iterations=it, converged=converged, gap=gap, trace=trace_rec,
    )


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

    Raises:
        ValueError: on inconsistent shapes, or a constraint matrix
            given without its right-hand side.
        np.linalg.LinAlgError: if the KKT system is numerically singular
            even after regularization.
    """
    P, q, A, b, G, h = _normalize_qp(P, q, A, b, G, h)
    if trace_every < 1:
        raise ValueError(f"trace_every must be >= 1, got {trace_every}")
    if G.shape[0] == 0:
        res = _closed_form(P, q, A, b, trace)
    elif not equilibrate:
        res = _solve_dense(P, q, A, b, G, h, tol, max_iter, trace, trace_every)
    else:
        P_s, q_s, A_s, b_s, G_s, h_s, d, r_a, r_g, gamma = _ruiz_equilibrate(
            P, q, A, b, G, h
        )
        inner = _solve_dense(P_s, q_s, A_s, b_s, G_s, h_s, tol, max_iter, trace,
                             trace_every)
        raw = None
        if not inner.converged:
            # Equilibration helps badly scaled instances but can send
            # the Mehrotra iteration into a limit cycle on small
            # well-scaled ones (residual traces show the gap orbiting
            # a period-3 cycle while the KKT residual sits at 1e-12).
            # Retry on the raw data; converging solves never get here,
            # so their iterates are untouched.
            raw = _solve_dense(P, q, A, b, G, h, tol, max_iter, trace, trace_every)
        if raw is not None and raw.converged:
            res = raw
        else:
            x = d * inner.x
            res = IPQPResult(
                x=x,
                eq_dual=gamma * r_a * inner.eq_dual,
                ineq_dual=gamma * r_g * inner.ineq_dual,
                value=float(0.5 * x @ P @ x + q @ x),
                iterations=inner.iterations,
                converged=inner.converged,
                gap=inner.gap * gamma,
                trace=inner.trace,
            )
    _record_metrics(metrics, res.iterations, res.converged)
    return res
