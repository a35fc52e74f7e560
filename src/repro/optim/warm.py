"""Cross-slot warm-started interior-point re-solves.

Consecutive slots of the paper's horizon share the QP structure (the
constraint pattern comes from the model geometry) and differ only in
the slowly-drifting linear data: arrivals move ``b`` and the utility
coefficients, prices and carbon rates move ``q``.  A cold
:func:`~repro.optim.ipqp.solve_qp` pays for that drift twice — a full
Ruiz equilibration pass and an interior-point run from the generic
well-centered start.  :func:`solve_qp_warm` reuses what temporal
coherence preserves, strongest mechanism first:

* **Active-set reuse.**  Hour-over-hour drift rarely changes *which*
  inequality constraints bind at the optimum.  Fixing the previous
  slot's active set turns the QP into one equality-constrained KKT
  system on the raw (unscaled) current data, in which each active
  variable bound fixes its variable instead of bordering the matrix
  (:meth:`~repro.optim.ipqp.QPKernel.solve_equality`).
  The candidate is accepted only after explicit verification — the
  dropped constraints must hold, the kept multipliers must be
  non-negative, and the KKT residual must sit at solver precision —
  with up to three refinement rounds (swap in violated constraints,
  drop negative multipliers) before giving up.  A verified hit is an
  *exact* KKT point, costs one small factorization per round, and
  reports ``iterations`` equal to the number of KKT solves (1 to 4).
* **Shift-initialized interior point.**  When the active set moved,
  the Mehrotra iteration is started from the previous iterates
  re-expressed in the cached Ruiz scalings (re-applying the diagonals
  to current data is exact algebra for any drift; only equilibration
  quality degrades).  Slacks and inequality duals are floored at a
  centering shift ``delta`` proportional to the warm point's relative
  KKT residual, so the run starts near the central path instead of
  jammed against the boundary.

Safeguard ladder (each rung falls through to the next, ending at the
plain cold solve):

1. an active-set candidate that fails verification — residual, primal
   feasibility of dropped rows, or dual feasibility of kept rows —
   after its refinement rounds is discarded;
2. a non-finite or shape-incompatible warm point is rejected outright;
3. a warm point whose relative KKT residual exceeds
   :data:`WARM_REJECT_REL` is rejected — at that distance the cold
   start converges just as fast and is more robust;
4. a warm interior-point run that fails to converge is discarded and
   the slot is re-solved cold, so a warm answer is never of lower
   quality than the cold one it replaced.

The cold path *is* :func:`~repro.optim.ipqp.solve_qp`, bit-for-bit —
including its equilibration-retry semantics — and hands the next slot
the scalings it ran under.  Every rung runs on one
:class:`~repro.optim.ipqp.QPKernel`, compiled on the chain's first slot
and carried in the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.optim.ipqp import (
    IPQPResult,
    QPKernel,
    _mehrotra,
    _normalize_qp,
    _record_metrics,
    _warm_point,
)

__all__ = ["WarmState", "WarmSolveInfo", "WarmSolve", "solve_qp_warm",
           "WARM_REJECT_REL", "ACTIVE_SET_TOL"]


#: Reject a warm point whose max KKT residual exceeds this fraction of
#: the (scaled) problem scale.  A cold start's initial residual is of
#: order the scale itself, so beyond this the warm point carries no
#: useful information.
WARM_REJECT_REL = 0.25

#: Verification tolerance for the active-set predictor, relative to
#: ``1 + max(|q|, |h|, |b|)``: dropped constraints may be violated and
#: kept multipliers negative by at most this much, and the KKT system
#: must be solved to this residual.  Matches the default interior-point
#: tolerance, so a verified hit is never looser than a converged IP run.
#: The active-set guess uses the same margin.
ACTIVE_SET_TOL = 1e-9

#: Refinement rounds the active-set rung may take after its first
#: guess.  Each round is one small equality-KKT solve, a few percent of
#: a warm interior-point run.
_REFINE_ROUNDS = 3


@dataclass
class WarmState:
    """Everything slot ``t`` hands slot ``t+1`` — plain arrays, picklable.

    Attributes:
        d, r_a, r_g, gamma: Ruiz scalings of the last cold solve, as it
            ran them (variable, equality-row, inequality-row diagonals
            and the objective normalization).
        x, eq_dual, ineq_dual: the previous slot's solution in
            *unscaled* units.
        slack: the previous slot's inequality slacks ``h - G x`` in
            unscaled units; ``ineq_dual > slack - margin`` is the
            active-set guess for the next slot.
        gap: the previous solve's final complementarity in scaled
            units (diagnostic; the shift is residual-driven).
        kernel: the :class:`~repro.optim.ipqp.QPKernel` the chain runs
            on, reused while the constraint matrices match.  It is not
            pickled: a state that crosses a process boundary compiles
            the kernel anew on its next slot.
    """

    d: np.ndarray
    r_a: np.ndarray
    r_g: np.ndarray
    gamma: float
    x: np.ndarray
    eq_dual: np.ndarray
    ineq_dual: np.ndarray
    slack: np.ndarray
    gap: float
    kernel: QPKernel | None = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["kernel"] = None
        return state


@dataclass
class WarmSolveInfo:
    """How one :func:`solve_qp_warm` call actually ran.

    Attributes:
        warm_used: True when a warm mechanism produced the returned
            result; False on any cold path.
        mechanism: which rung answered — ``"active-set"``,
            ``"warm-ipm"``, or ``"cold"``.
        fallback_reason: why warmer rungs were skipped (None when the
            first applicable rung hit).
    """

    warm_used: bool
    mechanism: str = "cold"
    fallback_reason: str | None = None


@dataclass
class WarmSolve:
    """Result triple of :func:`solve_qp_warm`."""

    result: IPQPResult
    state: WarmState | None
    info: WarmSolveInfo


def _active_set(kernel: QPKernel, P, q, b, h, active, tol: float, scale: float):
    """One verified equality-KKT solve with the rows in ``active`` bound.

    Returns ``None`` when the system is singular, two active rows bound
    one variable, or the residual is above solver precision; otherwise
    ``(ok, x, y, z, slack)`` where ``ok`` reports whether the candidate
    passed primal/dual verification.  ``z`` is the full-length
    multiplier vector (zeros on inactive rows, negatives clipped) and
    ``slack = h - G x``, so a failed candidate seeds the next
    refinement round.
    """
    try:
        out = kernel.solve_equality(P, q, b, h, active)
    except np.linalg.LinAlgError:
        return None
    if out is None or not out[3] <= tol:
        return None
    x, y, z, _ = out
    slack = h - kernel.G @ x
    ok = bool(
        slack.min(initial=0.0) >= -tol * scale
        and z[active].min(initial=0.0) >= -tol * scale
    )
    return ok, x, y, np.maximum(z, 0.0), slack


def _cold_solve(kernel: QPKernel, P, q, b, h, tol, max_iter, metrics,
                reason: str | None) -> WarmSolve:
    """:func:`~repro.optim.ipqp.solve_qp` on the kernel; the scalings it
    ran under seed the next slot."""
    res, (d, r_a, r_g, gamma) = kernel.solve(P, q, b, h, tol, max_iter, metrics=metrics)
    state = None
    if res.converged and kernel.m:
        state = WarmState(
            d=d, r_a=r_a, r_g=r_g, gamma=float(gamma),
            x=res.x, eq_dual=res.eq_dual, ineq_dual=res.ineq_dual,
            slack=h - kernel.G @ res.x, gap=res.gap / gamma, kernel=kernel,
        )
    return WarmSolve(result=res, state=state,
                     info=WarmSolveInfo(False, "cold", reason))


def solve_qp_warm(
    P: np.ndarray,
    q: np.ndarray,
    A: np.ndarray | None = None,
    b: np.ndarray | None = None,
    G: np.ndarray | None = None,
    h: np.ndarray | None = None,
    *,
    state: WarmState | None = None,
    tol: float = 1e-9,
    max_iter: int = 100,
    metrics=None,
) -> WarmSolve:
    """Solve a QP, warm-started from the previous slot when possible.

    With ``state=None`` (or a rejected warm point) this is exactly
    :func:`~repro.optim.ipqp.solve_qp`, whose scalings the returned
    state carries.  With a state, the previous active set is tried first
    (one verified equality-KKT solve); if the active set moved, the
    interior-point iteration starts from the shifted previous iterates
    on the cached-scaling data.  Every rung runs on the state's
    :class:`~repro.optim.ipqp.QPKernel` while ``A`` and ``G`` match it.
    The returned :class:`WarmSolve` carries the solver result, the state
    to pass to the next slot (None when no reusable state exists), and a
    :class:`WarmSolveInfo` describing which path ran.

    Raises:
        ValueError: on inconsistent shapes, or a constraint matrix
            given without its right-hand side (same contract as
            :func:`~repro.optim.ipqp.solve_qp`).
    """
    P, q, A, b, G, h = _normalize_qp(P, q, A, b, G, h)
    n = len(q)
    p, m = A.shape[0], G.shape[0]
    if state is not None and state.kernel is not None and state.kernel.matches(A, G):
        kernel = state.kernel
    else:
        kernel = QPKernel(A, G)

    if m == 0:
        # No barrier, nothing to warm-start: the cold path solves these
        # in one KKT solve already.
        return _cold_solve(kernel, P, q, b, h, tol, max_iter, metrics,
                           "no inequality constraints")
    if state is None:
        return _cold_solve(kernel, P, q, b, h, tol, max_iter, metrics, None)
    if (
        state.d.shape != (n,)
        or state.r_a.shape != (p,)
        or state.r_g.shape != (m,)
        or state.x.shape != (n,)
        or state.eq_dual.shape != (p,)
        or state.ineq_dual.shape != (m,)
        or state.slack.shape != (m,)
    ):
        return _cold_solve(kernel, P, q, b, h, tol, max_iter, metrics,
                           "warm state shape mismatch")

    # --- Rung 1: active-set reuse -------------------------------------
    # `ineq_dual > slack` separates rows that ended the previous slot
    # bound (dual dominates) from rows that ended slack; hour-over-hour
    # drift usually leaves that partition intact.  A row whose dual and
    # slack are within the verification tolerance of each other (both
    # near zero on a degenerate row) counts as bound, so a last-bit
    # change cannot flip the guess; a refinement round releases it if
    # its multiplier comes out negative.
    atol = min(tol, ACTIVE_SET_TOL)
    scale = 1.0 + max(np.abs(q).max(initial=0.0), np.abs(h).max(initial=0.0),
                      np.abs(b).max(initial=0.0))
    kkt_solves = 1
    guess = state.ineq_dual - state.slack > -atol * scale
    candidate = _active_set(kernel, P, q, b, h, guess, atol, scale)
    while candidate is not None and not candidate[0] and kkt_solves <= _REFINE_ROUNDS:
        # A refinement round: bind the violated rows, release the rows
        # whose multiplier went negative.  A round that reproduces its
        # own active set has stalled.
        _, _, _, z_c, slack_c = candidate
        refined = (z_c > 0.0) | (slack_c < 0.0)
        if (refined == guess).all():
            break
        guess = refined
        kkt_solves += 1
        candidate = _active_set(kernel, P, q, b, h, guess, atol, scale)
    if candidate is not None and candidate[0]:
        _, x, y, z, slack = candidate
        gap = float(np.maximum(slack, 0.0) @ z) / m
        result = IPQPResult(
            x=x,
            eq_dual=y,
            ineq_dual=z,
            value=float(0.5 * x @ P @ x + q @ x),
            iterations=kkt_solves,
            converged=True,
            gap=gap,
        )
        _record_metrics(metrics, kkt_solves, True)
        new_state = WarmState(
            d=state.d, r_a=state.r_a, r_g=state.r_g, gamma=state.gamma,
            x=x, eq_dual=y, ineq_dual=z, slack=slack, gap=gap, kernel=kernel,
        )
        return WarmSolve(result=result, state=new_state,
                         info=WarmSolveInfo(True, "active-set", None))
    active_reason = "active set changed"

    # --- Rung 2: shift-initialized interior point ---------------------
    # Re-apply the cached Ruiz diagonals to the *current* data.  This
    # is exact for arbitrary drift — the scaled problem is equivalent —
    # and costs a few elementwise passes instead of a Ruiz equilibration.
    d, r_a, r_g, gamma = state.d, state.r_a, state.r_g, state.gamma
    system = kernel.system(P, q, b, h, (d, r_a, r_g, gamma))
    start, rel0 = _warm_point(
        system,
        state.x / d,
        state.eq_dual / (gamma * r_a) if p else state.eq_dual.copy(),
        state.ineq_dual / (gamma * r_g),
        WARM_REJECT_REL,
    )
    if start is None:
        reason = (f"warm point too far (relative residual {rel0:.3g})"
                  if np.isfinite(rel0) else "non-finite warm point")
        return _cold_solve(kernel, P, q, b, h, tol, max_iter, metrics,
                           f"{active_reason}; {reason}")

    x_h, y_h, s_h, z_h, it, converged, gap_s = _mehrotra(
        system, *start, tol, max_iter
    )
    if not converged:
        return _cold_solve(
            kernel, P, q, b, h, tol, max_iter, metrics,
            f"{active_reason}; warm iteration did not converge in {it} iterations",
        )

    x = d * x_h
    eq_dual = gamma * r_a * y_h
    ineq_dual = gamma * r_g * z_h
    result = IPQPResult(
        x=x,
        eq_dual=eq_dual,
        ineq_dual=ineq_dual,
        value=float(0.5 * x @ P @ x + q @ x),
        iterations=it,
        converged=True,
        gap=gap_s * gamma,
    )
    _record_metrics(metrics, it, True)
    new_state = WarmState(
        d=d, r_a=r_a, r_g=r_g, gamma=gamma,
        x=x, eq_dual=eq_dual, ineq_dual=ineq_dual,
        slack=s_h / r_g, gap=gap_s, kernel=kernel,
    )
    return WarmSolve(result=result, state=new_state,
                     info=WarmSolveInfo(True, "warm-ipm", None))
