"""Cross-slot warm re-solves: a parametric active-set homotopy.

Consecutive slots of the paper's horizon share the QP's constraint
matrices (the pattern comes from the model geometry) and differ only
in slowly drifting data: arrivals move ``b`` and the utility block of
``P`` and ``q``, prices and carbon rates move ``q``.
:func:`solve_qp_warm` walks from slot ``t-1``'s KKT point to slot
``t``'s along the line between their data.  This is the online
active-set strategy of Ferreau, Bock and Diehl (IJRNC 2008):

* **Start.**  The carried ``(x, y, z)`` with its working set ``W``
  (the rows whose multiplier dominates their slack) is an exact KKT
  point of a shifted problem under the current Hessian ``P``: ``q' =
  -P x - A'y - G'z``, ``b' = A x``, and ``h'`` equal to ``G x`` on
  ``W`` and to ``h`` elsewhere.  Only the point is carried — no old
  data, no scalings — so the walk starts the same way after a cold
  slot as after a warm one.
* **Segments.**  With ``W`` fixed, the KKT point is affine in the data,
  so one equality-KKT solve of the slot's own data
  (:meth:`~repro.optim.ipqp.QPKernel.solve_equality`) fixes the whole
  segment.  If its endpoint keeps every row outside ``W`` feasible and
  every multiplier in ``W`` non-negative, it is the answer.  Otherwise
  the first row to cross zero along the segment (the lowest index on
  ties) is a breakpoint: a blocking row joins ``W``, and a row whose
  multiplier reached zero leaves it.
* **Exchanges.**  The paper's Hessian is singular: the latency term
  is rank one per front end and the power costs are linear.  Leaving a
  row can then leave a working set whose KKT system has no solution
  (the bang-bang split between fuel cell and grid).  The row stays in
  the factor with its right-hand side moved instead; ``x`` walks along
  that direction at zero cost until a row outside ``W`` blocks, and
  the two rows exchange.  A joining row that duplicates rows already
  in ``W`` exchanges the same way, with the held row whose multiplier
  reaches zero first as weight shifts onto it (:func:`_exchange`).

A walk answers with ``iterations`` equal to its equality-KKT solves,
and only with an endpoint that passed :func:`_active_set`'s check at
:data:`ACTIVE_SET_TOL`.  A step cap, a working set that stays
inconsistent, an infeasible one (no held row can make way for a
joining duplicate) or an unbounded drop direction sends the slot to
the cold rung:
:func:`~repro.optim.ipqp.solve_qp`, bit-for-bit, on the chain's
:class:`~repro.optim.ipqp.QPKernel`, compiled on the chain's first
slot and carried in the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.optim.ipqp import IPQPResult, QPKernel, _normalize_qp, _record_metrics

__all__ = ["WarmState", "WarmSolveInfo", "WarmSolve", "solve_qp_warm",
           "ACTIVE_SET_TOL"]


#: Verification tolerance of the homotopy, relative to ``1 + max(|q|,
#: |h|, |b|)``: an endpoint's rows outside the working set may be
#: violated and its working multipliers negative by at most this much,
#: and each equality-KKT system must be solved to this residual.
#: Matches the default interior-point tolerance, so a verified answer
#: is never looser than a converged interior-point run.  The carried
#: working set counts a row as bound within the same margin.
ACTIVE_SET_TOL = 1e-9

#: Equality-KKT solves one walk may take before the slot goes cold.  A
#: paper slot takes a handful; a cycle among degenerate rows takes
#: them all.
_MAX_SOLVES = 40


@dataclass
class WarmState:
    """Everything slot ``t`` hands slot ``t+1`` — plain arrays, picklable.

    Attributes:
        x, eq_dual, ineq_dual: the previous slot's KKT point.
        slack: the previous slot's inequality slacks ``h - G x``;
            ``ineq_dual > slack - margin`` is the working set the next
            slot's walk starts from.
        kernel: the :class:`~repro.optim.ipqp.QPKernel` the chain runs
            on, reused while the constraint matrices match.  It is not
            pickled: a state that crosses a process boundary compiles
            the kernel anew on its next slot.
    """

    x: np.ndarray
    eq_dual: np.ndarray
    ineq_dual: np.ndarray
    slack: np.ndarray
    kernel: QPKernel | None = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["kernel"] = None
        return state


@dataclass
class WarmSolveInfo:
    """How one :func:`solve_qp_warm` call actually ran.

    Attributes:
        warm_used: True when the homotopy produced the returned
            result; False on the cold path.
        mechanism: which rung answered — ``"active-set"`` or ``"cold"``.
        fallback_reason: why the homotopy did not answer (None when it
            did, or on a chain's first slot).
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


def _active_set(kernel: QPKernel, kkt, q, b, h, active, tol: float, scale: float):
    """One checked equality-KKT solve with the rows in ``active`` bound.

    Returns ``None`` when the working set is inconsistent: the system is
    singular, two active rows bound one variable, or the residual is
    above ``tol``.  Otherwise ``(ok, x, y, z, slack)``: ``z`` is the
    full-length multiplier vector (zero on inactive rows, unclipped),
    ``slack = h - G x``, and ``ok`` reports whether the point is a
    verified KKT point — every slack and every active multiplier at
    least ``-tol * scale``.
    """
    try:
        out = kernel.solve_equality(kkt, q, b, h, active)
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
    return ok, x, y, z, slack


def _exchange(kernel: QPKernel, kkt, work, value, k: int, tol: float):
    """Swap row ``k``, which just changed sides, with a row on the other.

    Called when toggling ``k`` left a working set with no KKT solution;
    ``work`` is the set before the toggle, which has one, and ``value``
    holds each row's multiplier (in ``work``) or slack (outside it).
    The solve runs on that set's matrix:

    * ``k`` left (its multiplier reached zero along a direction of zero
      curvature): hold it with its right-hand side moved inward by one.
      Along the resulting ``x`` direction the objective is flat, so
      ``x`` moves until a row outside the set blocks.
    * ``k`` joined (it is a combination of the rows already held): the
      solve gives that combination.  Shifting multiplier weight onto
      ``k`` along it keeps stationarity until a held multiplier
      reaches zero.

    Either way the blocking row ``j`` and ``k`` trade places, in place
    in ``work`` and ``value``.  Returns None, or the reason the walk
    must stop.
    """
    drop = bool(work[k])
    unit = np.zeros(kernel.m)
    if drop:
        unit[k] = -1.0
    gradient = np.zeros(kernel.n) if drop else -kernel.G[k]
    try:
        out = kernel.solve_equality(kkt, gradient, np.zeros(kernel.p), unit, work)
    except np.linalg.LinAlgError:
        out = None
    if out is None or not out[3] <= tol:
        return "singular exchange"
    # How fast each row on the other side of k shrinks: slacks outside
    # the set for a drop, multipliers inside it for a join.
    side = ~work if drop else work.copy()
    side[k] = False
    rate = kernel.G @ out[0] if drop else out[2]
    reach = np.full(kernel.m, np.inf)
    blocks = side & (rate > tol)
    reach[blocks] = value[blocks] / rate[blocks]
    j = int(np.argmin(reach))
    t = reach[j]
    if not np.isfinite(t):
        return "unbounded drop step" if drop else "infeasible working set"
    value[side] = np.maximum(value[side] - t * rate[side], 0.0)
    value[k], value[j] = t, 0.0
    work[k], work[j] = not drop, drop
    return None


def _homotopy(kernel: QPKernel, P, q, b, h, state: WarmState, tol: float, scale: float):
    """Walk from the carried KKT point to this slot's.

    The walk tracks only what its ratio tests read: each row's
    multiplier (rows in the working set) or slack (rows outside it) at
    the current point of the path.  Both are affine along a segment, so
    a segment's values are the interpolation of its two ends.

    Returns:
        ``(answer, solves)``: ``answer`` is ``(x, y, z, slack)`` of a
        verified endpoint, or the reason the walk gave up.
    """
    floor = -tol * scale
    kkt = kernel.equality_kkt(P)
    # A row is held when its multiplier is positive and dominates its
    # slack up to the verification margin, so a last-bit change to a
    # degenerate row cannot flip it.
    work = (state.ineq_dual > 0.0) & (state.ineq_dual - state.slack > floor)
    value = np.maximum(np.where(work, state.ineq_dual, h - kernel.G @ state.x), 0.0)
    toggled = None
    solves = 0
    while solves < _MAX_SOLVES:
        solves += 1
        end = _active_set(kernel, kkt, q, b, h, work, tol, scale)
        if end is None:
            if toggled is None:
                return "inconsistent working set", solves
            work[toggled] = not work[toggled]
            solves += 1
            reason = _exchange(kernel, kkt, work, value, toggled, tol)
            if reason is not None:
                return reason, solves
            toggled = None
            continue
        ok, x, y, z, slack = end
        if ok:
            return (x, y, np.maximum(z, 0.0), slack), solves
        # Ratio test: the first row whose value crosses zero on the
        # segment is the breakpoint, and it changes sides.
        then = np.where(work, z, slack)
        reach = np.full(kernel.m, np.inf)
        cross = then < floor
        reach[cross] = value[cross] / (value[cross] - then[cross])
        toggled = int(np.argmin(reach))
        step = reach[toggled]
        if not np.isfinite(step):
            return "endpoint failed verification", solves
        value = np.maximum(value + step * (then - value), 0.0)
        value[toggled] = 0.0
        work[toggled] = not work[toggled]
    return f"no verified endpoint in {_MAX_SOLVES} KKT solves", solves


def _cold_solve(kernel: QPKernel, P, q, b, h, tol, max_iter, metrics,
                reason: str | None) -> WarmSolve:
    """:func:`~repro.optim.ipqp.solve_qp` on the kernel; its KKT point
    starts the next slot's walk."""
    res = kernel.solve(P, q, b, h, tol, max_iter, metrics=metrics)
    state = None
    if res.converged and kernel.m:
        state = WarmState(x=res.x, eq_dual=res.eq_dual, ineq_dual=res.ineq_dual,
                          slack=h - kernel.G @ res.x, kernel=kernel)
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
    """Solve a QP, walking from the previous slot's KKT point when possible.

    With ``state=None`` this is exactly :func:`~repro.optim.ipqp.solve_qp`.
    With a state, the parametric active-set homotopy runs from the
    carried point to this QP's optimum; a walk that gives up falls back
    to the cold solve.  Both run on the state's
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
        # No inequalities, no working set: the cold path solves these
        # in one KKT solve already.
        return _cold_solve(kernel, P, q, b, h, tol, max_iter, metrics,
                           "no inequality constraints")
    if state is None:
        return _cold_solve(kernel, P, q, b, h, tol, max_iter, metrics, None)
    if (
        state.x.shape != (n,)
        or state.eq_dual.shape != (p,)
        or state.ineq_dual.shape != (m,)
        or state.slack.shape != (m,)
    ):
        return _cold_solve(kernel, P, q, b, h, tol, max_iter, metrics,
                           "warm state shape mismatch")

    atol = min(tol, ACTIVE_SET_TOL)
    scale = 1.0 + max(np.abs(q).max(initial=0.0), np.abs(h).max(initial=0.0),
                      np.abs(b).max(initial=0.0))
    answer, solves = _homotopy(kernel, P, q, b, h, state, atol, scale)
    if isinstance(answer, str):
        return _cold_solve(kernel, P, q, b, h, tol, max_iter, metrics, answer)
    x, y, z, slack = answer
    result = IPQPResult(
        x=x, eq_dual=y, ineq_dual=z, value=float(0.5 * x @ P @ x + q @ x),
        iterations=solves, converged=True,
        gap=float(np.maximum(slack, 0.0) @ z) / m,
    )
    _record_metrics(metrics, solves, True)
    return WarmSolve(
        result=result,
        state=WarmState(x=x, eq_dual=y, ineq_dual=z, slack=slack, kernel=kernel),
        info=WarmSolveInfo(True, "active-set", None),
    )
