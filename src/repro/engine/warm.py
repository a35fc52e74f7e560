"""The ``centralized-warm`` engine lane: cross-slot incremental solves.

This adapter chains :func:`repro.optim.warm.solve_qp_warm` across a
horizon behind the :class:`~repro.engine.protocol.SlotSolver`
protocol.  Each slot's :class:`SlotResult` carries a
:class:`WarmPayload` for the next slot: the previous KKT point the
parametric active-set homotopy walks from (see
:mod:`repro.optim.warm`), or nothing after a failed solve, in which
case the slot is solved cold.  The payload is plain arrays and ints, so
it pickles across process and socket boundaries — the engine's warm
chaining works through the pipelined exec clients, not just the
in-process sequential loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.compiled import CompiledQPStructure
from repro.core.model import CloudModel
from repro.core.strategies import Strategy
from repro.engine.protocol import SlotResult
from repro.optim.warm import WarmState, solve_qp_warm

__all__ = ["CentralizedWarmSlotSolver", "WarmPayload"]


@dataclass
class WarmPayload:
    """Everything one slot hands the next — plain data, picklable.

    Attributes:
        state: optimizer-level warm state (the previous KKT point), or
            None when the last solve did not produce a reusable state.
        cold_ref_iterations: iteration count of the most recent cold
            solve in this chain — the baseline ``iterations_saved``
            is measured against.
    """

    state: WarmState | None
    cold_ref_iterations: int


class CentralizedWarmSlotSolver:
    """Warm-chained dense solver behind the protocol.

    Identical arithmetic to the ``centralized`` lane on the first slot
    of a chain (the cold rung *is* ``solve_qp``); subsequent slots walk
    from the previous slot's KKT point.  Every returned allocation comes
    from a converged solve or a verified KKT point at the cold
    tolerance, so the lane's solutions match the cold lane within
    certificate tolerance by construction.

    Args:
        tol: interior-point convergence tolerance of the cold rung.
        max_iter: interior-point iteration cap.
        metrics: duck-typed metrics registry shared with the solvers.
    """

    name = "centralized-warm"
    supports_warm_start = True

    def __init__(self, tol: float = 1e-9, max_iter: int = 120, metrics=None) -> None:
        self.tol = tol
        self.max_iter = max_iter
        self.metrics = metrics

    def compile(self, model: CloudModel, strategy: Strategy) -> CompiledQPStructure:
        """The slot-invariant QP skeleton for (model, strategy)."""
        return CompiledQPStructure(model, strategy)

    def solve(
        self,
        problem: Any,
        compiled: CompiledQPStructure | None = None,
        warm: WarmPayload | None = None,
    ) -> SlotResult:
        """Solve one slot, warm-chained from the previous payload."""
        if compiled is None or not compiled.matches(problem):
            compiled = CompiledQPStructure(problem.model, problem.strategy)
        qp = compiled.qp_for(problem.inputs)
        state = warm.state if warm is not None else None
        ws = solve_qp_warm(
            qp.P,
            qp.q,
            A=qp.A,
            b=qp.b,
            G=qp.G,
            h=qp.h,
            state=state,
            tol=self.tol,
            max_iter=self.max_iter,
            metrics=self.metrics,
        )
        res = ws.result
        allocation = qp.extract(res.x)
        cold_ref = res.iterations
        if ws.info.warm_used and warm is not None:
            cold_ref = warm.cold_ref_iterations
        payload = WarmPayload(state=ws.state, cold_ref_iterations=cold_ref)
        extras: dict[str, Any] = {
            "duals": (res.eq_dual, res.ineq_dual),
            "warm_used": ws.info.warm_used,
            "warm_mechanism": ws.info.mechanism,
        }
        if ws.info.fallback_reason:
            extras["warm_fallback_reason"] = ws.info.fallback_reason
        if ws.info.warm_used and warm is not None:
            extras["iterations_saved"] = max(
                0, warm.cold_ref_iterations - res.iterations
            )
        return SlotResult(
            allocation=allocation,
            ufc=problem.ufc(allocation),
            iterations=res.iterations,
            converged=res.converged,
            warm=payload,
            extras=extras,
            qp=qp,
        )
