"""The ``centralized-warm`` engine lane: cross-slot incremental solves.

This adapter chains :func:`repro.optim.warm.solve_qp_warm` across a
horizon behind the :class:`~repro.engine.protocol.SlotSolver`
protocol.  Each slot's :class:`SlotResult` carries a
:class:`WarmPayload` for the next slot; the payload is plain arrays
and floats, so it pickles across process and socket boundaries — the
engine's warm chaining works through the pipelined exec clients, not
just the in-process sequential loop.

On top of the optimizer-level ladder (active-set reuse, then
shift-initialized interior point, then cold — see
:mod:`repro.optim.warm`), the lane adds the *incumbent early-exit*:
when the slot's inputs drifted less than ``incumbent_tol`` (relative
infinity norm over arrivals, prices and carbon rates) from the inputs
the incumbent allocation was solved against, the incumbent is handed
to the a-posteriori certifier instead of the solver.  A certified
incumbent is returned with zero iterations and an
``incumbent_reuse`` extra; a failed certificate falls through to the
warm solve, so the early-exit can never degrade solution quality
below certificate tolerance.  The drift reference is *not* advanced
on reuse — consecutive small perturbations accumulate against the
incumbent's own inputs, so creep beyond ``incumbent_tol`` always
forces a re-solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.compiled import CompiledQPStructure
from repro.core.model import CloudModel
from repro.core.solution import Allocation
from repro.core.strategies import Strategy
from repro.engine.protocol import SlotResult
from repro.obs.certify import certify_solution
from repro.optim.warm import WarmState, solve_qp_warm

__all__ = ["CentralizedWarmSlotSolver", "WarmPayload"]


@dataclass
class WarmPayload:
    """Everything one slot hands the next — plain data, picklable.

    Attributes:
        state: optimizer-level warm state (previous iterates plus
            cached Ruiz scalings), or None when the last solve did not
            produce a reusable state.
        arrivals, prices, carbon_rates: the inputs the incumbent
            allocation was solved against (the drift reference for the
            incumbent early-exit).
        allocation: the incumbent allocation.
        duals: the incumbent's ``(eq_dual, ineq_dual)`` for the
            certifier.
        cold_ref_iterations: iteration count of the most recent cold
            solve in this chain — the baseline ``iterations_saved``
            is measured against.
    """

    state: WarmState | None
    arrivals: np.ndarray
    prices: np.ndarray
    carbon_rates: np.ndarray
    allocation: Allocation
    duals: tuple[np.ndarray, np.ndarray] | None
    cold_ref_iterations: int


def _input_drift(payload: WarmPayload, inputs: Any) -> float:
    """Relative infinity-norm drift of the slot inputs since the
    incumbent was solved."""
    worst = 0.0
    for ref, cur in (
        (payload.arrivals, inputs.arrivals),
        (payload.prices, inputs.prices),
        (payload.carbon_rates, inputs.carbon_rates),
    ):
        if ref.shape != np.shape(cur):
            return np.inf
        denom = 1.0 + float(np.abs(ref).max(initial=0.0))
        worst = max(worst, float(np.abs(cur - ref).max(initial=0.0)) / denom)
    return worst


class CentralizedWarmSlotSolver:
    """Warm-chained dense interior-point solver behind the protocol.

    Identical arithmetic to the ``centralized`` lane on the first slot
    of a chain (the cold rung *is* ``solve_qp``); subsequent slots run
    the warm ladder.  Every returned allocation either comes from a
    converged solve meeting the cold tolerance or is a re-certified
    incumbent, so the lane's solutions match the cold lane within
    certificate tolerance by construction.

    Args:
        tol: interior-point convergence tolerance (cold and warm).
        max_iter: interior-point iteration cap.
        incumbent_tol: relative input-drift threshold below which the
            incumbent allocation is re-certified instead of re-solved.
            0 disables the early-exit (every slot is solved).
        feas_tol, kkt_tol: certificate thresholds for the incumbent
            early-exit (defaults match :func:`certify_solution`).
        metrics: duck-typed metrics registry shared with the solvers.
    """

    name = "centralized-warm"
    supports_warm_start = True

    def __init__(
        self,
        tol: float = 1e-9,
        max_iter: int = 120,
        incumbent_tol: float = 0.0,
        feas_tol: float | None = None,
        kkt_tol: float | None = None,
        metrics=None,
    ) -> None:
        self.tol = tol
        self.max_iter = max_iter
        self.incumbent_tol = incumbent_tol
        self.feas_tol = feas_tol
        self.kkt_tol = kkt_tol
        self.metrics = metrics

    def compile(self, model: CloudModel, strategy: Strategy) -> CompiledQPStructure:
        """The slot-invariant QP skeleton for (model, strategy)."""
        return CompiledQPStructure(model, strategy)

    def _certify_kwargs(self) -> dict[str, float]:
        kwargs: dict[str, float] = {}
        if self.feas_tol is not None:
            kwargs["feas_tol"] = self.feas_tol
        if self.kkt_tol is not None:
            kwargs["kkt_tol"] = self.kkt_tol
        return kwargs

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

        if (
            warm is not None
            and self.incumbent_tol > 0.0
            and _input_drift(warm, problem.inputs) <= self.incumbent_tol
        ):
            cert = certify_solution(
                problem,
                warm.allocation,
                qp=qp,
                duals=warm.duals,
                solver=self.name,
                **self._certify_kwargs(),
            )
            if cert.ok:
                # Keep the payload's drift reference pinned to the
                # inputs the incumbent was *solved* against.
                return SlotResult(
                    allocation=warm.allocation,
                    ufc=problem.ufc(warm.allocation),
                    iterations=0,
                    converged=True,
                    warm=warm,
                    extras={
                        "incumbent_reuse": True,
                        "warm_used": True,
                        "warm_mechanism": "incumbent",
                        "iterations_saved": warm.cold_ref_iterations,
                        "certificate": cert,
                    },
                    qp=qp,
                )

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
        payload = WarmPayload(
            state=ws.state,
            arrivals=problem.inputs.arrivals.copy(),
            prices=problem.inputs.prices.copy(),
            carbon_rates=problem.inputs.carbon_rates.copy(),
            allocation=allocation,
            duals=(res.eq_dual, res.ineq_dual),
            cold_ref_iterations=cold_ref,
        )
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
