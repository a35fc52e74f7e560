"""A slot solver that runs the distributed ADM-G under a fault plan.

:class:`ChaosDistributedSolver` adapts the fault-injected
:class:`~repro.distributed.coordinator.DistributedRuntime` to the
engine's :class:`~repro.engine.protocol.SlotSolver` surface, deriving
slot ``t``'s deterministic injector from the plan on the t-th call.
That mapping makes the solver *stateful and strictly serial*: run it
through an engine with ``workers=1`` and a retry budget of 1 (a
re-solve would consume the next slot's fault stream).  The
``repro chaos`` harness (:func:`repro.faults.chaos.run_chaos`) wires
exactly that up.

With ``escalate_degraded=True`` a degraded completion raises
:class:`DegradedRunError` instead of returning, which is what lets the
engine's fallback chain (e.g. ``centralized`` → ``proportional``)
rescue the slot — the paper's distributed deployment falling back to a
centralized solve when the control plane cannot converge.
"""

from __future__ import annotations

from typing import Any

from repro.core.problem import UFCProblem
from repro.distributed.coordinator import DistributedRun, DistributedRuntime
from repro.engine.protocol import SlotResult
from repro.faults.plan import FaultInjector, FaultPlan

__all__ = ["ChaosDistributedSolver", "DegradedRunError"]


class DegradedRunError(RuntimeError):
    """A fault-injected run exhausted its budgets and completed degraded.

    Carries the degraded :class:`DistributedRun` so diagnostics (and
    the chaos report) can still see the recovery path that was taken
    before the engine escalated to a fallback solver.
    """

    def __init__(self, message: str, run: DistributedRun) -> None:
        super().__init__(message)
        self.run = run


class ChaosDistributedSolver:
    """Distributed ADM-G under an injected :class:`FaultPlan`.

    Args:
        plan: fault plan, spec dict, or shipped scenario name.
        solver: ADM-G hyper-parameters (defaults to the paper's).
        escalate_degraded: raise :class:`DegradedRunError` on a
            degraded completion so an engine fallback chain can rescue
            the slot; False returns the degraded (still feasible)
            result with ``extras["degraded"]`` set.

    Attributes:
        injectors: one consumed :class:`FaultInjector` per solved slot,
            in slot order — the full fault/recovery ledger of a run.
        runs: the per-slot :class:`DistributedRun` records (including
            runs that were escalated away).
    """

    name = "chaos-distributed"

    def __init__(
        self,
        plan: FaultPlan | str | dict,
        solver: Any | None = None,
        escalate_degraded: bool = False,
    ) -> None:
        self.plan = FaultPlan.from_spec(plan)
        self.solver = solver
        self.escalate_degraded = bool(escalate_degraded)
        self.injectors: list[FaultInjector] = []
        self.runs: list[DistributedRun] = []
        self._next_slot = 0

    def compile(self, model: Any, strategy: Any) -> None:
        """No slot-invariant structure: each slot builds fresh agents."""
        return None

    def solve(self, problem: UFCProblem, compiled: Any | None = None) -> SlotResult:
        """Solve the next slot under its derived fault injector.

        Raises:
            DegradedRunError: when the run completes degraded and
                ``escalate_degraded`` is set (the engine's fallback
                chain catches this and rescues the slot).
        """
        slot = self._next_slot
        self._next_slot += 1
        injector = self.plan.injector(slot)
        self.injectors.append(injector)
        runtime = DistributedRuntime(
            problem,
            solver=self.solver,
            faults=injector,
        )
        run = runtime.run()
        self.runs.append(run)
        if run.degraded and self.escalate_degraded:
            raise DegradedRunError(
                f"slot {slot}: fault-injected run completed degraded "
                f"(converged={run.converged}, watchdog trips="
                f"{run.watchdog_trips}) under plan {self.plan.name!r}",
                run,
            )
        return SlotResult(
            allocation=run.allocation,
            ufc=run.ufc,
            iterations=run.iterations,
            converged=run.converged,
            extras={
                "degraded": run.degraded,
                "fault_counts": run.fault_counts,
                "retransmits": run.retransmits,
                "sends_failed": run.sends_failed,
                "checkpoint_restores": run.checkpoint_restores,
                "watchdog_trips": run.watchdog_trips,
                "messages_sent": run.messages_sent,
                "bytes_sent": run.bytes_sent,
            },
        )
