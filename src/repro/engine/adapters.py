"""Adapters putting every library solver behind the SlotSolver protocol.

Each adapter owns an underlying solver instance (built from the
adapter's kwargs, or passed in pre-configured via ``inner=``) and
translates its native result type into a :class:`SlotResult`.  The
adapters add no arithmetic of their own: solutions are bit-identical
to calling the underlying solver directly.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.admg.solver import DistributedUFCSolver, ScaledView
from repro.baselines.dual_subgradient import DualSubgradientSolver
from repro.baselines.heuristics import (
    cheapest_power_routing,
    nearest_datacenter_routing,
    proportional_routing,
    solve_heuristic,
)
from repro.core.centralized import CentralizedSolver
from repro.core.compiled import CompiledQPStructure
from repro.core.model import CloudModel
from repro.core.problem import UFCProblem
from repro.core.strategies import Strategy
from repro.engine.protocol import SlotResult

__all__ = [
    "CentralizedSlotSolver",
    "DistributedSlotSolver",
    "DualSubgradientSlotSolver",
    "HeuristicSlotSolver",
    "StructuredCentralizedSolver",
]


class CentralizedSlotSolver:
    """Interior-point reference solver behind the SlotSolver protocol.

    Each slot is solved from its own well-centered starting point.
    """

    name = "centralized"

    def __init__(self, inner: CentralizedSolver | None = None, **kwargs: Any) -> None:
        self.inner = inner if inner is not None else CentralizedSolver(**kwargs)

    def compile(self, model: CloudModel, strategy: Strategy) -> CompiledQPStructure:
        """The slot-invariant QP skeleton for (model, strategy)."""
        return self.inner.compile(model, strategy)

    def solve(
        self,
        problem: UFCProblem,
        compiled: CompiledQPStructure | None = None,
    ) -> SlotResult:
        """Solve one slot with the interior-point reference solver."""
        res, qp = self.inner.solve_with_qp(problem, compiled=compiled)
        extras: dict[str, Any] = {}
        if res.eq_dual is not None and res.ineq_dual is not None:
            extras["duals"] = (res.eq_dual, res.ineq_dual)
        return SlotResult(
            allocation=res.allocation,
            ufc=res.ufc,
            iterations=res.iterations,
            converged=res.converged,
            extras=extras,
            qp=qp,
        )


class StructuredCentralizedSolver:
    """Block-elimination interior-point solver behind the protocol.

    Compiles each (model, strategy) to a
    :class:`~repro.optim.kkt.StructuredQPCompiler` and solves every
    slot through the block-sparse KKT path — the lane the hyperscale
    benchmark measures.  An optional ``reach`` array restricts the
    routing pattern to a sparse front-end fan-in (the scale-out
    instance generator produces one); with the default full reach the
    solutions agree with the dense ``"centralized"`` lane to solver
    tolerance.

    Extras carry ``structured_qp`` and ``duals`` (reduced-layout
    equality/inequality multipliers) so
    :func:`repro.obs.certify.certify_structured_solution` can audit
    the slot without ever forming a dense QP.
    """

    name = "centralized-structured"

    def __init__(
        self,
        reach: np.ndarray | None = None,
        tol: float = 1e-9,
        max_iter: int = 120,
        metrics: Any | None = None,
    ) -> None:
        self.reach = reach
        self.tol = tol
        self.max_iter = max_iter
        self.metrics = metrics

    def compile(self, model: CloudModel, strategy: Strategy) -> Any:
        """The slot-invariant block-sparse compiler for (model, strategy)."""
        from repro.optim.kkt import StructuredQPCompiler

        return StructuredQPCompiler(model, strategy, reach=self.reach)

    def solve(self, problem: UFCProblem, compiled: Any | None = None) -> SlotResult:
        """Solve one slot through the reduced (reach-restricted) QP."""
        from repro.optim.kkt import StructuredQPCompiler, solve_structured_qp

        if compiled is None or not compiled.matches(problem):
            compiled = self.compile(problem.model, problem.strategy)
        assert isinstance(compiled, StructuredQPCompiler)
        sqp = compiled.structured_qp_for(problem.inputs)
        res = solve_structured_qp(
            sqp, tol=self.tol, max_iter=self.max_iter, metrics=self.metrics
        )
        alloc = sqp.extract(res.x)
        extras: dict[str, Any] = {
            "structured_qp": sqp,
            "structured_x": res.x,
            "duals": (res.eq_dual, res.ineq_dual),
        }
        return SlotResult(
            allocation=alloc,
            ufc=problem.ufc(alloc),
            iterations=res.iterations,
            converged=res.converged,
            extras=extras,
        )


class DistributedSlotSolver:
    """The paper's 4-block ADM-G solver behind the SlotSolver protocol.

    The compiled structure is the slot-invariant :class:`ScaledView`;
    every slot starts cold, as the paper's Fig. 11 counts do.
    """

    name = "distributed"

    def __init__(self, inner: DistributedUFCSolver | None = None, **kwargs: Any) -> None:
        self.inner = inner if inner is not None else DistributedUFCSolver(**kwargs)

    def compile(self, model: CloudModel, strategy: Strategy) -> ScaledView:
        """The model's workload rescaling, shared by every slot."""
        return self.inner.compile_context(model)

    def solve(
        self,
        problem: UFCProblem,
        compiled: ScaledView | None = None,
    ) -> SlotResult:
        """Solve one slot with ADM-G."""
        res = self.inner.solve(problem, context=compiled)
        extras = {
            "coupling_residuals": res.coupling_residuals,
            "power_residuals": res.power_residuals,
        }
        if res.trace is not None:
            extras["residual_trace"] = res.trace
        return SlotResult(
            allocation=res.allocation,
            ufc=res.ufc,
            iterations=res.iterations,
            converged=res.converged,
            extras=extras,
        )


class DualSubgradientSlotSolver:
    """The Fig. 11 dual-subgradient comparator behind the protocol."""

    name = "dual-subgradient"

    def __init__(self, inner: DualSubgradientSolver | None = None, **kwargs: Any) -> None:
        self.inner = inner if inner is not None else DualSubgradientSolver(**kwargs)

    def compile(self, model: CloudModel, strategy: Strategy) -> None:
        """No slot-invariant structure: the solver is matrix-free."""
        return None

    def solve(self, problem: UFCProblem, compiled: Any | None = None) -> SlotResult:
        """Solve one slot with the dual-subgradient comparator."""
        res = self.inner.solve(problem)
        return SlotResult(
            allocation=res.allocation,
            ufc=res.ufc,
            iterations=res.iterations,
            converged=res.converged,
            extras={
                "capacity_residuals": res.capacity_residuals,
                "power_residuals": res.power_residuals,
            },
        )


class HeuristicSlotSolver:
    """A routing heuristic + optimal power split behind the protocol.

    Non-iterative: ``iterations`` is 0 and ``converged`` is True by
    construction (the policies always emit feasible routings).
    """

    def __init__(self, policy: Callable[[UFCProblem], np.ndarray], name: str) -> None:
        self.policy = policy
        self.name = name

    def compile(self, model: CloudModel, strategy: Strategy) -> None:
        """No slot-invariant structure: policies are closed-form."""
        return None

    def solve(self, problem: UFCProblem, compiled: Any | None = None) -> SlotResult:
        """Route with the policy, then split power optimally."""
        res = solve_heuristic(problem, self.policy, name=self.name)
        return SlotResult(
            allocation=res.allocation,
            ufc=res.ufc,
            iterations=0,
            converged=True,
        )


#: Policy table for the heuristic registry entries.
HEURISTIC_POLICIES: dict[str, Callable[[UFCProblem], np.ndarray]] = {
    "nearest": nearest_datacenter_routing,
    "cheapest-power": cheapest_power_routing,
    "proportional": proportional_routing,
}
