"""The slot-solver protocol every UFC solver plugs into.

A *slot solver* answers one question — "given one slot's
:class:`~repro.core.problem.UFCProblem`, what allocation do you pick?"
— through a uniform surface, so the simulator, the experiment drivers
and the benchmarks never branch on solver kind again:

- :meth:`SlotSolver.compile` builds the solver's *slot-invariant*
  structure once per (model, strategy): the compiled QP skeleton for
  the centralized solver, the rescaled model view for ADM-G.  Solvers
  without reusable structure return None.
- :meth:`SlotSolver.solve` solves one slot on its own.  A solver whose
  slots chain across a horizon does it inside an optional
  ``solve_batch(problems, compiled=None)``, which the engine's batched
  lane discovers by duck typing (see :mod:`repro.engine.batch`).

Results come back as :class:`SlotResult`, a solver-agnostic record of
the allocation plus convergence bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

from repro.core.model import CloudModel
from repro.core.problem import UFCProblem
from repro.core.solution import Allocation
from repro.core.strategies import Strategy

__all__ = ["SlotResult", "SlotSolver"]


@dataclass
class SlotResult:
    """One slot's solve outcome, solver-agnostic.

    Attributes:
        allocation: the chosen (lambda, mu, nu).
        ufc: UFC value of the allocation.
        iterations: solver iterations used (0 for non-iterative
            solvers such as routing heuristics).
        converged: whether the solver met its own stopping criterion.
        extras: solver-specific diagnostics, safe to ignore — e.g.
            ADM-G residual histories, and the opt-in per-iteration
            traces (``"residual_trace"`` from ADM-G built with
            ``trace=True``, ``"ip_trace"`` from the centralized
            interior-point solver).
        qp: the dense :class:`~repro.core.problem.QPForm` the solver
            built for this slot (default workload scale), or None.  The
            engine hands it to its certifier and detaches it; it is
            never pickled, so it neither crosses a process boundary
            nor lands in a result store.
    """

    allocation: Allocation
    ufc: float
    iterations: int
    converged: bool
    extras: dict[str, Any] = field(default_factory=dict)
    qp: Any = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("qp", None)
        return state


@runtime_checkable
class SlotSolver(Protocol):
    """The pluggable per-slot solver interface.

    Attributes:
        name: registry/display name.
    """

    name: str

    def compile(self, model: CloudModel, strategy: Strategy) -> Any | None:
        """Slot-invariant structure for (model, strategy), or None."""
        ...

    def solve(self, problem: UFCProblem, compiled: Any | None = None) -> SlotResult:
        """Solve one slot, optionally using compiled structure."""
        ...
