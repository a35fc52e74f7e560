"""Per-slot and per-iteration observability records.

:class:`SlotTelemetry` is the engine's per-slot measurement — attached
to every :class:`~repro.engine.horizon.SlotOutcome` and designed to
pickle cleanly, so process-pool workers report exactly what the serial
path does.  :class:`ResidualTrace` is the iterative solvers'
per-iteration residual/objective history, captured only behind a
``trace=`` flag so converged hot loops stay allocation-free by
default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SlotTelemetry", "ResidualTrace"]


@dataclass(frozen=True)
class SlotTelemetry:
    """One slot's engine-side measurements.

    Attributes:
        solver: solver registry/display name.
        wall_s: seconds spent inside ``solver.solve`` for this slot
            (compile time is accounted separately in ``compile_s``).
        compile_s: seconds spent compiling slot-invariant structure
            *for this slot* — nonzero only on a cache miss.
        iterations: solver iterations reported for the slot (0 on
            failure or for non-iterative solvers).
        converged: the solver's convergence flag (False on failure).
        cache_hit: True/False when the compiled-structure cache was
            consulted; None when it was not (a store hit, or a compile
            that raised).
        worker: OS pid of the process that solved the slot.  Serial
            runs report the parent pid; pool runs report worker pids.
        warm_start: whether the slot actually resumed from a previous
            slot's warm payload.
        error_type: exception class name when the slot failed, else
            None.
        certify_s: seconds spent certifying the slot's solution (0.0
            when certification was off).
        store_hit: the slot was resolved from the persistent result
            store instead of solved; ``wall_s`` is then the disk load
            time.
        host: node name of the machine whose process solved the slot
            (socket fleets span machines); None when no worker solved
            it — a store hit, or the parent's stand-in for a slot whose
            worker was lost or timed out.
    """

    solver: str
    wall_s: float
    compile_s: float
    iterations: int
    converged: bool
    cache_hit: bool | None
    worker: int | None
    warm_start: bool
    error_type: str | None = None
    certify_s: float = 0.0
    store_hit: bool = False
    host: str | None = None

    @property
    def ok(self) -> bool:
        return self.error_type is None


@dataclass
class ResidualTrace:
    """Per-iteration convergence history of an iterative solver.

    All three series are appended once per iteration, so their lengths
    always match each other and the solver's reported iteration count.

    Attributes:
        primal: per-iteration primal residual (solver-relative units;
            for ADM-G the max of the coupling and power-balance
            residuals).
        dual: per-iteration dual residual (for ADM-G,
            ``rho * max|a_k - a_{k-1}|``, the standard ADMM dual
            residual surrogate).
        objective: per-iteration objective value at the current
            iterate (for ADM-G, the UFC of the unpolished prediction
            in original units).
    """

    primal: list[float] = field(default_factory=list)
    dual: list[float] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)

    def record(self, primal: float, dual: float, objective: float) -> None:
        """Append one iteration's measurements."""
        self.primal.append(float(primal))
        self.dual.append(float(dual))
        self.objective.append(float(objective))

    def __len__(self) -> int:
        return len(self.primal)
