"""The unified solve engine.

One protocol (:class:`~repro.engine.protocol.SlotSolver`), one factory
(:mod:`repro.engine.registry`), one horizon mapper
(:class:`~repro.engine.horizon.HorizonEngine`): every per-slot UFC
solver in the library — centralized interior-point, distributed ADM-G,
dual subgradient, routing heuristics — plugs in behind the same
``solve(problem, warm=...) -> SlotResult`` surface, with slot-invariant
compiled structure built once per horizon and slots mapped over a
serial or process-pool executor.
"""

from repro.engine.adapters import (
    CentralizedSlotSolver,
    DistributedSlotSolver,
    DualSubgradientSlotSolver,
    HeuristicSlotSolver,
)
from repro.engine.batch import CentralizedBatchSlotSolver
from repro.engine.horizon import CompileCache, HorizonEngine, SlotOutcome

# Re-exported from their home in the execution layer.
from repro.exec import parallel_map, usable_cpu_count
from repro.engine.warm import CentralizedWarmSlotSolver, WarmPayload
from repro.engine.protocol import SlotResult, SlotSolver
from repro.engine.registry import available_solvers, create_solver, register_solver

__all__ = [
    "SlotResult",
    "SlotSolver",
    "SlotOutcome",
    "CompileCache",
    "HorizonEngine",
    "parallel_map",
    "usable_cpu_count",
    "CentralizedBatchSlotSolver",
    "CentralizedSlotSolver",
    "CentralizedWarmSlotSolver",
    "DistributedSlotSolver",
    "DualSubgradientSlotSolver",
    "HeuristicSlotSolver",
    "WarmPayload",
    "available_solvers",
    "create_solver",
    "register_solver",
]
