"""Deterministic fault injection and chaos harness.

``repro.faults`` is the fault plane for the message-passing ADM-G
deployment: seeded, replayable fault plans
(:class:`~repro.faults.plan.FaultPlan`), a transport that injects them
(:class:`~repro.faults.network.FaultyNetwork`), shipped chaos
scenarios, and the ``repro chaos`` harness
(:func:`~repro.faults.chaos.run_chaos`) that runs one over a horizon
and reports the recovery path taken.

The chaos harness and solver are exposed lazily: they import the
distributed coordinator, which itself imports :mod:`repro.faults.plan`.
"""

from __future__ import annotations

from repro.faults.plan import (
    CrashSpec,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    PartitionSpec,
)
from repro.faults.scenarios import SCENARIOS, available_scenarios, scenario_spec

__all__ = [
    "SCENARIOS",
    "ChaosDistributedSolver",
    "ChaosReport",
    "ChurnReport",
    "CrashSpec",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultyNetwork",
    "PartitionSpec",
    "available_scenarios",
    "run_chaos",
    "run_worker_churn",
    "scenario_spec",
]

_LAZY = {
    "FaultyNetwork": ("repro.faults.network", "FaultyNetwork"),
    "ChaosDistributedSolver": ("repro.faults.solver", "ChaosDistributedSolver"),
    "ChaosReport": ("repro.faults.chaos", "ChaosReport"),
    "ChurnReport": ("repro.faults.churn", "ChurnReport"),
    "run_chaos": ("repro.faults.chaos", "run_chaos"),
    "run_worker_churn": ("repro.faults.churn", "run_worker_churn"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
