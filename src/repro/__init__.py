"""repro — reproduction of "Fuel Cell Generation in Geo-Distributed
Cloud Services: A Quantitative Study" (Zhou et al., ICDCS 2014).

The library implements the paper's UFC index (utility of the cloud
using fuel cells), the joint optimization of fuel-cell generation and
geographic request routing, the distributed 4-block ADM-G algorithm
that solves it, the trace substrate the evaluation runs on, and the
experiment drivers that regenerate every table and figure.

Quickstart::

    from repro import default_bundle, build_model, Simulator, HYBRID

    bundle = default_bundle(hours=24)
    model = build_model(bundle)
    result = Simulator(model, bundle).run(HYBRID)
    print(result.summary())
"""

from repro.admg import ADMGState, DistributedUFCSolver, UFCADMGResult
from repro.core import (
    ALL_STRATEGIES,
    Allocation,
    CentralizedResult,
    CentralizedSolver,
    CloudModel,
    Datacenter,
    FUEL_CELL,
    FrontEnd,
    GRID,
    HYBRID,
    SlotInputs,
    Strategy,
    UFCProblem,
    optimal_power_split,
)
from repro.core.compiled import CompiledQPStructure
from repro.costs import (
    CapAndTrade,
    EmissionCostFunction,
    LinearCarbonTax,
    LinearLatencyUtility,
    NoEmissionCost,
    QuadraticEmissionCost,
    QuadraticLatencyUtility,
    ServerPowerModel,
    SteppedCarbonTax,
    carbon_intensity,
)
from repro.engine import (
    HorizonEngine,
    SlotOutcome,
    SlotResult,
    SlotSolver,
    available_solvers,
    create_solver,
    register_solver,
)
from repro.exec import ExecutionClient, ResultStore, parallel_map
from repro.obs import (
    HorizonSummary,
    ResidualTrace,
    SlotTelemetry,
)
from repro.sim import SimulationResult, Simulator, build_model
from repro.traces import TraceBundle, default_bundle

__version__ = "1.0.0"

__all__ = [
    "ADMGState",
    "ALL_STRATEGIES",
    "Allocation",
    "CapAndTrade",
    "CentralizedResult",
    "CentralizedSolver",
    "CloudModel",
    "CompiledQPStructure",
    "Datacenter",
    "DistributedUFCSolver",
    "EmissionCostFunction",
    "ExecutionClient",
    "FUEL_CELL",
    "FrontEnd",
    "GRID",
    "HYBRID",
    "HorizonEngine",
    "HorizonSummary",
    "LinearCarbonTax",
    "LinearLatencyUtility",
    "NoEmissionCost",
    "QuadraticEmissionCost",
    "QuadraticLatencyUtility",
    "ResidualTrace",
    "ResultStore",
    "ServerPowerModel",
    "SimulationResult",
    "Simulator",
    "SlotInputs",
    "SlotOutcome",
    "SlotResult",
    "SlotSolver",
    "SlotTelemetry",
    "SteppedCarbonTax",
    "Strategy",
    "TraceBundle",
    "UFCADMGResult",
    "UFCProblem",
    "available_solvers",
    "build_model",
    "carbon_intensity",
    "create_solver",
    "default_bundle",
    "optimal_power_split",
    "parallel_map",
    "register_solver",
    "__version__",
]
