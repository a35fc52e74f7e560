"""The time-slotted simulator (paper Sec. IV).

Replays a trace bundle slot by slot: each hourly slot yields a
:class:`~repro.core.problem.UFCProblem` that a pluggable solver
optimizes; interactive workloads cannot be deferred, so slots are
independent (the paper's observation that decisions decouple across
slots) and the simulator is a straightforward map over the horizon —
executed through the :class:`~repro.engine.horizon.HorizonEngine` it
is given, which adds compiled-structure caching and an optional
process pool.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.model import CloudModel, Datacenter, FrontEnd
from repro.core.problem import SlotInputs, UFCProblem
from repro.core.strategies import FUEL_CELL, GRID, HYBRID, Strategy
from repro.costs.carbon import EmissionCostFunction
from repro.costs.latency import LatencyUtility
from repro.engine.horizon import HorizonEngine, SlotOutcome
from repro.engine.protocol import SlotResult
from repro.sim.results import SimulationResult, StrategyComparison
from repro.traces.datasets import TraceBundle

__all__ = ["build_model", "Simulator"]


def build_model(
    bundle: TraceBundle,
    fuel_cell_price: float = 80.0,
    latency_weight: float = 10.0,
    utility: LatencyUtility | None = None,
    emission_costs: EmissionCostFunction | Sequence[EmissionCostFunction] | None = None,
) -> CloudModel:
    """A :class:`CloudModel` matching a trace bundle's geometry.

    Defaults follow Sec. IV-A: ``p0 = $80/MWh``, ``w = 10 $/s^2``,
    quadratic utility and a $25/tonne flat carbon tax, with fuel cells
    sized to each site's peak demand.
    """
    datacenters = [
        Datacenter(name=region, servers=float(cap))
        for region, cap in zip(bundle.regions, bundle.capacities)
    ]
    frontends = [FrontEnd(name=city) for city in bundle.frontends]
    return CloudModel(
        datacenters=datacenters,
        frontends=frontends,
        latency_ms=bundle.latency_ms,
        fuel_cell_price=fuel_cell_price,
        latency_weight=latency_weight,
        utility=utility,
        emission_costs=emission_costs,
    )


class Simulator:
    """Replay a bundle under a strategy through a horizon engine.

    Args:
        model: the static cloud model.
        bundle: aligned traces (must match the model's M and N).
        engine: the :class:`~repro.engine.horizon.HorizonEngine` every
            run solves through; its settings (solver, workers, client,
            store, ledger, certification, supervision, ...) are the
            run's.  None (default) builds ``HorizonEngine()``: the
            centralized solver, in-process.  Results are bit-identical
            at any worker count and on every client.
    """

    def __init__(
        self,
        model: CloudModel,
        bundle: TraceBundle,
        engine: HorizonEngine | None = None,
    ) -> None:
        if model.num_datacenters != bundle.num_datacenters:
            raise ValueError(
                f"model has {model.num_datacenters} datacenters, bundle "
                f"{bundle.num_datacenters}"
            )
        if model.num_frontends != bundle.num_frontends:
            raise ValueError(
                f"model has {model.num_frontends} front-ends, bundle "
                f"{bundle.num_frontends}"
            )
        self.model = model
        self.bundle = bundle
        self.engine = HorizonEngine() if engine is None else engine

    def problem_for_slot(self, t: int, strategy: Strategy) -> UFCProblem:
        """The slot-``t`` UFC problem under ``strategy``."""
        slot = self.bundle.slot(t)
        return UFCProblem(
            self.model,
            SlotInputs(
                arrivals=slot["arrivals"],
                prices=slot["prices"],
                carbon_rates=slot["carbon_rates"],
            ),
            strategy=strategy,
        )

    def _horizon(self, hours: int | None) -> int:
        return self.bundle.hours if hours is None else min(hours, self.bundle.hours)

    def _recipe(
        self, strategies: Sequence[Strategy], horizon: int
    ) -> dict[str, object]:
        """The run-recipe context stamped into the ledger header.

        These are the coordinates ``repro resume`` needs to rebuild an
        interrupted run's exact problem set: the bundle generator's
        inputs, the strategy block order, and the engine's solver and
        store wiring.  Non-registry solvers and pre-built clients
        record their display name — such runs are reproducible only by
        the code that built them, and resume refuses them with a clear
        error.
        """
        engine = self.engine
        return {
            "kind": "simulate" if len(strategies) == 1 else "compare",
            "hours": horizon,
            "seed": self.bundle.seed,
            "strategies": [s.name for s in strategies],
            "solver": engine.solver.name,
            "workers": engine.workers,
            "client": engine.client_name,
            "max_pending": engine.max_pending,
            "store": None if engine.store is None else str(engine.store.root),
            "certify": engine.certifier is not None,
            "supervised": engine.supervision is not None,
        }

    def _collect(
        self,
        strategy: Strategy,
        problems: Sequence[UFCProblem],
        outcomes: Sequence[SlotOutcome],
    ) -> SimulationResult:
        """Assemble a :class:`SimulationResult` from engine outcomes.

        Raises:
            RuntimeError: if any slot failed (per-slot tracebacks are
                available on the engine outcomes; the simulator surface
                stays all-or-nothing).
        """
        failed = [o for o in outcomes if not o.ok]
        if failed:
            raise RuntimeError(
                f"{len(failed)} of {len(outcomes)} slots failed under "
                f"{strategy.name!r} (first failure at slot {failed[0].index}):\n"
                f"{failed[0].error}"
            )
        horizon = len(outcomes)
        ufc = np.empty(horizon)
        energy = np.empty(horizon)
        carbon_cost = np.empty(horizon)
        carbon_kg = np.empty(horizon)
        utility = np.empty(horizon)
        latency = np.empty(horizon)
        utilization = np.empty(horizon)
        iterations = np.zeros(horizon, dtype=int)
        converged = np.ones(horizon, dtype=bool)
        for t, (problem, outcome) in enumerate(zip(problems, outcomes)):
            result: SlotResult = outcome.result
            alloc = result.allocation
            iterations[t] = result.iterations
            converged[t] = result.converged
            ufc[t] = problem.ufc(alloc)
            energy[t] = problem.energy_cost(alloc)
            carbon_cost[t] = problem.carbon_cost(alloc)
            carbon_kg[t] = problem.carbon_kg(alloc)
            utility[t] = self.model.latency_weight * problem.utility(alloc)
            latency[t] = problem.average_latency_ms(alloc)
            utilization[t] = problem.fuel_cell_utilization(alloc)
        certs = [o.certificate for o in outcomes]
        return SimulationResult(
            strategy=strategy.name,
            ufc=ufc,
            energy_cost=energy,
            carbon_cost=carbon_cost,
            carbon_kg=carbon_kg,
            utility=utility,
            avg_latency_ms=latency,
            utilization=utilization,
            iterations=iterations,
            converged=converged,
            certificates=tuple(certs) if any(c is not None for c in certs) else None,
        )

    def run(self, strategy: Strategy, hours: int | None = None) -> SimulationResult:
        """Simulate ``hours`` slots (default: the whole bundle).

        The engine's :class:`~repro.obs.HorizonSummary` is attached to
        the result as ``horizon_summary``.
        """
        horizon = self._horizon(hours)
        problems = [self.problem_for_slot(t, strategy) for t in range(horizon)]
        outcomes = self.engine.run(
            problems, context=self._recipe((strategy,), horizon)
        )
        result = self._collect(strategy, problems, outcomes)
        result.horizon_summary = self.engine.last_summary
        return result

    def compare_strategies(self, hours: int | None = None) -> StrategyComparison:
        """Run Grid, Fuel cell and Hybrid on the same horizon.

        All three strategies share one engine pass: each strategy's
        compiled structure is built once, and a pool draws from the
        full ``3 x T`` slot set.  The shared pass's
        :class:`~repro.obs.HorizonSummary` is attached to all three
        results.
        """
        strategies = (GRID, FUEL_CELL, HYBRID)
        horizon = self._horizon(hours)
        problems = [
            self.problem_for_slot(t, strategy)
            for strategy in strategies
            for t in range(horizon)
        ]
        outcomes = self.engine.run(
            problems, context=self._recipe(strategies, horizon)
        )
        results = {}
        for k, strategy in enumerate(strategies):
            block = slice(k * horizon, (k + 1) * horizon)
            results[strategy.name] = self._collect(
                strategy, problems[block], outcomes[block]
            )
            results[strategy.name].horizon_summary = self.engine.last_summary
        return StrategyComparison(
            grid=results[GRID.name],
            fuel_cell=results[FUEL_CELL.name],
            hybrid=results[HYBRID.name],
        )
