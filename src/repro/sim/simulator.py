"""The time-slotted simulator (paper Sec. IV).

Replays a trace bundle slot by slot: each hourly slot yields a
:class:`~repro.core.problem.UFCProblem` that a pluggable solver
optimizes; interactive workloads cannot be deferred, so slots are
independent (the paper's observation that decisions decouple across
slots) and the simulator is a straightforward map over the horizon —
executed through :class:`~repro.engine.horizon.HorizonEngine`, which
adds compiled-structure caching and an optional process pool.
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
from repro.engine.protocol import SlotResult, SlotSolver
from repro.engine.registry import create_solver
from repro.exec import ExecutionClient, ResultStore
from repro.obs import RunLedger
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
    """Replay a bundle under a strategy with a chosen solver.

    Args:
        model: the static cloud model.
        bundle: aligned traces (must match the model's M and N).
        solver: a solver specification resolved by the engine registry
            — a name (``"centralized"`` (default), ``"distributed"``,
            ``"dual-subgradient"``, ``"nearest"``, ``"cheapest-power"``,
            ``"proportional"``), a pre-built solver instance, or any
            :class:`~repro.engine.protocol.SlotSolver`.
        workers: default worker processes for :meth:`run` /
            :meth:`compare_strategies`; 1 solves in-process.  The
            engine clamps the count to usable CPUs and falls back to
            serial when a pool cannot help — see
            :meth:`~repro.engine.horizon.HorizonEngine.plan_workers`.
        oversubscribe: let the engine run more workers than usable
            CPUs (measurement/testing aid; off by default).
        certify: audit every slot's solution a posteriori (see
            :class:`~repro.engine.horizon.HorizonEngine`); certificates
            land on the result as ``certificates`` and aggregate into
            ``horizon_summary``.  Off by default — solutions are
            bit-identical either way.
        metrics: optional :class:`~repro.obs.MetricsRegistry` the
            engine records every run into.
        client: execution backend every run solves through — a
            registry name (``"in-process"``, ``"mp"``, ``"socket"``)
            or an :class:`~repro.exec.ExecutionClient` instance; None
            (default) keeps the classic workers-driven serial/pool
            choice.  See :class:`~repro.engine.horizon.HorizonEngine`.
        max_pending: cap on in-flight slot batches (pipelined
            submission); None keeps every batch in flight.
        store: optional persistent result store (a
            :class:`~repro.exec.ResultStore` or directory path);
            repeated runs resolve unchanged slots from disk.
        ledger: optional run-ledger directory (or
            :class:`~repro.obs.RunLedger`); every run persists its
            header, per-slot outcome stream and summary as a JSONL
            manifest that ``repro top`` / ``repro runs`` consume.
        supervision: fleet supervision policy (a
            :class:`~repro.exec.SupervisorConfig`, or True for the
            defaults); lost or straggling slots are resubmitted/hedged
            to surviving workers instead of failing the run.  Only
            takes effect with an asynchronous client.
    """

    def __init__(
        self,
        model: CloudModel,
        bundle: TraceBundle,
        solver: str | SlotSolver | object = "centralized",
        workers: int = 1,
        oversubscribe: bool = False,
        certify: bool | object = False,
        metrics: object | None = None,
        client: str | ExecutionClient | None = None,
        max_pending: int | None = None,
        store: ResultStore | str | None = None,
        ledger: object | None = None,
        supervision: object | None = None,
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
        self.solver: SlotSolver = create_solver(solver)
        self.workers = int(workers)
        self.oversubscribe = bool(oversubscribe)
        self.certify = certify
        self.metrics = metrics
        self.client = client
        self.max_pending = max_pending
        self.store = store
        self.ledger = ledger
        self.supervision = supervision

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
        inputs, the strategy block order, and the solver/store wiring.
        Non-registry solvers and pre-built clients record their display
        name — such runs are reproducible only by the code that built
        them, and resume refuses them with a clear error.
        """
        store = self.store
        if store is not None and not isinstance(store, str):
            store = str(getattr(store, "root", store))
        client = self.client
        if client is not None and not isinstance(client, str):
            client = getattr(client, "name", type(client).__name__)
        return {
            "kind": "simulate" if len(strategies) == 1 else "compare",
            "hours": horizon,
            "seed": self.bundle.seed,
            "strategies": [s.name for s in strategies],
            "solver": self.solver.name,
            "workers": self.workers,
            "client": client,
            "max_pending": self.max_pending,
            "store": store,
            "certify": bool(self.certify),
            "supervised": self.supervision is not None,
        }

    def _run_ledger(
        self, strategies: Sequence[Strategy], horizon: int
    ) -> RunLedger | None:
        """Materialize this run's ledger, stamping the resume recipe.

        A pre-built :class:`~repro.obs.RunLedger` is used as-is (its
        own context wins); a directory path gets a fresh per-run ledger
        carrying the recipe.
        """
        if self.ledger is None or isinstance(self.ledger, RunLedger):
            return self.ledger
        return RunLedger(self.ledger, context=self._recipe(strategies, horizon))

    def _engine(self, workers: int | None) -> HorizonEngine:
        return HorizonEngine(
            self.solver,
            workers=self.workers if workers is None else int(workers),
            oversubscribe=self.oversubscribe,
            certify=self.certify,
            metrics=self.metrics,
            client=self.client,
            max_pending=self.max_pending,
            store=self.store,
            ledger=self.ledger,
            supervision=self.supervision,
        )

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

    def run(
        self,
        strategy: Strategy,
        hours: int | None = None,
        workers: int | None = None,
    ) -> SimulationResult:
        """Simulate ``hours`` slots (default: the whole bundle).

        ``workers`` overrides the simulator-wide worker count for this
        run; results are identical (bit-for-bit) at any worker count.
        The engine's :class:`~repro.obs.HorizonSummary` is attached to
        the result as ``horizon_summary``.
        """
        horizon = self._horizon(hours)
        problems = [self.problem_for_slot(t, strategy) for t in range(horizon)]
        engine = self._engine(workers)
        engine.ledger = self._run_ledger((strategy,), horizon)
        outcomes = engine.run(problems)
        result = self._collect(strategy, problems, outcomes)
        result.horizon_summary = engine.last_summary
        return result

    def compare_strategies(
        self,
        hours: int | None = None,
        workers: int | None = None,
    ) -> StrategyComparison:
        """Run Grid, Fuel cell and Hybrid on the same horizon.

        All three strategies share one engine pass: each strategy's
        compiled structure is built once, and with ``workers > 1`` the
        pool draws from the full ``3 x T`` slot set.  The shared
        pass's :class:`~repro.obs.HorizonSummary` is attached to all
        three results.
        """
        strategies = (GRID, FUEL_CELL, HYBRID)
        horizon = self._horizon(hours)
        problems = [
            self.problem_for_slot(t, strategy)
            for strategy in strategies
            for t in range(horizon)
        ]
        engine = self._engine(workers)
        engine.ledger = self._run_ledger(strategies, horizon)
        outcomes = engine.run(problems)
        results = {}
        for k, strategy in enumerate(strategies):
            block = slice(k * horizon, (k + 1) * horizon)
            results[strategy.name] = self._collect(
                strategy, problems[block], outcomes[block]
            )
            results[strategy.name].horizon_summary = engine.last_summary
        return StrategyComparison(
            grid=results[GRID.name],
            fuel_cell=results[FUEL_CELL.name],
            hybrid=results[HYBRID.name],
        )
