"""Run a chaos scenario over a horizon and report the recovery path.

:func:`run_chaos` is the ``repro chaos`` CLI's engine room: it solves
``hours`` slots of the default bundle with the distributed ADM-G under
an injected :class:`~repro.faults.plan.FaultPlan` (via
:class:`~repro.faults.solver.ChaosDistributedSolver` and the
:class:`~repro.engine.horizon.HorizonEngine` fallback chain), solves
the same horizon fault-free as the baseline, certifies every faulty
slot a posteriori, and aggregates everything — faults injected,
retransmits, checkpoint restores, watchdog trips, engine fallbacks,
UFC degradation — into a :class:`ChaosReport`.

The report's verdict gates on *feasibility*: every slot must produce
an allocation that passes the certification feasibility audit.  KKT
optimality is reported but not gated — under heavy faults a rescued
slot is expected to be feasible-but-suboptimal; that is what graceful
degradation means.

All fault/recovery totals are also recorded into the
:class:`~repro.obs.MetricsRegistry` (``repro_faults_total{kind=...}``
plus the engine's retry/fallback/degraded counters), so the printed
report and the metrics surface agree by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.strategies import HYBRID, Strategy
from repro.engine.horizon import HorizonEngine
from repro.faults.plan import FaultPlan
from repro.faults.solver import ChaosDistributedSolver
from repro.obs.metrics import MetricsRegistry

__all__ = ["ChaosReport", "run_chaos"]

#: Default engine fallback chain for chaos runs: a slot whose
#: fault-injected distributed solve completes degraded is rescued by a
#: local centralized solve, then by the proportional heuristic.
DEFAULT_FALLBACK = ("centralized", "proportional")


@dataclass
class ChaosReport:
    """Everything a chaos run learned, in one record.

    ``slots`` rows carry per-slot recovery detail:
    ``(index, solver, converged, degraded, iterations, retransmits,
    checkpoint_restores, watchdog_trips, ufc, feasible)``.
    """

    scenario: dict[str, Any]
    horizon: int
    strategy: str
    seed: int
    faults_injected: int
    fault_counts: dict[str, int]
    events: list[dict[str, Any]]
    events_dropped: int
    slots: list[dict[str, Any]]
    failed_slots: int
    degraded_slots: int
    fallback_slots: int
    engine_retries: int
    retransmits: int
    sends_failed: int
    checkpoint_restores: int
    watchdog_trips: int
    feasible_slots: int
    kkt_suspect_slots: int
    ufc_faulty: float
    ufc_fault_free: float
    wall_s: float
    baseline_wall_s: float
    metrics: MetricsRegistry = field(repr=False, default_factory=MetricsRegistry)

    @property
    def ufc_degradation_pct(self) -> float:
        """UFC lost to faults, as a percentage of the fault-free total."""
        if self.ufc_fault_free == 0.0:
            return 0.0
        return (
            100.0
            * (self.ufc_fault_free - self.ufc_faulty)
            / abs(self.ufc_fault_free)
        )

    @property
    def passed(self) -> bool:
        """Zero failed slots and every allocation certified feasible."""
        return self.failed_slots == 0 and self.feasible_slots == self.horizon

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (events rendered as dicts)."""
        return {
            "scenario": self.scenario,
            "horizon": self.horizon,
            "strategy": self.strategy,
            "seed": self.seed,
            "verdict": "PASS" if self.passed else "FAIL",
            "faults_injected": self.faults_injected,
            "fault_counts": dict(sorted(self.fault_counts.items())),
            "recovery": {
                "retransmits": self.retransmits,
                "sends_failed": self.sends_failed,
                "checkpoint_restores": self.checkpoint_restores,
                "watchdog_trips": self.watchdog_trips,
                "engine_retries": self.engine_retries,
                "fallback_slots": self.fallback_slots,
                "degraded_slots": self.degraded_slots,
            },
            "certification": {
                "feasible_slots": self.feasible_slots,
                "kkt_suspect_slots": self.kkt_suspect_slots,
                "failed_slots": self.failed_slots,
            },
            "ufc": {
                "faulty": self.ufc_faulty,
                "fault_free": self.ufc_fault_free,
                "degradation_pct": self.ufc_degradation_pct,
            },
            "wall_s": round(self.wall_s, 3),
            "baseline_wall_s": round(self.baseline_wall_s, 3),
            "slots": self.slots,
            "events": list(self.events),
            "events_dropped": self.events_dropped,
        }

    def render(self, max_events: int = 12) -> str:
        """The human-readable resilience report the CLI prints."""
        injected_kinds = (
            "drop", "delay", "duplicate", "corrupt", "partition",
            "crash", "unreachable",
        )
        counts = ", ".join(
            f"{kind} {self.fault_counts[kind]}"
            for kind in injected_kinds
            if self.fault_counts.get(kind)
        )
        lines = [
            f"chaos report: scenario {self.scenario['name']!r} over "
            f"{self.horizon} slots (strategy {self.strategy}, seed {self.seed})",
            f"  faults injected : {self.faults_injected}  ({counts or 'none'})",
            f"  network         : {self.retransmits} retransmits, "
            f"{self.sends_failed} sends abandoned",
            f"  recovery        : {self.checkpoint_restores} checkpoint "
            f"restores, {self.watchdog_trips} watchdog trips",
            f"  engine          : {self.engine_retries} retries, "
            f"{self.fallback_slots} fallback slots, "
            f"{self.degraded_slots} degraded distributed runs",
            f"  certification   : {self.feasible_slots}/{self.horizon} "
            f"feasible, {self.kkt_suspect_slots} KKT-suspect, "
            f"{self.failed_slots} failed",
            f"  UFC             : {self.ufc_faulty:.3f} faulty vs "
            f"{self.ufc_fault_free:.3f} fault-free  "
            f"(degradation {self.ufc_degradation_pct:.3f}%)",
            f"  wall            : {self.wall_s:.2f} s chaos, "
            f"{self.baseline_wall_s:.2f} s fault-free baseline",
            f"  verdict         : {'PASS' if self.passed else 'FAIL'}",
        ]
        rescued = [s for s in self.slots if s["solver"] != "chaos-distributed"]
        if rescued:
            shown = ", ".join(
                f"{s['index']}->{s['solver']}" for s in rescued[:10]
            )
            if len(rescued) > 10:
                shown += ", ..."
            lines.append(f"  rescued slots   : {shown}")
        if self.events:
            lines.append(f"  events (first {min(max_events, len(self.events))} "
                         f"of {len(self.events) + self.events_dropped}):")
            for event in self.events[:max_events]:
                detail = f"  [{event['info']}]" if event["info"] else ""
                lines.append(
                    f"    slot {event['slot']:>2} round {event['round']:>3} "
                    f"{event['kind']:<19} {event['subject']}{detail}"
                )
        return "\n".join(lines)


def run_chaos(
    scenario: FaultPlan | str | Mapping[str, Any],
    hours: int = 24,
    seed: int = 2014,
    strategy: Strategy = HYBRID,
    fallback: tuple[str, ...] = DEFAULT_FALLBACK,
    metrics: MetricsRegistry | None = None,
) -> ChaosReport:
    """Run ``scenario`` over a horizon and aggregate the recovery path.

    Args:
        scenario: a shipped scenario name, a spec dict, or a plan.
        hours: horizon length (slots of the default bundle).
        seed: trace-bundle seed (the *fault* seed lives in the plan).
        strategy: power-sourcing strategy for every slot.
        fallback: engine fallback chain for slots whose fault-injected
            run completes degraded; empty disables escalation (the
            degraded-but-feasible distributed result is kept).
        metrics: registry to record fault/engine counters into (a
            fresh one is created when None; either way it lands on the
            report as ``report.metrics``).
    """
    from repro.sim.simulator import Simulator, build_model
    from repro.traces.datasets import default_bundle

    plan = FaultPlan.from_spec(scenario)
    fallback = tuple(fallback)
    registry = metrics if metrics is not None else MetricsRegistry()
    bundle = default_bundle(hours=hours, seed=seed)
    model = build_model(bundle)
    sim = Simulator(model, bundle)
    problems = [sim.problem_for_slot(t, strategy) for t in range(bundle.hours)]

    chaos_solver = ChaosDistributedSolver(plan, escalate_degraded=bool(fallback))
    engine = HorizonEngine(
        chaos_solver,
        workers=1,
        certify=True,
        metrics=registry,
        fallback=fallback,
    )
    start = time.perf_counter()
    outcomes = engine.run(problems)
    wall_s = time.perf_counter() - start

    baseline = HorizonEngine("distributed", workers=1)
    base_start = time.perf_counter()
    base_outcomes = baseline.run(problems)
    baseline_wall_s = time.perf_counter() - base_start

    fault_counts: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    events_dropped = 0
    for injector in chaos_solver.injectors:
        for kind, count in injector.counts.items():
            fault_counts[kind] = fault_counts.get(kind, 0) + count
        events.extend(
            {
                "slot": injector.slot,
                "kind": event.kind,
                "round": event.round,
                "subject": event.subject,
                "info": event.info,
            }
            for event in injector.events
        )
        events_dropped += injector.events_dropped
    faults_injected = sum(
        injector.faults_injected for injector in chaos_solver.injectors
    )
    for kind, count in sorted(fault_counts.items()):
        registry.counter(
            "repro_faults_total", kind=kind, scenario=plan.name
        ).inc(count)

    runs_by_slot = {i: run for i, run in enumerate(chaos_solver.runs)}
    slots: list[dict[str, Any]] = []
    feasible = kkt_suspect = failed = 0
    ufc_faulty = 0.0
    for outcome in outcomes:
        run = runs_by_slot.get(outcome.index)
        cert = outcome.certificate
        if not outcome.ok:
            failed += 1
        else:
            ufc_faulty += outcome.result.ufc
            if cert is not None:
                if cert.feasible:
                    feasible += 1
                if cert.feasible and not cert.ok:
                    kkt_suspect += 1
        slots.append(
            {
                "index": outcome.index,
                "solver": (
                    outcome.telemetry.solver if outcome.telemetry else "?"
                ),
                "converged": bool(
                    outcome.result.converged if outcome.result else False
                ),
                "degraded": outcome.degraded,
                "iterations": (
                    outcome.result.iterations if outcome.result else 0
                ),
                "retransmits": run.retransmits if run else 0,
                "checkpoint_restores": run.checkpoint_restores if run else 0,
                "watchdog_trips": run.watchdog_trips if run else 0,
                "ufc": outcome.result.ufc if outcome.result else None,
                "feasible": bool(cert.feasible) if cert is not None else None,
            }
        )
    ufc_fault_free = sum(o.result.ufc for o in base_outcomes if o.result)

    summary = engine.last_summary
    return ChaosReport(
        scenario=plan.to_dict(),
        horizon=len(problems),
        strategy=strategy.name,
        seed=seed,
        faults_injected=faults_injected,
        fault_counts=fault_counts,
        events=events,
        events_dropped=events_dropped,
        slots=slots,
        failed_slots=failed,
        degraded_slots=sum(1 for run in chaos_solver.runs if run.degraded),
        fallback_slots=summary.fallbacks_total if summary else 0,
        engine_retries=summary.retries_total if summary else 0,
        retransmits=sum(run.retransmits for run in chaos_solver.runs),
        sends_failed=sum(run.sends_failed for run in chaos_solver.runs),
        checkpoint_restores=sum(
            run.checkpoint_restores for run in chaos_solver.runs
        ),
        watchdog_trips=sum(run.watchdog_trips for run in chaos_solver.runs),
        feasible_slots=feasible,
        kkt_suspect_slots=kkt_suspect,
        ufc_faulty=ufc_faulty,
        ufc_fault_free=ufc_fault_free,
        wall_s=wall_s,
        baseline_wall_s=baseline_wall_s,
        metrics=registry,
    )
