"""Worker-churn chaos: kill exec workers mid-run, supervised recovery.

The shipped message-level scenarios (:mod:`repro.faults.scenarios`)
torture the ADM-G *algorithm*; ``worker-churn`` tortures the
*execution fleet* instead.  A socket fleet of loopback workers solves
the horizon slot by slot while a seeded schedule hard-kills workers
mid-solve (``os._exit`` from inside the victim, no cleanup — the
process-level equivalent of a machine dying).  The
:class:`~repro.exec.FleetSupervisor` must detect each loss, resubmit
the orphaned slot to a survivor, and respawn the fleet back to
strength; the run passes only if every slot completes, certifies
feasible, and the total UFC is bit-identical to a fault-free run —
resubmission re-executes a deterministic solve, so churn must be
invisible in the numbers.

Each poisoned slot kills its worker exactly once (a marker file keyed
by the slot digest makes the retry attempt solve normally), so the
fault count is exact and the run always terminates.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.strategies import HYBRID, Strategy
from repro.engine.horizon import HorizonEngine
from repro.engine.registry import create_solver
from repro.exec import RetryBudget, SocketClient, SupervisorConfig
from repro.exec.store import problem_digest, problem_digests
from repro.obs.metrics import MetricsRegistry

__all__ = ["ChurnReport", "WorkerChurnSolver", "run_worker_churn"]

#: Spec marker that routes a scenario to this harness instead of the
#: message-level :class:`~repro.faults.plan.FaultPlan` path.
CHURN_KIND = "worker-churn"


class WorkerChurnSolver:
    """Centralized solver whose worker dies on scheduled slots.

    Picklable (module-level, plain attributes) so it ships to socket
    workers.  On a poisoned slot the worker claims the kill marker and
    ``os._exit(1)``s mid-solve — no result, no goodbye — exactly once
    per poisoned slot; the resubmitted attempt finds the marker and
    solves normally.  Every completed solve is the plain centralized
    answer, so outcomes are bit-identical to a fault-free run.
    """

    name = "worker-churn"

    def __init__(self, die_digests: frozenset[str], marker_dir: str) -> None:
        self.die_digests = die_digests
        self.marker_dir = marker_dir

    def compile(self, model: Any, strategy: Any) -> None:
        """Nothing to compile: each solve builds its own centralized QP."""
        return None

    def solve(self, problem: Any, compiled: Any = None):
        """The centralized answer, unless this slot's worker dies first."""
        digest = problem_digest(problem, self.name)
        if digest in self.die_digests:
            marker = os.path.join(self.marker_dir, digest[:24])
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass  # already died here once; solve normally
            else:
                os.close(fd)
                os._exit(1)
        return create_solver("centralized").solve(problem)


@dataclass
class ChurnReport:
    """Everything a worker-churn run learned, in one record."""

    scenario: dict[str, Any]
    horizon: int
    strategy: str
    seed: int
    workers: int
    killed_slots: list[int]
    failed_slots: int
    feasible_slots: int
    resubmissions: int
    hedges_launched: int
    workers_lost: int
    workers_revived: int
    workers_quarantined: int
    lineages: list[dict[str, Any]]
    ufc_churn: float
    ufc_fault_free: float
    wall_s: float
    baseline_wall_s: float
    ledger_path: Any | None = None
    metrics: MetricsRegistry = field(repr=False, default_factory=MetricsRegistry)

    @property
    def ufc_identical(self) -> bool:
        """Bit-identity with the fault-free run (the determinism gate)."""
        return self.ufc_churn == self.ufc_fault_free

    @property
    def passed(self) -> bool:
        """Every slot completed and certified, every kill recovered,
        and the numbers are bit-identical to the fault-free run."""
        return (
            self.failed_slots == 0
            and self.feasible_slots == self.horizon
            and self.workers_lost >= len(self.killed_slots)
            and self.resubmissions >= len(self.killed_slots)
            and self.ufc_identical
        )

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable report for ``repro chaos --json``."""
        return {
            "scenario": self.scenario,
            "horizon": self.horizon,
            "strategy": self.strategy,
            "seed": self.seed,
            "verdict": "PASS" if self.passed else "FAIL",
            "workers": self.workers,
            "killed_slots": list(self.killed_slots),
            "fleet": {
                "resubmissions": self.resubmissions,
                "hedges_launched": self.hedges_launched,
                "workers_lost": self.workers_lost,
                "workers_revived": self.workers_revived,
                "workers_quarantined": self.workers_quarantined,
            },
            "certification": {
                "feasible_slots": self.feasible_slots,
                "failed_slots": self.failed_slots,
            },
            "ufc": {
                "churn": self.ufc_churn,
                "fault_free": self.ufc_fault_free,
                "bit_identical": self.ufc_identical,
            },
            "lineages": list(self.lineages),
            "wall_s": round(self.wall_s, 3),
            "baseline_wall_s": round(self.baseline_wall_s, 3),
            "ledger_path": (
                None if self.ledger_path is None else str(self.ledger_path)
            ),
        }

    def render(self, max_events: int = 12) -> str:
        """The human-readable fleet-resilience report the CLI prints."""
        kills = ", ".join(str(t) for t in self.killed_slots) or "none"
        lines = [
            f"chaos report: scenario 'worker-churn' over {self.horizon} "
            f"slots (strategy {self.strategy}, seed {self.seed})",
            f"  fleet           : {self.workers} socket workers, "
            f"kills scheduled at slot(s) {kills}",
            f"  losses          : {self.workers_lost} workers lost, "
            f"{self.workers_revived} respawned, "
            f"{self.workers_quarantined} quarantined",
            f"  recovery        : {self.resubmissions} resubmissions, "
            f"{self.hedges_launched} hedges",
            f"  certification   : {self.feasible_slots}/{self.horizon} "
            f"feasible, {self.failed_slots} failed",
            f"  UFC             : {self.ufc_churn:.3f} churn vs "
            f"{self.ufc_fault_free:.3f} fault-free  "
            f"({'bit-identical' if self.ufc_identical else 'DIVERGED'})",
            f"  wall            : {self.wall_s:.2f} s churn, "
            f"{self.baseline_wall_s:.2f} s fault-free baseline",
            f"  verdict         : {'PASS' if self.passed else 'FAIL'}",
        ]
        if self.lineages:
            shown = self.lineages[:max_events]
            lines.append(
                f"  retry lineage (first {len(shown)} of "
                f"{len(self.lineages)}):"
            )
            for row in shown:
                workers = "->".join(row.get("workers") or []) or "?"
                lines.append(
                    f"    slot {row['slot']:>3}: {row.get('attempts', 1)} "
                    f"attempt(s) over {workers} -> {row.get('outcome', '?')}"
                )
        return "\n".join(lines)


def run_worker_churn(
    scenario: Mapping[str, Any] | None = None,
    hours: int = 24,
    seed: int = 2014,
    strategy: Strategy = HYBRID,
    metrics: MetricsRegistry | None = None,
    ledger: Any | None = None,
) -> ChurnReport:
    """Run the worker-churn scenario over a horizon.

    Args:
        scenario: spec dict (``workers``, ``kills``, ``seed``,
            ``respawn``); None uses the shipped defaults.
        hours: horizon length (slots of the default bundle).
        seed: trace-bundle seed (the *kill* seed lives in the spec).
        strategy: power-sourcing strategy for every slot.
        metrics: registry for the supervisor's fleet counters (a fresh
            one is created when None; lands on ``report.metrics``).
        ledger: optional ledger directory or
            :class:`~repro.obs.RunLedger` — the run's retry lineage is
            recorded per slot, and the finalized path lands on
            ``report.ledger_path``.
    """
    from repro.sim.simulator import Simulator, build_model
    from repro.traces.datasets import default_bundle

    spec = dict(scenario or {})
    workers = int(spec.get("workers", 2))
    kills = int(spec.get("kills", 1))
    kill_seed = int(spec.get("seed", 0))
    respawn = bool(spec.get("respawn", True))
    if workers < 2:
        raise ValueError("worker-churn needs at least 2 workers to survive")
    if not 0 < kills < hours:
        raise ValueError(f"kills must be in (0, {hours}), got {kills}")

    registry = metrics if metrics is not None else MetricsRegistry()
    bundle = default_bundle(hours=hours, seed=seed)
    model = build_model(bundle)
    sim = Simulator(model, bundle)
    problems = [sim.problem_for_slot(t, strategy) for t in range(bundle.hours)]

    rng = random.Random((kill_seed << 16) ^ seed)
    killed_slots = sorted(rng.sample(range(len(problems)), kills))
    die_digests = frozenset(
        problem_digests(
            [problems[t] for t in killed_slots], WorkerChurnSolver.name
        )
    )

    marker_dir = tempfile.mkdtemp(prefix="repro-churn-")
    client = SocketClient(workers=workers)
    try:
        engine = HorizonEngine(
            WorkerChurnSolver(die_digests, marker_dir),
            client=client,
            chunk_size=1,
            certify=True,
            metrics=registry,
            ledger=ledger,
            supervision=SupervisorConfig(
                retry=RetryBudget(max_attempts=3),
                respawn=respawn,
                max_respawns=max(2, kills),
            ),
        )
        start = time.perf_counter()
        outcomes = engine.run(problems)
        wall_s = time.perf_counter() - start
    finally:
        client.close()
        shutil.rmtree(marker_dir, ignore_errors=True)

    baseline = HorizonEngine("centralized")
    base_start = time.perf_counter()
    base_outcomes = baseline.run(problems)
    baseline_wall_s = time.perf_counter() - base_start

    failed = feasible = 0
    ufc_churn = 0.0
    lineages: list[dict[str, Any]] = []
    for outcome in outcomes:
        if not outcome.ok:
            failed += 1
        else:
            ufc_churn += outcome.result.ufc
            cert = outcome.certificate
            if cert is not None and cert.feasible:
                feasible += 1
        if outcome.lineage is not None:
            lineages.append({"slot": outcome.index, **outcome.lineage})
    ufc_fault_free = sum(o.result.ufc for o in base_outcomes if o.result)

    summary = engine.last_summary
    fleet = (summary.fleet if summary else None) or {}
    return ChurnReport(
        scenario={"name": CHURN_KIND, **spec},
        horizon=len(problems),
        strategy=strategy.name,
        seed=seed,
        workers=workers,
        killed_slots=killed_slots,
        failed_slots=failed,
        feasible_slots=feasible,
        resubmissions=fleet.get("resubmissions", 0),
        hedges_launched=fleet.get("hedges_launched", 0),
        workers_lost=fleet.get("workers_lost", 0),
        workers_revived=fleet.get("workers_revived", 0),
        workers_quarantined=fleet.get("workers_quarantined", 0),
        lineages=lineages,
        ufc_churn=ufc_churn,
        ufc_fault_free=ufc_fault_free,
        wall_s=wall_s,
        baseline_wall_s=baseline_wall_s,
        ledger_path=engine.last_ledger_path,
        metrics=registry,
    )
