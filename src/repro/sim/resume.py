"""Crash-safe run resume: finish an interrupted run from its ledger.

A killed run leaves two durable artifacts behind: a torn ``.part``
ledger (every record was flushed as it was written, so even ``kill -9``
leaves a consistent prefix) and, when a :class:`~repro.exec.ResultStore`
was attached, the persisted result of every slot that completed.
:func:`resume_run` turns those into a finished run:

1. load the ``.part`` ledger (:func:`~repro.obs.load_run` tolerates the
   torn trailing line) and read the run-recipe ``context`` the
   simulator stamped into the header;
2. rebuild the exact problem set from the recipe (bundle hours + seed,
   strategy block order, solver);
3. re-run the full horizon **with the original store attached** — every
   slot the interrupted run completed resolves from disk (a store hit,
   no re-solve), and only the remainder actually solves.  A completed
   slot whose store entry has vanished (or was corrupted and
   quarantined) simply misses and re-solves — degraded to extra work,
   never to a crash or a wrong answer;
4. write a fresh ledger ``<run_id>-rK`` whose header context carries
   ``resumed_from``, and finalize it — the per-slot outcome stream
   matches an uninterrupted run's modulo timing and ``store_hit``
   fields (results are deterministic, so the allocations are
   bit-identical).

Runs recorded without a recipe (pre-resume ledgers, custom drivers
passing their own :class:`~repro.obs.RunLedger`) are refused with a
clear error rather than re-run wrong.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.strategies import ALL_STRATEGIES, Strategy
from repro.engine.horizon import HorizonEngine
from repro.obs import RunLedger, load_run, resolve_run
from repro.sim.simulator import Simulator, build_model
from repro.traces.datasets import default_bundle

__all__ = ["ResumeReport", "resume_run"]

_BY_NAME: dict[str, Strategy] = {s.name: s for s in ALL_STRATEGIES}


@dataclass
class ResumeReport:
    """What :func:`resume_run` did, for the CLI and the tests.

    Attributes:
        resumed_from: run id of the interrupted run.
        run_id: run id of the finished resume run.
        ledger_path: the finalized resume ledger.
        slots_total: horizon size (all strategy blocks).
        completed_before: slots the interrupted run had finished.
        store_hits / store_misses: resume-run store counters —
            ``store_hits >= completed_before`` means no completed slot
            was re-solved.
        failed_slots: failures in the resume run (0 on success).
        summary: the resume run's summary dict.
    """

    resumed_from: str
    run_id: str
    ledger_path: Path
    slots_total: int
    completed_before: int
    store_hits: int
    store_misses: int
    failed_slots: int
    summary: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed_slots == 0


def _resume_run_id(run_id: str, root: Path) -> str:
    """``<run_id>-rK`` with the first K whose ledger doesn't exist yet."""
    k = 1
    while True:
        candidate = f"{run_id}-r{k}"
        if not any(
            (root / f"{candidate}{suffix}").exists()
            for suffix in (".jsonl", ".jsonl.part")
        ):
            return candidate
        k += 1


def resume_run(
    ref: str,
    ledger_dir: str | os.PathLike[str] = ".",
    *,
    store: str | os.PathLike[str] | None = None,
    supervision: object | None = None,
) -> ResumeReport:
    """Finish the interrupted run ``ref`` and finalize a fresh ledger.

    Args:
        ref: ledger path, run id, or unique run-id prefix (resolved
            under ``ledger_dir`` — ``.part`` ledgers resolve too).
        ledger_dir: directory run ids are resolved in, and where the
            resume ledger is written.
        store: override the recipe's result-store directory (e.g. when
            the store moved).  Without a store — from the recipe or
            here — every slot re-solves; the run still finishes, it
            just does the work again.
        supervision: optional fleet-supervision policy for the resume
            run (see :class:`~repro.exec.SupervisorConfig`).

    Raises:
        ValueError: if the run is already finalized, or its header has
            no resume recipe (started before resume support, or by a
            driver that passed its own ledger), or the recipe names a
            strategy this library doesn't ship.
    """
    path = resolve_run(str(ref), ledger_dir)
    run = load_run(path)
    if run.finalized:
        raise ValueError(
            f"run {run.run_id} is already finalized — nothing to resume"
        )
    recipe = run.header.get("context") or {}
    required = ("hours", "seed", "strategies", "solver")
    missing = [key for key in required if recipe.get(key) in (None, [], "")]
    if missing:
        raise ValueError(
            f"run {run.run_id} has no resume recipe in its ledger header "
            f"(missing {', '.join(missing)}); runs started before resume "
            "support, or through a custom RunLedger, must be re-run from "
            "scratch"
        )
    try:
        strategies = [_BY_NAME[name] for name in recipe["strategies"]]
    except KeyError as exc:
        raise ValueError(
            f"run {run.run_id} names unknown strategy {exc.args[0]!r}; "
            f"known: {', '.join(sorted(_BY_NAME))}"
        ) from None

    hours = int(recipe["hours"])
    bundle = default_bundle(hours=hours, seed=int(recipe["seed"]))
    model = build_model(bundle)
    store_path = store if store is not None else recipe.get("store")
    completed = {s["index"] for s in run.slots if s.get("ok")}

    root = Path(ledger_dir) if Path(ledger_dir).is_dir() else path.parent
    run_id = _resume_run_id(run.run_id, root)
    ledger = RunLedger(
        root, run_id=run_id, context={**recipe, "resumed_from": run.run_id}
    )
    engine = HorizonEngine(
        recipe["solver"],
        workers=int(recipe.get("workers") or 1),
        certify=bool(recipe.get("certify")),
        supervision=supervision,
        client=recipe.get("client"),
        max_pending=recipe.get("max_pending"),
        store=store_path,
        ledger=ledger,
    )
    sim = Simulator(model, bundle, engine)
    problems = [
        sim.problem_for_slot(t, strategy)
        for strategy in strategies
        for t in range(hours)
    ]
    engine.run(problems)
    summary = engine.last_summary
    return ResumeReport(
        resumed_from=run.run_id,
        run_id=run_id,
        ledger_path=engine.last_ledger_path,
        slots_total=len(problems),
        completed_before=len(completed),
        store_hits=summary.store_hits,
        store_misses=summary.store_misses,
        failed_slots=summary.failed_slots,
        summary=summary.to_dict(),
    )
