"""Lane-vs-lane timing floors of the horizon engine.

Each floor times one lane against a reference lane on the same slots
and fails when the lane is slower than its floor allows:

- ``batched`` — the ``centralized-batch`` lane, whose anchors and walks
  are also the ``centralized-warm`` lane, is at least 1.5x faster
  than the serial cached ``centralized`` lane, on the worst of 3
  order-balanced rounds; the record also counts the slots each rung
  answered (``rungs``: ``batch`` anchors and walked ``active-set``
  slots, plus any ``cold`` walk);
- ``store_warm`` — re-running a horizon against the result store it
  just filled is at least 5x faster than the run that filled it.

Every floor is timed in wall-clock time (``time.perf_counter``).  A
round runs reference, lane, reference and ratios the lane against the
mean of the two references around it, so the systematic warm-up drift
within a round cancels.  A speedup floor gates the worst round: a real
regression slows every round.

The overhead of an armed but idle fallback chain and of
synchronous supervision is not timed here.  A few percent is below
what wall-clock rounds resolve on a shared host, so
``tests/test_overhead_counts.py`` gates both by Python call and
retained-allocation counts per slot instead.

The paper week is the workload: 3 strategies x ``--hours`` slots of
the default bundle.  Correctness of every lane (bit-identity, parity,
certification) is tier-1's job; this script only times.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/floors.py --hours 24
    PYTHONPATH=src python benchmarks/floors.py --json BENCH_floors.json

Exits 1 when any floor fails.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import sys
import tempfile
import time
from functools import partial
from typing import Callable

from repro.core.strategies import ALL_STRATEGIES
from repro.engine import HorizonEngine
from repro.sim.simulator import Simulator, build_model
from repro.traces.datasets import default_bundle

SEED = 2014
WEEK_HOURS = 168


def week_problems(hours: int, seed: int = SEED) -> list:
    """The 3 x ``hours`` slot problems of the default comparison."""
    bundle = default_bundle(hours=hours, seed=seed)
    sim = Simulator(build_model(bundle), bundle)
    return [
        sim.problem_for_slot(t, strategy)
        for strategy in ALL_STRATEGIES
        for t in range(hours)
    ]


def engine_seconds(
    problems: list, solver: str = "centralized", **engine_kwargs
) -> float:
    """Wall seconds of one engine run over ``problems``."""
    engine = HorizonEngine(solver, **engine_kwargs)
    start = time.perf_counter()
    engine.run(problems)
    return time.perf_counter() - start


def balanced_rounds(
    rounds: int, reference: Callable[[], float], lane: Callable[[], float]
) -> tuple[list[float], float, float]:
    """Order-balanced rounds of ``lane`` against ``reference``.

    After one unmeasured run of each side, every round runs reference,
    lane, reference.  Returns each round's lane time over the mean of
    its two reference times, plus the best time of each side.
    """
    reference()
    lane()
    ratios: list[float] = []
    ref_best = lane_best = float("inf")
    for _ in range(rounds):
        r1 = reference()
        t = lane()
        r2 = reference()
        ratios.append(t / ((r1 + r2) / 2.0))
        ref_best = min(ref_best, r1, r2)
        lane_best = min(lane_best, t)
    return ratios, ref_best, lane_best


def _record(
    statistic: str, rounds: list[float], value: float, threshold: float,
    passed: bool, reference_s: float, lane_s: float,
) -> dict:
    return {
        "statistic": statistic,
        "rounds": [round(r, 4) for r in rounds],
        "value": round(value, 4),
        "threshold": threshold,
        "passed": bool(passed),
        "reference_s": round(reference_s, 4),
        "lane_s": round(lane_s, 4),
    }


def speedup_floor(rounds: int, reference, lane, floor: float) -> dict:
    """Gate the worst round's speedup (reference / lane) at ``floor``."""
    ratios, ref_s, lane_s = balanced_rounds(rounds, reference, lane)
    speedups = [1.0 / r for r in ratios]
    worst = min(speedups)
    return _record(
        "worst-round speedup", speedups, worst, floor, worst >= floor,
        ref_s, lane_s,
    )


def rungs(problems: list, solver: str) -> dict:
    """Slots of one untimed run of a lane answered by each rung (the
    ``warm_mechanism`` a slot records)."""
    outcomes = HorizonEngine(solver).run(problems)
    rungs = collections.Counter(
        o.result.extras.get("warm_mechanism", "failed") if o.ok else "failed"
        for o in outcomes
    )
    return dict(sorted(rungs.items()))


def store_warm_floor(problems: list, floor: float = 5.0) -> dict:
    """A cold run that fills a fresh result store, then the re-run."""
    store_dir = tempfile.mkdtemp(prefix="repro-floors-store-")
    try:
        cold_s = engine_seconds(problems, store=store_dir)
        warm_s = engine_seconds(problems, store=store_dir)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    speedup = cold_s / warm_s
    return _record(
        "speedup", [speedup], speedup, floor, speedup >= floor, cold_s, warm_s
    )


def run_floors(hours: int = WEEK_HOURS, seed: int = SEED) -> dict:
    """Time every floor and summarize as a JSON-ready dict."""
    problems = week_problems(hours, seed)
    serial = partial(engine_seconds, problems)
    floors = {
        "batched": speedup_floor(
            3, serial, partial(serial, "centralized-batch"), 1.5
        ),
        "store_warm": store_warm_floor(problems),
    }
    floors["batched"]["rungs"] = rungs(problems, "centralized-batch")
    return {
        "hours": hours,
        "seed": seed,
        "slots": len(problems),
        "cpu_count": os.cpu_count(),
        "floors": floors,
        "passed": all(f["passed"] for f in floors.values()),
    }


def render(payload: dict) -> str:
    lines = [
        f"timing floors ({payload['hours']}h week, {payload['slots']} slots, "
        f"seed {payload['seed']}, {payload['cpu_count']} CPUs)"
    ]
    for name, f in payload["floors"].items():
        rounds = ", ".join(f"{r:.3f}" for r in f["rounds"])
        line = (
            f"  {name:<17}: {f['statistic']} {f['value']:.3f} vs "
            f"{f['threshold']} -> {'ok' if f['passed'] else 'FAIL'}  [{rounds}]"
        )
        if "rungs" in f:
            line += "  rungs " + ", ".join(f"{k} {v}" for k, v in f["rungs"].items())
        lines.append(line)
    lines.append(f"  verdict          : {'PASS' if payload['passed'] else 'FAIL'}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the engine's lane-vs-lane floors; exit 1 on a miss."
    )
    parser.add_argument(
        "--hours", type=int, default=WEEK_HOURS,
        help="slots per strategy (default: the 168-hour week)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the record as JSON to PATH",
    )
    args = parser.parse_args(argv)
    payload = run_floors(hours=args.hours)
    print(render(payload))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if payload["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
