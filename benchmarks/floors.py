"""Lane-vs-lane timing floors of the horizon engine.

Each floor times one lane against a reference lane on the same slots
and fails when the lane is slower than its floor allows:

- ``batched`` — the ``centralized-batch`` lane is at least 1.5x faster
  than the serial cached ``centralized`` lane, on the worst of 3
  order-balanced rounds; the record also counts its anchors and walked
  slots by rung (``rungs``);
- ``warm_chain`` — the ``centralized-warm`` lane, which is the
  anchor-and-walk lane of ``centralized-batch`` under its warm name
  (``run(warm_start=True)``), is at least 1.5x faster than the cold
  serial cached lane, on the worst round (1 round on a short horizon,
  3 on the full week); the record also counts the slots each rung
  answered (``rungs``: ``batch`` anchors and walked ``active-set``
  slots, plus any ``cold`` walk);
- ``structured_warm`` — on the 20x100 generated instance, re-solving
  12 perturbed slots warm (previous iterates plus the per-iteration
  factor cache) is faster per slot than re-solving them cold;
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
certification) is tier-1's job; this script times, and only checks
that the structured re-solves it times converged.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/floors.py --hours 24
    PYTHONPATH=src python benchmarks/floors.py --json BENCH_floors.json

Exits 1 when any floor fails.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import shutil
import sys
import tempfile
import time
from functools import partial
from typing import Callable

import numpy as np

from repro.core.strategies import ALL_STRATEGIES, HYBRID
from repro.engine import HorizonEngine
from repro.instances import ScaleSpec, generate_instance
from repro.optim.kkt import (
    StructuredQPCompiler,
    StructuredWarmState,
    solve_structured_qp,
)
from repro.sim.simulator import Simulator, build_model
from repro.traces.datasets import default_bundle

SEED = 2014
WEEK_HOURS = 168

#: Interior-point tolerance of the structured 20x100 re-solves.
STRUCTURED_TOL = 1e-8
STRUCTURED_SLOTS = 12


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
    problems: list, solver: str = "centralized", warm_start: bool = False,
    **engine_kwargs,
) -> float:
    """Wall seconds of one engine run over ``problems``."""
    engine = HorizonEngine(solver, **engine_kwargs)
    start = time.perf_counter()
    engine.run(problems, warm_start=warm_start)
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


def structured_warm_floor(seed: int = SEED) -> dict:
    """20x100 perturbed re-solves, cold vs warm, summed over 12 slots.

    Each slot is solved once to seed the warm state and factor cache,
    then its inputs are perturbed by 1e-4 relative noise and the
    perturbed slot is re-solved cold (fresh cache) and warm (the seed
    solve's iterates and factors); only the re-solves are timed.  The
    floor also fails unless every re-solve converged, so a warm path
    that stops early cannot pass as a faster one.
    """
    inst = generate_instance(
        ScaleSpec(
            num_datacenters=20, num_frontends=100, hours=STRUCTURED_SLOTS,
            fan_in=6, seed=seed,
        )
    )
    compiler = StructuredQPCompiler(inst.model, HYBRID, reach=inst.reach)
    rng = np.random.default_rng(seed + 1)
    cold_s = warm_s = 0.0
    converged = True
    for t in range(STRUCTURED_SLOTS):
        inputs = inst.inputs(t)
        sqp = compiler.structured_qp_for(inputs)
        cache: dict = {}
        seed_res = solve_structured_qp(sqp, tol=STRUCTURED_TOL, factor_cache=cache)
        noise = rng.standard_normal
        perturbed = dataclasses.replace(
            inputs,
            arrivals=inputs.arrivals * (1.0 + 1e-4 * noise(inputs.arrivals.shape)),
            prices=inputs.prices * (1.0 + 1e-4 * noise(inputs.prices.shape)),
        )
        sqp_p = compiler.structured_qp_for(perturbed)
        start = time.perf_counter()
        cold = solve_structured_qp(sqp_p, tol=STRUCTURED_TOL, factor_cache={})
        cold_s += time.perf_counter() - start
        warm = StructuredWarmState(
            x=seed_res.x,
            y=seed_res.eq_dual,
            s=sqp.ineq_slack(seed_res.x),
            z=seed_res.ineq_dual,
        )
        start = time.perf_counter()
        res = solve_structured_qp(
            sqp_p, tol=STRUCTURED_TOL, initial=warm, factor_cache=cache
        )
        warm_s += time.perf_counter() - start
        converged &= bool(cold.converged and res.converged)
    speedup = cold_s / warm_s
    record = _record(
        f"speedup over {STRUCTURED_SLOTS} slots", [speedup], speedup, 1.0,
        speedup > 1.0 and converged,
        cold_s, warm_s,
    )
    record["converged_all"] = converged
    return record


def rungs(problems: list, solver: str, **run: bool) -> dict:
    """Slots of one untimed run of a lane answered by each rung (the
    ``warm_mechanism`` a slot records)."""
    outcomes = HorizonEngine(solver).run(problems, **run)
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
        "warm_chain": speedup_floor(
            3 if hours >= WEEK_HOURS else 1,
            serial,
            partial(serial, "centralized-warm", warm_start=True),
            1.5,
        ),
        "structured_warm": structured_warm_floor(seed=seed),
        "store_warm": store_warm_floor(problems),
    }
    floors["batched"]["rungs"] = rungs(problems, "centralized-batch")
    floors["warm_chain"]["rungs"] = rungs(problems, "centralized-warm", warm_start=True)
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
