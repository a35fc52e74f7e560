"""Ablation: greedy per-slot ramping vs exact multi-slot lookahead.

The ramping extension couples slots, and the greedy rolling scheme is
myopic: it cannot pre-warm stacks before a price peak it hasn't seen.
The stacked-QP solver quantifies that gap exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.strategies import HYBRID
from repro.engine.horizon import HorizonEngine
from repro.experiments.common import evaluation_setup
from repro.extensions.multislot import solve_multislot
from repro.extensions.ramping import RampingSimulator
from repro.sim.simulator import Simulator

HOURS = 12
RAMP = 0.5


def test_greedy_vs_exact_lookahead(run_once, bench_workers):
    bundle, model = evaluation_setup(hours=HOURS)

    def compare():
        # The ramping variants couple slots (sequential by nature); only
        # the unconstrained reference is an independent-slot horizon the
        # engine can fan out.
        exact = solve_multislot(model, bundle, ramp_mw_per_hour=RAMP, hours=HOURS)
        greedy = RampingSimulator(model, bundle, ramp_mw_per_hour=RAMP).run(
            HYBRID, hours=HOURS
        )
        unconstrained = Simulator(
            model, bundle, HorizonEngine(workers=bench_workers)
        ).run(HYBRID, hours=HOURS)
        return exact, greedy, unconstrained

    exact, greedy, unconstrained = run_once(compare)
    gap = (exact.total_ufc - greedy.result.ufc.sum()) / abs(exact.total_ufc)
    ceiling = (unconstrained.ufc.sum() - exact.total_ufc) / abs(
        unconstrained.ufc.sum()
    )
    print(
        f"\nramp {RAMP} MW/h over {HOURS} h: greedy {greedy.result.ufc.sum():,.0f}, "
        f"exact {exact.total_ufc:,.0f} (greedy gap {100 * gap:.1f}%), "
        f"unconstrained {unconstrained.ufc.sum():,.0f} "
        f"(ramp cost {100 * ceiling:.1f}%)"
    )
    assert exact.converged
    # Exact lookahead dominates greedy; neither beats the unconstrained.
    assert exact.total_ufc >= greedy.result.ufc.sum() - 1e-6
    assert unconstrained.ufc.sum() >= exact.total_ufc - 1e-6
    # Lookahead must actually pay off at this tight ramp.
    assert gap > 0.005
    # Ramp feasibility of the joint plan.
    mus = np.array([a.mu for a in exact.allocations])
    assert (np.diff(mus, axis=0) <= RAMP + 1e-6).all()
    assert (mus[0] <= RAMP + 1e-6).all()
