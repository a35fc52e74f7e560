"""Deterministic overhead gates: count the work instead of timing it.

A few percent of wall clock is below what a shared host can resolve,
but work counts do not drift.  Each configuration runs a 24-slot
horizon once to warm up, then again under each counter, and is
compared with the plain engine on two counts per slot:

- Python calls, from cProfile's ``total_calls`` (builtins included);
- traced allocations: the memory blocks tracemalloc sees allocated
  during the run and still alive when it returns (what the run keeps
  per slot).

A per-slot ``copy.deepcopy`` of the problem or ``json.dumps`` of the
outcome on an observed or armed path costs hundreds of calls per slot
and fails these budgets.

What neither count sees: tracemalloc counts blocks still alive when
the run returns, so a transient buffer allocated and freed inside one
C call (a per-slot temporary array, say) is invisible to both counts,
and the standard library offers no cumulative-allocation hook to count
it.  A regression of that kind shows only in wall clock and peak RSS.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import tracemalloc

import numpy as np
import pytest

from repro.core.strategies import HYBRID
from repro.engine import HorizonEngine
from repro.obs import MetricsRegistry
from repro.sim.simulator import Simulator

SLOTS = 24

#: Per-slot budgets over the plain engine: (Python calls, retained
#: blocks).  Measured on CPython 3.11 over this 24-slot Hybrid run:
#: obs-on (metrics registry + run ledger) 181.5 calls and 6.1 blocks,
#: an armed-idle fallback chain 0.25 and 0.08, synchronous supervision
#: 0 and 0.  The ``resilience-idle`` id names the armed-idle chain.
BUDGETS = {
    "obs-on": (205, 9),
    "resilience-idle": (1, 1),
    "supervision-sync": (1, 1),
}


@pytest.fixture(scope="module")
def problems(small_model, small_bundle):
    sim = Simulator(small_model, small_bundle)
    return [sim.problem_for_slot(t, HYBRID) for t in range(SLOTS)]


def _engine(config: str, ledger_dir) -> HorizonEngine:
    if config == "plain":
        return HorizonEngine("centralized")
    if config == "obs-on":
        return HorizonEngine(
            "centralized",
            metrics=MetricsRegistry(),
            ledger=ledger_dir,
        )
    if config == "resilience-idle":
        return HorizonEngine("centralized", fallback=("proportional",))
    assert config == "supervision-sync"
    return HorizonEngine("centralized", supervision=True)


def _counts(engine: HorizonEngine, problems) -> tuple[int, int]:
    """(calls, retained blocks) of one run, after a warm-up run."""
    engine.run(problems)
    profiler = cProfile.Profile()
    profiler.enable()
    engine.run(problems)
    profiler.disable()
    calls = pstats.Stats(profiler).total_calls
    # Free the earlier runs' cyclic garbage first.  Left for the
    # collector to find mid-run, it keeps small objects off CPython's
    # free lists, so the traced run allocates fresh blocks for them and
    # the count depends on which tests ran before (3.96 extra blocks
    # per slot for the armed-idle chain in one order, 0.08 in another).
    gc.collect()
    tracemalloc.start()
    try:
        outcomes = engine.run(problems)
        blocks = len(tracemalloc.take_snapshot().traces)
    finally:
        tracemalloc.stop()
    assert len(outcomes) == SLOTS
    return calls, blocks


@pytest.fixture(scope="module")
def plain_counts(problems):
    return _counts(_engine("plain", None), problems)


@pytest.mark.parametrize("config", sorted(BUDGETS))
def test_per_slot_overhead_within_budget(config, problems, plain_counts, tmp_path):
    calls, blocks = _counts(_engine(config, tmp_path), problems)
    extra_calls = (calls - plain_counts[0]) / SLOTS
    extra_blocks = (blocks - plain_counts[1]) / SLOTS
    call_budget, block_budget = BUDGETS[config]
    assert extra_calls <= call_budget, (
        f"{config}: {extra_calls:.2f} extra calls per slot > {call_budget}"
    )
    assert extra_blocks <= block_budget, (
        f"{config}: {extra_blocks:.2f} extra retained blocks per slot "
        f"> {block_budget}"
    )


def test_qp_kernel_compiled_once_per_structure(small_model, small_bundle, monkeypatch):
    """A 24-slot paper run through ``centralized`` compiles the QP
    kernel (Ruiz coordinates, bound/dense split) once per (model,
    strategy), not once per slot."""
    from repro.core.strategies import ALL_STRATEGIES
    from repro.optim import ipqp

    builds = []
    compile_kernel = ipqp.QPKernel.__init__

    def counting(self, A, G):
        builds.append(np.shape(G))
        compile_kernel(self, A, G)

    monkeypatch.setattr(ipqp.QPKernel, "__init__", counting)
    sim = Simulator(small_model, small_bundle)
    problems = [sim.problem_for_slot(t, strategy)
                for strategy in ALL_STRATEGIES for t in range(SLOTS)]
    outcomes = HorizonEngine("centralized").run(problems)
    assert all(o.ok and o.result.converged for o in outcomes)
    assert len(builds) == len(ALL_STRATEGIES)


def test_batched_lane_compiles_one_kernel_per_structure(small_model, small_bundle,
                                                        monkeypatch):
    """A 24-slot paper run per strategy through ``centralized-batch``
    builds one QP kernel per (model, strategy): the anchors' stacked
    interior-point solve and the walks between them both run on the
    compiled structure's kernel."""
    from repro.core.strategies import ALL_STRATEGIES
    from repro.optim import ipqp

    builds = []
    compile_kernel = ipqp.QPKernel.__init__

    def counting(self, A, G):
        builds.append(np.shape(G))
        compile_kernel(self, A, G)

    monkeypatch.setattr(ipqp.QPKernel, "__init__", counting)
    sim = Simulator(small_model, small_bundle)
    problems = [sim.problem_for_slot(t, strategy)
                for strategy in ALL_STRATEGIES for t in range(SLOTS)]
    outcomes = HorizonEngine("centralized-batch").run(problems, batch=True)
    assert all(o.ok and o.result.converged for o in outcomes)
    assert len(builds) == len(ALL_STRATEGIES)


def test_certified_slot_computes_ufc_once(problems, monkeypatch):
    """A certified ``centralized`` slot evaluates the UFC once: the
    certificate takes the value the solver computed from the same
    allocation instead of recomputing it."""
    from repro.core.problem import UFCProblem

    calls = []
    ufc = UFCProblem.ufc

    def counting(self, allocation):
        calls.append(1)
        return ufc(self, allocation)

    monkeypatch.setattr(UFCProblem, "ufc", counting)
    outcomes = HorizonEngine("centralized", certify=True).run(problems)
    assert all(o.ok and o.certificate.ok for o in outcomes)
    assert all(o.certificate.ufc == o.result.ufc for o in outcomes)
    assert len(calls) == SLOTS
