"""The benchmark's layer tracer installs on this code and comes off cleanly.

``perfbench/layers.py`` wraps named functions and methods of
``repro`` for a traced benchmark pass: every module it imports must
exist, and every method it wraps must be defined on the class it names
(it reads ``cls.__dict__``).  A break shows here, in tier-1, instead of
in the benchmark's traced runs.  The test only reads ``perfbench/``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.core.strategies import HYBRID
from repro.engine import HorizonEngine
from repro.sim.simulator import Simulator

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_layers_wraps_and_remove_restores(small_model, small_bundle):
    layers = _layers()
    sim = Simulator(small_model, small_bundle)
    problems = [sim.problem_for_slot(t, HYBRID) for t in range(2)]
    tracer = layers.LayerTracer()
    layers.install_layers(tracer)
    try:
        patched = list(tracer._undo)
        assert patched
        for owner, key, original in patched:
            assert getattr(owner, key) is not original, (owner, key)
        HorizonEngine("centralized-warm").run(problems, warm_start=True)
    finally:
        tracer.remove()
    # The warm lane ran through its wrapped entry points: one compile,
    # one anchor stack, one walked slot.
    assert tracer.calls["engine.run"] == 1
    assert tracer.calls["core.compile"] == 1
    assert tracer.calls["optim.solve_qp_batch"] == 1
    assert tracer.calls["optim.solve_qp_warm"] == 1
    # Each name is back to what it held before the first wrap.
    first: dict[tuple[int, str], tuple[object, str, object]] = {}
    for owner, key, original in patched:
        first.setdefault((id(owner), key), (owner, key, original))
    for owner, key, original in first.values():
        assert getattr(owner, key) is original, (owner, key)
