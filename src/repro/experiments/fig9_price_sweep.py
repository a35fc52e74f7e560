"""Fig. 9: how low must the fuel-cell price go?

Sweeps the fuel-cell generation price ``p0`` and reports the average
UFC improvement of Hybrid over Grid and the average fuel-cell
utilization at each price.  Paper shape: both climb steeply as ``p0``
falls; at the 2014 market price band ($80-110/MWh) improvement is only
11-17% and utilization 11-16%, while utilization saturates at 100%
once ``p0`` undercuts every effective grid price (~$27/MWh in their
traces).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from repro.core.model import CloudModel
from repro.engine.horizon import HorizonEngine
from repro.core.strategies import GRID, HYBRID
from repro.exec import parallel_map
from repro.experiments.common import evaluation_setup
from repro.sim.metrics import average_improvement
from repro.sim.simulator import Simulator
from repro.traces.datasets import TraceBundle

__all__ = ["Fig9Result", "run_fig9", "render_fig9", "DEFAULT_PRICES"]

DEFAULT_PRICES: tuple[float, ...] = (20.0, 27.0, 35.0, 45.0, 55.0, 65.0, 80.0, 95.0, 110.0)


@dataclass(frozen=True)
class Fig9Result:
    """Average improvement and utilization per fuel-cell price.

    Attributes:
        prices: swept ``p0`` values, $/MWh.
        improvement: mean ``I_hg`` at each price (fraction).
        utilization: mean fuel-cell utilization at each price.
    """

    prices: np.ndarray
    improvement: np.ndarray
    utilization: np.ndarray


def _price_point(
    p0: float, *, bundle: TraceBundle, model: CloudModel, grid_ufc: np.ndarray
) -> tuple[float, float]:
    """One sweep point: (mean improvement, mean utilization) at ``p0``.

    Module-level so :func:`parallel_map` can ship it to a worker.
    """
    swept = model.with_fuel_cell_price(p0)
    hybrid = Simulator(swept, bundle).run(HYBRID)
    return average_improvement(hybrid.ufc, grid_ufc), hybrid.mean_utilization()


def run_fig9(
    prices: Sequence[float] = DEFAULT_PRICES,
    hours: int = 168,
    seed: int = 2014,
    workers: int = 1,
) -> Fig9Result:
    """Regenerate the Fig. 9 sweep.

    The Grid baseline is price-independent (it burns no fuel-cell
    energy) and is simulated once.  ``workers > 1`` evaluates the sweep
    points concurrently; the result is identical at any worker count.
    """
    bundle, model = evaluation_setup(hours=hours, seed=seed)
    engine = HorizonEngine(workers=workers)
    grid_result = Simulator(model, bundle, engine).run(GRID)
    points = parallel_map(
        partial(
            _price_point, bundle=bundle, model=model, grid_ufc=grid_result.ufc
        ),
        prices,
        workers=workers,
    )
    return Fig9Result(
        prices=np.asarray(prices, dtype=float),
        improvement=np.asarray([imp for imp, _ in points]),
        utilization=np.asarray([util for _, util in points]),
    )


def render_fig9(result: Fig9Result) -> str:
    """The two Fig. 9 curves as a text series."""
    lines = [
        "Fig. 9: average UFC improvement and fuel-cell utilization "
        "vs fuel-cell price",
        f"{'p0 ($/MWh)':>10} {'improvement':>12} {'utilization':>12}",
    ]
    for p, imp, util in zip(result.prices, result.improvement, result.utilization):
        lines.append(f"{p:>10.0f} {100 * imp:>11.1f}% {100 * util:>11.1f}%")
    return "\n".join(lines)
