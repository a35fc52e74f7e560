"""Shared setup and caching for the experiment drivers.

All figures of Sec. IV share one evaluation configuration (the default
168-hour bundle, ``p0 = 80``, $25/tonne tax, ``w = 10``); experiments
that only post-process the three-strategy comparison share a cached
run so regenerating every figure costs one simulation.
"""

from __future__ import annotations

from repro.core.model import CloudModel
from repro.engine.horizon import HorizonEngine
from repro.sim.results import StrategyComparison
from repro.sim.simulator import Simulator, build_model
from repro.traces.datasets import TraceBundle, default_bundle

__all__ = ["evaluation_setup", "cached_comparison"]


def evaluation_setup(
    hours: int = 168,
    seed: int = 2014,
    fuel_cell_price: float = 80.0,
    carbon_tax: float | None = None,
) -> tuple[TraceBundle, CloudModel]:
    """The paper's Sec. IV-A configuration.

    Args:
        hours: horizon (one week by default).
        seed: trace generator seed.
        fuel_cell_price: ``p0`` in $/MWh.
        carbon_tax: flat tax rate in $/tonne; None keeps the model
            default ($25/tonne).
    """
    bundle = default_bundle(hours=hours, seed=seed)
    model = build_model(bundle, fuel_cell_price=fuel_cell_price)
    if carbon_tax is not None:
        from repro.costs.carbon import LinearCarbonTax

        model = model.with_emission_costs(LinearCarbonTax(carbon_tax))
    return bundle, model


_COMPARISON_CACHE: dict[tuple[int, int], StrategyComparison] = {}


def cached_comparison(
    hours: int = 168, seed: int = 2014, workers: int = 1
) -> StrategyComparison:
    """The three-strategy comparison under default parameters, cached so
    Figs. 4-8 share one simulation.

    The cache key is ``(hours, seed)`` only: worker count changes how
    the comparison is computed, never what it computes (results are
    bit-identical at any worker count), so a hit is valid regardless of
    the ``workers`` it was filled with.
    """
    key = (hours, seed)
    if key not in _COMPARISON_CACHE:
        bundle, model = evaluation_setup(hours=hours, seed=seed)
        engine = HorizonEngine(workers=workers)
        _COMPARISON_CACHE[key] = Simulator(
            model, bundle, engine
        ).compare_strategies()
    return _COMPARISON_CACHE[key]
