"""Alternative evaluation scenarios beyond the paper's four sites.

The default bundle reproduces Sec. IV-A exactly.  These presets show
the library is not hard-wired to it: a European deployment and a
2020s-style renewable-heavy grid, each a complete
:class:`~repro.traces.datasets.TraceBundle` buildable with one call.

Scenario presets are tables of their own, handed to the generators in
:mod:`repro.traces.geography`, :mod:`repro.traces.prices` and
:mod:`repro.traces.fuelmix`; the library's tables stay as shipped.
"""

from __future__ import annotations

import numpy as np

from repro.costs.carbon import carbon_intensity
from repro.costs.latency import latency_matrix_from_distances
from repro.traces.datasets import TraceBundle
from repro.traces.fuelmix import fuel_mix_series
from repro.traces.geography import City, distance_matrix
from repro.traces.prices import RegionPricePreset, lmp_series
from repro.traces.workload import workload_matrix

__all__ = ["EUROPE_DATACENTERS", "EUROPE_FRONTENDS", "europe_bundle",
           "renewable_heavy_bundle"]

#: European datacenter sites and front-end metros.
EUROPE_DATACENTERS: tuple[str, ...] = ("dublin", "frankfurt", "stockholm", "madrid")

EUROPE_FRONTENDS: tuple[str, ...] = (
    "london", "paris", "amsterdam", "milan", "warsaw", "vienna",
)

_EUROPE_CITIES: dict[str, City] = {
    "dublin": City("Dublin", 53.35, -6.26, 0),
    "frankfurt": City("Frankfurt", 50.11, 8.68, 1),
    "stockholm": City("Stockholm", 59.33, 18.07, 1),
    "madrid": City("Madrid", 40.42, -3.70, 1),
    "london": City("London", 51.51, -0.13, 0),
    "paris": City("Paris", 48.86, 2.35, 1),
    "amsterdam": City("Amsterdam", 52.37, 4.90, 1),
    "milan": City("Milan", 45.46, 9.19, 1),
    "warsaw": City("Warsaw", 52.23, 21.01, 1),
    "vienna": City("Vienna", 48.21, 16.37, 1),
}

_EUROPE_PRICES: dict[str, RegionPricePreset] = {
    # 2010s European wholesale levels, EUR~USD parity assumed.
    "dublin": RegionPricePreset(
        base=55.0, diurnal_amplitude=25.0, noise_sigma=5.0,
        spike_probability=0.03, spike_scale=70.0, floor=25.0, utc_offset=0,
    ),
    "frankfurt": RegionPricePreset(
        base=42.0, diurnal_amplitude=20.0, noise_sigma=5.0,
        spike_probability=0.02, spike_scale=60.0, floor=5.0, utc_offset=1,
    ),
    "stockholm": RegionPricePreset(
        base=30.0, diurnal_amplitude=10.0, noise_sigma=4.0,
        spike_probability=0.02, spike_scale=50.0, floor=8.0, utc_offset=1,
    ),
    "madrid": RegionPricePreset(
        base=48.0, diurnal_amplitude=22.0, noise_sigma=5.0,
        spike_probability=0.02, spike_scale=55.0, floor=20.0, utc_offset=1,
    ),
}

_EUROPE_MIXES: dict[str, dict[str, float]] = {
    "dublin": {"gas": 0.55, "wind": 0.20, "coal": 0.15, "hydro": 0.10},
    "frankfurt": {"coal": 0.42, "gas": 0.14, "nuclear": 0.16, "wind": 0.18,
                  "hydro": 0.04, "solar": 0.06},
    "stockholm": {"hydro": 0.45, "nuclear": 0.40, "wind": 0.12, "gas": 0.03},
    "madrid": {"gas": 0.30, "nuclear": 0.22, "wind": 0.22, "coal": 0.14,
               "hydro": 0.07, "solar": 0.05},
}

#: A 2020s renewable-heavy variant of the paper's own regions: wind and
#: solar shares roughly tripled, coal mostly retired.
_RENEWABLE_MIXES: dict[str, dict[str, float]] = {
    "calgary": {"gas": 0.55, "wind": 0.30, "hydro": 0.10, "coal": 0.05},
    "san_jose": {"gas": 0.30, "solar": 0.28, "wind": 0.20, "hydro": 0.12,
                 "nuclear": 0.10},
    "dallas": {"gas": 0.40, "wind": 0.38, "nuclear": 0.10, "solar": 0.12},
    "pittsburgh": {"gas": 0.45, "nuclear": 0.30, "wind": 0.18, "coal": 0.07},
}


def europe_bundle(hours: int = 168, seed: int = 2014) -> TraceBundle:
    """A European deployment: 4 datacenters, 6 front-end metros.

    Stockholm is cheap and clean (hydro/nuclear), Frankfurt coal-tinted,
    Dublin gas-priced — a different diversity pattern from the paper's
    North-American sites, exercising the same code paths end to end.
    """
    rng = np.random.default_rng(seed)
    capacities = rng.uniform(1.7e4, 2.3e4, size=len(EUROPE_DATACENTERS))
    offsets = np.array([_EUROPE_CITIES[c].utc_offset for c in EUROPE_FRONTENDS])
    arrivals = workload_matrix(
        total_servers=float(capacities.sum()),
        num_frontends=len(EUROPE_FRONTENDS),
        hours=hours,
        seed=seed,
        frontend_utc_offsets=offsets,
    )
    prices = np.column_stack(
        [
            lmp_series(r, hours=hours, seed=seed, presets=_EUROPE_PRICES)
            for r in EUROPE_DATACENTERS
        ]
    )
    carbon = np.column_stack(
        [
            [
                carbon_intensity(mix)
                for mix in fuel_mix_series(
                    r, hours=hours, seed=seed, mixes=_EUROPE_MIXES,
                    cities=_EUROPE_CITIES,
                )
            ]
            for r in EUROPE_DATACENTERS
        ]
    )
    distances = distance_matrix(
        EUROPE_FRONTENDS, EUROPE_DATACENTERS, cities=_EUROPE_CITIES
    )
    return TraceBundle(
        regions=EUROPE_DATACENTERS,
        frontends=EUROPE_FRONTENDS,
        arrivals=arrivals,
        prices=prices,
        carbon_rates=carbon,
        latency_ms=latency_matrix_from_distances(distances),
        capacities=capacities,
        seed=seed,
    )


def renewable_heavy_bundle(hours: int = 168, seed: int = 2014) -> TraceBundle:
    """The paper's geography under a 2020s renewable-heavy grid.

    Carbon intensities drop to roughly a third of the 2012 levels,
    which shrinks the carbon lever the carbon tax acts on — running the
    Fig. 10 sweep on this bundle shows how decarbonized grids mute the
    policy effect.
    """
    from repro.traces.datasets import default_bundle

    base = default_bundle(hours=hours, seed=seed)
    carbon = np.empty_like(base.carbon_rates)
    for k, region in enumerate(base.regions):
        mixes = fuel_mix_series(region, hours=hours, seed=seed,
                                mixes=_RENEWABLE_MIXES)
        carbon[:, k] = [carbon_intensity(mix) for mix in mixes]
    return TraceBundle(
        regions=base.regions,
        frontends=base.frontends,
        arrivals=base.arrivals,
        prices=base.prices,
        carbon_rates=carbon,
        latency_ms=base.latency_ms,
        capacities=base.capacities,
        seed=seed,
    )
