"""Synthetic hourly electricity fuel-mix series and carbon rates.

The paper computes each location's hourly carbon-emission rate from
the RTO/ISO fuel-mix feed via its Eq. (1).  Those feeds are
point-in-time; this module generates seeded stand-ins with the
characteristics the evaluation depends on: large *spatial* diversity
(coal-heavy Alberta/PJM vs gas/hydro California) and *diurnal*
variation driven by wind (stronger at night), solar (daytime only) and
load-following gas.
"""

from __future__ import annotations

import zlib
from typing import Mapping

import numpy as np

from repro.costs.carbon import FUEL_CARBON_RATES_G_PER_KWH, carbon_intensity
from repro.traces.geography import CITY_COORDINATES, City

__all__ = [
    "REGION_FUEL_MIXES",
    "fuel_mix_series",
    "fuel_mix_series_from_rng",
    "carbon_rate_series",
    "carbon_rate_series_from_rng",
]

#: Baseline generation shares per region (fractions summing to 1).
#: Levels reflect 2012-era grids: Alberta coal-heavy, CAISO gas/hydro
#: with growing renewables, ERCOT gas+coal+wind, PJM coal-heavy.
REGION_FUEL_MIXES: Mapping[str, Mapping[str, float]] = {
    "calgary": {"coal": 0.48, "gas": 0.38, "wind": 0.07, "hydro": 0.07},
    "san_jose": {
        "gas": 0.48,
        "nuclear": 0.12,
        "hydro": 0.17,
        "wind": 0.13,
        "solar": 0.10,
    },
    "dallas": {"gas": 0.44, "coal": 0.31, "wind": 0.15, "nuclear": 0.10},
    "pittsburgh": {"coal": 0.52, "gas": 0.21, "nuclear": 0.24, "hydro": 0.03},
}


def fuel_mix_series(
    region: str,
    hours: int = 168,
    seed: int = 2014,
    mixes: Mapping[str, Mapping[str, float]] = REGION_FUEL_MIXES,
    cities: Mapping[str, City] = CITY_COORDINATES,
) -> list[dict[str, float]]:
    """Hourly generation mix for ``region``: a list of ``hours`` dicts of
    per-fuel generation shares (they need not sum to exactly 1 — only the
    proportions matter for Eq. (1)).

    ``mixes`` holds the base mix and ``cities`` the site (its UTC offset
    phases the day; a region missing from it runs on UTC) of every
    region a scenario uses.

    Wind output is modulated up at night, solar follows a daytime bell,
    and dispatchable gas absorbs the residual so that intermittent
    swings change the *mix* rather than total supply.
    """
    if hours <= 0:
        raise ValueError(f"hours must be positive, got {hours}")
    if region not in mixes:
        raise KeyError(f"unknown region {region!r}; known: {sorted(mixes)}")
    base = dict(mixes[region])
    offset = cities[region].utc_offset if region in cities else 0
    # zlib.crc32 is stable across processes (str hash() is salted).
    rng = np.random.default_rng((seed * 31 + zlib.crc32(region.encode())) & 0x7FFFFFFF)
    return fuel_mix_series_from_rng(base, hours, rng, utc_offset=offset)


def fuel_mix_series_from_rng(
    base_mix: Mapping[str, float],
    hours: int,
    rng: np.random.Generator,
    utc_offset: float = 0.0,
) -> list[dict[str, float]]:
    """Hourly mix series for a base mix, driven by a caller's generator.

    The scale-out instance generator uses this with
    :class:`numpy.random.SeedSequence` child streams for independent
    per-datacenter carbon processes; :func:`fuel_mix_series` routes
    through it with the historical per-region seeding, bit-identically.
    """
    if hours <= 0:
        raise ValueError(f"hours must be positive, got {hours}")
    base = dict(base_mix)
    offset = utc_offset
    series: list[dict[str, float]] = []
    for t in range(hours):
        hour_local = (t + offset) % 24
        mix = dict(base)
        if "wind" in mix:
            night = 1.0 + 0.45 * np.cos(2.0 * np.pi * (hour_local - 3.0) / 24.0)
            mix["wind"] = max(0.005, mix["wind"] * night * rng.lognormal(0.0, 0.25))
        if "solar" in mix:
            day = max(0.0, np.sin(np.pi * (hour_local - 6.0) / 12.0))
            mix["solar"] = mix["solar"] * day * rng.uniform(0.8, 1.0)
        if "hydro" in mix:
            mix["hydro"] = mix["hydro"] * rng.uniform(0.9, 1.1)
        # Dispatchable gas keeps total near 1 (load following).
        intermittent_shift = (
            mix.get("wind", 0.0)
            - base.get("wind", 0.0)
            + mix.get("solar", 0.0)
            - base.get("solar", 0.0)
        )
        if "gas" in mix:
            mix["gas"] = max(0.02, mix["gas"] - intermittent_shift)
        series.append({k: float(v) for k, v in mix.items() if v > 0.0})
    return series


def carbon_rate_series(
    region: str,
    hours: int = 168,
    seed: int = 2014,
    rates: Mapping[str, float] = FUEL_CARBON_RATES_G_PER_KWH,
) -> np.ndarray:
    """Hourly carbon intensity ``C_j(t)`` in kg/MWh for ``region``,
    computed from :func:`fuel_mix_series` via the paper's Eq. (1)."""
    mixes = fuel_mix_series(region, hours=hours, seed=seed)
    return np.array([carbon_intensity(mix, rates) for mix in mixes])


def carbon_rate_series_from_rng(
    base_mix: Mapping[str, float],
    hours: int,
    rng: np.random.Generator,
    utc_offset: float = 0.0,
    rates: Mapping[str, float] = FUEL_CARBON_RATES_G_PER_KWH,
) -> np.ndarray:
    """Hourly carbon intensity in kg/MWh from a base mix and an RNG."""
    mixes = fuel_mix_series_from_rng(base_mix, hours, rng, utc_offset=utc_offset)
    return np.array([carbon_intensity(mix, rates) for mix in mixes])
