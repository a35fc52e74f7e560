"""Synthetic locational-marginal-price (LMP) series per region.

The paper downloads hourly real-time LMPs (September 10-16, 2012) from
each region's RTO/ISO: AESO (Calgary), CAISO (San Jose), ERCOT
(Dallas) and PJM (Pittsburgh).  This module generates seeded stand-ins
calibrated to the levels the paper's results imply:

- Dallas/ERCOT is cheap (weekly mean near $28/MWh — Table I's Grid
  cost at Dallas is ~1/3 of the fuel-cell cost at $80/MWh) with lows
  around $15;
- San Jose/CAISO is expensive (mean near $81/MWh, straddling the
  fuel-cell price, so the Hybrid strategy arbitrages hour by hour);
- Calgary/AESO is mid-priced and spiky (energy-only market);
- Pittsburgh/PJM sits in the $35-45 band.

Each series is a diurnal base plus AR(1) noise plus an occasional
price-spike process, floored at a regional minimum.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "RegionPricePreset",
    "REGION_PRICE_PRESETS",
    "lmp_series",
    "lmp_series_from_rng",
]


@dataclass(frozen=True)
class RegionPricePreset:
    """Parameters of a region's synthetic LMP process.

    Attributes:
        base: mean off-peak price level, $/MWh.
        diurnal_amplitude: additional peak-hour price, $/MWh.
        noise_sigma: AR(1) innovation std-dev, $/MWh.
        spike_probability: per-hour probability of a scarcity spike.
        spike_scale: mean magnitude of spikes, $/MWh (exponential).
        floor: minimum price, $/MWh (can be near zero in wind-heavy
            markets).
        peak_hour: local hour of the diurnal price peak.
        peak_width: Gaussian width of the daily peak, hours.
        utc_offset: region standard-time UTC offset, hours.
    """

    base: float
    diurnal_amplitude: float
    noise_sigma: float
    spike_probability: float
    spike_scale: float
    floor: float
    peak_hour: float = 17.0
    peak_width: float = 3.5
    utc_offset: float = 0.0


REGION_PRICE_PRESETS: Mapping[str, RegionPricePreset] = {
    "calgary": RegionPricePreset(
        base=48.0,
        diurnal_amplitude=22.0,
        noise_sigma=6.0,
        spike_probability=0.05,
        spike_scale=120.0,
        floor=18.0,
        utc_offset=-7,
    ),
    "san_jose": RegionPricePreset(
        base=36.0,
        diurnal_amplitude=158.0,
        noise_sigma=6.0,
        spike_probability=0.03,
        spike_scale=60.0,
        floor=30.0,
        peak_width=3.4,
        utc_offset=-8,
    ),
    "dallas": RegionPricePreset(
        base=24.0,
        diurnal_amplitude=9.0,
        noise_sigma=2.5,
        spike_probability=0.03,
        spike_scale=70.0,
        floor=15.0,
        utc_offset=-6,
    ),
    "pittsburgh": RegionPricePreset(
        base=34.0,
        diurnal_amplitude=12.0,
        noise_sigma=3.0,
        spike_probability=0.02,
        spike_scale=50.0,
        floor=20.0,
        utc_offset=-5,
    ),
}


def lmp_series(
    region: str,
    hours: int = 168,
    seed: int = 2014,
    presets: Mapping[str, RegionPricePreset] = REGION_PRICE_PRESETS,
) -> np.ndarray:
    """Hourly LMP series for ``region`` in $/MWh, length ``hours``.

    Deterministic for a given ``(region, hours, seed)``.

    Raises:
        KeyError: for an unknown region.
    """
    if hours <= 0:
        raise ValueError(f"hours must be positive, got {hours}")
    if region not in presets:
        raise KeyError(
            f"unknown region {region!r}; known: {sorted(presets)}"
        )
    p = presets[region]
    # zlib.crc32 is stable across processes (str hash() is salted).
    rng = np.random.default_rng(seed ^ (zlib.crc32(region.encode()) & 0xFFFF))
    return lmp_series_from_rng(p, hours, rng)


def lmp_series_from_rng(
    preset: RegionPricePreset, hours: int, rng: np.random.Generator
) -> np.ndarray:
    """LMP series for ``preset`` drawn from a caller-provided generator.

    The scale-out instance generator uses this with
    :class:`numpy.random.SeedSequence` child streams so that hundreds
    of generated regions get independent price processes;
    :func:`lmp_series` routes through it with the historical per-region
    seeding, bit-identically.
    """
    if hours <= 0:
        raise ValueError(f"hours must be positive, got {hours}")
    p = preset
    t = np.arange(hours)
    hour_of_day = (t + p.utc_offset) % 24
    diurnal = p.base + p.diurnal_amplitude * np.exp(
        -0.5 * ((hour_of_day - p.peak_hour) / p.peak_width) ** 2
    )
    # Mild weekend discount, as observed in day-ahead markets.
    weekend = np.where((t // 24) % 7 >= 5, 0.92, 1.0)
    noise = np.empty(hours)
    state = 0.0
    for k in range(hours):
        state = 0.75 * state + rng.normal(0.0, p.noise_sigma)
        noise[k] = state
    spikes = rng.random(hours) < p.spike_probability
    spike_values = rng.exponential(p.spike_scale, size=hours) * spikes
    return np.maximum(diurnal * weekend + noise + spike_values, p.floor)
