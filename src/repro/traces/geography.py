"""Geography: city coordinates, great-circle distances, placement.

The paper's cloud deploys N = 4 datacenters (Calgary, San Jose, Dallas,
Pittsburgh) and M = 10 front-end proxies "uniformly scattered across
the continental United States", and derives propagation latency from
geographic distance (0.02 ms/km).  The paper reads distances off Google
Maps; we use great-circle (haversine) distances between real city
coordinates, which is the same quantity up to routing detours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "City",
    "CITY_COORDINATES",
    "DATACENTER_CITIES",
    "FRONTEND_CITIES",
    "haversine_km",
    "distance_matrix",
]

_EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class City:
    """A named location.

    Attributes:
        name: city name.
        lat: latitude in degrees.
        lon: longitude in degrees.
        utc_offset: standard-time UTC offset in hours (used to phase
            each front-end's diurnal workload).
    """

    name: str
    lat: float
    lon: float
    utc_offset: float


#: The paper's four datacenter sites plus ten well-spread US metros used
#: as front-end proxy locations.
CITY_COORDINATES: Mapping[str, City] = {
    # Datacenter sites (paper Sec. IV-A).
    "calgary": City("Calgary", 51.05, -114.07, -7),
    "san_jose": City("San Jose", 37.34, -121.89, -8),
    "dallas": City("Dallas", 32.78, -96.80, -6),
    "pittsburgh": City("Pittsburgh", 40.44, -79.99, -5),
    # Front-end proxy metros.
    "new_york": City("New York", 40.71, -74.01, -5),
    "chicago": City("Chicago", 41.88, -87.63, -6),
    "los_angeles": City("Los Angeles", 34.05, -118.24, -8),
    "seattle": City("Seattle", 47.61, -122.33, -8),
    "denver": City("Denver", 39.74, -104.99, -7),
    "atlanta": City("Atlanta", 33.75, -84.39, -5),
    "miami": City("Miami", 25.76, -80.19, -5),
    "boston": City("Boston", 42.36, -71.06, -5),
    "phoenix": City("Phoenix", 33.45, -112.07, -7),
    "minneapolis": City("Minneapolis", 44.98, -93.27, -6),
}

DATACENTER_CITIES: tuple[str, ...] = ("calgary", "san_jose", "dallas", "pittsburgh")

FRONTEND_CITIES: tuple[str, ...] = (
    "new_york",
    "chicago",
    "los_angeles",
    "seattle",
    "denver",
    "atlanta",
    "miami",
    "boston",
    "phoenix",
    "minneapolis",
)


def haversine_km(a: City, b: City) -> float:
    """Great-circle distance between two cities in km."""
    lat1, lon1, lat2, lon2 = map(np.radians, (a.lat, a.lon, b.lat, b.lon))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    s = np.sin(dlat / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2) ** 2
    return float(2.0 * _EARTH_RADIUS_KM * np.arcsin(np.sqrt(s)))


def distance_matrix(
    sources: Sequence[str] = FRONTEND_CITIES,
    targets: Sequence[str] = DATACENTER_CITIES,
    cities: Mapping[str, City] = CITY_COORDINATES,
) -> np.ndarray:
    """(len(sources), len(targets)) matrix of great-circle distances in km.

    Raises:
        KeyError: if a name is not in the coordinate table.
    """
    return np.array(
        [[haversine_km(cities[s], cities[t]) for t in targets] for s in sources]
    )
