"""Scale-out instance generation: hyperscale UFC problems.

The paper evaluates at (N, M) = (4, 10).  Real geo-distributed
services run hundreds of datacenters and thousands of front-end
points of presence, and the block-sparse KKT path exists precisely to
solve those.  This module generates such instances with the same
physical texture as the paper-scale bundle:

- **Geography**: datacenter and front-end sites are scattered around
  the real metro anchors of :data:`repro.traces.geography.CITY_COORDINATES`
  with Gaussian jitter, so generated clouds inherit realistic coastal
  clustering and timezone spread.  Latency is great-circle distance
  times the paper's 0.02 ms/km.
- **Traces**: per-datacenter price and carbon processes cycle through
  the library's regional archetypes (AESO-spiky, CAISO-peaky,
  ERCOT-cheap, PJM-flat and the European presets) with parameters
  jittered per site; workload comes from the same HP-trace stand-in
  with timezone-phased diurnal peaks.  Every stream is derived from
  one root :class:`numpy.random.SeedSequence` by spawning, so streams
  never collide across sites or across instance seeds.
- **Fan-in sparsity**: each front-end reaches only its ``fan_in``
  nearest datacenters (plus its *home* datacenter) — the sparsity the
  block-elimination solver exploits.  Home datacenters are assigned
  greedily so that routing every front-end entirely to its home stays
  within ``home_load_fraction`` of each datacenter's capacity at every
  hour, which makes every slot feasible *by construction* (the
  home routing is a witness point inside the reach pattern).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.model import CloudModel, Datacenter, FrontEnd
from repro.core.problem import SlotInputs, UFCProblem
from repro.core.strategies import HYBRID, Strategy
from repro.costs.latency import latency_matrix_from_distances
from repro.traces.fuelmix import REGION_FUEL_MIXES, carbon_rate_series_from_rng
from repro.traces.geography import CITY_COORDINATES
from repro.traces.prices import REGION_PRICE_PRESETS, lmp_series_from_rng
from repro.traces.workload import workload_matrix

__all__ = ["ScaleSpec", "ScaleInstance", "generate_instance"]

_EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class ScaleSpec:
    """Parameters of one generated hyperscale instance.

    Attributes:
        num_datacenters: N — backend sites.
        num_frontends: M — front-end points of presence.
        hours: horizon length (168 = the paper's week).
        fan_in: nearest datacenters each front-end may route to (its
            home datacenter is always added, so the effective fan-in is
            at most ``fan_in + 1``); None means full reach.
        seed: root seed; every stream in the instance derives from it.
        utilization_target: requested peak total load as a fraction of
            total capacity (may be reduced to keep home routing
            feasible — see :attr:`ScaleInstance.utilization`).
        home_load_fraction: cap on any datacenter's load when every
            front-end routes entirely to its home site; the headroom
            that guarantees per-slot feasibility.
        min_servers / max_servers: per-datacenter capacity range.
    """

    num_datacenters: int
    num_frontends: int
    hours: int = 168
    fan_in: int | None = 6
    seed: int = 2014
    utilization_target: float = 0.85
    home_load_fraction: float = 0.92
    min_servers: float = 1.0e4
    max_servers: float = 3.0e4

    def __post_init__(self) -> None:
        if self.num_datacenters <= 0 or self.num_frontends <= 0:
            raise ValueError("need at least one datacenter and one front-end")
        if self.hours <= 0:
            raise ValueError(f"hours must be positive, got {self.hours}")
        if self.fan_in is not None and self.fan_in <= 0:
            raise ValueError(f"fan_in must be positive or None, got {self.fan_in}")
        if not 0 < self.utilization_target <= 1:
            raise ValueError("utilization_target must lie in (0, 1]")
        if not 0 < self.home_load_fraction <= 1:
            raise ValueError("home_load_fraction must lie in (0, 1]")
        if not 0 < self.min_servers <= self.max_servers:
            raise ValueError("need 0 < min_servers <= max_servers")


@dataclass(frozen=True)
class ScaleInstance:
    """A generated hyperscale instance: model, reach and traces.

    Attributes:
        spec: the generating specification.
        model: the static cloud model (N datacenters, M front-ends).
        reach: (M, k) sorted datacenter indices each front-end may
            route to.
        home: (M,) home-datacenter index per front-end (always a
            member of the front-end's reach row).
        arrivals: (hours, M) request arrivals in servers' worth.
        prices: (hours, N) grid LMPs in $/MWh.
        carbon_rates: (hours, N) carbon intensities in kg/MWh.
        utilization: achieved peak utilization after the feasibility
            rescale (equals ``spec.utilization_target`` unless home
            headroom forced a reduction).
    """

    spec: ScaleSpec
    model: CloudModel
    reach: np.ndarray
    home: np.ndarray
    arrivals: np.ndarray
    prices: np.ndarray
    carbon_rates: np.ndarray
    utilization: float
    _archetypes: tuple[str, ...] = field(default=(), repr=False)

    @property
    def fan_in(self) -> int:
        return int(self.reach.shape[1])

    def inputs(self, t: int) -> SlotInputs:
        """Slot ``t``'s time-varying inputs."""
        return SlotInputs(
            arrivals=self.arrivals[t],
            prices=self.prices[t],
            carbon_rates=self.carbon_rates[t],
        )

    def problem(self, t: int, strategy: Strategy = HYBRID) -> UFCProblem:
        """Slot ``t``'s UFC problem."""
        return UFCProblem(self.model, self.inputs(t), strategy=strategy)

    def problems(self, strategy: Strategy = HYBRID) -> list[UFCProblem]:
        """All ``hours`` slot problems in order."""
        return [self.problem(t, strategy) for t in range(self.spec.hours)]


def _haversine_matrix(
    lat_a: np.ndarray, lon_a: np.ndarray, lat_b: np.ndarray, lon_b: np.ndarray
) -> np.ndarray:
    """(len(a), len(b)) great-circle distances in km, vectorized."""
    la, lo = np.radians(lat_a)[:, None], np.radians(lon_a)[:, None]
    lb, lp = np.radians(lat_b)[None, :], np.radians(lon_b)[None, :]
    s = (
        np.sin((lb - la) / 2.0) ** 2
        + np.cos(la) * np.cos(lb) * np.sin((lp - lo) / 2.0) ** 2
    )
    return 2.0 * _EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))


def _scatter_sites(
    count: int, rng: np.random.Generator, jitter_deg: float = 2.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lat, lon, utc_offset) for ``count`` sites around metro anchors."""
    anchors = list(CITY_COORDINATES.values())
    idx = rng.integers(0, len(anchors), size=count)
    lat = np.array([anchors[i].lat for i in idx]) + rng.normal(0.0, jitter_deg, count)
    lon = np.array([anchors[i].lon for i in idx]) + rng.normal(0.0, jitter_deg, count)
    lat = np.clip(lat, -66.0, 66.0)
    # Timezone from longitude (15 degrees per hour), good enough to
    # phase diurnal patterns the way the geography implies.
    offsets = np.round(lon / 15.0)
    return lat, lon, offsets


def _assign_homes(
    distances: np.ndarray,
    peak_arrivals: np.ndarray,
    budgets: np.ndarray,
) -> np.ndarray:
    """Greedy balanced home-datacenter assignment.

    Front-ends are placed heaviest-first, each onto the nearest
    datacenter whose remaining home budget covers its peak; when none
    fits, the datacenter with the most remaining headroom takes it
    (the caller rescales arrivals afterwards, so overflow here only
    lowers the achieved utilization, never feasibility).
    """
    m = distances.shape[0]
    remaining = budgets.astype(float).copy()
    home = np.empty(m, dtype=np.int64)
    order = np.argsort(-peak_arrivals)
    for i in order:
        by_distance = np.argsort(distances[i])
        fits = remaining[by_distance] >= peak_arrivals[i]
        if fits.any():
            j = int(by_distance[np.argmax(fits)])
        else:
            j = int(np.argmax(remaining))
        home[i] = j
        remaining[j] -= peak_arrivals[i]
    return home


def generate_instance(spec: ScaleSpec) -> ScaleInstance:
    """Generate the :class:`ScaleInstance` for ``spec``.

    Deterministic in ``spec`` (all randomness flows from
    ``SeedSequence(spec.seed)``), and every slot of the result is
    feasible under any strategy whose grid is enabled: routing each
    front-end to its home datacenter loads no site beyond
    ``home_load_fraction`` of capacity.
    """
    n, m, hours = spec.num_datacenters, spec.num_frontends, spec.hours
    root = np.random.SeedSequence(spec.seed)
    geo_seq, trace_seq, workload_seq = root.spawn(3)
    dc_geo, fe_geo = geo_seq.spawn(2)

    dc_lat, dc_lon, dc_off = _scatter_sites(n, np.random.default_rng(dc_geo))
    fe_lat, fe_lon, fe_off = _scatter_sites(m, np.random.default_rng(fe_geo))
    distances = _haversine_matrix(fe_lat, fe_lon, dc_lat, dc_lon)

    cap_rng = np.random.default_rng(trace_seq.spawn(1)[0])
    capacities = cap_rng.uniform(spec.min_servers, spec.max_servers, size=n)

    # Workload: spawn-scheme streams (collision-free across sites and
    # across instance seeds), phased by each front-end's timezone.
    arrivals = workload_matrix(
        total_servers=float(capacities.sum()),
        num_frontends=m,
        hours=hours,
        seed=spec.seed,
        utilization_target=spec.utilization_target,
        frontend_utc_offsets=fe_off,
        seed_scheme="spawn",
    )

    # Reach: fan_in nearest datacenters, then the home site is forced
    # into every row.  Homes are assigned against the *nearest-k*
    # distance structure so reach rows stay geographically tight.
    k = n if spec.fan_in is None else min(spec.fan_in, n)
    nearest = np.argsort(distances, axis=1)[:, :k]
    peak = arrivals.max(axis=0)
    budgets = spec.home_load_fraction * capacities
    masked = np.full_like(distances, np.inf)
    np.put_along_axis(masked, nearest, np.take_along_axis(distances, nearest, axis=1), axis=1)
    home = _assign_homes(masked, peak, budgets)

    reach = nearest.copy()
    missing = ~(nearest == home[:, None]).any(axis=1)
    # Replace the farthest nearest-k entry with the home site where needed.
    reach[missing, -1] = home[missing]
    reach = np.sort(reach, axis=1)

    # Feasibility rescale: if the greedy assignment overflowed any home
    # budget, shrink the whole workload so the worst slot fits.
    home_load = np.zeros((hours, n))
    np.add.at(home_load.T, home, arrivals.T)
    with np.errstate(divide="ignore"):
        ratios = budgets[None, :] / home_load.max(axis=0)[None, :]
    shrink = float(np.nanmin(np.where(np.isfinite(ratios), ratios, np.inf)))
    utilization = spec.utilization_target
    if shrink < 1.0:
        arrivals = arrivals * shrink
        utilization *= shrink

    # Per-datacenter price/carbon: cycle the regional archetypes with
    # jittered parameters, one independent child stream per site.
    price_names = sorted(REGION_PRICE_PRESETS)
    mix_names = sorted(REGION_FUEL_MIXES)
    prices = np.empty((hours, n))
    carbon = np.empty((hours, n))
    archetypes = []
    site_seqs = trace_seq.spawn(n + 1)[1:]
    for j, seq in enumerate(site_seqs):
        price_rng, mix_rng, jitter_rng = (
            np.random.default_rng(s) for s in seq.spawn(3)
        )
        pname = price_names[j % len(price_names)]
        mname = mix_names[j % len(mix_names)]
        archetypes.append(pname)
        preset = REGION_PRICE_PRESETS[pname]
        jittered = replace(
            preset,
            base=preset.base * jitter_rng.uniform(0.85, 1.15),
            diurnal_amplitude=preset.diurnal_amplitude * jitter_rng.uniform(0.8, 1.2),
            utc_offset=float(dc_off[j]),
        )
        prices[:, j] = lmp_series_from_rng(jittered, hours, price_rng)
        carbon[:, j] = carbon_rate_series_from_rng(
            REGION_FUEL_MIXES[mname], hours, mix_rng, utc_offset=float(dc_off[j])
        )

    datacenters = [
        Datacenter(name=f"dc{j:04d}", servers=float(capacities[j])) for j in range(n)
    ]
    frontends = [FrontEnd(name=f"fe{i:04d}") for i in range(m)]
    model = CloudModel(
        datacenters=datacenters,
        frontends=frontends,
        latency_ms=latency_matrix_from_distances(distances),
    )
    return ScaleInstance(
        spec=spec,
        model=model,
        reach=reach,
        home=home,
        arrivals=arrivals,
        prices=prices,
        carbon_rates=carbon,
        utilization=utilization,
        _archetypes=tuple(archetypes),
    )
