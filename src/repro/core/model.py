"""The geo-distributed cloud model of Sec. II-A.

A :class:`CloudModel` is the static description of the provider: N
datacenters (server counts, power models, fuel-cell capacities,
emission-cost functions), M front-end proxies, the (M, N) propagation
latency matrix, the fuel-cell generation price ``p0`` and the latency
weight ``w``.  Time-varying inputs (arrivals, prices, carbon rates)
arrive per slot via :class:`repro.core.problem.SlotInputs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from repro.costs.carbon import EmissionCostFunction, LinearCarbonTax
from repro.costs.energy import ServerPowerModel
from repro.costs.latency import LatencyUtility, QuadraticLatencyUtility

__all__ = ["Datacenter", "FrontEnd", "CloudModel", "SiteArrays"]

#: The paper's evaluation defaults (Sec. IV-A).
DEFAULT_FUEL_CELL_PRICE = 80.0  # $/MWh
DEFAULT_LATENCY_WEIGHT = 10.0  # $/s^2
DEFAULT_CARBON_TAX = 25.0  # $/tonne


@dataclass(frozen=True)
class Datacenter:
    """One back-end datacenter.

    Attributes:
        name: site label (e.g. ``"dallas"``).
        servers: number of homogeneous active servers ``S_j``.
        power: the linear server power model.
        fuel_cell_capacity_mw: maximal fuel-cell output ``mu_j^max`` in
            MW; None applies the paper's sizing rule (full peak demand,
            ``P_peak * S_j * PUE``).
        max_servers: optional total deployed servers ``S_j^max`` for the
            right-sizing extension of the paper's Remark; None pins the
            active count at ``servers``.
    """

    name: str
    servers: float
    power: ServerPowerModel = field(default_factory=ServerPowerModel)
    fuel_cell_capacity_mw: float | None = None
    max_servers: float | None = None

    def __post_init__(self) -> None:
        if self.servers <= 0:
            raise ValueError(f"{self.name}: servers must be positive, got {self.servers}")
        if self.fuel_cell_capacity_mw is not None and self.fuel_cell_capacity_mw < 0:
            raise ValueError(
                f"{self.name}: fuel-cell capacity must be non-negative"
            )
        if self.max_servers is not None and self.max_servers < self.servers:
            raise ValueError(
                f"{self.name}: max_servers ({self.max_servers}) below active "
                f"servers ({self.servers})"
            )

    @property
    def alpha_mw(self) -> float:
        """Idle facility power ``alpha_j`` in MW."""
        return self.power.alpha_mw(self.servers)

    @property
    def beta_mw(self) -> float:
        """Marginal facility power ``beta_j`` in MW per server of load."""
        return self.power.beta_mw_per_server

    @property
    def mu_max_mw(self) -> float:
        """Fuel-cell output capacity ``mu_j^max`` in MW."""
        if self.fuel_cell_capacity_mw is not None:
            return self.fuel_cell_capacity_mw
        return self.power.peak_demand_mw(self.servers)


@dataclass(frozen=True)
class FrontEnd:
    """One front-end proxy server aggregating a region's requests."""

    name: str


class SiteArrays(NamedTuple):
    """A model's (N,) per-datacenter arrays (see :meth:`CloudModel.site_arrays`)."""

    alphas: np.ndarray
    betas: np.ndarray
    capacities: np.ndarray
    mu_max: np.ndarray


class CloudModel:
    """Static description of a geo-distributed cloud (Sec. II-A).

    Args:
        datacenters: the N back-end sites.
        frontends: the M proxy sites.
        latency_ms: (M, N) propagation latencies ``L_ij`` in ms.
        fuel_cell_price: fuel-cell generation price ``p0`` in $/MWh
            (paper default 80).
        latency_weight: the weight ``w`` in $/s^2 (paper default 10).
        utility: the workload utility ``U`` (paper default quadratic
            Eq. (2)).
        emission_costs: per-datacenter ``V_j``; a single function is
            broadcast to all sites (paper default: $25/tonne flat tax).
    """

    def __init__(
        self,
        datacenters: Sequence[Datacenter],
        frontends: Sequence[FrontEnd],
        latency_ms: np.ndarray,
        fuel_cell_price: float = DEFAULT_FUEL_CELL_PRICE,
        latency_weight: float = DEFAULT_LATENCY_WEIGHT,
        utility: LatencyUtility | None = None,
        emission_costs: EmissionCostFunction | Sequence[EmissionCostFunction] | None = None,
    ) -> None:
        if not datacenters:
            raise ValueError("need at least one datacenter")
        if not frontends:
            raise ValueError("need at least one front-end")
        latency_ms = np.asarray(latency_ms, dtype=float)
        if latency_ms.shape != (len(frontends), len(datacenters)):
            raise ValueError(
                f"latency shape {latency_ms.shape} != "
                f"({len(frontends)}, {len(datacenters)})"
            )
        if (latency_ms < 0).any():
            raise ValueError("latencies must be non-negative")
        if fuel_cell_price < 0:
            raise ValueError(f"fuel-cell price must be non-negative, got {fuel_cell_price}")
        if latency_weight < 0:
            raise ValueError(f"latency weight must be non-negative, got {latency_weight}")

        self.datacenters = list(datacenters)
        self.frontends = list(frontends)
        self.latency_ms = latency_ms
        self.fuel_cell_price = float(fuel_cell_price)
        self.latency_weight = float(latency_weight)
        self.utility = utility if utility is not None else QuadraticLatencyUtility()

        if emission_costs is None:
            emission_costs = LinearCarbonTax(DEFAULT_CARBON_TAX)
        if isinstance(emission_costs, EmissionCostFunction):
            self.emission_costs: list[EmissionCostFunction] = [
                emission_costs for _ in self.datacenters
            ]
        else:
            self.emission_costs = list(emission_costs)
            if len(self.emission_costs) != len(self.datacenters):
                raise ValueError(
                    "need one emission-cost function per datacenter "
                    f"(got {len(self.emission_costs)} for {len(self.datacenters)})"
                )

    # -- convenience vectors ------------------------------------------------

    @property
    def num_datacenters(self) -> int:
        return len(self.datacenters)

    @property
    def num_frontends(self) -> int:
        return len(self.frontends)

    @property
    def capacities(self) -> np.ndarray:
        """(N,) server counts ``S_j``."""
        return np.array([dc.servers for dc in self.datacenters])

    @property
    def alphas(self) -> np.ndarray:
        """(N,) idle power ``alpha_j`` in MW."""
        return np.array([dc.alpha_mw for dc in self.datacenters])

    @property
    def betas(self) -> np.ndarray:
        """(N,) marginal power ``beta_j`` in MW/server."""
        return np.array([dc.beta_mw for dc in self.datacenters])

    @property
    def mu_max(self) -> np.ndarray:
        """(N,) fuel-cell capacities ``mu_j^max`` in MW."""
        return np.array([dc.mu_max_mw for dc in self.datacenters])

    def site_arrays(self) -> SiteArrays:
        """The four per-datacenter arrays, each built once for the caller.

        Every property above rebuilds its array from the datacenters on
        each access; hot loops hold on to one of these instead.  The
        model keeps no copy: its attributes (which the result store's
        keys fold) stay exactly the constructor's.
        """
        return SiteArrays(
            alphas=self.alphas,
            betas=self.betas,
            capacities=self.capacities,
            mu_max=self.mu_max,
        )

    def with_emission_costs(
        self, emission_costs: EmissionCostFunction | Sequence[EmissionCostFunction]
    ) -> "CloudModel":
        """A copy of this model with different ``V_j`` (for tax sweeps)."""
        return CloudModel(
            datacenters=self.datacenters,
            frontends=self.frontends,
            latency_ms=self.latency_ms,
            fuel_cell_price=self.fuel_cell_price,
            latency_weight=self.latency_weight,
            utility=self.utility,
            emission_costs=emission_costs,
        )

    def with_fuel_cell_price(self, price: float) -> "CloudModel":
        """A copy of this model with a different ``p0`` (for price sweeps)."""
        return CloudModel(
            datacenters=self.datacenters,
            frontends=self.frontends,
            latency_ms=self.latency_ms,
            fuel_cell_price=price,
            latency_weight=self.latency_weight,
            utility=self.utility,
            emission_costs=self.emission_costs,
        )
