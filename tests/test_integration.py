"""End-to-end integration tests reproducing the paper's claims.

These exercise the full stack — traces -> model -> solvers ->
simulator -> metrics — on a 48-hour window and assert the qualitative
results of Sec. IV (the full-week versions live in ``benchmarks/``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CentralizedSolver,
    DistributedUFCSolver,
    GRID,
    HYBRID,
    HorizonEngine,
    Simulator,
    build_model,
    default_bundle,
)
from repro.distributed import DistributedRuntime
from repro.sim.metrics import improvement_series

HOURS = 48


@pytest.fixture(scope="module")
def comparison():
    bundle = default_bundle(hours=HOURS)
    model = build_model(bundle)
    return Simulator(model, bundle).compare_strategies()


class TestPaperClaims:
    def test_hybrid_dominates_everywhere(self, comparison):
        """Sec. IV-B insight 3: intelligent control never reduces UFC."""
        i_hg = improvement_series(comparison.hybrid.ufc, comparison.grid.ufc)
        i_hf = improvement_series(comparison.hybrid.ufc, comparison.fuel_cell.ufc)
        assert (i_hg > -1e-4).all()
        assert (i_hf > 0).all()

    def test_fuel_cell_only_reduces_utility_off_peak(self, comparison):
        """Sec. IV-B insight 1: relying on fuel cells alone hurts."""
        i_fg = improvement_series(comparison.fuel_cell.ufc, comparison.grid.ufc)
        assert i_fg.min() < -0.1
        assert (i_fg < 0).mean() > 0.5

    def test_load_following_latency(self, comparison):
        """Sec. IV-B insight 2 (Fig. 5): fuel cells enable load
        following; grid-only routing pays a latency premium."""
        assert (
            comparison.fuel_cell.avg_latency_ms.mean()
            <= comparison.hybrid.avg_latency_ms.mean() + 0.05
        )
        assert (
            comparison.hybrid.avg_latency_ms.mean()
            < comparison.grid.avg_latency_ms.mean()
        )

    def test_energy_cost_ordering(self, comparison):
        """Fig. 6: fuel-cell-only is dearest; hybrid arbitrage wins."""
        assert (
            comparison.hybrid.total_energy_cost()
            <= comparison.grid.total_energy_cost()
        )
        assert (
            comparison.grid.total_energy_cost()
            < comparison.fuel_cell.total_energy_cost()
        )

    def test_carbon_ordering(self, comparison):
        """Fig. 7: fuel cell zero carbon; hybrid near grid at $25/t."""
        assert comparison.fuel_cell.total_carbon_tonnes() == pytest.approx(0.0, abs=1e-6)
        ratio = (
            comparison.hybrid.total_carbon_tonnes()
            / comparison.grid.total_carbon_tonnes()
        )
        assert 0.5 < ratio <= 1.0

    def test_poor_utilization_at_market_prices(self, comparison):
        """Fig. 8: fuel cells are poorly utilized at p0=$80, tax=$25."""
        assert comparison.hybrid.mean_utilization() < 0.35


class TestSolverAgreementEndToEnd:
    def test_three_solvers_agree_on_one_slot(self):
        """Centralized IP, matrix ADM-G and message-passing agents all
        land on the same optimum."""
        bundle = default_bundle(hours=8)
        model = build_model(bundle)
        problem = Simulator(model, bundle).problem_for_slot(5, HYBRID)

        cent = CentralizedSolver().solve(problem)
        solver = DistributedUFCSolver(rho=0.3, tol=1e-3)
        matrix = solver.solve(problem)
        agents = DistributedRuntime(problem, solver).run()

        assert cent.converged and matrix.converged and agents.converged
        assert matrix.ufc == pytest.approx(cent.ufc, rel=1e-2)
        assert agents.ufc == pytest.approx(matrix.ufc, rel=1e-9)

    def test_weeklong_distributed_simulation(self):
        """A short distributed-solver simulation stays feasible and
        tracks the centralized UFC closely slot by slot."""
        bundle = default_bundle(hours=6)
        model = build_model(bundle)
        dist = Simulator(
            model, bundle, HorizonEngine(DistributedUFCSolver(rho=0.3, tol=1e-3))
        ).run(HYBRID)
        cent = Simulator(model, bundle).run(HYBRID)
        assert dist.converged.all()
        np.testing.assert_allclose(dist.ufc, cent.ufc, rtol=1e-2)


class TestRightSizingRemark:
    def test_fewer_active_servers_reduce_idle_power(self):
        """The paper's Remark: with the right-sizing extension the
        operator can shut idle servers; fewer active servers strictly
        reduce idle (alpha) power and thus costs at equal load."""
        bundle = default_bundle(hours=4)
        model_full = build_model(bundle)

        from repro.core.model import CloudModel, Datacenter

        shrunk = [
            Datacenter(
                name=dc.name,
                servers=0.88 * dc.servers,
                power=dc.power,
                max_servers=dc.servers,
            )
            for dc in model_full.datacenters
        ]
        model_small = CloudModel(
            shrunk,
            model_full.frontends,
            model_full.latency_ms,
            emission_costs=model_full.emission_costs,
        )
        # The same workload fits in 88% of the servers on this bundle.
        assert bundle.arrivals.sum(axis=1).max() < model_small.capacities.sum()
        full = Simulator(model_full, bundle).run(GRID)
        small = Simulator(model_small, bundle).run(GRID)
        assert small.total_energy_cost() < full.total_energy_cost()


class TestDeterminism:
    def test_end_to_end_reproducibility(self):
        bundle_a = default_bundle(hours=6, seed=7)
        bundle_b = default_bundle(hours=6, seed=7)
        res_a = Simulator(build_model(bundle_a), bundle_a).run(HYBRID)
        res_b = Simulator(build_model(bundle_b), bundle_b).run(HYBRID)
        np.testing.assert_allclose(res_a.ufc, res_b.ufc, rtol=1e-12)
