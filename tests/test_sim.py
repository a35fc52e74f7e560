"""Tests for the simulator and metric modules (repro.sim)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.admg.solver import DistributedUFCSolver
from repro.core.centralized import CentralizedSolver
from repro.core.strategies import FUEL_CELL, GRID, HYBRID
from repro.engine import HorizonEngine
from repro.sim.metrics import (
    average_improvement,
    improvement_series,
    iteration_cdf,
)
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulator, build_model
from repro.traces.datasets import default_bundle


class TestImprovementSeries:
    def test_basic_relative_gain(self):
        a = np.array([-50.0, -100.0])
        b = np.array([-100.0, -100.0])
        np.testing.assert_allclose(improvement_series(a, b), [0.5, 0.0])

    def test_negative_improvement(self):
        a = np.array([-150.0])
        b = np.array([-100.0])
        np.testing.assert_allclose(improvement_series(a, b), [-0.5])

    def test_zero_baseline_handled(self):
        out = improvement_series(np.array([1.0]), np.array([0.0]))
        np.testing.assert_allclose(out, [0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            improvement_series(np.ones(2), np.ones(3))

    def test_average(self):
        a = np.array([-50.0, -100.0])
        b = np.array([-100.0, -200.0])
        assert average_improvement(a, b) == pytest.approx(0.5)


class TestIterationCDF:
    def test_simple_cdf(self):
        counts, fractions = iteration_cdf(np.array([10, 20, 20, 40]))
        np.testing.assert_array_equal(counts, [10, 20, 40])
        np.testing.assert_allclose(fractions, [0.25, 0.75, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            iteration_cdf(np.array([]))


class TestBuildModel:
    def test_matches_bundle_geometry(self, small_bundle, small_model):
        assert small_model.num_datacenters == small_bundle.num_datacenters
        assert small_model.num_frontends == small_bundle.num_frontends
        np.testing.assert_allclose(small_model.capacities, small_bundle.capacities)
        assert small_model.fuel_cell_price == 80.0

    def test_fuel_cells_sized_to_peak(self, small_model):
        for dc in small_model.datacenters:
            assert dc.mu_max_mw == pytest.approx(dc.power.peak_demand_mw(dc.servers))


class TestSimulator:
    def test_dimension_validation(self, small_bundle):
        other = default_bundle(hours=6, seed=1)
        model = build_model(other)
        sim = Simulator(model, other)  # fine
        assert sim is not None

    def test_run_produces_full_series(self, small_model, small_bundle):
        result = Simulator(small_model, small_bundle).run(HYBRID, hours=6)
        assert isinstance(result, SimulationResult)
        assert result.hours == 6
        for arr in (
            result.ufc, result.energy_cost, result.carbon_cost,
            result.carbon_kg, result.avg_latency_ms, result.utilization,
        ):
            assert arr.shape == (6,)
            assert np.isfinite(arr).all()
        assert result.converged.all()

    def test_metrics_internally_consistent(self, small_model, small_bundle):
        result = Simulator(small_model, small_bundle).run(HYBRID, hours=6)
        np.testing.assert_allclose(
            result.ufc,
            result.utility - result.carbon_cost - result.energy_cost,
            rtol=1e-9,
        )

    def test_grid_strategy_never_uses_fuel_cells(self, small_model, small_bundle):
        result = Simulator(small_model, small_bundle).run(GRID, hours=6)
        np.testing.assert_allclose(result.utilization, 0.0, atol=1e-9)

    def test_fuel_cell_strategy_has_zero_carbon(self, small_model, small_bundle):
        result = Simulator(small_model, small_bundle).run(FUEL_CELL, hours=6)
        np.testing.assert_allclose(result.carbon_kg, 0.0, atol=1e-6)
        np.testing.assert_allclose(result.carbon_cost, 0.0, atol=1e-8)

    def test_compare_strategies(self, small_model, small_bundle):
        comp = Simulator(small_model, small_bundle).compare_strategies(hours=4)
        assert comp.grid.strategy == "Grid"
        assert comp.fuel_cell.strategy == "Fuel cell"
        assert comp.hybrid.strategy == "Hybrid"
        names = comp.by_name()
        assert set(names) == {"Grid", "Fuel cell", "Hybrid"}

    def test_distributed_solver_records_iterations(self, small_model, small_bundle):
        sim = Simulator(
            small_model,
            small_bundle,
            HorizonEngine(DistributedUFCSolver(rho=0.3, tol=6e-3)),
        )
        result = sim.run(HYBRID, hours=3)
        assert (result.iterations > 10).all()
        assert result.converged.all()

    def test_solver_objects_accepted(self, small_model, small_bundle):
        sim = Simulator(
            small_model, small_bundle, HorizonEngine(CentralizedSolver())
        )
        result = sim.run(GRID, hours=2)
        assert result.hours == 2

    def test_summary_text(self, small_model, small_bundle):
        result = Simulator(small_model, small_bundle).run(HYBRID, hours=3)
        text = result.summary()
        assert "Hybrid" in text
        assert "energy cost" in text
        assert "utilization" in text

    def test_warm_start_mode_runs(self, small_model, small_bundle):
        sim = Simulator(
            small_model, small_bundle, HorizonEngine("centralized-warm")
        )
        result = sim.run(HYBRID, hours=3)
        assert result.converged.all()
        # The walked later slots take fewer steps than the cold anchor.
        assert result.iterations[1:].max() < result.iterations[0]
        assert result.horizon_summary.warm_started_slots == 2

    def test_mismatched_model_bundle_rejected(self, small_bundle, tiny_model):
        with pytest.raises(ValueError):
            Simulator(tiny_model, small_bundle)
