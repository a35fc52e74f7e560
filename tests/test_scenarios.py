"""Tests for the alternative scenario presets (repro.traces.scenarios)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.strategies import HYBRID
from repro.sim.simulator import Simulator, build_model
from repro.traces import fuelmix, geography, prices
from repro.traces.datasets import default_bundle
from repro.traces.scenarios import (
    EUROPE_DATACENTERS,
    EUROPE_FRONTENDS,
    europe_bundle,
    renewable_heavy_bundle,
)


class TestEuropeBundle:
    @pytest.fixture(scope="class")
    def bundle(self):
        return europe_bundle(hours=24)

    def test_geometry(self, bundle):
        assert bundle.regions == EUROPE_DATACENTERS
        assert bundle.frontends == EUROPE_FRONTENDS
        assert bundle.arrivals.shape == (24, 6)
        assert bundle.latency_ms.shape == (6, 4)

    def test_latencies_continental_scale(self, bundle):
        # Intra-European distances: everything within ~3000 km -> 60 ms.
        assert bundle.latency_ms.max() < 70.0
        assert bundle.latency_ms.min() > 1.0

    def test_nordic_grid_is_clean(self, bundle):
        idx = list(bundle.regions).index("stockholm")
        assert bundle.carbon_rates[:, idx].mean() < 80.0

    def test_german_grid_is_dirtier_than_nordic(self, bundle):
        de = list(bundle.regions).index("frankfurt")
        se = list(bundle.regions).index("stockholm")
        assert (
            bundle.carbon_rates[:, de].mean()
            > 3 * bundle.carbon_rates[:, se].mean()
        )

    def test_full_stack_runs(self, bundle):
        model = build_model(bundle)
        comp = Simulator(model, bundle).compare_strategies(hours=4)
        assert np.isfinite(comp.hybrid.ufc).all()
        # Hybrid still dominates in the new geography.
        assert (comp.hybrid.ufc >= comp.grid.ufc - 1e-4).all()

    def test_deterministic(self):
        a = europe_bundle(hours=6, seed=3)
        b = europe_bundle(hours=6, seed=3)
        np.testing.assert_array_equal(a.prices, b.prices)
        np.testing.assert_array_equal(a.carbon_rates, b.carbon_rates)

    def test_does_not_corrupt_default_bundle(self):
        """Registering Europe presets must not change the paper bundle."""
        before = default_bundle(hours=6)
        europe_bundle(hours=6)
        after = default_bundle(hours=6)
        np.testing.assert_array_equal(before.prices, after.prices)
        np.testing.assert_array_equal(before.carbon_rates, after.carbon_rates)

    def test_leaves_the_library_tables_unchanged(self):
        tables = (
            geography.CITY_COORDINATES,
            prices.REGION_PRICE_PRESETS,
            fuelmix.REGION_FUEL_MIXES,
        )
        before = [dict(table) for table in tables]
        europe_bundle(hours=6)
        assert [dict(table) for table in tables] == before

    def test_arrays_match_the_recorded_digest(self):
        # Recorded when the scenario still registered its sites into the
        # library tables; building from its own tables changes no number.
        bundle = europe_bundle(hours=48, seed=7)
        digest = hashlib.sha256()
        for array in (
            bundle.arrivals,
            bundle.prices,
            bundle.carbon_rates,
            bundle.latency_ms,
            bundle.capacities,
        ):
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == (
            "8595f0cf08d0e27ab09485d9de3c7d492ab09fc5507c226feb42a2d562904ca7"
        )


class TestRenewableHeavyBundle:
    def test_same_geometry_lower_carbon(self):
        modern = renewable_heavy_bundle(hours=24)
        legacy = default_bundle(hours=24)
        assert modern.regions == legacy.regions
        np.testing.assert_array_equal(modern.prices, legacy.prices)
        np.testing.assert_array_equal(modern.arrivals, legacy.arrivals)
        # Fleet-average intensity drops by at least a third.
        assert (
            modern.carbon_rates.mean() < 0.66 * legacy.carbon_rates.mean()
        )

    def test_carbon_tax_lever_is_muted(self):
        """With a cleaner grid, the same tax moves utilization less —
        the policy insight the scenario exists to demonstrate."""
        from repro.costs.carbon import LinearCarbonTax

        hours = 24
        tax = LinearCarbonTax(140.0)
        legacy = default_bundle(hours=hours)
        modern = renewable_heavy_bundle(hours=hours)
        util = {}
        for name, bundle in (("legacy", legacy), ("modern", modern)):
            model = build_model(bundle).with_emission_costs(tax)
            result = Simulator(model, bundle).run(HYBRID)
            util[name] = result.mean_utilization()
        assert util["modern"] < util["legacy"]
