"""Tests for the multislot optimizer, lossy network, and trace I/O."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strategies import GRID, HYBRID
from repro.distributed import DistributedRuntime, LossyNetwork
from repro.extensions.multislot import solve_multislot
from repro.extensions.ramping import RampingSimulator
from repro.sim.simulator import Simulator
from repro.traces.io import bundle_from_arrays, load_bundle, save_bundle


class TestMultiSlot:
    HOURS = 6
    RAMP = 0.5

    def test_validation(self, small_model, small_bundle):
        with pytest.raises(ValueError):
            solve_multislot(small_model, small_bundle, 0.5, hours=0)
        with pytest.raises(ValueError):
            solve_multislot(small_model, small_bundle, 0.5, hours=999)
        with pytest.raises(ValueError):
            solve_multislot(small_model, small_bundle, -0.5, hours=2)
        with pytest.raises(ValueError):
            solve_multislot(
                small_model, small_bundle, 0.5, hours=2, strategy=GRID
            )

    def test_joint_plan_is_ramp_feasible(self, small_model, small_bundle):
        res = solve_multislot(
            small_model, small_bundle, self.RAMP, hours=self.HOURS
        )
        assert res.converged
        mus = np.array([a.mu for a in res.allocations])
        assert (np.diff(mus, axis=0) <= self.RAMP + 1e-6).all()
        assert (mus[0] <= self.RAMP + 1e-6).all()
        for t, alloc in enumerate(res.allocations):
            problem = Simulator(small_model, small_bundle).problem_for_slot(
                t, HYBRID
            )
            assert problem.check_feasibility(alloc, tol=1e-4).ok, t

    def test_dominates_greedy(self, small_model, small_bundle):
        exact = solve_multislot(
            small_model, small_bundle, self.RAMP, hours=self.HOURS
        )
        greedy = RampingSimulator(
            small_model, small_bundle, ramp_mw_per_hour=self.RAMP
        ).run(HYBRID, hours=self.HOURS)
        assert exact.total_ufc >= greedy.result.ufc.sum() - 1e-6 * abs(
            exact.total_ufc
        )

    def test_infinite_ramp_matches_independent_slots(
        self, small_model, small_bundle
    ):
        exact = solve_multislot(
            small_model, small_bundle, np.inf, hours=4
        )
        independent = Simulator(small_model, small_bundle).run(HYBRID, hours=4)
        np.testing.assert_allclose(exact.ufc, independent.ufc, rtol=1e-4)

    def test_initial_output_respected(self, small_model, small_bundle):
        warm = small_model.mu_max / 2
        res = solve_multislot(
            small_model, small_bundle, 0.1, hours=3, initial_mu_mw=warm
        )
        assert (res.allocations[0].mu <= warm + 0.1 + 1e-6).all()


class TestLossyNetwork:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossyNetwork(loss_probability=1.0)
        with pytest.raises(ValueError):
            LossyNetwork(duplicate_probability=-0.1)

    def test_lossless_mode_matches_base(self, small_model, small_bundle):
        from repro.admg.solver import DistributedUFCSolver

        problem = Simulator(small_model, small_bundle).problem_for_slot(1, HYBRID)
        solver = DistributedUFCSolver(rho=0.3, tol=6e-3)
        net = LossyNetwork(loss_probability=0.0, duplicate_probability=0.0)
        run = DistributedRuntime(problem, solver, network=net).run()
        clean = DistributedRuntime(problem, solver).run()
        assert run.messages_sent == clean.messages_sent
        assert net.dropped_attempts == 0

    def test_loss_and_duplication_do_not_change_result(
        self, small_model, small_bundle
    ):
        from repro.admg.solver import DistributedUFCSolver

        problem = Simulator(small_model, small_bundle).problem_for_slot(1, HYBRID)
        solver = DistributedUFCSolver(rho=0.3, tol=6e-3)
        clean = DistributedRuntime(problem, solver).run()
        net = LossyNetwork(
            loss_probability=0.25, duplicate_probability=0.1, seed=3
        )
        lossy = DistributedRuntime(problem, solver, network=net).run()
        assert lossy.iterations == clean.iterations
        np.testing.assert_allclose(
            lossy.allocation.lam, clean.allocation.lam, atol=1e-10
        )
        # Retransmissions inflate the traffic bill, roughly by
        # p/(1-p) + dup for independent drops.
        assert net.dropped_attempts > 0
        assert net.duplicates_delivered > 0
        assert lossy.messages_sent > clean.messages_sent

    def test_expected_overhead_scale(self):
        net = LossyNetwork(loss_probability=0.5, seed=0)
        from repro.distributed.messages import RoutingAssignment

        for k in range(2000):
            net.send(RoutingAssignment(sender="a", receiver="b", a=1.0))
        # With p = 0.5 the expected attempts per message is 2.
        assert 1.7 < net.messages_sent / 2000 < 2.3

    def test_exactly_once_accounting(self):
        """A scripted RNG pins the bill: d drops + landing + duplicate."""
        from repro.distributed.messages import RoutingProposal

        class ScriptedRNG:
            def __init__(self, draws):
                self._draws = iter(draws)

            def random(self):
                return next(self._draws)

        net = LossyNetwork(loss_probability=0.5, duplicate_probability=0.5)
        # Draws: drop, drop, drop, land; then duplicate.
        net._rng = ScriptedRNG([0.4, 0.4, 0.4, 0.9, 0.1])
        msg = RoutingProposal(sender="fe0", receiver="dc0", lam=1.0, varphi=2.0)
        net.send(msg)
        # 3 dropped attempts + 1 landing + 1 duplicate = 5 billed sends.
        assert net.messages_sent == 5
        assert net.dropped_attempts == 3
        assert net.duplicates_delivered == 1
        assert net.floats_sent == 5 * msg.payload_floats()
        assert net.bytes_sent == 8 * net.floats_sent
        # Exactly one logical message (plus its duplicate) was delivered.
        assert len(net.deliver("dc0")) == 2


class TestTraceIO:
    def test_npz_round_trip(self, tmp_path, small_bundle):
        path = save_bundle(small_bundle, tmp_path / "bundle.npz")
        loaded = load_bundle(path)
        assert loaded.regions == small_bundle.regions
        assert loaded.frontends == small_bundle.frontends
        np.testing.assert_array_equal(loaded.arrivals, small_bundle.arrivals)
        np.testing.assert_array_equal(loaded.prices, small_bundle.prices)
        np.testing.assert_array_equal(
            loaded.carbon_rates, small_bundle.carbon_rates
        )
        np.testing.assert_array_equal(loaded.latency_ms, small_bundle.latency_ms)
        assert loaded.seed == small_bundle.seed

    def test_loaded_bundle_is_simulatable(self, tmp_path, small_bundle, small_model):
        path = save_bundle(small_bundle, tmp_path / "bundle.npz")
        loaded = load_bundle(path)
        result = Simulator(small_model, loaded).run(HYBRID, hours=2)
        reference = Simulator(small_model, small_bundle).run(HYBRID, hours=2)
        np.testing.assert_allclose(result.ufc, reference.ufc, rtol=1e-12)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(tmp_path / "nope.npz")

    def test_bundle_from_arrays_derives_latency(self):
        t, m, n = 5, 2, 2
        bundle = bundle_from_arrays(
            regions=("dallas", "san_jose"),
            frontends=("new_york", "chicago"),
            arrivals=np.full((t, m), 10.0),
            prices=np.full((t, n), 40.0),
            carbon_rates=np.full((t, n), 500.0),
            capacities=np.array([100.0, 100.0]),
        )
        assert bundle.latency_ms.shape == (m, n)
        # NY->Dallas ~ 2200 km -> ~44 ms at 0.02 ms/km.
        assert 30 < bundle.latency_ms[0, 0] < 60

    def test_bundle_from_arrays_unknown_city(self):
        with pytest.raises(KeyError):
            bundle_from_arrays(
                regions=("atlantis",),
                frontends=("new_york",),
                arrivals=np.ones((2, 1)),
                prices=np.ones((2, 1)),
                carbon_rates=np.ones((2, 1)),
                capacities=np.ones(1),
            )

    def test_bundle_from_arrays_shape_validation(self):
        with pytest.raises(ValueError):
            bundle_from_arrays(
                regions=("dallas",),
                frontends=("new_york",),
                arrivals=np.ones((2, 1)),
                prices=np.ones((3, 1)),  # wrong T
                carbon_rates=np.ones((2, 1)),
                capacities=np.ones(1),
            )
