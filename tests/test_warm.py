"""Tests for the temporal warm-start plane.

Covers the optimizer-level active-set homotopy (:mod:`repro.optim.warm`),
the ``centralized-warm`` engine lane (the anchor-and-walk lane of
:mod:`repro.engine.batch` under its warm name) through pools, clients
and a result store, ADM-G's own warm start, and the warm
observability surface (summary fields, counters, ledger keys).

The load-bearing invariants:

- warm results match cold results within certificate tolerance across
  randomized perturbation magnitudes, and an adversarial perturbation
  degrades gracefully to the cold rung (never to a wrong answer);
- the homotopy pivots through the bang-bang fuel-cell/grid split that
  a singular Hessian leaves, instead of falling back cold;
- on the per-slot path (``batch=False``) the ``centralized-warm`` lane
  is bit-identical to ``centralized``;
- every chunk of a pooled, client-driven or store-thinned run walks
  from its own anchors, and certifies within 1e-6 of the dense lane.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.admg.solver import DistributedUFCSolver
from repro.core.compiled import CompiledQPStructure
from repro.core.problem import SlotInputs, UFCProblem
from repro.core.strategies import ALL_STRATEGIES, FUEL_CELL, GRID, HYBRID
from repro.engine import HorizonEngine
from repro.obs import MetricsRegistry, load_run
from repro.obs.certify import certify_solution
from repro.optim.ipqp import solve_qp
from repro.optim.warm import cold_state, solve_qp_warm
from repro.sim.simulator import build_model
from repro.traces.datasets import default_bundle


def _problems(bundle, model, hours, strategy=HYBRID):
    out = []
    for t in range(hours):
        slot = bundle.slot(t)
        inputs = SlotInputs(
            arrivals=slot["arrivals"],
            prices=slot["prices"],
            carbon_rates=slot["carbon_rates"],
        )
        out.append(UFCProblem(model, inputs, strategy=strategy))
    return out


def _perturbed(problem, scale, rng):
    """The same slot with arrivals nudged by a relative ``scale``."""
    inputs = problem.inputs
    arrivals = inputs.arrivals * (
        1.0 + scale * rng.standard_normal(inputs.arrivals.shape)
    )
    return UFCProblem(
        problem.model,
        dataclasses.replace(inputs, arrivals=np.abs(arrivals)),
        strategy=problem.strategy,
    )


@pytest.fixture(scope="module")
def chain_problems(small_bundle, small_model):
    return _problems(small_bundle, small_model, hours=6)


@pytest.fixture(scope="module")
def day_chains(small_bundle, small_model):
    """One 24-slot problem chain per strategy of the default comparison."""
    return {
        strategy.name: _problems(small_bundle, small_model, 24, strategy)
        for strategy in ALL_STRATEGIES
    }


class TestWarmLadder:
    """solve_qp_warm: the homotopy and its cold rung at the optimizer level."""

    def _qp(self, problem):
        return CompiledQPStructure(problem.model, problem.strategy).qp_for(
            problem.inputs
        )

    def test_cold_first_slot_is_solve_qp(self, chain_problems):
        # state=None must be arithmetic-identical to the plain cold
        # solver — this is what makes warm=off a pure rename.
        qp = self._qp(chain_problems[0])
        cold = solve_qp(qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h, tol=1e-9)
        ws = solve_qp_warm(qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h, state=None)
        assert not ws.info.warm_used
        assert ws.info.mechanism == "cold"
        assert ws.state is not None  # scaling harvest for the next slot
        assert (ws.result.x == cold.x).all()
        assert ws.result.iterations == cold.iterations

    def test_active_set_rung_on_identical_resolve(self, chain_problems):
        # Zero drift: the previous active set verifies in one KKT
        # solve, far under a full interior-point iteration count.
        qp = self._qp(chain_problems[0])
        seed = solve_qp_warm(qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h)
        ws = solve_qp_warm(
            qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h, state=seed.state
        )
        assert ws.info.warm_used
        assert ws.info.mechanism == "active-set"
        assert ws.result.converged
        assert ws.result.iterations <= 2
        assert ws.result.iterations < seed.result.iterations
        rel = abs(ws.result.value - seed.result.value) / max(
            1.0, abs(seed.result.value)
        )
        assert rel <= 1e-7

    @pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e-3, 1e-2])
    def test_warm_matches_cold_across_perturbations(self, chain_problems, scale):
        rng = np.random.default_rng(int(scale * 1e8) + 7)
        base = chain_problems[1]
        seed_qp = self._qp(base)
        seed = solve_qp_warm(
            seed_qp.P, seed_qp.q, A=seed_qp.A, b=seed_qp.b, G=seed_qp.G, h=seed_qp.h
        )
        perturbed = _perturbed(base, scale, rng)
        qp = self._qp(perturbed)
        cold = solve_qp(qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h, tol=1e-9)
        ws = solve_qp_warm(
            qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h, state=seed.state
        )
        assert ws.result.converged
        # Whatever rung answered, the solution must be certifiable
        # against the cold reference.
        rel = abs(ws.result.value - cold.value) / max(1.0, abs(cold.value))
        assert rel <= 1e-6
        ufc_cold = perturbed.ufc(qp.extract(cold.x))
        ufc_warm = perturbed.ufc(qp.extract(ws.result.x))
        assert abs(ufc_warm - ufc_cold) / max(1.0, abs(ufc_cold)) <= 1e-6

    def test_adversarial_perturbation_falls_back_cold(self, chain_problems):
        # A perturbation large enough to invalidate the warm point must
        # land on the cold rung, not a degraded warm answer.
        rng = np.random.default_rng(99)
        base = chain_problems[2]
        seed_qp = self._qp(base)
        seed = solve_qp_warm(
            seed_qp.P, seed_qp.q, A=seed_qp.A, b=seed_qp.b, G=seed_qp.G, h=seed_qp.h
        )
        # Redistribute the load drastically (keep the total fixed so
        # the problem stays feasible): the active set and iterates
        # from the seed are useless here.
        inputs = base.inputs
        weights = rng.uniform(0.05, 1.0, size=inputs.arrivals.shape)
        arrivals = weights * inputs.arrivals
        arrivals *= inputs.arrivals.sum() / arrivals.sum()
        prices = inputs.prices[::-1].copy()
        adversarial = UFCProblem(
            base.model,
            dataclasses.replace(inputs, arrivals=arrivals, prices=prices),
            strategy=base.strategy,
        )
        qp = self._qp(adversarial)
        ws = solve_qp_warm(
            qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h, state=seed.state
        )
        assert ws.result.converged
        if not ws.info.warm_used:
            assert ws.info.mechanism == "cold"
            assert ws.info.fallback_reason is not None
        cold = solve_qp(qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h, tol=1e-9)
        rel = abs(ws.result.value - cold.value) / max(1.0, abs(cold.value))
        assert rel <= 1e-6

    def test_active_set_guess_ignores_last_bit_changes(self, chain_problems):
        # A row whose carried dual and slack are equal (a degenerate
        # row, both near zero) must not switch between the bound and
        # the free set when either moves by one ulp: the rung, its KKT
        # solve count and the result stay the same.
        seed_qp = self._qp(chain_problems[0])
        seed = solve_qp_warm(seed_qp.P, seed_qp.q, A=seed_qp.A, b=seed_qp.b,
                             G=seed_qp.G, h=seed_qp.h)
        qp = self._qp(chain_problems[1])
        # The nonnegativity rows of routes the previous slot left empty.
        rows = np.flatnonzero((seed.state.slack < 1e-9) & (seed.state.ineq_dual > 1e-6))
        assert rows.size
        runs = []
        for bump in ("none", "dual", "slack"):
            z, slack = seed.state.ineq_dual.copy(), seed.state.slack.copy()
            z[rows] = slack[rows] = 1e-12
            if bump == "dual":
                z[rows] = np.nextafter(z[rows], np.inf)
            elif bump == "slack":
                slack[rows] = np.nextafter(slack[rows], np.inf)
            state = dataclasses.replace(seed.state, ineq_dual=z, slack=slack)
            runs.append(solve_qp_warm(qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h,
                                      state=state))
        first = runs[0]
        assert first.info.mechanism == "active-set"
        for ws in runs[1:]:
            assert ws.info.mechanism == first.info.mechanism
            assert ws.result.iterations == first.result.iterations
            assert (ws.result.x == first.result.x).all()

    def test_mismatched_state_shapes_fall_back_cold(self, chain_problems):
        qp = self._qp(chain_problems[0])
        seed = solve_qp_warm(qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h)
        bad = dataclasses.replace(seed.state, x=np.zeros(3))
        ws = solve_qp_warm(qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h, state=bad)
        assert not ws.info.warm_used
        assert ws.info.mechanism == "cold"
        assert ws.info.fallback_reason is not None
        assert ws.result.converged


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


class TestHomotopy:
    """The walk pivots where guess-and-refine could not: through the
    singular directions of the paper's Hessian."""

    def _solve_pair(self, compiled, before, after):
        seed_qp = compiled.qp_for(before)
        seed = solve_qp_warm(seed_qp.P, seed_qp.q, A=seed_qp.A, b=seed_qp.b,
                             G=seed_qp.G, h=seed_qp.h)
        qp = compiled.qp_for(after)
        ws = solve_qp_warm(qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h,
                           state=seed.state)
        cold = solve_qp(qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h)
        return qp, ws, cold

    def test_grid_price_crossing_fuel_cell_price(self):
        # Between t-1 and t every grid price moves from below the fuel
        # cell price to above it, so each datacenter's power flips from
        # grid to fuel cell: with linear power costs the split has zero
        # curvature, and the homotopy must drop a bound along it.
        bundle = default_bundle(hours=168, seed=2014)
        model = build_model(bundle)
        t = 100
        slots = [bundle.slot(t - 1), bundle.slot(t)]
        before, after = (
            SlotInputs(arrivals=slot["arrivals"],
                       prices=np.full_like(slot["prices"], model.fuel_cell_price * factor),
                       carbon_rates=slot["carbon_rates"])
            for slot, factor in zip(slots, (0.8, 1.25))
        )
        compiled = CompiledQPStructure(model, HYBRID)
        qp, ws, cold = self._solve_pair(compiled, before, after)
        assert ws.info.mechanism == "active-set", ws.info.fallback_reason
        problem = UFCProblem(model, after, strategy=HYBRID)
        allocation = qp.extract(ws.result.x)
        assert _rel(problem.ufc(allocation), problem.ufc(qp.extract(cold.x))) <= 1e-6
        cert = certify_solution(problem, allocation, qp=qp,
                                duals=(ws.result.eq_dual, ws.result.ineq_dual))
        assert cert.ok

    def test_two_source_split_with_zero_hessian(self):
        # Variables (w, mu, nu): demand 1 + w/2 is met by mu (capped at
        # 1.2) and nu; only w has curvature.  Swapping the two sources'
        # prices moves the optimum along the flat mu/nu direction.
        P = np.diag([1.0, 0.0, 0.0])
        A, b = np.array([[-0.5, 1.0, 1.0]]), np.array([1.0])
        G = np.array([[-1.0, 0, 0], [0, -1.0, 0], [0, 1.0, 0], [0, 0, -1.0]])
        h = np.array([0.0, 0.0, 1.2, 0.0])
        seed = solve_qp_warm(P, np.array([-1.0, 2.0, 1.0]), A=A, b=b, G=G, h=h)
        q = np.array([-1.0, 1.0, 2.0])
        ws = solve_qp_warm(P, q, A=A, b=b, G=G, h=h, state=seed.state)
        cold = solve_qp(P, q, A=A, b=b, G=G, h=h)
        assert ws.info.mechanism == "active-set", ws.info.fallback_reason
        np.testing.assert_allclose(ws.result.x, cold.x, atol=1e-7)
        np.testing.assert_allclose(ws.result.x[1:], [1.2, 1.0 + cold.x[0] / 2 - 1.2],
                                   atol=1e-7)


class TestInteriorPointStart:
    """A walk from an interior-point answer: independent rows, and a way
    off a flat face of optima."""

    @staticmethod
    def _pair(seed, strategy, t):
        bundle = default_bundle(hours=168, seed=seed)
        model = build_model(bundle)
        return _problems(bundle, model, t + 2, strategy)[t:]

    def test_seed_state_drops_a_dependent_row_and_stays_kkt(self):
        # Slot 0 of the seed-10 week under Fuel cell: the cold answer
        # splits a datacenter's multiplier between its capacity row and
        # its fuel-cell cap, which are one constraint once the power
        # balance holds.
        problem, _ = self._pair(10, FUEL_CELL, 0)
        compiled = CompiledQPStructure(problem.model, FUEL_CELL)
        qp = compiled.qp_for(problem.inputs)
        kernel = compiled.kernel()
        cold = kernel.solve(qp.P, qp.q, qp.b, qp.h)
        state = cold_state(kernel, cold, qp.q, qp.b, qp.h)

        def held(z, slack):
            rows = (z > 0.0) & (z - slack > -1e-9)
            return np.vstack([qp.A, qp.G[rows]])

        raw = held(cold.ineq_dual, state.slack)
        assert np.linalg.matrix_rank(raw) < len(raw)
        seeded = held(state.ineq_dual, state.slack)
        assert np.linalg.matrix_rank(seeded) == len(seeded)
        # The moved multiplier keeps stationarity and stays non-negative.
        assert (state.ineq_dual >= 0.0).all()
        for y, z in ((cold.eq_dual, cold.ineq_dual), (state.eq_dual, state.ineq_dual)):
            stationarity = qp.P @ cold.x + qp.q + qp.A.T @ y + qp.G.T @ z
            assert np.abs(stationarity).max() <= 1e-6 * (1.0 + np.abs(qp.q).max())

    @pytest.mark.parametrize("seed, strategy, t, lane", [
        (10, FUEL_CELL, 0, "centralized-warm"),   # a dependent row
        (10, FUEL_CELL, 72, "centralized-batch"),  # the same, at an anchor
        (9, GRID, 72, "centralized-batch"),       # an anchor on a flat face
    ], ids=["warm-dependent", "anchor-dependent", "anchor-flat"])
    def test_slot_after_interior_point_answer_walks(self, seed, strategy, t, lane):
        problems = self._pair(seed, strategy, t)
        engine = HorizonEngine(lane, certify=True)
        outcomes = engine.run(problems, warm_start=True)
        extras = outcomes[1].result.extras
        assert extras["warm_mechanism"] == "active-set", extras.get("warm_fallback_reason")
        assert all(o.certificate.ok for o in outcomes)
        cold = HorizonEngine("centralized").run(problems)
        assert _rel(outcomes[1].result.ufc, cold[1].result.ufc) <= 1e-6


class TestEngineWarmLane:
    """The centralized-warm lane through the horizon engine."""

    def test_warm_off_is_bit_identical_to_centralized(self, chain_problems):
        cold = HorizonEngine("centralized").run(chain_problems)
        warm_off = HorizonEngine("centralized-warm").run(chain_problems, batch=False)
        for a, b in zip(cold, warm_off):
            assert (a.result.allocation.lam == b.result.allocation.lam).all()
            assert (a.result.allocation.mu == b.result.allocation.mu).all()
            assert (a.result.allocation.nu == b.result.allocation.nu).all()
            assert a.result.ufc == b.result.ufc
            assert a.result.iterations == b.result.iterations

    def test_warm_chain_certified_and_matches_cold(self, day_chains):
        # Every strategy of the default comparison over the full day,
        # one anchor and 23 walked slots per strategy.
        iters_cold = iters_warm = 0
        for strategy, problems in day_chains.items():
            cold = HorizonEngine("centralized").run(problems)
            engine = HorizonEngine("centralized-warm", certify=True)
            warm = engine.run(problems, warm_start=True)
            assert all(o.ok and o.result.converged for o in warm), strategy
            assert all(
                o.certificate is not None and o.certificate.ok for o in warm
            ), strategy
            for a, b in zip(cold, warm):
                assert _rel(a.result.ufc, b.result.ufc) <= 1e-6
            # The day's one anchor is the only slot solved from scratch:
            # every walk is answered by active set, none falls back cold.
            mechanisms = [o.result.extras["warm_mechanism"] for o in warm]
            assert mechanisms == (
                ["batch"] + ["active-set"] * (len(problems) - 1)
            ), strategy
            summary = engine.last_summary
            assert summary.executor == "serial-batch"
            assert summary.warm_started_slots == len(problems) - 1
            iters_cold += sum(o.result.iterations for o in cold)
            iters_warm += sum(o.result.iterations for o in warm)
        # The walks cut the mean iteration count by at least 30% over
        # re-solving every slot cold.
        assert 1.0 - iters_warm / iters_cold >= 0.30

    def test_repeated_slot_answers_by_active_set(self, chain_problems):
        base = chain_problems[0]
        outcomes = HorizonEngine("centralized-warm").run(
            [base, base], warm_start=True
        )
        assert outcomes[1].result.extras.get("warm_mechanism") == "active-set"

    def test_warm_metrics_and_ledger(self, chain_problems, tmp_path):
        reg = MetricsRegistry()
        engine = HorizonEngine(
            "centralized-warm", metrics=reg, ledger=tmp_path
        )
        engine.run(chain_problems, warm_start=True)
        counted = {
            name: value
            for name, labels, value in reg.samples()
            if name == "repro_warm_starts_total"
        }
        assert counted and sum(counted.values()) == len(chain_problems) - 1
        run = load_run(engine.last_ledger_path)
        mechanisms = [s["warm_mechanism"] for s in run.slots]
        assert mechanisms == ["batch"] + ["active-set"] * (len(chain_problems) - 1)
        assert "warm_start" not in run.header["config"]
        assert run.summary["warm_started_slots"] == len(chain_problems) - 1

    def test_pool_chunks_walk_from_their_own_anchors(self, day_chains):
        problems = day_chains["Hybrid"]
        engine = HorizonEngine(
            "centralized-warm", workers=2, oversubscribe=True, certify=True
        )
        outcomes = engine.run(problems, warm_start=True)
        assert engine.last_summary.executor == "pool-batch"
        _assert_certified_near_dense(outcomes, problems)
        # The pool splits the day into ceil(24 / 8) = 3-slot chunks;
        # each chunk's first slot is an anchor and the rest walk.
        mechanisms = [o.result.extras["warm_mechanism"] for o in outcomes]
        assert mechanisms[::3] == ["batch"] * 8
        assert "batch" not in mechanisms[1::3] + mechanisms[2::3]


def _assert_certified_near_dense(outcomes, problems):
    """Every slot certifies and lies within 1e-6 relative UFC of the
    dense ``centralized`` lane."""
    dense = HorizonEngine("centralized").run(problems)
    assert len(outcomes) == len(dense)
    for a, b in zip(dense, outcomes):
        assert b.ok and b.certificate is not None and b.certificate.ok
        assert _rel(a.result.ufc, b.result.ufc) <= 1e-6


class TestWarmThroughClients:
    """The warm lane through execution clients and the result store."""

    @pytest.mark.parametrize("spec", ["mp", "socket"])
    def test_warm_chain_through_client(self, chain_problems, spec):
        problems = chain_problems[:4]
        engine = HorizonEngine("centralized-warm", client=spec, certify=True)
        outcomes = engine.run(problems, warm_start=True)
        summary = engine.last_summary
        assert summary.executor == f"{spec}-batch"
        assert summary.decision == f"client:{spec}"
        _assert_certified_near_dense(outcomes, problems)

    def test_synchronous_client_chain_compiles_once(self, chain_problems):
        serial = HorizonEngine("centralized-warm").run(
            chain_problems, warm_start=True
        )
        engine = HorizonEngine("centralized-warm", client="in-process")
        outcomes = engine.run(chain_problems, warm_start=True)
        summary = engine.last_summary
        assert summary.executor == "in-process-batch"
        assert summary.cache_misses == 1
        for a, b in zip(serial, outcomes):
            assert (a.result.allocation.lam == b.result.allocation.lam).all()
            assert (a.result.allocation.mu == b.result.allocation.mu).all()
            assert (a.result.allocation.nu == b.result.allocation.nu).all()
            assert a.result.ufc == b.result.ufc

    def test_store_thinned_horizon_walks_across_gaps(self, chain_problems, tmp_path):
        # Fill the store with the even slots, then run the whole chain:
        # the odd slots miss, and the misses walk from their own anchor
        # across the stored gaps.
        store = tmp_path / "results"
        HorizonEngine("centralized-warm", store=store).run(
            chain_problems[::2], warm_start=True
        )
        engine = HorizonEngine("centralized-warm", store=store, certify=True)
        outcomes = engine.run(chain_problems, warm_start=True)
        summary = engine.last_summary
        assert (summary.store_hits, summary.store_misses) == (3, 3)
        assert [o.telemetry.store_hit for o in outcomes] == [True, False] * 3
        _assert_certified_near_dense(outcomes, chain_problems)
        mechanisms = [o.result.extras["warm_mechanism"] for o in outcomes[1::2]]
        assert mechanisms == ["batch", "active-set", "active-set"]
        # Store hits are not walks of this run.
        assert summary.warm_started_slots == 2


class TestDistributedWarm:
    """ADM-G's own warm start: ``solve(initial=)`` from the previous
    slot's final state."""

    def test_admg_warm_reduces_outer_iterations(self, small_bundle, small_model):
        problems = _problems(small_bundle, small_model, hours=4)
        solver = DistributedUFCSolver()
        cold = [solver.solve(problem) for problem in problems]
        warm, state = [], None
        for problem in problems:
            warm.append(solver.solve(problem, initial=state))
            state = warm[-1].state
        assert all(res.converged for res in warm)
        assert sum(r.iterations for r in warm) < sum(r.iterations for r in cold)
        for a, b in zip(cold, warm):
            assert _rel(a.ufc, b.ufc) <= 1e-4
