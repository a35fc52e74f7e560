"""Tests for the temporal warm-start plane.

Covers the optimizer-level warm ladder (:mod:`repro.optim.warm`), the
``centralized-warm`` engine lane with its incumbent early-exit
(:mod:`repro.engine.warm`), warm chaining through the pipelined
execution clients (warm hints must survive the RPC boundary), the
structured-KKT warm path with its per-iteration factor cache, and the
warm observability surface (summary fields, counters, ledger keys).

The load-bearing invariants:

- warm results match cold results within certificate tolerance across
  randomized perturbation magnitudes, and an adversarial perturbation
  degrades gracefully to the cold rung (never to a wrong answer);
- with ``warm_start`` off, the ``centralized-warm`` lane is
  bit-identical to ``centralized`` (the cold rung *is* ``solve_qp``);
- a warm payload pickled through a process or socket boundary chains
  exactly like the in-process sequential loop.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.compiled import CompiledQPStructure
from repro.core.problem import SlotInputs, UFCProblem
from repro.core.solution import Allocation
from repro.core.strategies import ALL_STRATEGIES, HYBRID
from repro.engine import HorizonEngine, create_solver
from repro.engine.warm import CentralizedWarmSlotSolver
from repro.obs import MetricsRegistry, load_run
from repro.obs.certify import certify_structured_solution
from repro.optim.ipqp import solve_qp
from repro.optim.kkt import (
    StructuredQPCompiler,
    StructuredWarmState,
    solve_structured_qp,
)
from repro.optim.warm import solve_qp_warm
from repro.instances import ScaleSpec, generate_instance


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
    """solve_qp_warm: the three-rung ladder at the optimizer level."""

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

    def test_mismatched_state_shapes_fall_back_cold(self, chain_problems):
        qp = self._qp(chain_problems[0])
        seed = solve_qp_warm(qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h)
        bad = dataclasses.replace(seed.state, x=np.zeros(3))
        ws = solve_qp_warm(qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h, state=bad)
        assert not ws.info.warm_used
        assert ws.info.mechanism == "cold"
        assert ws.info.fallback_reason is not None
        assert ws.result.converged


class TestEngineWarmLane:
    """The centralized-warm lane through the horizon engine."""

    def test_warm_off_is_bit_identical_to_centralized(self, chain_problems):
        cold = HorizonEngine("centralized").run(chain_problems)
        warm_off = HorizonEngine("centralized-warm").run(chain_problems)
        for a, b in zip(cold, warm_off):
            assert (a.result.allocation.lam == b.result.allocation.lam).all()
            assert (a.result.allocation.mu == b.result.allocation.mu).all()
            assert (a.result.allocation.nu == b.result.allocation.nu).all()
            assert a.result.ufc == b.result.ufc
            assert a.result.iterations == b.result.iterations

    def test_warm_chain_certified_and_matches_cold(self, day_chains):
        # Every strategy of the default comparison over the full day,
        # one chain per strategy.
        iters_cold = iters_warm = 0
        for strategy, problems in day_chains.items():
            cold = HorizonEngine("centralized").run(problems)
            engine = HorizonEngine("centralized-warm", certify=True)
            warm = engine.run(problems, warm_start=True)
            assert all(o.ok and o.result.converged for o in warm), strategy
            assert all(
                o.certificate is not None and o.certificate.ok for o in warm
            ), strategy
            for o in warm:
                cert = o.result.extras.get("certificate")
                if cert is not None:
                    assert cert.ok
            for a, b in zip(cold, warm):
                denom = max(1.0, abs(a.result.ufc))
                assert abs(a.result.ufc - b.result.ufc) / denom <= 1e-6
            summary = engine.last_summary
            assert summary.executor == "serial-warm"
            assert summary.warm_started_slots == len(problems) - 1
            assert summary.warm_iterations_saved > 0
            # Only the chain's first slot is solved on the cold rung.
            cold_rung = [
                o for o in warm
                if o.result.extras.get("warm_mechanism", "cold") == "cold"
            ]
            assert len(cold_rung) <= 1, strategy
            iters_cold += sum(o.result.iterations for o in cold)
            iters_warm += sum(o.result.iterations for o in warm)
        # The chains cut the mean interior-point iteration count by at
        # least 30% over re-solving every slot cold.
        assert 1.0 - iters_warm / iters_cold >= 0.30

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
        warm_slots = [s for s in run.slots if s.get("warm_start")]
        assert len(warm_slots) == len(chain_problems) - 1
        assert all("warm_mechanism" in s for s in warm_slots)


class TestIncumbentEarlyExit:
    """Tiny perturbations re-certify the incumbent instead of solving."""

    def _creep_problems(self, base, scales):
        rng = np.random.default_rng(41)
        out = [base]
        for scale in scales:
            out.append(_perturbed(base, scale, rng))
        return out

    def test_incumbent_reuse_on_tiny_drift(self, chain_problems):
        base = chain_problems[0]
        problems = self._creep_problems(base, [1e-8, 1e-8, 1e-8])
        solver = create_solver("centralized-warm", incumbent_tol=1e-6)
        engine = HorizonEngine(solver, certify=True)
        outcomes = engine.run(problems, warm_start=True)
        assert all(o.ok for o in outcomes)
        reused = [o for o in outcomes if o.result.extras.get("incumbent_reuse")]
        assert len(reused) == len(problems) - 1
        for o in reused:
            assert o.result.iterations == 0
            assert o.result.extras["certificate"].ok
        assert engine.last_summary.incumbent_reuse_slots == len(problems) - 1

    def test_drift_creep_forces_resolve(self, chain_problems):
        # The drift reference is pinned to the incumbent's own inputs,
        # so consecutive nudges accumulate: a final slot past the
        # threshold must re-solve even though each step is small.
        base = chain_problems[0]
        problems = self._creep_problems(base, [1e-9, 1e-3])
        solver = create_solver("centralized-warm", incumbent_tol=1e-6)
        outcomes = HorizonEngine(solver).run(problems, warm_start=True)
        assert outcomes[1].result.extras.get("incumbent_reuse")
        assert not outcomes[2].result.extras.get("incumbent_reuse")
        assert outcomes[2].result.iterations > 0

    def test_failed_certificate_falls_through_to_solve(self, chain_problems):
        base = chain_problems[0]
        solver = CentralizedWarmSlotSolver(incumbent_tol=1e-6)
        first = solver.solve(base)
        payload = first.warm
        good = payload.allocation
        corrupted = dataclasses.replace(
            payload,
            allocation=Allocation(
                lam=good.lam * 1.5, mu=good.mu * 1.5, nu=good.nu * 1.5
            ),
        )
        res = solver.solve(base, warm=corrupted)
        assert not res.extras.get("incumbent_reuse")
        assert res.converged
        denom = max(1.0, abs(first.ufc))
        assert abs(res.ufc - first.ufc) / denom <= 1e-6

    def test_incumbent_disabled_by_default(self, chain_problems):
        base = chain_problems[0]
        outcomes = HorizonEngine("centralized-warm").run(
            [base, base], warm_start=True
        )
        assert not outcomes[1].result.extras.get("incumbent_reuse")
        assert outcomes[1].result.extras.get("warm_mechanism") == "active-set"


class TestWarmThroughClients:
    """Warm hints must survive the RPC boundary of the exec clients."""

    @pytest.mark.parametrize("spec", ["mp", "socket"])
    def test_warm_chain_through_client(self, chain_problems, spec):
        problems = chain_problems[:4]
        serial_engine = HorizonEngine("centralized-warm")
        serial = serial_engine.run(problems, warm_start=True)

        engine = HorizonEngine("centralized-warm", client=spec)
        outcomes = engine.run(problems, warm_start=True)
        assert all(o.ok for o in outcomes)
        summary = engine.last_summary
        assert summary.executor == f"{spec}-warm"
        assert summary.decision == f"client:{spec}:warm-chain"
        assert summary.warm_started_slots == len(problems) - 1
        # The chained payloads crossed the boundary intact: every slot
        # after the chain start solved warm, with the same mechanisms
        # and arithmetic as the in-process chain.
        for a, b in zip(serial, outcomes):
            assert b.telemetry.warm_start == a.telemetry.warm_start
            assert (
                b.result.extras.get("warm_mechanism")
                == a.result.extras.get("warm_mechanism")
            )
            assert b.result.iterations == a.result.iterations
            assert (a.result.allocation.lam == b.result.allocation.lam).all()
            assert a.result.ufc == b.result.ufc

    def test_synchronous_client_chain_compiles_once(self, chain_problems):
        serial = HorizonEngine("centralized-warm").run(
            chain_problems, warm_start=True
        )
        engine = HorizonEngine("centralized-warm", client="in-process")
        outcomes = engine.run(chain_problems, warm_start=True)
        summary = engine.last_summary
        assert summary.executor == "in-process-warm"
        assert summary.cache_misses == 1
        for a, b in zip(serial, outcomes):
            assert (a.result.allocation.lam == b.result.allocation.lam).all()
            assert (a.result.allocation.mu == b.result.allocation.mu).all()
            assert (a.result.allocation.nu == b.result.allocation.nu).all()
            assert a.result.ufc == b.result.ufc

    def test_store_rejects_warm_chain(self, chain_problems, tmp_path):
        engine = HorizonEngine(
            "centralized-warm", store=tmp_path / "results.jsonl"
        )
        with pytest.raises(ValueError, match="store"):
            engine.run(chain_problems[:2], warm_start=True)


class TestStructuredWarm:
    """Warm iterates + factor cache on the structured-KKT path."""

    @pytest.fixture(scope="class")
    def inst(self):
        return generate_instance(
            ScaleSpec(
                num_datacenters=6, num_frontends=20, hours=2, fan_in=3, seed=11
            )
        )

    def _sqp_pair(self, inst, scale=1e-4):
        sc = StructuredQPCompiler(inst.model, HYBRID, reach=inst.reach)
        inputs = inst.inputs(0)
        rng = np.random.default_rng(5)
        perturbed = dataclasses.replace(
            inputs,
            arrivals=np.abs(
                inputs.arrivals
                * (1.0 + scale * rng.standard_normal(inputs.arrivals.shape))
            ),
        )
        return sc.structured_qp_for(inputs), sc.structured_qp_for(perturbed), perturbed

    def test_structured_warm_matches_cold_and_saves_iterations(self, inst):
        sqp, sqp_p, perturbed = self._sqp_pair(inst)
        seed_cache: dict = {}
        seed = solve_structured_qp(sqp, tol=1e-8, factor_cache=seed_cache)
        cold_cache: dict = {}
        cold = solve_structured_qp(sqp_p, tol=1e-8, factor_cache=cold_cache)
        seed_cache["built"] = 0
        seed_cache["reused"] = 0
        warm = solve_structured_qp(
            sqp_p,
            tol=1e-8,
            initial=StructuredWarmState(
                x=seed.x,
                y=seed.eq_dual,
                s=sqp.ineq_slack(seed.x),
                z=seed.ineq_dual,
            ),
            factor_cache=seed_cache,
        )
        assert warm.converged
        assert warm.warm_used
        assert warm.iterations < cold.iterations
        # The warm path builds fewer KKT factors than the cold re-solve.
        assert seed_cache["built"] < cold_cache["built"]
        problem = UFCProblem(inst.model, perturbed, strategy=HYBRID)
        ufc_c = problem.ufc(sqp_p.extract(cold.x))
        ufc_w = problem.ufc(sqp_p.extract(warm.x))
        assert abs(ufc_w - ufc_c) / max(1.0, abs(ufc_c)) <= 1e-6
        cert = certify_structured_solution(
            sqp_p,
            problem,
            sqp_p.extract(warm.x),
            x=warm.x,
            duals=(warm.eq_dual, warm.ineq_dual),
            solver="structured-warm",
        )
        assert cert.ok

    def test_trajectory_matched_resolve_reuses_factors(self, inst):
        # A cold re-solve of the perturbed slot walks nearly the seed
        # solve's barrier path, so the seed's per-iteration factors
        # pass the drift gate and are reused rather than rebuilt.
        sqp, sqp_p, _ = self._sqp_pair(inst)
        seed_cache: dict = {}
        solve_structured_qp(sqp, tol=1e-8, factor_cache=seed_cache)
        cache = {"factors": dict(seed_cache["factors"])}
        res = solve_structured_qp(sqp_p, tol=1e-8, factor_cache=cache)
        assert res.converged
        assert cache.get("reused", 0) > 0

    def test_fresh_factor_cache_is_bit_identical(self, inst):
        # A fresh cache on a cold solve only records factors; it can
        # never be hit, so the trajectory must not move at all.
        sqp, _, _ = self._sqp_pair(inst)
        plain = solve_structured_qp(sqp, tol=1e-8)
        cache: dict = {}
        cached = solve_structured_qp(sqp, tol=1e-8, factor_cache=cache)
        assert cached.iterations == plain.iterations
        assert (cached.x == plain.x).all()
        assert cache.get("built", 0) > 0
        assert cache.get("reused", 0) == 0

    def test_adversarial_structured_warm_falls_back(self, inst):
        sqp, sqp_p, _ = self._sqp_pair(inst)
        seed = solve_structured_qp(sqp, tol=1e-8)
        n = len(seed.x)
        garbage = StructuredWarmState(
            x=seed.x + 1e6,
            y=seed.eq_dual,
            s=np.full_like(sqp.ineq_slack(seed.x), 1e6),
            z=seed.ineq_dual + 1e6,
        )
        cold = solve_structured_qp(sqp_p, tol=1e-8)
        warm = solve_structured_qp(sqp_p, tol=1e-8, initial=garbage)
        assert not warm.warm_used
        assert warm.converged
        assert warm.iterations == cold.iterations
        assert (warm.x == cold.x).all()
        assert n == len(warm.x)


class TestDistributedWarm:
    """ADM-G multiplier/allocation warm starts across the chain."""

    def test_admg_warm_reduces_outer_iterations(self, small_bundle, small_model):
        problems = _problems(small_bundle, small_model, hours=4)
        cold = HorizonEngine("distributed").run(problems)
        warm = HorizonEngine("distributed").run(problems, warm_start=True)
        assert all(o.ok for o in warm)
        iters_cold = sum(o.result.iterations for o in cold)
        iters_warm = sum(o.result.iterations for o in warm)
        assert iters_warm < iters_cold
        for a, b in zip(cold, warm):
            denom = max(1.0, abs(a.result.ufc))
            assert abs(a.result.ufc - b.result.ufc) / denom <= 1e-4
