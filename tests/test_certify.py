"""Tests for a-posteriori solution certification (repro.obs.certify)."""

from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.admg.solver import DistributedUFCSolver
from repro.cli import main
from repro.core.centralized import CentralizedSolver
from repro.core.strategies import ALL_STRATEGIES, GRID, HYBRID
from repro.costs.carbon import SteppedCarbonTax
from repro.engine import HorizonEngine, create_solver
from repro.obs import MetricsRegistry
from repro.obs.certify import (
    DEFAULT_FEAS_TOL,
    DEFAULT_KKT_TOL,
    Certificate,
    CertificationContext,
    certify_solution,
)
from repro.sim.simulator import Simulator, build_model


@pytest.fixture()
def slot_problem(small_model, small_bundle):
    sim = Simulator(small_model, small_bundle)
    return sim.problem_for_slot(0, HYBRID)


class TestCertifySolution:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
    def test_centralized_optimum_passes(self, small_model, small_bundle, strategy):
        sim = Simulator(small_model, small_bundle)
        problem = sim.problem_for_slot(3, strategy)
        res = CentralizedSolver().solve(problem)
        cert = certify_solution(
            problem, res.allocation, duals=(res.eq_dual, res.ineq_dual),
            solver="centralized", slot=3,
        )
        assert cert.feasible and cert.stationary and cert.ok
        assert cert.worst_violation <= DEFAULT_FEAS_TOL
        assert cert.kkt_residual <= DEFAULT_KKT_TOL
        assert cert.worst_constraint  # names the binding family

    def test_infeasible_allocation_fails_feasibility(self, slot_problem):
        res = CentralizedSolver().solve(slot_problem)
        broken = dataclasses.replace(
            res.allocation, lam=res.allocation.lam * 1.5
        )
        cert = certify_solution(slot_problem, broken)
        assert not cert.feasible
        assert not cert.ok
        assert cert.feasibility["load_balance"] > cert.feas_tol
        assert "[" in cert.worst_constraint  # names the worst index

    def test_suboptimal_allocation_fails_kkt(self, slot_problem):
        # Feasible but far from optimal: route everything proportionally
        # to capacity, then keep the polished power split.
        from repro.baselines.heuristics import (
            proportional_routing,
            solve_heuristic,
        )

        res = solve_heuristic(slot_problem, proportional_routing, name="prop")
        cert = certify_solution(slot_problem, res.allocation)
        assert cert.feasible
        assert not cert.stationary
        assert not cert.ok

    def test_admg_default_tolerance_fails_but_tight_passes(self, slot_problem):
        loose = DistributedUFCSolver(tol=1e-3, max_iter=600).solve(slot_problem)
        cert_loose = certify_solution(slot_problem, loose.allocation)
        assert not cert_loose.stationary  # honest: 1e-3 stops early
        tight = DistributedUFCSolver(tol=1e-6, max_iter=5000).solve(slot_problem)
        cert_tight = certify_solution(slot_problem, tight.allocation)
        assert cert_tight.ok

    def test_epigraph_slots_certify(self, small_bundle):
        # A stepped carbon tax needs epigraph variables in the QP.
        model = build_model(
            small_bundle,
            emission_costs=SteppedCarbonTax(
                thresholds_kg=[0.0, 500.0], rates_per_tonne=[25.0, 60.0]
            ),
        )
        sim = Simulator(model, small_bundle)
        problem = sim.problem_for_slot(0, HYBRID)
        qp = problem.to_qp()
        n = qp.num_datacenters
        assert qp.P.shape[0] > qp.nu_offset + n  # u columns present
        res = CentralizedSolver().solve(problem)
        cert = certify_solution(problem, res.allocation)
        assert cert.ok

    def test_certificate_to_dict_is_json_ready(self, slot_problem):
        res = CentralizedSolver().solve(slot_problem)
        cert = certify_solution(slot_problem, res.allocation, slot=5)
        payload = json.loads(json.dumps(cert.to_dict()))
        assert payload["slot"] == 5
        assert payload["ok"] is True
        assert set(payload["feasibility"]) >= {"load_balance", "capacity"}

    def test_context_caches_structures(self, small_model, small_bundle):
        sim = Simulator(small_model, small_bundle)
        ctx = CertificationContext()
        certs = []
        for t in range(3):
            problem = sim.problem_for_slot(t, HYBRID)
            res = CentralizedSolver().solve(problem)
            certs.append(ctx.certify(problem, res.allocation, slot=t))
        assert all(isinstance(c, Certificate) and c.ok for c in certs)
        assert len(ctx._structures) == 1  # one strategy → one compiled QP


class TestSolverMultipliersFirst:
    """Shipped multipliers that pass the KKT gate make the NNLS fit moot."""

    @staticmethod
    def _solve(problem):
        res = CentralizedSolver().solve(problem)
        return res.allocation, (res.eq_dual, res.ineq_dual)

    def test_passing_duals_skip_the_fit(self, slot_problem, monkeypatch):
        alloc, duals = self._solve(slot_problem)

        def no_fit(*args, **kwargs):
            raise AssertionError("NNLS fit ran despite passing multipliers")

        monkeypatch.setattr("repro.obs.certify.nnls", no_fit)
        cert = certify_solution(slot_problem, alloc, duals=duals)
        assert cert.ok
        assert cert.dual_source == "solver"
        assert cert.duality_gap <= DEFAULT_KKT_TOL

    def test_failing_duals_still_fit(self, slot_problem):
        alloc, duals = self._solve(slot_problem)
        zeroed = (np.zeros_like(duals[0]), np.zeros_like(duals[1]))
        cert = certify_solution(slot_problem, alloc, duals=zeroed)
        assert cert.ok
        assert cert.dual_source == "fitted"

    def test_unreachable_tolerance_keeps_the_better(self, slot_problem):
        alloc, duals = self._solve(slot_problem)
        fitted = certify_solution(slot_problem, alloc).kkt_residual
        shipped = certify_solution(
            slot_problem, alloc, duals=duals, kkt_tol=np.inf
        ).kkt_residual
        cert = certify_solution(slot_problem, alloc, duals=duals, kkt_tol=1e-18)
        assert not cert.ok
        assert cert.kkt_residual == min(fitted, shipped)
        assert cert.dual_source == ("fitted" if fitted < shipped else "solver")

    def test_verdicts_match_better_of_both(self, small_model, small_bundle):
        # The verdict rule before the shortcut: pass when the better of
        # the shipped and the fitted multipliers meets the tolerance.
        sim = Simulator(small_model, small_bundle)
        for strategy in ALL_STRATEGIES:
            for t in range(small_bundle.hours):
                problem = sim.problem_for_slot(t, strategy)
                alloc, duals = self._solve(problem)
                fitted = certify_solution(problem, alloc).kkt_residual
                shipped = certify_solution(
                    problem, alloc, duals=duals, kkt_tol=np.inf
                ).kkt_residual
                for kkt_tol in (1e-18, 1e-9, 1e-5):
                    cert = certify_solution(
                        problem, alloc, duals=duals, kkt_tol=kkt_tol
                    )
                    assert cert.ok == (
                        cert.feasible and min(fitted, shipped) <= kkt_tol
                    ), (strategy.name, t, kkt_tol)


class TestEngineCertification:
    def test_certificates_attach_and_solutions_unchanged(
        self, small_model, small_bundle
    ):
        sim_plain = Simulator(small_model, small_bundle)
        sim_cert = Simulator(small_model, small_bundle, certify=True)
        plain = sim_plain.run(HYBRID, hours=6)
        certified = sim_cert.run(HYBRID, hours=6)
        assert plain.certificates is None
        assert len(certified.certificates) == 6
        assert all(c.ok for c in certified.certificates)
        np.testing.assert_array_equal(plain.ufc, certified.ufc)
        summary = certified.horizon_summary
        assert summary.certified_slots == 6
        assert summary.suspect_slots == ()
        assert summary.worst_kkt <= DEFAULT_KKT_TOL
        assert "certification" in summary.format_table()

    def test_serial_and_pool_certificates_agree(self, small_model, small_bundle):
        sim = Simulator(small_model, small_bundle, certify=True)
        serial = sim.run(GRID, hours=6, workers=1)
        sim_pool = Simulator(
            small_model, small_bundle, certify=True, oversubscribe=True
        )
        pooled = sim_pool.run(GRID, hours=6, workers=2)
        for a, b in zip(serial.certificates, pooled.certificates):
            assert a.kkt_residual == b.kkt_residual
            assert a.worst_violation == b.worst_violation
            assert a.ok and b.ok

    def test_suspect_slots_are_flagged(self, small_model, small_bundle):
        # An impossible KKT gate marks every slot suspect.
        certifier = CertificationContext(kkt_tol=1e-18)
        sim = Simulator(small_model, small_bundle, certify=certifier)
        result = sim.run(HYBRID, hours=4)
        assert all(not c.ok for c in result.certificates)
        summary = result.horizon_summary
        assert summary.suspect_slots == (0, 1, 2, 3)
        assert "suspect" in summary.format_table()

    def test_engine_records_metrics(self, small_model, small_bundle):
        metrics = MetricsRegistry()
        sim = Simulator(small_model, small_bundle, certify=True, metrics=metrics)
        sim.run(HYBRID, hours=4)
        by_name = {}
        for name, labels, value in metrics.samples():
            by_name[name] = by_name.get(name, 0.0) + value
        assert by_name["repro_engine_runs_total"] == 1
        assert by_name["repro_engine_slots_total"] == 4
        assert by_name["repro_cert_kkt_residual_count"] == 4
        assert "repro_engine_slot_solve_seconds_sum" in by_name

    def test_warm_path_certifies(self, small_model, small_bundle):
        sim = Simulator(
            small_model, small_bundle, solver="centralized-warm", certify=True,
        )
        result = sim.run(HYBRID, hours=3)
        assert len(result.certificates) == 3
        assert all(c.solver == "centralized-warm" for c in result.certificates)
        assert all(c.ok for c in result.certificates)


class TestSolverQPReuse:
    """The engine certifies against the QP the solver built, which
    never leaves the slot step."""

    @staticmethod
    def _without_time(cert):
        return dataclasses.replace(cert, certify_s=0.0)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
    def test_reused_qp_certificate_equals_fresh_one(
        self, small_model, small_bundle, strategy
    ):
        sim = Simulator(small_model, small_bundle)
        solver = create_solver("centralized")
        compiled = solver.compile(small_model, strategy)
        for t in range(4):
            problem = sim.problem_for_slot(t, strategy)
            result = solver.solve(problem, compiled=compiled)
            assert result.qp is not None
            duals = result.extras["duals"]
            reused = CertificationContext().certify(
                problem, result.allocation, duals=duals, qp=result.qp
            )
            fresh = CertificationContext().certify(
                problem, result.allocation, duals=duals
            )
            assert self._without_time(reused) == self._without_time(fresh)
            standalone = certify_solution(problem, result.allocation, duals=duals)
            assert self._without_time(standalone) == self._without_time(fresh)

    def test_engine_certificates_match_fresh_ones(self, small_model, small_bundle):
        sim = Simulator(small_model, small_bundle)
        problems = [sim.problem_for_slot(t, HYBRID) for t in range(4)]
        outcomes = HorizonEngine("centralized", certify=True).run(problems)
        context = CertificationContext()
        for outcome, problem in zip(outcomes, problems):
            assert outcome.result.qp is None  # detached in the slot step
            fresh = context.certify(
                problem,
                outcome.result.allocation,
                duals=outcome.result.extras["duals"],
                slot=outcome.index,
                solver="centralized",
            )
            assert self._without_time(outcome.certificate) == self._without_time(
                fresh
            )

    def test_qp_never_pickled(self, slot_problem):
        result = create_solver("centralized").solve(slot_problem)
        assert result.qp is not None
        with_qp = pickle.dumps(result)
        result.qp = None
        assert pickle.dumps(result) == with_qp
        assert pickle.loads(with_qp).qp is None


class TestDoctorCli:
    def test_doctor_passes_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "doctor.json"
        code = main(
            ["--seed", "2014", "doctor", "--horizon", "3", "--json", str(out)]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "horizon health      : HEALTHY" in captured
        assert "PASS" in captured
        payload = json.loads(out.read_text())
        assert payload["slots"] == 3
        assert payload["failing_slots"] == []
        assert len(payload["certificates"]) == 3
        assert payload["metrics"]["families"]

    def test_doctor_fails_nonzero_on_bad_gate(self, capsys):
        code = main(["doctor", "--horizon", "2", "--kkt-tol", "1e-18"])
        captured = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in captured
        assert "SUSPECT" in captured

    def test_doctor_horizon_aliases_hours(self, capsys):
        assert main(["--hours", "2", "doctor"]) == 0
        assert "certifying 2 slots" in capsys.readouterr().out
