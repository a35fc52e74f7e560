"""Tests for the fault-injection plane and self-healing solve paths."""

from __future__ import annotations

import hashlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core.strategies import HYBRID
from repro.distributed import DistributedRuntime
from repro.faults import CrashSpec, FaultPlan, PartitionSpec
from repro.faults.network import RETRANSMIT_ATTEMPTS, FaultyNetwork
from repro.faults.scenarios import available_scenarios, scenario_spec
from repro.faults.solver import ChaosDistributedSolver, DegradedRunError
from repro.obs.certify import certify_solution
from repro.sim.simulator import Simulator

SHIPPED = ("flaky-net", "dc-crash", "partition", "bit-rot", "chaos-monkey")


@pytest.fixture(scope="module")
def slot_problem(small_model, small_bundle):
    return Simulator(small_model, small_bundle).problem_for_slot(0, HYBRID)


@pytest.fixture(scope="module")
def fault_free_run(slot_problem):
    return DistributedRuntime(slot_problem).run()


class TestFaultPlan:
    def test_shipped_scenarios_listed(self):
        assert set(SHIPPED) <= set(available_scenarios())

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            scenario_spec("not-a-scenario")

    @pytest.mark.parametrize("name", SHIPPED)
    def test_spec_round_trip(self, name):
        plan = FaultPlan.from_spec(name)
        assert plan.name == name
        assert FaultPlan.from_spec(plan.to_dict()) == plan
        assert FaultPlan.from_spec(plan) is plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan keys"):
            FaultPlan.from_spec({"drop_probabillity": 0.1})

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec({"drop_probability": 1.0})
        with pytest.raises(ValueError):
            FaultPlan.from_spec({"delay_probability": -0.1})

    def test_crash_spec_validation(self):
        with pytest.raises(ValueError):
            CrashSpec(agent="dc0", round=0)
        with pytest.raises(ValueError):
            CrashSpec(agent="dc0", round=5, revive_round=5)

    def test_crash_spec_down_window(self):
        crash = CrashSpec(agent="dc0", round=3, revive_round=6)
        assert [crash.down(r) for r in range(1, 8)] == [
            False, False, True, True, True, False, False,
        ]
        forever = CrashSpec(agent="dc0", round=3)
        assert forever.down(500)

    def test_partition_spec_cuts_only_across(self):
        part = PartitionSpec(start=2, stop=4, isolate=("fe0",))
        assert part.cuts("fe0", "dc1", 2)
        assert part.cuts("dc1", "fe0", 3)
        assert not part.cuts("dc1", "dc2", 3)  # both outside the cut
        assert not part.cuts("fe0", "fe0", 3)  # both inside
        assert not part.cuts("fe0", "dc1", 4)  # half-open interval
        with pytest.raises(ValueError):
            PartitionSpec(start=3, stop=3, isolate=("fe0",))
        with pytest.raises(ValueError):
            PartitionSpec(start=1, stop=2, isolate=())


class TestFaultInjector:
    PLAN = FaultPlan.from_spec(
        {
            "seed": 7,
            "drop_probability": 0.2,
            "delay_probability": 0.1,
            "duplicate_probability": 0.05,
            "corrupt_probability": 0.05,
        }
    )

    def _draws(self, injector, n=300):
        return [
            (injector.attempt(), injector.corrupts(), injector.duplicates())
            for _ in range(n)
        ]

    def test_same_slot_replays_identically(self):
        assert self._draws(self.PLAN.injector(3)) == self._draws(
            self.PLAN.injector(3)
        )

    def test_slots_draw_independent_streams(self):
        assert self._draws(self.PLAN.injector(0)) != self._draws(
            self.PLAN.injector(1)
        )

    def test_event_log_bounded(self):
        injector = self.PLAN.injector(0)
        injector.max_events = 4
        for r in range(10):
            injector.record("watchdog_trip", r, "fleet")
        assert len(injector.events) == 4
        assert injector.events_dropped == 6
        assert injector.counts["watchdog_trip"] == 10

    def test_faults_injected_excludes_recovery(self):
        injector = self.PLAN.injector(0)
        injector.count("drop", 5)
        injector.count("crash", 1)
        injector.record("checkpoint_restore", 3, "fleet")
        injector.record("watchdog_trip", 3, "fleet")
        assert injector.faults_injected == 6


class TestFaultyNetwork:
    def _message(self):
        from repro.distributed.messages import RoutingProposal

        return RoutingProposal(sender="fe0", receiver="dc0", lam=1.0, varphi=2.0)

    def test_fault_free_plan_always_delivers(self):
        net = FaultyNetwork(FaultPlan(seed=0).injector(0))
        assert net.send(self._message())
        assert net.messages_sent == 1
        assert net.deliver("dc0")
        assert net.sends_failed == 0

    def test_budget_exhaustion_fails_sends(self):
        plan = FaultPlan.from_spec({"seed": 1, "drop_probability": 0.9})
        net = FaultyNetwork(plan.injector(0))
        results = [net.send(self._message()) for _ in range(200)]
        assert not all(results)
        assert net.sends_failed == results.count(False)
        # A failed send spent the whole budget: one try, then retries.
        assert net.retransmits >= net.sends_failed * (RETRANSMIT_ATTEMPTS - 1)
        assert net.simulated_backoff_s > 0
        # Every attempt — dropped or landed — bills exactly once.
        drops = net.injector.counts["drop"]
        delivered = results.count(True) + net.duplicates_delivered
        assert net.messages_sent == drops + delivered

    def test_partition_gives_up_immediately(self):
        plan = FaultPlan.from_spec(
            {"partitions": [{"start": 1, "stop": 5, "isolate": ["fe0"]}]}
        )
        net = FaultyNetwork(plan.injector(0))
        net.advance_round(1)
        assert not net.send(self._message())
        assert net.sends_failed == 1
        assert net.messages_sent == 1  # one billed attempt, no retries
        assert net.injector.counts["partition"] == 1
        net.advance_round(5)  # the cut has healed
        assert net.send(self._message())

    def test_delayed_messages_land_next_round(self):
        plan = FaultPlan.from_spec({"seed": 3, "delay_probability": 0.5})
        net = FaultyNetwork(plan.injector(0))
        net.advance_round(1)
        for _ in range(50):
            net.send(self._message())
        delivered_now = len(net.deliver("dc0"))
        delayed = net.injector.counts.get("delay", 0)
        assert 0 < delayed < 50
        assert delivered_now == 50 - delayed
        assert net.advance_round(2) == delayed
        assert len(net.deliver("dc0")) == delayed
        assert net.delayed_delivered == delayed

    def test_reset_in_flight_drops_queued_traffic(self):
        plan = FaultPlan.from_spec({"seed": 3, "delay_probability": 0.5})
        net = FaultyNetwork(plan.injector(0))
        for _ in range(50):
            net.send(self._message())
        assert net.reset_in_flight() == 50
        assert not net.deliver("dc0")
        assert net.advance_round(2) == 0


class TestSelfHealingRuntime:
    def _run(self, problem, scenario, slot=0):
        plan = FaultPlan.from_spec(scenario)
        return DistributedRuntime(problem, faults=plan.injector(slot)).run()

    def test_fault_free_path_untouched(self, slot_problem, fault_free_run):
        again = DistributedRuntime(slot_problem).run()
        np.testing.assert_array_equal(
            again.allocation.lam, fault_free_run.allocation.lam
        )
        assert not again.degraded
        assert again.fault_counts == {}
        assert again.fault_events == ()

    def test_deterministic_replay_in_process(self, slot_problem):
        first = self._run(slot_problem, "flaky-net")
        second = self._run(slot_problem, "flaky-net")
        np.testing.assert_array_equal(
            first.allocation.lam, second.allocation.lam
        )
        assert first.coupling_residuals == second.coupling_residuals
        assert first.fault_events == second.fault_events
        assert first.fault_counts == second.fault_counts
        assert first.retransmits == second.retransmits

    def test_deterministic_replay_across_processes(self, slot_problem):
        """Same plan seed + scenario ⇒ bit-identical run in a fresh process."""
        script = (
            "import hashlib, json\n"
            "from repro.core.strategies import HYBRID\n"
            "from repro.distributed import DistributedRuntime\n"
            "from repro.faults import FaultPlan\n"
            "from repro.sim.simulator import Simulator, build_model\n"
            "from repro.traces.datasets import default_bundle\n"
            "bundle = default_bundle(hours=24, seed=2014)\n"
            "problem = Simulator(build_model(bundle), bundle)"
            ".problem_for_slot(0, HYBRID)\n"
            "run = DistributedRuntime(\n"
            "    problem, faults=FaultPlan.from_spec('dc-crash').injector(0)\n"
            ").run()\n"
            "digest = hashlib.sha256(run.allocation.lam.tobytes())\n"
            "digest.update(json.dumps(run.coupling_residuals).encode())\n"
            "digest.update(repr(run.fault_events).encode())\n"
            "digest.update(repr(sorted(run.fault_counts.items())).encode())\n"
            "print(digest.hexdigest())\n"
        )
        digests = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert len(digests) == 1
        run = self._run(slot_problem, "dc-crash")
        digest = hashlib.sha256(run.allocation.lam.tobytes())
        digest.update(repr(run.fault_events).encode())
        # The in-process run replays the same fault sequence.
        assert run.fault_counts.get("crash", 0) >= 1

    def test_dc_crash_recovers_to_fault_free_ufc(
        self, slot_problem, fault_free_run
    ):
        run = self._run(slot_problem, "dc-crash")
        assert run.converged and not run.degraded
        assert run.fault_counts.get("crash", 0) >= 1
        assert run.fault_counts.get("revive", 0) >= 1
        assert run.checkpoint_restores >= 1
        kinds = {e.kind for e in run.fault_events}
        assert {"crash", "revive", "checkpoint_restore"} <= kinds
        np.testing.assert_allclose(run.ufc, fault_free_run.ufc, rtol=1e-6)

    def test_bit_rot_trips_watchdog_but_stays_finite(self, slot_problem):
        run = self._run(slot_problem, "bit-rot")
        assert run.fault_counts.get("corrupt", 0) > 0
        assert run.watchdog_trips >= 1
        assert np.isfinite(run.allocation.lam).all()
        assert np.isfinite(run.ufc)

    @pytest.mark.parametrize("scenario", SHIPPED)
    def test_graceful_degradation_stays_certified(
        self, slot_problem, fault_free_run, scenario
    ):
        """Every shipped scenario yields a feasible, bounded allocation."""
        run = self._run(slot_problem, scenario)
        cert = certify_solution(
            slot_problem, run.allocation, solver="chaos-distributed"
        )
        assert cert.feasible, (scenario, cert.worst_violation)
        # Degradation is bounded and reported, not silently absorbed.
        assert run.ufc >= fault_free_run.ufc - 0.25 * abs(fault_free_run.ufc)
        if run.ufc < fault_free_run.ufc - 1e-6 * abs(fault_free_run.ufc):
            assert run.degraded or run.converged

    def test_escalation_raises_degraded_run_error(self, slot_problem):
        solver = ChaosDistributedSolver("bit-rot", escalate_degraded=True)
        with pytest.raises(DegradedRunError) as excinfo:
            solver.solve(slot_problem)
        run = excinfo.value.run
        assert run.degraded
        assert solver.runs == [run]  # the recovery path survives escalation


class TestChaosAcceptance:
    def test_dc_crash_horizon_24(self):
        """The PR's acceptance scenario: dc crash + 20% drop, 24 slots."""
        from repro.faults.chaos import run_chaos

        report = run_chaos("dc-crash", hours=24)
        assert report.passed
        assert report.failed_slots == 0
        assert report.feasible_slots == report.horizon == 24
        # The recovery path is visible: each slot replays the crash.
        assert report.fault_counts["crash"] >= 24
        assert report.fault_counts["revive"] >= 24
        assert report.checkpoint_restores >= 24
        assert report.retransmits > 0
        kinds = {e["kind"] for e in report.events}
        assert {"crash", "revive", "checkpoint_restore"} <= kinds
        # Report counters and the metrics registry agree by construction.
        for kind, count in report.fault_counts.items():
            counter = report.metrics.counter(
                "repro_faults_total", kind=kind, scenario="dc-crash"
            )
            assert counter.value == count, kind
        # Degradation is reported and small for a recoverable scenario.
        assert abs(report.ufc_degradation_pct) < 5.0
        text = report.render()
        assert "verdict         : PASS" in text
        assert "checkpoint" in text

    def test_bit_rot_fallback_chain(self):
        """Every bit-rot slot completes degraded and the engine's
        fallback chain rescues it with a local centralized solve."""
        from repro.faults.chaos import run_chaos

        report = run_chaos(
            "bit-rot", hours=6, fallback=("centralized", "proportional")
        )
        assert report.degraded_slots == report.fallback_slots == 6
        assert [s["solver"] for s in report.slots] == ["centralized"] * 6
        fallbacks = report.metrics.counter(
            "repro_engine_slot_fallbacks_total",
            solver="chaos-distributed",
            fallback="centralized",
        )
        assert fallbacks.value == 6
        # A rescued slot costs at least two attempts, so six retries
        # over six rescued slots means exactly two each: the primary,
        # then the first fallback.
        assert report.engine_retries == 6
        assert report.feasible_slots == report.horizon == 6
        assert report.failed_slots == 0
        assert report.passed
