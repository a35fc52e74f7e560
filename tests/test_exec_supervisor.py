"""Fleet-supervision tests (repro.exec.supervisor).

A supervised socket fleet must turn worker death into transparent
resubmission (bit-identical results, zero failed slots), hedge
stragglers without changing any number, record the retry lineage in
the ledger, and stay a strict no-op when disabled.  Also covers the
fleet-health surface on :class:`~repro.exec.SocketClient` and the
``worker-churn`` chaos harness that CI runs.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.strategies import HYBRID
from repro.engine import HorizonEngine
from repro.exec import SocketClient, SupervisorConfig
from repro.exec.store import problem_digest
from repro.exec.supervisor import BACKOFF_MULTIPLIER, BACKOFF_S, backoff_for
from repro.faults.churn import WorkerChurnSolver, run_worker_churn
from repro.obs import MetricsRegistry
from repro.obs.ledger import load_run
from repro.sim.simulator import Simulator

SLOTS = 24


@pytest.fixture(scope="module")
def problems(small_model, small_bundle):
    sim = Simulator(small_model, small_bundle)
    return [sim.problem_for_slot(t, HYBRID) for t in range(SLOTS)]


@pytest.fixture(scope="module")
def serial_ufc(problems):
    return [o.result.ufc for o in HorizonEngine("centralized").run(problems)]


def _square(x):
    return x * x


class TestRetryPolicy:
    def test_backoff_grows_geometrically(self):
        assert backoff_for(1) == pytest.approx(BACKOFF_S)
        assert backoff_for(2) == pytest.approx(BACKOFF_S * BACKOFF_MULTIPLIER)
        assert backoff_for(3) == pytest.approx(BACKOFF_S * BACKOFF_MULTIPLIER**2)

    def test_budget_validation(self):
        # The respawn budget is the one supervision limit a run sets.
        with pytest.raises(ValueError):
            SupervisorConfig(max_respawns=-1)


class TestResubmission:
    def test_worker_death_resubmits_and_run_is_bit_identical(
        self, problems, serial_ufc, tmp_path
    ):
        # One worker hard-dies on slot 8; under supervision the slot
        # must be resubmitted to the survivor, the fleet respawned,
        # and the run finish with zero failures and the exact UFC
        # values of a fault-free serial run.
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        solver = WorkerChurnSolver(
            frozenset({problem_digest(problems[8], WorkerChurnSolver.name)}),
            str(marker_dir),
        )
        metrics = MetricsRegistry()
        client = SocketClient(workers=2)
        try:
            engine = HorizonEngine(
                solver,
                client=client,
                chunk_size=1,
                metrics=metrics,
                ledger=tmp_path,
                supervision=SupervisorConfig(respawn=True),
            )
            outcomes = engine.run(problems)
        finally:
            client.close()

        assert [o.result.ufc for o in outcomes] == serial_ufc
        summary = engine.last_summary
        assert summary.failed_slots == 0
        fleet = summary.fleet
        assert fleet is not None
        assert fleet["resubmissions"] >= 1
        assert fleet["workers_lost"] == 1
        assert fleet["workers_revived"] == 1

        # The slot that died carries its retry lineage; clean slots
        # carry none.
        lineage = outcomes[8].lineage
        assert lineage is not None
        assert lineage["attempts"] == 2
        assert lineage["faults"] == ["WorkerLostError"]
        assert lineage["outcome"] == "ok"
        assert len(lineage["workers"]) == 2
        assert outcomes[0].lineage is None

        # The ledger recorded the lineage and the fleet summary.
        run = load_run(engine.last_ledger_path)
        assert run.finalized
        flagged = [s for s in run.slots if "lineage" in s]
        assert [s["index"] for s in flagged] == [8]
        assert flagged[0]["lineage"]["attempts"] == 2
        assert run.summary["fleet"]["resubmissions"] >= 1

        # Supervisor metrics were published.
        resubmits = sum(
            value
            for name, _, value in metrics.samples()
            if name == "repro_exec_resubmits_total"
        )
        assert resubmits >= 1

    def test_supervision_defaults_off_and_serial_path_unaffected(
        self, problems, serial_ufc, tmp_path
    ):
        # Unsupervised run: no fleet summary, no lineage in the ledger.
        engine = HorizonEngine("centralized", ledger=tmp_path)
        outcomes = engine.run(problems[:6])
        assert engine.last_summary.fleet is None
        assert all(o.lineage is None for o in outcomes)
        run = load_run(engine.last_ledger_path)
        assert all("lineage" not in s for s in run.slots)

        # supervision=True on a sync path is a harmless no-op: the
        # supervisor only wraps asynchronous clients.
        engine = HorizonEngine("centralized", supervision=True)
        outcomes = engine.run(problems[:6])
        assert [o.result.ufc for o in outcomes] == serial_ufc[:6]
        assert engine.last_summary.fleet is None


class _StragglerSolver:
    """Centralized solver that stalls once on one poisoned slot.

    The stall marker is claimed *before* sleeping, so the hedge attempt
    (on the other worker, same filesystem) solves at full speed — the
    hedge deterministically wins the race.
    """

    name = "straggler"

    def __init__(self, stall_digest: str, marker_dir: str, stall_s: float) -> None:
        self.stall_digest = stall_digest
        self.marker_dir = marker_dir
        self.stall_s = stall_s

    def compile(self, model, strategy):
        return None

    def solve(self, problem, compiled=None):
        if problem_digest(problem, self.name) == self.stall_digest:
            marker = os.path.join(self.marker_dir, "stalled")
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                time.sleep(self.stall_s)
        from repro.engine.registry import create_solver

        return create_solver("centralized").solve(problem)


class TestHedging:
    def test_straggler_is_hedged_and_results_are_bit_identical(
        self, problems, serial_ufc, tmp_path
    ):
        # Slot 20 stalls for 20x a typical solve; by then 19 attempt
        # latencies have been sampled, so the p99-derived straggler
        # deadline is armed and a hedge fires on the other worker.
        # First result wins — and with a deterministic solver the
        # numbers are identical either way.
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        solver = _StragglerSolver(
            problem_digest(problems[20], "straggler"), str(marker_dir), 20.0
        )
        client = SocketClient(workers=2)
        try:
            engine = HorizonEngine(
                solver,
                client=client,
                chunk_size=1,
                ledger=tmp_path,
                supervision=SupervisorConfig(),
            )
            outcomes = engine.run(problems)
        finally:
            client.close()

        assert [o.result.ufc for o in outcomes] == serial_ufc
        summary = engine.last_summary
        assert summary.failed_slots == 0
        assert summary.fleet["hedges_launched"] >= 1
        assert summary.fleet["hedges_won"] >= 1
        lineage = outcomes[20].lineage
        assert lineage is not None
        assert lineage["hedged"] is True
        assert lineage["outcome"] == "ok"


class TestFleetHealth:
    def test_quarantine_and_respawn(self):
        client = SocketClient(workers=2)
        try:
            assert client.alive_workers() == ("w0", "w1")
            assert client.quarantine_worker("w1") is True
            assert client.alive_workers() == ("w0",)
            # The last worker cannot be quarantined.
            assert client.quarantine_worker("w0") is False
            # The survivor still serves.
            client.submit(_square, 6)
            assert client.wait_next(timeout_s=10.0)[1] == 36
            # The fleet can grow back: respawned workers get new ids.
            assert client.respawn_workers(1) == 1
            assert len(client.alive_workers()) == 2
            client.submit(_square, 7)
            assert client.wait_next(timeout_s=10.0)[1] == 49
        finally:
            client.close()

    def test_check_liveness_keeps_healthy_workers(self):
        client = SocketClient(workers=2)
        try:
            assert client.check_liveness(timeout_s=5.0) == []
            assert len(client.alive_workers()) == 2
        finally:
            client.close()


class TestWorkerChurnHarness:
    def test_churn_scenario_passes_and_is_bit_identical(self, tmp_path):
        report = run_worker_churn(
            {"workers": 2, "kills": 1, "seed": 0, "respawn": True},
            hours=12,
            ledger=tmp_path,
        )
        assert report.passed
        assert report.failed_slots == 0
        assert report.feasible_slots == 12
        assert report.resubmissions >= 1
        assert report.workers_lost == 1
        assert report.ufc_identical
        assert report.lineages and report.lineages[0]["attempts"] >= 2
        rendered = report.render()
        assert "verdict         : PASS" in rendered
        assert "bit-identical" in rendered
        run = load_run(report.ledger_path)
        assert run.finalized
        assert run.summary["fleet"]["resubmissions"] >= 1

    def test_week_under_churn_completes_certified_and_bit_identical(self):
        # The PR's acceptance run: a 168-slot week over a 2-worker
        # socket fleet with one worker hard-killed mid-run.  Zero
        # failed slots, every allocation certified feasible, total UFC
        # bit-identical to the fault-free baseline.
        report = run_worker_churn(
            {"workers": 2, "kills": 1, "seed": 0, "respawn": True},
            hours=168,
        )
        assert report.passed
        assert report.failed_slots == 0
        assert report.feasible_slots == 168
        assert report.resubmissions >= 1
        assert report.ufc_identical

    def test_churn_spec_validation(self):
        with pytest.raises(ValueError, match="at least 2 workers"):
            run_worker_churn({"workers": 1}, hours=6)
        with pytest.raises(ValueError, match="kills"):
            run_worker_churn({"kills": 99}, hours=6)
