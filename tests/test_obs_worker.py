"""Tests for worker observability derived in the parent.

A worker sends home only its slot outcomes.  The parent derives the
``repro_worker_*`` series and the ledger's per-slot records from each
outcome's :class:`SlotTelemetry`, so in-process, mp and socket runs
expose the same records.
"""

from __future__ import annotations

import platform

import pytest

from repro.core.strategies import HYBRID
from repro.engine import HorizonEngine
from repro.exec import SocketClient
from repro.obs import MetricsRegistry
from repro.obs.ledger import load_run
from repro.sim.simulator import Simulator

SLOTS = 6
HOST = platform.node() or "localhost"


@pytest.fixture(scope="module")
def problems(small_model, small_bundle):
    sim = Simulator(small_model, small_bundle)
    return [sim.problem_for_slot(t, HYBRID) for t in range(SLOTS)]


@pytest.fixture(scope="module")
def baseline_ufc(problems):
    return [o.result.ufc for o in HorizonEngine("centralized").run(problems)]


def _worker_solve_sums(metrics: MetricsRegistry) -> dict[str, float]:
    """Per-worker `repro_worker_slot_solve_seconds` histogram sums."""
    sums: dict[str, float] = {}
    for name, labels, value in metrics.samples():
        if name == "repro_worker_slot_solve_seconds_sum":
            sums[dict(labels)["worker"]] = value
    return sums


def _worker_slots(metrics: MetricsRegistry) -> float:
    return sum(
        value
        for name, _, value in metrics.samples()
        if name == "repro_worker_slots_total"
    )


def _worker_families(metrics: MetricsRegistry) -> set[str]:
    return {
        name for name, _, _ in metrics.samples() if name.startswith("repro_worker_")
    }


class TestReportAttachment:
    def test_consumers_derive_records_from_telemetry(self, problems, tmp_path):
        # Metrics and ledger records are derived from the telemetry
        # every outcome carries; nothing else comes home with the slot.
        metrics = MetricsRegistry()
        engine = HorizonEngine("centralized", metrics=metrics, ledger=tmp_path)
        outcomes = engine.run(problems)
        assert all(not hasattr(o, "worker_report") for o in outcomes)
        assert all(o.telemetry.host == HOST for o in outcomes)
        assert all(o.telemetry.worker > 0 for o in outcomes)
        assert _worker_slots(metrics) == len(outcomes)
        assert len(load_run(engine.last_ledger_path).slots) == len(outcomes)

    def test_no_consumer_means_no_reports_and_identical_output(
        self, problems, baseline_ufc
    ):
        engine = HorizonEngine("centralized")
        outcomes = engine.run(problems)
        assert all(not hasattr(o, "worker_report") for o in outcomes)
        assert [o.result.ufc for o in outcomes] == baseline_ufc

    def test_ledger_alone_names_every_worker_host(
        self, problems, baseline_ufc, tmp_path
    ):
        # A run ledger alone still names every slot's worker host (it
        # rides on the telemetry), and the output is bit-identical.
        engine = HorizonEngine("centralized", ledger=tmp_path)
        outcomes = engine.run(problems)
        assert [o.result.ufc for o in outcomes] == baseline_ufc
        run = load_run(engine.last_ledger_path)
        assert [s["worker_host"] for s in run.slots] == [HOST] * SLOTS

    def test_observed_output_is_bit_identical(
        self, problems, baseline_ufc, tmp_path
    ):
        engine = HorizonEngine(
            "centralized",
            metrics=MetricsRegistry(),
            ledger=tmp_path,
        )
        assert [o.result.ufc for o in engine.run(problems)] == baseline_ufc


class TestMerging:
    def test_merged_metrics_account_for_all_solve_wall(self, problems):
        metrics = MetricsRegistry()
        engine = HorizonEngine("centralized", metrics=metrics)
        outcomes = engine.run(problems)
        summary = engine.last_summary
        merged = sum(_worker_solve_sums(metrics).values())
        # Worker series are built from the same telemetry the summary
        # aggregates: accounting is exact, not just >= 90%.
        assert merged == pytest.approx(summary.solve_s, rel=1e-9)
        assert _worker_slots(metrics) == len(outcomes)

    def test_ledger_slots_carry_each_slots_telemetry(self, problems, tmp_path):
        # One ledger record per slot, carrying the slot's coordinates
        # and timings from its telemetry.
        engine = HorizonEngine("centralized", ledger=tmp_path)
        outcomes = engine.run(problems)
        run = load_run(engine.last_ledger_path)
        assert len(run.slots) == len(problems)
        for record, outcome in zip(run.slots, outcomes):
            tele = outcome.telemetry
            assert record["index"] == outcome.index
            assert record["ok"] == outcome.ok
            assert record["worker"] == tele.worker
            assert record["worker_host"] == tele.host == HOST
            assert record["solver"] == tele.solver
            assert record["iterations"] == tele.iterations
            assert record["converged"] == tele.converged
            assert (record["wall_s"], record["compile_s"], record["certify_s"]) == (
                tele.wall_s, tele.compile_s, tele.certify_s
            )

    def test_mp_client_ships_telemetry_home(self, problems, baseline_ufc):
        metrics = MetricsRegistry()
        engine = HorizonEngine(
            "centralized",
            client="mp",
            workers=2,
            chunk_size=2,
            metrics=metrics,
        )
        outcomes = engine.run(problems)
        assert [o.result.ufc for o in outcomes] == baseline_ufc
        assert all(o.telemetry.host == HOST for o in outcomes)
        merged = sum(_worker_solve_sums(metrics).values())
        assert merged == pytest.approx(engine.last_summary.solve_s, rel=1e-9)
        assert _worker_slots(metrics) == len(problems)

    def test_warm_chain_ships_reports_like_the_cold_lane(self, problems):
        metrics = MetricsRegistry()
        engine = HorizonEngine("centralized-warm", metrics=metrics)
        outcomes = engine.run(problems, warm_start=True)
        assert _worker_slots(metrics) == len(problems)
        merged = sum(_worker_solve_sums(metrics).values())
        assert merged == pytest.approx(engine.last_summary.solve_s, rel=1e-9)
        # Observability never changes the chain's arithmetic.
        plain = HorizonEngine("centralized-warm").run(problems, warm_start=True)
        for a, b in zip(plain, outcomes):
            assert (a.result.allocation.lam == b.result.allocation.lam).all()
            assert a.result.ufc == b.result.ufc
            assert (
                a.result.extras["warm_mechanism"]
                == b.result.extras["warm_mechanism"]
            )

    def test_summary_latency_and_busy_fields(self, problems):
        engine = HorizonEngine("centralized", metrics=MetricsRegistry())
        engine.run(problems)
        summary = engine.last_summary
        assert summary.slot_p50_s > 0
        assert summary.slot_p99_s >= summary.slot_p50_s
        assert summary.worker_busy_s
        assert sum(summary.worker_busy_s.values()) > 0
        table = summary.format_table()
        assert "p50" in table and "p99" in table

    def test_resilient_lane_records_per_slot(self, problems, tmp_path):
        metrics = MetricsRegistry()
        engine = HorizonEngine(
            "centralized",
            metrics=metrics,
            ledger=tmp_path,
            fallback=("proportional",),
        )
        engine.run(problems[:3])
        run = load_run(engine.last_ledger_path)
        assert [s["index"] for s in run.slots] == [0, 1, 2]
        assert [s["worker_host"] for s in run.slots] == [HOST] * 3
        assert _worker_slots(metrics) == 3

    def test_batched_lane_records_from_telemetry(self, problems, tmp_path):
        # The batched lane's slots get the same records as the per-slot
        # lanes: one record per slot, whatever solved it.
        metrics = MetricsRegistry()
        engine = HorizonEngine(
            "centralized-batch", metrics=metrics, ledger=tmp_path
        )
        outcomes = engine.run(problems)
        assert engine.last_summary.executor == "serial-batch"
        run = load_run(engine.last_ledger_path)
        assert [s["index"] for s in run.slots] == list(range(len(problems)))
        assert [s["worker_host"] for s in run.slots] == [HOST] * len(problems)
        merged = sum(_worker_solve_sums(metrics).values())
        assert merged == pytest.approx(engine.last_summary.solve_s, rel=1e-9)
        assert _worker_slots(metrics) == len(outcomes)


class TestWorkerPrimitives:
    def test_slot_metrics_families(self, problems):
        metrics = MetricsRegistry()
        (outcome,) = HorizonEngine("centralized", metrics=metrics).run(
            problems[:1]
        )
        names = {name for name, _, _ in metrics.samples()}
        assert "repro_worker_slots_total" in names
        assert "repro_worker_slot_solve_seconds_sum" in names
        assert "repro_worker_slot_compile_seconds_sum" in names
        sums = _worker_solve_sums(metrics)
        assert sums == {str(outcome.telemetry.worker): outcome.telemetry.wall_s}

    def test_store_hits_get_no_worker_series(self, problems, tmp_path):
        HorizonEngine("centralized", store=tmp_path / "store").run(problems)
        metrics = MetricsRegistry()
        engine = HorizonEngine(
            "centralized",
            store=tmp_path / "store",
            metrics=metrics,
            ledger=tmp_path / "ledger",
        )
        outcomes = engine.run(problems)
        assert engine.last_summary.store_hits == SLOTS
        assert all(o.telemetry.host is None for o in outcomes)
        assert not _worker_families(metrics)
        run = load_run(engine.last_ledger_path)
        assert [s["worker_host"] for s in run.slots] == [None] * SLOTS


class TestCrossClientParity:
    """One seeded 12-slot horizon through every client: the same
    worker series and ledger fields wherever the slots ran."""

    HOURS = 12

    @pytest.fixture(scope="class")
    def runs(self, small_model, small_bundle, tmp_path_factory):
        sim = Simulator(small_model, small_bundle)
        problems = [sim.problem_for_slot(t, HYBRID) for t in range(self.HOURS)]
        runs = {}
        socket_client = SocketClient(workers=2)
        try:
            for name, client in (
                ("in-process", "in-process"),
                ("mp", "mp"),
                ("socket", socket_client),
            ):
                metrics = MetricsRegistry()
                engine = HorizonEngine(
                    "centralized",
                    client=client,
                    workers=2,
                    oversubscribe=True,
                    chunk_size=3,
                    metrics=metrics,
                    ledger=tmp_path_factory.mktemp(f"ledger-{name}"),
                )
                outcomes = engine.run(problems)
                runs[name] = (engine, outcomes, metrics)
        finally:
            socket_client.close()
        return runs

    def test_same_records_on_every_client(self, runs):
        reference = None
        for name, (engine, outcomes, metrics) in runs.items():
            assert engine.last_summary.client == name
            assert all(o.ok for o in outcomes)
            run = load_run(engine.last_ledger_path)
            record = (
                _worker_families(metrics),
                _worker_slots(metrics),
                len(run.slots),
                {frozenset(s) for s in run.slots},
                [o.result.ufc for o in outcomes],
            )
            if reference is None:
                reference = record
            assert record == reference, name
            assert "worker_host" in next(iter(record[3]))
        families, slots_total, records, _, _ = reference
        assert slots_total == records == self.HOURS
        assert {
            "repro_worker_slots_total",
            "repro_worker_slot_solve_seconds_sum",
        } <= families

    def test_worker_solve_sums_equal_summary(self, runs):
        for name, (engine, _, metrics) in runs.items():
            merged = sum(_worker_solve_sums(metrics).values())
            assert merged == pytest.approx(
                engine.last_summary.solve_s, rel=1e-9
            ), name
