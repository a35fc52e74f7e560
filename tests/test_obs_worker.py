"""Tests for worker observability derived in the parent.

A worker sends home only its slot outcomes.  The parent derives the
``repro_worker_*`` series, one ``worker.slot`` span per slot and the
ledger's ``worker_host`` from each outcome's :class:`SlotTelemetry`,
so in-process, mp and socket runs expose the same records.
"""

from __future__ import annotations

import platform

import pytest

from repro.core.strategies import HYBRID
from repro.engine import HorizonEngine
from repro.engine.resilience import ResilienceConfig, RetryPolicy
from repro.exec import SocketClient
from repro.obs import MetricsRegistry, SpanTracer
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
    def test_consumers_auto_enable_reports(self, problems):
        # Metrics and spans are derived from the telemetry every
        # outcome carries; nothing else comes home with the slot.
        metrics = MetricsRegistry()
        tracer = SpanTracer()
        engine = HorizonEngine("centralized", metrics=metrics, tracer=tracer)
        outcomes = engine.run(problems)
        assert all(not hasattr(o, "worker_report") for o in outcomes)
        assert all(o.telemetry.host == HOST for o in outcomes)
        assert all(o.telemetry.worker > 0 for o in outcomes)
        assert _worker_slots(metrics) == len(outcomes)
        assert len(tracer.by_name("worker.slot")) == len(outcomes)

    def test_no_consumer_means_no_reports_and_identical_output(
        self, problems, baseline_ufc
    ):
        engine = HorizonEngine("centralized")
        outcomes = engine.run(problems)
        assert all(not hasattr(o, "worker_report") for o in outcomes)
        assert [o.result.ufc for o in outcomes] == baseline_ufc

    def test_worker_obs_false_overrides_consumers(
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
            tracer=SpanTracer(),
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

    def test_spans_adopt_under_run_span_with_trace_context(
        self, problems, tmp_path
    ):
        # Every worker.slot span is a child of the run's engine.run
        # span and carries the slot's coordinates from its telemetry.
        tracer = SpanTracer()
        engine = HorizonEngine("centralized", tracer=tracer, ledger=tmp_path)
        outcomes = engine.run(problems)
        (run_span,) = tracer.by_name("engine.run")
        slot_spans = tracer.by_name("worker.slot")
        assert len(slot_spans) == len(problems)
        assert all(s.parent_id == run_span.span_id for s in slot_spans)
        for span, outcome in zip(slot_spans, outcomes):
            tele = outcome.telemetry
            assert span.attributes["index"] == outcome.index
            assert span.attributes["worker"] == tele.worker
            assert span.attributes["host"] == tele.host
            assert span.wall_s == tele.wall_s + tele.compile_s + tele.certify_s
        run = load_run(engine.last_ledger_path)
        assert {s["worker_host"] for s in run.slots} == {
            s.attributes["host"] for s in slot_spans
        }

    def test_mp_client_ships_reports_home(self, problems, baseline_ufc):
        metrics = MetricsRegistry()
        tracer = SpanTracer()
        engine = HorizonEngine(
            "centralized",
            client="mp",
            workers=2,
            chunk_size=2,
            metrics=metrics,
            tracer=tracer,
        )
        outcomes = engine.run(problems)
        assert [o.result.ufc for o in outcomes] == baseline_ufc
        assert all(o.telemetry.host == HOST for o in outcomes)
        merged = sum(_worker_solve_sums(metrics).values())
        assert merged == pytest.approx(engine.last_summary.solve_s, rel=1e-9)
        assert len(tracer.by_name("worker.slot")) == len(problems)

    def test_warm_chain_ships_reports_like_the_cold_lane(self, problems):
        metrics = MetricsRegistry()
        tracer = SpanTracer()
        engine = HorizonEngine(
            "centralized-warm", metrics=metrics, tracer=tracer
        )
        outcomes = engine.run(problems, warm_start=True)
        assert len(tracer.by_name("worker.slot")) == len(problems)
        merged = sum(_worker_solve_sums(metrics).values())
        assert merged == pytest.approx(engine.last_summary.solve_s, rel=1e-9)
        # Observability never changes the chain's arithmetic.
        plain = HorizonEngine("centralized-warm").run(problems, warm_start=True)
        for a, b in zip(plain, outcomes):
            assert (a.result.allocation.lam == b.result.allocation.lam).all()
            assert a.result.ufc == b.result.ufc
            assert a.telemetry.warm_start == b.telemetry.warm_start

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

    def test_resilient_lane_spans_per_slot(self, problems):
        tracer = SpanTracer()
        engine = HorizonEngine(
            "centralized",
            tracer=tracer,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2), fallback=("proportional",)
            ),
        )
        engine.run(problems[:3])
        slot_spans = tracer.by_name("worker.slot")
        assert [s.attributes["index"] for s in slot_spans] == [0, 1, 2]

    def test_batched_lane_spans_from_telemetry(self, problems):
        # The batched lane's slots get the same spans as the per-slot
        # lanes: one record per slot, whatever solved it.
        tracer = SpanTracer()
        metrics = MetricsRegistry()
        engine = HorizonEngine(
            "centralized-batch", tracer=tracer, metrics=metrics
        )
        outcomes = engine.run(problems)
        assert engine.last_summary.executor == "serial-batch"
        (run_span,) = tracer.by_name("engine.run")
        slot_spans = tracer.by_name("worker.slot")
        assert len(slot_spans) == len(problems)
        assert all(s.parent_id == run_span.span_id for s in slot_spans)
        assert all("synthesized" not in s.attributes for s in slot_spans)
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

    def test_store_hits_get_no_worker_series_or_spans(self, problems, tmp_path):
        HorizonEngine("centralized", store=tmp_path / "store").run(problems)
        metrics = MetricsRegistry()
        tracer = SpanTracer()
        engine = HorizonEngine(
            "centralized",
            store=tmp_path / "store",
            metrics=metrics,
            tracer=tracer,
            ledger=tmp_path / "ledger",
        )
        outcomes = engine.run(problems)
        assert engine.last_summary.store_hits == SLOTS
        assert all(o.telemetry.host is None for o in outcomes)
        assert not _worker_families(metrics)
        assert not tracer.by_name("worker.slot")
        run = load_run(engine.last_ledger_path)
        assert [s["worker_host"] for s in run.slots] == [None] * SLOTS


class TestCrossClientParity:
    """One seeded 12-slot horizon through every client: the same
    worker series, spans and ledger fields wherever the slots ran."""

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
                tracer = SpanTracer()
                engine = HorizonEngine(
                    "centralized",
                    client=client,
                    workers=2,
                    oversubscribe=True,
                    chunk_size=3,
                    metrics=metrics,
                    tracer=tracer,
                    ledger=tmp_path_factory.mktemp(f"ledger-{name}"),
                )
                outcomes = engine.run(problems)
                runs[name] = (engine, outcomes, metrics, tracer)
        finally:
            socket_client.close()
        return runs

    def test_same_records_on_every_client(self, runs):
        reference = None
        for name, (engine, outcomes, metrics, tracer) in runs.items():
            assert engine.last_summary.client == name
            assert all(o.ok for o in outcomes)
            run = load_run(engine.last_ledger_path)
            record = (
                _worker_families(metrics),
                _worker_slots(metrics),
                len(tracer.by_name("worker.slot")),
                {frozenset(s) for s in run.slots},
                [o.result.ufc for o in outcomes],
            )
            if reference is None:
                reference = record
            assert record == reference, name
            assert "worker_host" in next(iter(record[3]))
        families, slots_total, spans, _, _ = reference
        assert slots_total == spans == self.HOURS
        assert {
            "repro_worker_slots_total",
            "repro_worker_slot_solve_seconds_sum",
        } <= families

    def test_worker_solve_sums_equal_summary(self, runs):
        for name, (engine, _, metrics, _) in runs.items():
            merged = sum(_worker_solve_sums(metrics).values())
            assert merged == pytest.approx(
                engine.last_summary.solve_s, rel=1e-9
            ), name
