"""Tests for the distributed observability plane: WorkerReport
propagation from execution workers, parent-side merging of metrics and
spans, trace-context injection, and the worker-side profiling hooks.
"""

from __future__ import annotations

import pytest

from repro.core.strategies import HYBRID
from repro.engine import HorizonEngine
from repro.engine.resilience import ResilienceConfig, RetryPolicy
from repro.obs import MetricsRegistry, SpanTracer
from repro.obs.ledger import load_run
from repro.obs.worker import (
    TraceContext,
    WorkerObsPlan,
    WorkerReport,
    profile_hotspots,
    slot_metrics,
)
from repro.sim.simulator import Simulator

SLOTS = 6


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


class TestReportAttachment:
    def test_consumers_auto_enable_reports(self, problems):
        metrics = MetricsRegistry()
        tracer = SpanTracer()
        engine = HorizonEngine("centralized", metrics=metrics, tracer=tracer)
        outcomes = engine.run(problems)
        assert all(o.worker_report is not None for o in outcomes)
        report = outcomes[0].worker_report
        assert report.worker > 0
        assert report.host
        assert report.metrics is not None
        assert report.spans

    def test_no_consumer_means_no_reports_and_identical_output(
        self, problems, baseline_ufc
    ):
        engine = HorizonEngine("centralized")
        outcomes = engine.run(problems)
        assert all(o.worker_report is None for o in outcomes)
        assert [o.result.ufc for o in outcomes] == baseline_ufc

    def test_worker_obs_false_overrides_consumers(
        self, problems, baseline_ufc, tmp_path
    ):
        # Worker reports follow their consumers (metrics, tracer,
        # profile) only: a run ledger alone builds none, its slot
        # records name no worker host, and the output is bit-identical.
        engine = HorizonEngine("centralized", ledger=tmp_path)
        outcomes = engine.run(problems)
        assert all(o.worker_report is None for o in outcomes)
        assert [o.result.ufc for o in outcomes] == baseline_ufc
        run = load_run(engine.last_ledger_path)
        assert not any("worker_host" in s for s in run.slots)

    def test_observed_output_is_bit_identical(self, problems, baseline_ufc):
        engine = HorizonEngine(
            "centralized",
            metrics=MetricsRegistry(),
            tracer=SpanTracer(),
            worker_profile=3,
        )
        assert [o.result.ufc for o in engine.run(problems)] == baseline_ufc


class TestMerging:
    def test_merged_metrics_account_for_all_solve_wall(self, problems):
        metrics = MetricsRegistry()
        engine = HorizonEngine("centralized", metrics=metrics)
        outcomes = engine.run(problems)
        summary = engine.last_summary
        merged = sum(_worker_solve_sums(metrics).values())
        # Worker-shipped samples are built from the same telemetry the
        # summary aggregates: accounting is exact, not just >= 90%.
        assert merged == pytest.approx(summary.solve_s, rel=1e-9)
        slots_total = sum(
            value
            for name, _, value in metrics.samples()
            if name == "repro_worker_slots_total"
        )
        assert slots_total == len(outcomes)

    def test_spans_adopt_under_run_span_with_trace_context(
        self, problems, tmp_path
    ):
        tracer = SpanTracer()
        engine = HorizonEngine("centralized", tracer=tracer, ledger=tmp_path)
        outcomes = engine.run(problems)
        (run_span,) = tracer.by_name("engine.run")
        slot_spans = tracer.by_name("worker.slot")
        assert len(slot_spans) == len(problems)
        assert all(s.parent_id == run_span.span_id for s in slot_spans)
        run = load_run(engine.last_ledger_path)
        for outcome in outcomes:
            trace = outcome.worker_report.trace
            assert trace is not None
            assert trace.trace_id == run.run_id
            assert trace.parent_span_id == run_span.span_id

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
        assert all(o.worker_report is not None for o in outcomes)
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
        assert all(o.worker_report is None for o in plain)
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


class TestProfiling:
    def test_per_slot_profiles_ship_on_scalar_lane(self, problems):
        engine = HorizonEngine("centralized", worker_profile=5)
        outcomes = engine.run(problems[:3])
        for outcome in outcomes:
            report = outcome.worker_report
            assert report.profile_scope == "slot"
            assert 0 < len(report.profile) <= 5
            row = report.profile[0]
            assert {"func", "calls", "tottime", "cumtime"} <= set(row)
        # Rows are sorted by cumulative time, descending.
        rows = outcomes[0].worker_report.profile
        cums = [r["cumtime"] for r in rows]
        assert cums == sorted(cums, reverse=True)

    def test_resilient_lane_profiles_and_spans_per_slot(self, problems):
        tracer = SpanTracer()
        engine = HorizonEngine(
            "centralized",
            tracer=tracer,
            worker_profile=5,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2), fallback=("proportional",)
            ),
        )
        outcomes = engine.run(problems[:3])
        for outcome in outcomes:
            report = outcome.worker_report
            assert report.profile_scope == "slot"
            assert 0 < len(report.profile) <= 5
        slot_spans = tracer.by_name("worker.slot")
        assert len(slot_spans) == 3
        assert not any(s.attributes.get("synthesized") for s in slot_spans)

    def test_batched_lane_synthesizes_spans_and_chunk_profile(self, problems):
        tracer = SpanTracer()
        engine = HorizonEngine(
            "centralized-batch", tracer=tracer, worker_profile=4
        )
        outcomes = engine.run(problems)
        slot_spans = tracer.by_name("worker.slot")
        assert len(slot_spans) == len(problems)
        assert all(s.attributes.get("synthesized") for s in slot_spans)
        # One chunk-scope profile, attached to the chunk's first outcome.
        first = outcomes[0].worker_report
        assert first.profile_scope == "chunk"
        assert first.profile
        assert all(not o.worker_report.profile for o in outcomes[1:])

    def test_profile_rejects_negative(self):
        with pytest.raises(ValueError, match="worker_profile"):
            HorizonEngine("centralized", worker_profile=-1)


class TestWorkerPrimitives:
    def test_slot_metrics_families(self, problems):
        outcome = HorizonEngine("centralized").run(problems[:1])[0]
        reg = slot_metrics(outcome.telemetry)
        names = {name for name, _, _ in reg.samples()}
        assert "repro_worker_slots_total" in names
        assert "repro_worker_slot_solve_seconds_sum" in names
        sums = _worker_solve_sums(reg)
        assert sum(sums.values()) == pytest.approx(outcome.telemetry.wall_s)

    def test_profile_hotspots_orders_and_caps(self):
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        sum(range(10000))
        sorted(range(1000), reverse=True)
        profiler.disable()
        rows = profile_hotspots(profiler, top=2)
        assert len(rows) <= 2
        assert all("func" in r for r in rows)
        assert profile_hotspots(profiler, top=0) == ()

    def test_plain_data_pickles(self):
        import pickle

        plan = WorkerObsPlan(trace=TraceContext("run-1", 7), profile=3)
        report = WorkerReport(
            worker=1, host="h", metrics={"families": []}, spans=({"name": "x"},)
        )
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert pickle.loads(pickle.dumps(report)) == report
