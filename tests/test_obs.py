"""Tests for the observability layer (repro.obs).

Two invariants anchor everything here: telemetry must be *free* when
off (no events, no allocations on the hot path, bit-identical solver
output) and *faithful* when on (pool workers report exactly what the
serial path does, traces match the solvers' reported iteration
counts).
"""

from __future__ import annotations

import json

import pytest

from repro.admg.solver import DistributedUFCSolver
from repro.core.centralized import CentralizedSolver
from repro.core.strategies import HYBRID
from repro.engine import HorizonEngine
from repro.obs import (
    HorizonSummary,
    JsonlTelemetry,
    NullTelemetry,
    RecordingTelemetry,
    ResidualTrace,
    Telemetry,
    TelemetryEvent,
)
from repro.obs.telemetry import NULL_TELEMETRY, as_telemetry
from repro.sim.simulator import Simulator, build_model
from repro.traces.datasets import default_bundle

HOURS = 12


@pytest.fixture(scope="module")
def bundle():
    return default_bundle(hours=HOURS, seed=2014)


@pytest.fixture(scope="module")
def model(bundle):
    return build_model(bundle)


@pytest.fixture(scope="module")
def slot_problem(bundle, model):
    return Simulator(model, bundle).problem_for_slot(0, HYBRID)


class TestSinks:
    def test_null_sink_emits_nothing(self):
        # The no-op sink must not even *build* events: a subclass that
        # records every emit sees zero calls, because the convenience
        # methods are overridden to return first.
        emitted = []

        class Spy(NullTelemetry):
            def emit(self, event):
                emitted.append(event)

        spy = Spy()
        assert spy.enabled is False
        spy.counter("x", 3, tag=1)
        spy.timer("y", 0.5)
        with spy.span("z"):
            pass
        spy.emit(TelemetryEvent("direct", "counter", 1.0))
        # Only the direct emit landed -- and NullTelemetry's own emit
        # discards even that.
        assert emitted == [TelemetryEvent("direct", "counter", 1.0)]
        assert NULL_TELEMETRY.enabled is False

    def test_as_telemetry(self):
        rec = RecordingTelemetry()
        assert as_telemetry(None) is NULL_TELEMETRY
        assert as_telemetry(rec) is rec

    def test_sinks_satisfy_protocol(self):
        assert isinstance(NullTelemetry(), Telemetry)
        assert isinstance(RecordingTelemetry(), Telemetry)

    def test_recording_sink(self):
        rec = RecordingTelemetry()
        assert rec.enabled
        rec.counter("a.count", 2, where="here")
        rec.timer("a.time", 0.25)
        with rec.span("a.span", slot=3):
            pass
        assert rec.names() == ["a.count", "a.time", "a.span"]
        (count,) = rec.by_name("a.count")
        assert count.kind == "counter"
        assert count.value == 2.0
        assert count.tags == {"where": "here"}
        (span,) = rec.by_name("a.span")
        assert span.kind == "span"
        assert span.value >= 0.0
        assert span.tags == {"slot": 3}
        rec.clear()
        assert rec.events == []

    def test_event_to_dict(self):
        event = TelemetryEvent("e", "timer", 1.5, {"k": "v"})
        assert event.to_dict() == {
            "name": "e", "kind": "timer", "value": 1.5, "tags": {"k": "v"}
        }

    def test_jsonl_sink_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlTelemetry(str(path)) as sink:
            assert sink.enabled
            sink.counter("a", 1, idx=0)
            sink.timer("b", 0.125, odd_tag=object())  # stringified, not fatal
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first == {"name": "a", "kind": "counter", "value": 1.0,
                         "tags": {"idx": 0}}
        assert second["name"] == "b"
        assert isinstance(second["tags"]["odd_tag"], str)
        sink.close()  # idempotent

    def test_jsonl_sink_is_crash_safe_by_default(self, tmp_path):
        # flush_every=1: every event is on disk before close() runs, so
        # a crashed process loses nothing.
        path = tmp_path / "crash.jsonl"
        sink = JsonlTelemetry(str(path))
        sink.counter("a", 1)
        sink.counter("b", 2)
        assert len(path.read_text().splitlines()) == 2  # never closed
        sink.close()

    def test_jsonl_flush_every_batches(self, tmp_path):
        path = tmp_path / "batched.jsonl"
        sink = JsonlTelemetry(str(path), flush_every=3)
        sink.counter("a", 1)
        sink.counter("b", 2)
        assert path.read_text() == ""  # below the batch threshold
        sink.counter("c", 3)
        assert len(path.read_text().splitlines()) == 3  # batch flushed
        sink.close()

    def test_jsonl_flush_every_validates(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlTelemetry(str(tmp_path / "x.jsonl"), flush_every=0)


def _slot_essentials(events):
    """The machine-independent view of an engine.slot event stream."""
    return [
        (
            e.tags["index"],
            e.tags["solver"],
            e.tags["iterations"],
            e.tags["converged"],
            e.tags["ok"],
            e.tags["error_type"],
        )
        for e in events
    ]


class TestEngineTelemetry:
    def test_serial_and_pool_streams_match(self, bundle, model):
        # Pool workers report through pickled SlotTelemetry, so the
        # per-slot event stream is identical to serial modulo worker
        # pids, timings and cache stats (each worker compiles once).
        sim = Simulator(model, bundle)
        problems = [sim.problem_for_slot(t, HYBRID) for t in range(HOURS)]

        serial_rec = RecordingTelemetry()
        HorizonEngine("centralized", telemetry=serial_rec).run(problems)
        pool_rec = RecordingTelemetry()
        HorizonEngine(
            "centralized", workers=2, oversubscribe=True, telemetry=pool_rec
        ).run(problems)

        # The exec.submit/exec.harvest stream is the one legitimate
        # difference: serial solves in one batch, the pool pipelines
        # several — both lanes must emit the events, but the engine's
        # own stream stays identical.
        def engine_names(rec):
            return [n for n in rec.names() if not n.startswith("exec.")]

        assert engine_names(serial_rec) == engine_names(pool_rec)
        for rec in (serial_rec, pool_rec):
            assert rec.by_name("exec.submit") and rec.by_name("exec.harvest")
        serial_slots = serial_rec.by_name("engine.slot")
        pool_slots = pool_rec.by_name("engine.slot")
        assert _slot_essentials(serial_slots) == _slot_essentials(pool_slots)
        # Pool workers are real distinct processes under oversubscribe.
        assert {e.tags["worker"] for e in serial_slots} != set() and all(
            isinstance(e.tags["worker"], int) for e in pool_slots
        )

    def test_run_and_decision_events(self, bundle, model):
        rec = RecordingTelemetry()
        sim = Simulator(model, bundle, telemetry=rec)
        result = sim.run(HYBRID, hours=6)
        (decision,) = rec.by_name("engine.decision")
        assert decision.tags["decision"] == "serial:requested"
        (run_event,) = rec.by_name("engine.run")
        assert run_event.tags["slots"] == 6
        assert run_event.tags["failed"] == 0
        assert run_event.value == pytest.approx(result.horizon_summary.wall_s)
        (compile_event,) = rec.by_name("engine.compile")
        assert compile_event.tags["misses"] == 1
        assert compile_event.tags["hits"] == 5

    def test_telemetry_off_is_bit_identical(self, bundle, model):
        sim = Simulator(model, bundle)
        plain = sim.run(HYBRID)
        observed = sim.run(HYBRID, telemetry=RecordingTelemetry())
        for field in ("ufc", "energy_cost", "utility", "iterations"):
            assert (getattr(plain, field) == getattr(observed, field)).all()

    def test_slot_telemetry_attached_everywhere(self, bundle, model):
        sim = Simulator(model, bundle)
        problems = [sim.problem_for_slot(t, HYBRID) for t in range(4)]
        outcomes = HorizonEngine("centralized").run(problems)
        for outcome in outcomes:
            tele = outcome.telemetry
            assert tele is not None and tele.ok
            assert tele.solver == "centralized"
            assert tele.wall_s > 0.0
            assert tele.iterations == outcome.result.iterations
        assert outcomes[0].telemetry.cache_hit is False
        assert all(o.telemetry.cache_hit for o in outcomes[1:])


class TestResidualTraces:
    def test_record_and_len(self):
        trace = ResidualTrace()
        assert len(trace) == 0
        trace.record(1.0, 0.5, -2.0)
        trace.record(0.1, 0.05, -2.5)
        assert len(trace) == 2
        assert trace.primal == [1.0, 0.1]
        assert trace.dual == [0.5, 0.05]
        assert trace.objective == [-2.0, -2.5]

    def test_admg_trace_matches_iterations(self, slot_problem):
        res = DistributedUFCSolver(max_iter=40, trace=True).solve(slot_problem)
        trace = res.trace
        assert trace is not None
        assert len(trace) == res.iterations
        assert len(trace.dual) == len(trace.objective) == res.iterations
        assert all(p >= 0.0 for p in trace.primal)
        assert all(d >= 0.0 for d in trace.dual)
        # The primal series is the residual pair driving the stop test.
        assert trace.primal == [
            max(c, p)
            for c, p in zip(res.coupling_residuals, res.power_residuals)
        ]

    def test_admg_trace_off_by_default_and_per_call_override(self, slot_problem):
        solver = DistributedUFCSolver(max_iter=10)
        assert solver.solve(slot_problem).trace is None
        assert solver.solve(slot_problem, trace=True).trace is not None
        tracing = DistributedUFCSolver(max_iter=10, trace=True)
        assert tracing.solve(slot_problem, trace=False).trace is None

    def test_admg_iterates_identical_with_tracing(self, slot_problem):
        solver = DistributedUFCSolver(max_iter=40)
        plain = solver.solve(slot_problem)
        traced = solver.solve(slot_problem, trace=True)
        assert (plain.allocation.lam == traced.allocation.lam).all()
        assert (plain.allocation.mu == traced.allocation.mu).all()
        assert plain.ufc == traced.ufc
        assert plain.iterations == traced.iterations

    def test_ipqp_trace_matches_iterations(self, slot_problem):
        res = CentralizedSolver(trace=True).solve(slot_problem)
        trace = res.trace
        assert trace is not None
        assert res.iterations > 0
        # Gap/residual are recorded at the top of every iteration; the
        # step sizes only on iterations that took a step.
        assert len(trace) == len(trace.residual) == res.iterations
        assert len(trace.alpha) == len(trace.alpha_affine)
        assert len(trace.alpha) in (res.iterations, res.iterations - 1)
        assert trace.gap[-1] <= trace.gap[0]
        assert all(0.0 < a <= 1.0 for a in trace.alpha)

    def test_ipqp_solution_identical_with_tracing(self, slot_problem):
        plain = CentralizedSolver().solve(slot_problem)
        traced = CentralizedSolver(trace=True).solve(slot_problem)
        assert (plain.allocation.lam == traced.allocation.lam).all()
        assert plain.ufc == traced.ufc
        assert plain.iterations == traced.iterations
        assert CentralizedSolver().solve(slot_problem).trace is None

    def test_traces_surface_through_engine_extras(self, bundle, model):
        sim = Simulator(model, bundle)
        problems = [sim.problem_for_slot(t, HYBRID) for t in range(2)]
        dist = HorizonEngine(
            DistributedUFCSolver(max_iter=10, trace=True)
        ).run(problems)
        for outcome in dist:
            trace = outcome.result.extras["residual_trace"]
            assert len(trace) == outcome.result.iterations
        cent = HorizonEngine(CentralizedSolver(trace=True)).run(problems)
        for outcome in cent:
            assert len(outcome.result.extras["ip_trace"]) == outcome.result.iterations
        # No trace flag, no extras entry -- the default stays lean.
        plain = HorizonEngine("distributed").run(problems[:1])
        assert "residual_trace" not in plain[0].result.extras


class TestHorizonSummary:
    def test_simulator_attaches_summary(self, bundle, model):
        result = Simulator(model, bundle).run(HYBRID, hours=6)
        summary = result.horizon_summary
        assert isinstance(summary, HorizonSummary)
        assert summary.slots == summary.ok_slots == 6
        assert summary.failed_slots == 0
        assert summary.executor == "serial"
        assert summary.wall_s > 0.0
        assert summary.solve_s > 0.0
        assert (summary.cache_misses, summary.cache_hits) == (1, 5)
        assert summary.converged_slots == 6
        assert summary.error_types == {}
        assert 0.0 < summary.accounted_fraction <= 1.0

    def test_compare_strategies_share_one_summary(self, bundle, model):
        comp = Simulator(model, bundle).compare_strategies()
        summary = comp.hybrid.horizon_summary
        assert comp.grid.horizon_summary is summary
        assert comp.fuel_cell.horizon_summary is summary
        # One engine pass over 3 strategies x HOURS slots.
        assert summary.slots == 3 * HOURS
        assert summary.cache_misses == 3  # one compile per strategy

    def test_phase_and_dict_roundtrip(self, bundle, model):
        summary = Simulator(model, bundle).run(HYBRID, hours=4).horizon_summary
        phase = summary.phase_dict()
        assert phase["wall_s"] >= phase["overhead_s"]
        assert json.dumps(summary.to_dict())  # JSON-ready
        assert set(phase) <= set(summary.to_dict())

    def test_format_table_accounts_for_wall_time(self, bundle, model):
        summary = Simulator(model, bundle).run(HYBRID).horizon_summary
        table = summary.format_table()
        assert "horizon profile" in table
        assert "serial:requested" in table
        assert f"{summary.ok_slots} ok" in table
        # The issue's acceptance bar: the profile explains >= 90% of
        # the wall clock on a serial run.
        assert summary.accounted_fraction >= 0.9

    def test_failed_slots_aggregate(self):
        class Outcome:
            def __init__(self, ok, error_type=None):
                self.ok = ok
                self.error_type = error_type
                self.telemetry = None

        summary = HorizonSummary.from_outcomes(
            [Outcome(True), Outcome(False, "ValueError"), Outcome(False)],
            solver="s",
            wall_s=1.0,
            executor="serial",
            decision="serial:requested",
            workers_requested=1,
            workers_effective=1,
            usable_cpus=1,
        )
        assert summary.failed_slots == 2
        assert summary.error_types == {"ValueError": 1, "Exception": 1}
        assert "failures" in summary.format_table()

    def _summary(self, **kw):
        class Outcome:
            ok = True
            error_type = None
            telemetry = None

        return HorizonSummary.from_outcomes(
            [Outcome()],
            solver="s",
            wall_s=1.0,
            executor="serial",
            decision="serial:requested",
            workers_requested=1,
            workers_effective=1,
            usable_cpus=1,
            **kw,
        )

    def test_store_hit_rate_none_when_store_disabled(self):
        # Regression: a run without a result store must report a null
        # hit rate, not 0.0 — 0.0 means "store attached, every probe
        # missed" and used to be emitted for store-less runs too.
        summary = self._summary()
        assert summary.store_hit_rate is None
        assert summary.to_dict()["store_hit_rate"] is None
        assert "store" not in summary.format_table()

    def test_store_hit_rate_zero_when_all_misses(self):
        summary = self._summary(store_hits=0, store_misses=4)
        assert summary.store_hit_rate == 0.0
        assert summary.to_dict()["store_hit_rate"] == 0.0
        assert "store" in summary.format_table()

    def test_store_hit_rate_counts(self):
        summary = self._summary(store_hits=3, store_misses=1)
        assert summary.store_hit_rate == pytest.approx(0.75)
        d = summary.to_dict()
        assert d["store_hit_rate"] == pytest.approx(0.75)
        assert d["store_hits"] == 3
        assert d["store_misses"] == 1


class TestTraceDownsampling:
    """``trace_every=`` records every k-th iteration only."""

    def test_admg_trace_every(self, slot_problem):
        full = DistributedUFCSolver(max_iter=40, trace=True).solve(slot_problem)
        sampled = DistributedUFCSolver(
            max_iter=40, trace=True, trace_every=5
        ).solve(slot_problem)
        assert sampled.iterations == full.iterations
        expected = -(-full.iterations // 5)  # ceil: iterations 1, 6, 11, ...
        assert len(sampled.trace) == expected
        # Downsampling keeps the rows it does record identical.
        assert sampled.trace.primal == full.trace.primal[::5]
        # And never perturbs the iterates.
        assert (sampled.allocation.lam == full.allocation.lam).all()

    def test_ipqp_trace_every(self, slot_problem):
        full = CentralizedSolver(trace=True).solve(slot_problem)
        sampled = CentralizedSolver(trace=True, trace_every=3).solve(slot_problem)
        assert sampled.iterations == full.iterations
        assert len(sampled.trace) == -(-full.iterations // 3)
        assert sampled.trace.gap == full.trace.gap[::3]
        assert (sampled.allocation.lam == full.allocation.lam).all()

    def test_trace_every_validates(self, slot_problem):
        with pytest.raises(ValueError):
            DistributedUFCSolver(trace_every=0)
        with pytest.raises(ValueError):
            CentralizedSolver(trace_every=-1).solve(slot_problem)
