"""Tests for span tracing (repro.obs.spans) and its distributed hooks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.admg.solver import DistributedUFCSolver
from repro.core.strategies import HYBRID
from repro.distributed.coordinator import DistributedRuntime
from repro.distributed.staleness import StalenessRuntime
from repro.obs import NULL_TRACER, SpanTracer, as_tracer
from repro.sim.simulator import Simulator


@pytest.fixture()
def slot_problem(small_model, small_bundle):
    sim = Simulator(small_model, small_bundle)
    return sim.problem_for_slot(0, HYBRID)


class TestSpanTracer:
    def test_nesting_links_parents(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", step=1) as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Finished in leaf-first order.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        assert tracer.spans[0].attributes["step"] == 1

    def test_timings_are_recorded(self):
        tracer = SpanTracer()
        with tracer.span("work"):
            sum(range(1000))
        (span,) = tracer.spans
        assert span.wall_s >= 0.0
        assert span.cpu_s >= 0.0

    def test_span_survives_exceptions(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in tracer.spans] == ["doomed"]
        # The stack unwound: a new root has no parent.
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("nothing", x=1) as span:
            span.set(y=2)
        assert not NULL_TRACER.enabled
        assert as_tracer(None) is NULL_TRACER
        real = SpanTracer()
        assert as_tracer(real) is real


class TestRecord:
    def test_record_hangs_under_the_open_span(self):
        # Work timed elsewhere (a worker's slot) is recorded with its
        # measured wall time as a child of whichever span is open.
        tracer = SpanTracer()
        with tracer.span("engine.run") as run_span:
            recorded = tracer.record("worker.slot", 0.25, index=7)
        assert recorded.parent_id == run_span.span_id
        assert recorded.wall_s == 0.25 and recorded.cpu_s == 0.0
        assert recorded.attributes == {"index": 7}
        assert tracer.by_name("worker.slot") == [recorded]
        assert len({s.span_id for s in tracer.spans}) == 2
        # With no span open it is a root; the null tracer keeps nothing.
        assert tracer.record("loose", 0.1).parent_id is None
        NULL_TRACER.record("worker.slot", 0.25, index=7)
        assert NULL_TRACER.spans == []


class TestDistributedSpans:
    def test_round_spans_match_iterations_and_bytes(self, slot_problem):
        tracer = SpanTracer()
        solver = DistributedUFCSolver(tol=1e-3, max_iter=400)
        run = DistributedRuntime(slot_problem, solver, tracer=tracer).run()
        rounds = tracer.by_name("distributed.round")
        assert len(rounds) == run.iterations
        m = slot_problem.model.num_frontends
        n = slot_problem.model.num_datacenters
        first = rounds[0].attributes
        # 2 MN messages, 3 MN floats = 24 MN bytes per round.
        assert first["messages"] == 2 * m * n
        assert first["bytes"] == 24 * m * n
        assert first["frontend_subproblem_s"] >= 0.0
        assert first["datacenter_subproblem_s"] >= 0.0
        (root,) = tracer.by_name("distributed.solve")
        assert root.attributes["iterations"] == run.iterations
        assert root.attributes["messages"] == run.messages_sent
        # Every round span is a child of the root solve span.
        assert {s.parent_id for s in rounds} == {root.span_id}

    def test_round_residuals_match_run_history(self, slot_problem):
        tracer = SpanTracer()
        solver = DistributedUFCSolver(tol=1e-3, max_iter=400)
        run = DistributedRuntime(slot_problem, solver, tracer=tracer).run()
        traced = [
            s.attributes["coupling_residual"]
            for s in tracer.by_name("distributed.round")
        ]
        np.testing.assert_allclose(traced, run.coupling_residuals)

    def test_tracing_is_bit_identical(self, slot_problem):
        solver = DistributedUFCSolver(tol=1e-3, max_iter=400)
        plain = DistributedRuntime(slot_problem, solver).run()
        solver2 = DistributedUFCSolver(tol=1e-3, max_iter=400)
        traced = DistributedRuntime(
            slot_problem, solver2, tracer=SpanTracer()
        ).run()
        assert (plain.allocation.lam == traced.allocation.lam).all()
        assert plain.iterations == traced.iterations
        assert plain.ufc == traced.ufc


class TestStalenessSpans:
    def test_stale_round_spans_carry_staleness(self, slot_problem):
        tracer = SpanTracer()
        rt = StalenessRuntime(
            slot_problem, delay_probability=0.2, seed=7, tracer=tracer
        )
        run = rt.run()
        rounds = tracer.by_name("distributed.stale_round")
        assert len(rounds) == run.iterations
        assert sum(s.attributes["delayed"] for s in rounds) == run.delayed_messages
        assert sum(s.attributes["messages"] for s in rounds) == run.total_messages
        # Stragglers applied at round k are the messages delayed at k-1.
        for prev, cur in zip(rounds, rounds[1:]):
            assert cur.attributes["stragglers_applied"] == prev.attributes["delayed"]
        (root,) = tracer.by_name("distributed.stale_solve")
        assert root.attributes["delayed_messages"] == run.delayed_messages

    def test_tracing_never_consumes_the_delay_rng(self, slot_problem):
        plain = StalenessRuntime(slot_problem, delay_probability=0.3, seed=11).run()
        traced = StalenessRuntime(
            slot_problem, delay_probability=0.3, seed=11, tracer=SpanTracer()
        ).run()
        assert plain.delayed_messages == traced.delayed_messages
        assert plain.iterations == traced.iterations
        assert (plain.allocation.lam == traced.allocation.lam).all()
