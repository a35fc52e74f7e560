"""Tests for the process-local metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import json
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_ITERATION_BUCKETS,
    DEFAULT_RESIDUAL_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    parse_prometheus,
)
from repro.obs.metrics import _escape_label, _unescape_label


class TestCounterGauge:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total", help="a test counter")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_depth")
        g.set(5.0)
        g.inc(2.0)
        g.dec(3.0)
        assert g.value == 4.0

    def test_labeled_children_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("repro_runs_total", solver="centralized").inc()
        reg.counter("repro_runs_total", solver="distributed").inc(2)
        # Same labels → same child, regardless of keyword order.
        assert reg.counter("repro_runs_total", solver="centralized").value == 1
        values = {
            dict(labels).get("solver"): value
            for name, labels, value in reg.samples()
            if name == "repro_runs_total"
        }
        assert values == {"centralized": 1.0, "distributed": 2.0}

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_thing")
        with pytest.raises(ValueError):
            reg.gauge("repro_thing")


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.1)   # le=0.1 (inclusive)
        h.observe(0.5)   # le=1.0
        h.observe(2.0)   # +Inf overflow
        assert h.count == 3
        assert h.sum == pytest.approx(2.6)
        # Cumulative counts: le=0.1 → 1, le=1.0 → 2, +Inf → 3.
        assert h.cumulative() == [1, 2, 3]

    def test_edges_must_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("repro_bad", buckets=(1.0, 1.0))

    def test_default_bucket_families_are_sane(self):
        for edges in (
            DEFAULT_TIME_BUCKETS,
            DEFAULT_ITERATION_BUCKETS,
            DEFAULT_RESIDUAL_BUCKETS,
        ):
            assert list(edges) == sorted(edges)
            assert len(edges) == len(set(edges))

    def test_bucket_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("repro_h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("repro_h", buckets=(1.0, 3.0))


class TestExposition:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("repro_solves_total", help="solves", solver="ipqp").inc(7)
        reg.gauge("repro_last_run_seconds").set(1.25)
        h = reg.histogram(
            "repro_solve_seconds", help="per-slot", buckets=(0.01, 0.1, 1.0)
        )
        for v in (0.005, 0.02, 0.5, 3.0):
            h.observe(v)
        return reg

    def test_json_roundtrip_preserves_samples(self):
        reg = self._populated()
        data = reg.to_dict()
        assert json.loads(json.dumps(data)) == data
        by_name = {f["name"]: f for f in data["families"]}
        (solves,) = by_name["repro_solves_total"]["children"]
        assert solves == {"labels": {"solver": "ipqp"}, "value": 7.0}
        (hist,) = by_name["repro_solve_seconds"]["children"]
        assert by_name["repro_solve_seconds"]["buckets"] == [0.01, 0.1, 1.0]
        assert hist["counts"] == [1, 1, 1, 1] and hist["count"] == 4

    def test_prometheus_roundtrip_preserves_samples(self):
        reg = self._populated()
        parsed = parse_prometheus(reg.to_prometheus())
        expected = {
            (name, tuple(sorted(labels))): value
            for name, labels, value in reg.samples()
        }
        got = {
            (name, tuple(sorted(labels))): value
            for (name, labels), value in parsed.items()
        }
        assert got == expected

    def test_prometheus_text_shape(self):
        text = self._populated().to_prometheus()
        assert "# TYPE repro_solves_total counter" in text
        assert 'repro_solves_total{solver="ipqp"} 7' in text
        assert "# TYPE repro_solve_seconds histogram" in text
        assert 'repro_solve_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_solve_seconds_count 4" in text

    def test_label_value_escaping_roundtrips(self):
        reg = MetricsRegistry()
        tricky = 'a"b\\c\nd'
        reg.counter("repro_esc_total", path=tricky).inc()
        parsed = parse_prometheus(reg.to_prometheus())
        ((name, labels),) = parsed.keys()
        assert name == "repro_esc_total"
        assert dict(labels)["path"] == tricky

    @given(st.text())
    @settings(max_examples=200, deadline=None)
    def test_escape_unescape_roundtrips_any_text(self, value):
        assert _unescape_label(_escape_label(value)) == value

    @given(st.text())
    @settings(max_examples=200, deadline=None)
    def test_exposition_roundtrips_any_label_value(self, value):
        # The full pipeline: registry → exposition text → parser.  Any
        # label value must survive, including chained backslashes
        # followed by literal n/quote characters — the inputs that a
        # replace-chain unescaper corrupts — and characters like form
        # feed that str.splitlines would treat as line breaks.
        reg = MetricsRegistry()
        reg.counter("repro_prop_total", path=value).inc()
        parsed = parse_prometheus(reg.to_prometheus())
        ((name, labels),) = parsed.keys()
        assert name == "repro_prop_total"
        assert dict(labels)["path"] == value

    def test_infinite_values_survive_both_formats(self):
        reg = MetricsRegistry()
        reg.gauge("repro_inf").set(math.inf)
        (family,) = reg.to_dict()["families"]
        assert family["children"][0]["value"] == math.inf
        parsed = parse_prometheus(reg.to_prometheus())
        assert list(parsed.values()) == [math.inf]


class TestRegisteredLookups:
    def test_mismatched_lookups_of_an_existing_family_raise(self):
        # Lookups of a registered family skip validation, but every
        # kind, label and bucket mismatch against it still raises.
        reg = MetricsRegistry()
        reg.histogram("repro_l_seconds", buckets=(0.1, 1.0), solver="a")
        reg.counter("repro_l_total", solver="a", worker="1")
        for _ in range(2):  # the first lookup after creation, and a later one
            assert reg.histogram(
                "repro_l_seconds", buckets=[0.1, 1], solver="a"
            ) is reg.histogram("repro_l_seconds", buckets=(0.1, 1.0), solver="a")
            with pytest.raises(ValueError, match="already registered as"):
                reg.counter("repro_l_seconds", solver="a")
            with pytest.raises(ValueError, match="buckets"):
                reg.histogram("repro_l_seconds", buckets=(0.1, 2.0), solver="a")
            with pytest.raises(ValueError, match="labels"):
                reg.histogram("repro_l_seconds", buckets=(0.1, 1.0), worker="a")
            with pytest.raises(ValueError, match="labels"):
                reg.counter("repro_l_total", solver="a")
            # Label order does not matter; the label set does.
            reg.counter("repro_l_total", worker="1", solver="a").inc()
            with pytest.raises(ValueError, match="labels"):
                reg.counter("repro_l_total", worker="1", solver="a", host="h")
        assert reg.counter("repro_l_total", solver="a", worker="1").value == 2

    def test_invalid_names_raise_at_registration(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="metric name"):
            reg.counter("bad-name")
        with pytest.raises(ValueError, match="label name"):
            reg.counter("repro_ok_total", **{"bad-label": "x"})


class TestConcurrency:
    def test_parallel_increments_are_not_lost(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_race_total")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000
