"""Worker-side observability: reports shipped back with each slot.

The execution clients run :func:`~repro.engine.horizon._solve_chunk` in
other processes (or, over the socket client, other machines), where the
parent's :class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.spans.SpanTracer` cannot see.  This module defines
the compact, picklable bridge across that boundary:

- :class:`TraceContext` — the trace id and parent span id the engine
  injects at submit time, so worker spans re-parent under the engine's
  run span when they come home;
- :class:`WorkerObsPlan` — the per-chunk instruction the engine sends
  along with the work ("collect metrics/spans, profile the top-N
  functions, and tag everything with this trace context");
- :class:`WorkerReport` — what comes back attached to each
  :class:`~repro.engine.horizon.SlotOutcome`: the worker's metric
  samples for that slot (a :meth:`MetricsRegistry.to_dict` payload the
  parent folds in via :meth:`MetricsRegistry.merge_samples`), the
  slot's finished span dicts (worker-local ids, re-parented by
  :meth:`SpanTracer.adopt`), and optional cProfile hotspot rows.

Everything is stdlib-only and plain-data so it pickles across the mp
pool and serializes over the socket RPC unchanged.  When no plan is
sent (the default), workers build none of this and the solve path is
bit-identical to the unobserved one.
"""

from __future__ import annotations

import cProfile
import platform
import pstats
from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry
from repro.obs.records import SlotTelemetry

__all__ = [
    "TraceContext",
    "WorkerObsPlan",
    "WorkerReport",
    "local_host",
    "profile_hotspots",
    "slot_metrics",
]


@dataclass(frozen=True)
class TraceContext:
    """Submit-time trace coordinates propagated to workers.

    Attributes:
        trace_id: the run id the work belongs to (ledger run id when a
            ledger is active, else a per-run token).
        parent_span_id: span id *in the parent tracer's id space* that
            adopted worker spans should hang under.
    """

    trace_id: str
    parent_span_id: int | None = None


@dataclass(frozen=True)
class WorkerObsPlan:
    """What the engine asks workers to observe for one chunk.

    Attributes:
        metrics: collect per-slot worker metric samples.
        spans: collect per-slot worker spans.
        trace: trace context to stamp on every report.
        profile: when > 0, run cProfile around each slot's solve and
            ship the top-``profile`` hotspot rows (by cumulative time).
    """

    metrics: bool = True
    spans: bool = True
    trace: TraceContext | None = None
    profile: int = 0


@dataclass(frozen=True)
class WorkerReport:
    """One slot's worker-side observability payload.

    Attributes:
        worker: OS pid of the solving process.
        host: hostname of the solving machine (socket fleets span
            machines; mp pools report the local host).
        metrics: a :meth:`MetricsRegistry.to_dict` payload covering this
            slot only — the parent merges it with ``merge_samples``, so
            summing per-slot payloads never double-counts.
        spans: this slot's finished span dicts (worker-local ids).
        trace: the :class:`TraceContext` the work was submitted under.
        profile: cProfile hotspot rows (empty unless profiling was
            requested); each row has ``func``, ``calls``, ``tottime``
            and ``cumtime``.
        profile_scope: ``"slot"`` when the profile wraps one slot,
            ``"chunk"`` when the batched lane could only profile the
            whole chunk (attached to its first outcome).
    """

    worker: int
    host: str
    metrics: dict[str, Any] | None = None
    spans: tuple[dict[str, Any], ...] = ()
    trace: TraceContext | None = None
    profile: tuple[dict[str, Any], ...] = ()
    profile_scope: str = "slot"


def local_host() -> str:
    """The local node name (best effort, never raises)."""
    try:
        return platform.node() or "localhost"
    except Exception:  # pragma: no cover - platform.node is total in practice
        return "localhost"


def slot_metrics(tele: SlotTelemetry) -> MetricsRegistry:
    """A fresh single-slot registry built from one slot's telemetry.

    The family names are the worker-side (``repro_worker_*``) series:

    - ``repro_worker_slots_total{worker,solver}``
    - ``repro_worker_slot_solve_seconds{worker}`` (histogram)
    - ``repro_worker_slot_compile_seconds{worker}`` (histogram, cache
      misses only)
    - ``repro_worker_slot_certify_seconds{worker}`` (histogram, when
      certification ran)
    - ``repro_worker_slot_failures_total{worker,error_type}``

    Summed across a worker's slots, the solve histogram's ``_sum``
    accounts for that worker's full solve wall time — the property the
    ledger acceptance check asserts.
    """
    reg = MetricsRegistry()
    worker = str(tele.worker if tele.worker is not None else "?")
    reg.counter(
        "repro_worker_slots_total",
        help="slots solved in worker processes",
        worker=worker,
        solver=tele.solver,
    ).inc()
    reg.histogram(
        "repro_worker_slot_solve_seconds",
        help="worker-side per-slot solve wall time",
        buckets=DEFAULT_TIME_BUCKETS,
        worker=worker,
    ).observe(tele.wall_s)
    if tele.compile_s:
        reg.histogram(
            "repro_worker_slot_compile_seconds",
            help="worker-side per-slot structure compile time",
            buckets=DEFAULT_TIME_BUCKETS,
            worker=worker,
        ).observe(tele.compile_s)
    if tele.certify_s:
        reg.histogram(
            "repro_worker_slot_certify_seconds",
            help="worker-side per-slot certification time",
            buckets=DEFAULT_TIME_BUCKETS,
            worker=worker,
        ).observe(tele.certify_s)
    if tele.error_type is not None:
        reg.counter(
            "repro_worker_slot_failures_total",
            help="slots that failed in worker processes",
            worker=worker,
            error_type=tele.error_type,
        ).inc()
    return reg


@dataclass
class _Hotspot:
    func: str
    calls: int
    tottime: float
    cumtime: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "func": self.func,
            "calls": self.calls,
            "tottime": self.tottime,
            "cumtime": self.cumtime,
        }


def profile_hotspots(
    profiler: cProfile.Profile, top: int = 10
) -> tuple[dict[str, Any], ...]:
    """The ``top`` functions by cumulative time as JSON-ready rows."""
    stats = pstats.Stats(profiler)
    rows: list[_Hotspot] = []
    for (filename, lineno, name), (cc, nc, tt, ct, _callers) in stats.stats.items():
        func = f"{filename.rsplit('/', 1)[-1]}:{lineno}({name})"
        rows.append(_Hotspot(func=func, calls=int(nc), tottime=tt, cumtime=ct))
    rows.sort(key=lambda r: (-r.cumtime, r.func))
    return tuple(r.to_dict() for r in rows[: max(0, int(top))])
