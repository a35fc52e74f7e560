"""Lightweight distributed-trace spans for the coordinator/agent loop.

A :class:`Span` is one timed region with a name, a parent link, wall
and CPU durations, and free-form attributes (message counts, byte
volumes, residuals, staleness observations).  A :class:`SpanTracer`
hands out spans, maintains the parent chain through a stack and keeps
every finished span in memory (:meth:`SpanTracer.to_dicts` exports
them).  Work timed in another process — a worker's slot — is recorded
from its measured wall time with :meth:`SpanTracer.record`, under
whichever span is open; no span crosses a process boundary.

The disabled default — :data:`NULL_TRACER` — short-circuits before any object is built, so instrumented loops cost
one attribute check when tracing is off.

Stdlib-only, like the rest of the observability primitives.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["Span", "SpanTracer", "NullSpanTracer", "NULL_TRACER", "as_tracer"]


@dataclass
class Span:
    """One finished (or in-flight) timed region of a trace.

    Attributes:
        name: dotted span name (e.g. ``"distributed.round"``).
        span_id: unique id within the owning tracer.
        parent_id: id of the enclosing span, or None for roots.
        wall_s: wall-clock duration in seconds (0 until finished).
        cpu_s: process CPU-time duration in seconds (0 until finished).
        attributes: free-form JSON-representable annotations; mutable
            while the span is open so loops can accumulate counts.
    """

    name: str
    span_id: int
    parent_id: int | None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)

    def set(self, **attributes: Any) -> None:
        """Merge ``attributes`` into the span's annotations."""
        self.attributes.update(attributes)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready flat representation."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "attributes": dict(self.attributes),
        }


class SpanTracer:
    """Collects spans and maintains the open-span parent chain."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a child of the current span for the duration of a block.

        The yielded :class:`Span` is live: callers may ``set()`` more
        attributes before the block exits.  Timing and recording happen
        on exit, even if the block raises — a run that dies mid-horizon
        still leaves its trace behind.
        """
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=None if parent is None else parent.span_id,
            attributes=dict(attributes),
        )
        self._stack.append(span)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield span
        finally:
            span.wall_s = time.perf_counter() - wall0
            span.cpu_s = time.process_time() - cpu0
            self._stack.pop()
            self.spans.append(span)

    def record(self, name: str, wall_s: float, **attributes: Any) -> Span:
        """Record a span timed elsewhere as a child of the current span.

        For work measured outside this tracer's process — a worker's
        slot, whose wall time comes home on the slot's telemetry (its
        CPU time does not, so ``cpu_s`` stays 0).
        """
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=None if parent is None else parent.span_id,
            wall_s=wall_s,
            attributes=attributes,
        )
        self.spans.append(span)
        return span

    def by_name(self, name: str) -> list[Span]:
        """All finished spans with the given name, in finish order."""
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        """Finished direct children of ``span``."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def to_dicts(self) -> list[dict[str, Any]]:
        """Every finished span as a JSON-ready dict, in finish order."""
        return [s.to_dict() for s in self.spans]


class _NullSpan:
    """The shared inert span handed out when tracing is off."""

    __slots__ = ()
    name = ""
    span_id = -1
    parent_id = None
    wall_s = 0.0
    cpu_s = 0.0
    attributes: dict[str, Any] = {}

    def set(self, **attributes: Any) -> None:
        """Do nothing."""


_NULL_SPAN = _NullSpan()


class NullSpanTracer:
    """The no-op tracer: spans cost one attribute check and no allocation."""

    enabled = False
    spans: list[Span] = []

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[_NullSpan]:
        """Run the block untimed, yielding the shared inert span."""
        yield _NULL_SPAN

    def record(self, name: str, wall_s: float, **attributes: Any) -> _NullSpan:
        """Discard the span (tracing is off)."""
        return _NULL_SPAN

    def by_name(self, name: str) -> list[Span]:
        """Always empty."""
        return []

    def to_dicts(self) -> list[dict[str, Any]]:
        """Always empty."""
        return []


#: The shared no-op tracer (tracing off).
NULL_TRACER = NullSpanTracer()


def as_tracer(tracer: SpanTracer | NullSpanTracer | None):
    """``tracer`` itself, or :data:`NULL_TRACER` for None."""
    return NULL_TRACER if tracer is None else tracer
