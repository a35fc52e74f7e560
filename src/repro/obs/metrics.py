"""Process-local metrics registry with JSON and Prometheus exposition.

A :class:`MetricsRegistry` holds named metric *families* — counters,
gauges and histograms with fixed bucket edges — each fanning out into
labelled children (``solver="centralized"`` and
``solver="distributed"`` are two children of one family).  Instrumented
code asks the registry for a child and bumps it::

    reg = MetricsRegistry()
    reg.counter("repro_engine_slots_total", solver="centralized").inc()
    reg.histogram("repro_slot_solve_seconds").observe(0.012)

Two exposition formats expose the same state:

- :meth:`MetricsRegistry.to_dict` (JSON-ready nested dicts, what the
  CLI writes to disk);
- :meth:`MetricsRegistry.to_prometheus` (the Prometheus text format,
  with histograms expanded into cumulative ``_bucket``/``_sum``/
  ``_count`` samples) and :func:`parse_prometheus` to read it back.

:meth:`MetricsRegistry.samples` is the canonical flat view both
formats are compared against in tests.

Everything here is stdlib-only and process-local by design: metrics
incremented inside process-pool workers die with the worker, which is
why the engine records every per-slot series — its own and the
``repro_worker_*`` ones — in the parent, from the telemetry on the
outcomes the workers send home.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from threading import Lock
from typing import Any, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_ITERATION_BUCKETS",
    "DEFAULT_RESIDUAL_BUCKETS",
]

#: Solve / compile durations in seconds (sub-ms to tens of seconds).
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Iterative-solver iteration counts.
DEFAULT_ITERATION_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000,
)

#: Relative residuals / violations (log-spaced; certification feeds these).
DEFAULT_RESIDUAL_BUCKETS: tuple[float, ...] = (
    1e-12, 1e-10, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(v: float) -> str:
    """Prometheus-style float rendering (``+Inf``, integral shortening)."""
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        self.value += float(amount)


class Gauge:
    """A value that can go up and down (last write wins)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self.value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.value -= float(amount)


class Histogram:
    """A fixed-bucket histogram (Prometheus ``le`` semantics).

    ``edges`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches the overflow.  An observation lands in the first bucket
    whose edge is ``>= value`` (edges are inclusive upper bounds).
    """

    kind = "histogram"
    __slots__ = ("edges", "counts", "sum", "count")

    def __init__(self, edges: Sequence[float]) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"bucket edges must strictly increase, got {edges}")
        if math.isinf(edges[-1]):
            edges = edges[:-1]  # the +Inf bucket is implicit
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts (Prometheus ``le`` convention)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric with a fixed kind, label names and children."""

    __slots__ = (
        "name", "kind", "help", "label_names", "orders", "buckets", "children"
    )

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        # Label-name orders already checked against label_names.
        self.orders: set[tuple[str, ...]] = {label_names}
        self.buckets = buckets
        self.children: dict[tuple[str, ...], Any] = {}

    def child(self, labels: Mapping[str, Any]):
        order = tuple(labels)
        if order not in self.orders:
            names = tuple(sorted(str(k) for k in labels))
            if names != self.label_names:
                raise ValueError(
                    f"metric {self.name!r} was registered with labels "
                    f"{self.label_names}, got {names}"
                )
            self.orders.add(order)
        key = tuple(str(labels[k]) for k in self.label_names)
        metric = self.children.get(key)
        if metric is None:
            if self.kind == "histogram":
                metric = Histogram(self.buckets)
            else:
                metric = _KINDS[self.kind]()
            self.children[key] = metric
        return metric


class MetricsRegistry:
    """A process-local collection of metric families.

    Lookups are get-or-create and thread-safe; re-registering a name
    with a different kind, label set or bucket edges raises instead of
    silently splitting the series.  Names, label names and bucket
    edges are validated once, when a family is created; later lookups
    only check that they match it.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = Lock()

    # -- registration / lookup ------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Mapping[str, Any],
        buckets: Sequence[float] | None = None,
    ) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = self._register(name, kind, help, labels, buckets)
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"cannot re-register as {kind}"
            )
        # tuple() of a tuple is the tuple itself, and 1 == 1.0, so the
        # usual lookup with a bucket constant compares without copying.
        if buckets is not None and family.buckets != tuple(buckets):
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{family.buckets}, got {tuple(buckets)}"
            )
        return family

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Mapping[str, Any],
        buckets: Sequence[float] | None,
    ) -> _Family:
        """Validate and create a family (or return a racing thread's)."""
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(str(label)):
                raise ValueError(f"invalid label name {label!r}")
        if buckets is not None:
            buckets = tuple(float(e) for e in buckets)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(
                    name, kind, help, tuple(sorted(str(k) for k in labels)), buckets
                )
                self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        """The counter child for ``(name, labels)``, created on first use."""
        return self._family(name, "counter", help, labels).child(labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        """The gauge child for ``(name, labels)``, created on first use."""
        return self._family(name, "gauge", help, labels).child(labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        """The histogram child for ``(name, labels)``, created on first use."""
        return self._family(name, "histogram", help, labels, buckets).child(labels)

    # -- canonical flat view --------------------------------------------------

    def samples(self) -> list[tuple[str, tuple[tuple[str, str], ...], float]]:
        """Every exposition sample as ``(name, ((label, value), ...), number)``.

        Histograms are expanded exactly as the Prometheus text format
        exposes them (cumulative ``_bucket`` series with an ``le``
        label, plus ``_sum`` and ``_count``), so this is the canonical
        form both exposition formats are checked against.
        """
        out: list[tuple[str, tuple[tuple[str, str], ...], float]] = []
        for family in self._families.values():
            for key in sorted(family.children):
                metric = family.children[key]
                labels = tuple(zip(family.label_names, key))
                if family.kind == "histogram":
                    edges = list(metric.edges) + [math.inf]
                    for edge, cum in zip(edges, metric.cumulative()):
                        le = labels + (("le", _format_value(edge)),)
                        out.append((family.name + "_bucket", le, float(cum)))
                    out.append((family.name + "_sum", labels, metric.sum))
                    out.append((family.name + "_count", labels, float(metric.count)))
                else:
                    out.append((family.name, labels, metric.value))
        return out

    # -- JSON exposition ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The registry's full state as JSON-ready nested dicts."""
        families = []
        for family in self._families.values():
            children = []
            for key in sorted(family.children):
                metric = family.children[key]
                labels = dict(zip(family.label_names, key))
                if family.kind == "histogram":
                    children.append(
                        {
                            "labels": labels,
                            "counts": list(metric.counts),
                            "sum": metric.sum,
                            "count": metric.count,
                        }
                    )
                else:
                    children.append({"labels": labels, "value": metric.value})
            entry: dict[str, Any] = {
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "children": children,
            }
            if family.buckets is not None:
                entry["buckets"] = list(family.buckets)
            families.append(entry)
        return {"families": families}

    # -- Prometheus text exposition -------------------------------------------

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: list[str] = []
        samples = self.samples()
        emitted_header: set[str] = set()
        for family in self._families.values():
            if family.name not in emitted_header:
                emitted_header.add(family.name)
                if family.help:
                    lines.append(f"# HELP {family.name} {family.help}")
                lines.append(f"# TYPE {family.name} {family.kind}")
            prefix = family.name
            for name, labels, value in samples:
                base = name
                for suffix in ("_bucket", "_sum", "_count"):
                    if family.kind == "histogram" and name.endswith(suffix):
                        base = name[: -len(suffix)]
                        break
                if base != prefix:
                    continue
                lines.append(_render_sample(name, labels, value))
        return "\n".join(lines) + ("\n" if lines else "")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_sample(
    name: str, labels: tuple[tuple[str, str], ...], value: float
) -> str:
    if labels:
        body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels)
        return f"{name}{{{body}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


_ESCAPE_SEQ_RE = re.compile(r"\\(.)")
_UNESCAPE_MAP = {"n": "\n", '"': '"', "\\": "\\"}


def _unescape_label(value: str) -> str:
    # A single left-to-right pass over escape sequences: chained
    # ``str.replace`` calls are order-sensitive and corrupt values like
    # ``\\n`` (an escaped backslash followed by a literal ``n``), which
    # must decode to backslash + ``n``, not backslash + newline.
    return _ESCAPE_SEQ_RE.sub(
        lambda m: _UNESCAPE_MAP.get(m.group(1), m.group(0)), value
    )


def parse_prometheus(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse Prometheus text back into ``{(name, labels): value}``.

    The inverse of :meth:`MetricsRegistry.to_prometheus` for the subset
    this library emits; tests use it to assert both exposition formats
    expose identical registry state.
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    # The exposition format is newline-delimited; str.splitlines would
    # additionally break on \x0b/\x0c/\x85/… which are legal *inside*
    # escaped label values.
    for raw in text.split("\n"):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        labels_text = match.group("labels") or ""
        labels = tuple(
            (k, _unescape_label(v)) for k, v in _LABEL_PAIR_RE.findall(labels_text)
        )
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            value = float(value_text)
        out[(match.group("name"), labels)] = value
    return out
