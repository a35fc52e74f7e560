"""Opt-in observability: run ledger, metrics, summaries, certificates.

The obs *primitives* — the run ledger, the metrics registry, per-slot
records and summaries — sit at the bottom of the
library (stdlib-only, importing nothing from other ``repro``
packages).  Code above them — the solve engine, the simulator, the
CLI, the benchmarks — records into whichever of them it was handed.
The run ledger is the one persisted per-run event stream: a header,
one record per slot, and the final :class:`HorizonSummary`.  The
ledger and the registry are off unless one is passed, so solves with
observability off remain bit-identical and within noise of
un-instrumented wall clock.

The one exception is :mod:`repro.obs.certify`, which audits solutions
against the compiled QP and therefore imports numpy/scipy and
``repro.core``.  It is re-exported here lazily so ``import repro.obs``
stays dependency-free; the dependency is one-way (nothing in
``repro.core`` imports obs).
"""

from repro.obs.ledger import (
    LedgerRun,
    RunLedger,
    diff_runs,
    interrupt_guard,
    ledger_path,
    list_runs,
    load_run,
    new_run_id,
    resolve_run,
)
from repro.obs.metrics import (
    DEFAULT_ITERATION_BUCKETS,
    DEFAULT_RESIDUAL_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from repro.obs.records import ResidualTrace, SlotTelemetry
from repro.obs.summary import HorizonSummary

__all__ = [
    "SlotTelemetry",
    "ResidualTrace",
    "HorizonSummary",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "parse_prometheus",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_ITERATION_BUCKETS",
    "DEFAULT_RESIDUAL_BUCKETS",
    "RunLedger",
    "LedgerRun",
    "new_run_id",
    "interrupt_guard",
    "ledger_path",
    "list_runs",
    "load_run",
    "resolve_run",
    "diff_runs",
    # lazy (pull numpy/scipy + repro.core on first touch):
    "Certificate",
    "certify_solution",
    "CertificationContext",
    "DEFAULT_FEAS_TOL",
    "DEFAULT_KKT_TOL",
]

_CERTIFY_EXPORTS = {
    "Certificate",
    "certify_solution",
    "CertificationContext",
    "DEFAULT_FEAS_TOL",
    "DEFAULT_KKT_TOL",
}


def __getattr__(name: str):
    if name in _CERTIFY_EXPORTS:
        from repro.obs import certify

        return getattr(certify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
