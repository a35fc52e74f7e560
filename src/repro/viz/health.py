"""Horizon-health rendering for solution certificates.

Turns a sequence of :class:`~repro.obs.certify.Certificate` objects
into terminal-friendly text: a per-slot table (``health_table``) and a
compact dashboard (``health_dashboard``) with sparklines of the KKT
residual and feasibility violation across the horizon.  Both return
plain strings; the ``repro doctor`` CLI command is the main consumer.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.viz.ascii import sparkline

__all__ = ["health_table", "health_dashboard"]


def _sci(value: float) -> str:
    """Fixed-width scientific rendering that keeps 0 readable."""
    if value == 0.0:
        return "0.0e+00"
    return f"{value:.1e}"


def health_table(
    certificates: Sequence[object],
    max_rows: int | None = None,
) -> str:
    """Per-slot certification table.

    One row per certificate: slot index, solver, worst feasibility
    violation (with the offending constraint), KKT residual, duality
    gap, dual source, and a PASS/FAIL verdict.  Failing slots are
    always shown; ``max_rows`` (when set) only truncates *passing*
    rows, so a long healthy horizon stays compact without ever hiding
    a failure.

    Raises:
        ValueError: on an empty certificate sequence.
    """
    certs = list(certificates)
    if not certs:
        raise ValueError("no certificates to render")
    header = (
        f"{'slot':>4}  {'solver':<12} {'feas viol':>9}  "
        f"{'worst constraint':<22} {'kkt':>9}  {'gap':>9}  "
        f"{'duals':<6} verdict"
    )
    rows = [header, "-" * len(header)]
    shown = 0
    hidden = 0
    for cert in certs:
        if not cert.ok:
            verdict = "FAIL"
        elif max_rows is not None and shown >= max_rows:
            hidden += 1
            continue
        else:
            verdict = "PASS"
        if cert.ok:
            shown += 1
        rows.append(
            f"{cert.slot:>4}  {cert.solver:<12} {_sci(cert.worst_violation):>9}  "
            f"{cert.worst_constraint:<22} {_sci(cert.kkt_residual):>9}  "
            f"{_sci(cert.duality_gap):>9}  {cert.dual_source:<6} {verdict}"
        )
    if hidden:
        rows.append(f"... {hidden} more passing slots not shown ...")
    return "\n".join(rows)


def health_dashboard(
    certificates: Sequence[object],
    width: int = 56,
    summary: object | None = None,
) -> str:
    """Compact horizon-health dashboard.

    Headline verdict, pass/fail counts, worst violation and KKT
    residual with the slots they occur at, and log-scale sparklines of
    both series over the horizon (so a single sick slot stands out
    against an otherwise flat week).  Passing the run's
    :class:`~repro.obs.HorizonSummary` as ``summary`` adds the
    execution rows: which executor/client solved the horizon and — if
    a result store was probed — its hit rate.

    Raises:
        ValueError: on an empty certificate sequence.
    """
    certs = list(certificates)
    if not certs:
        raise ValueError("no certificates to render")
    bad = [c for c in certs if not c.ok]
    worst_feas = max(certs, key=lambda c: c.worst_violation)
    worst_kkt = max(certs, key=lambda c: c.kkt_residual)
    total_s = sum(c.certify_s for c in certs)

    def _log_series(values: list[float]) -> list[float]:
        floor = 1e-16
        return [math.log10(max(v, floor)) for v in values]

    feas_spark = sparkline(
        _log_series([c.worst_violation for c in certs]), width=width
    )
    kkt_spark = sparkline(
        _log_series([c.kkt_residual for c in certs]), width=width
    )
    verdict = (
        "HEALTHY" if not bad else f"SUSPECT ({len(bad)}/{len(certs)} slots fail)"
    )
    lines = [
        f"horizon health      : {verdict}",
        f"slots certified     : {len(certs)} "
        f"(feas tol {_sci(certs[0].feas_tol)}, kkt tol {_sci(certs[0].kkt_tol)})",
        f"worst feasibility   : {_sci(worst_feas.worst_violation)} at slot "
        f"{worst_feas.slot} ({worst_feas.worst_constraint})",
        f"worst kkt residual  : {_sci(worst_kkt.kkt_residual)} at slot "
        f"{worst_kkt.slot}",
        f"certification time  : {total_s:.3f} s total, "
        f"{1e3 * total_s / len(certs):.2f} ms/slot",
        f"feas viol (log10)   : {feas_spark}",
        f"kkt resid (log10)   : {kkt_spark}",
    ]
    if summary is not None:
        executor = getattr(summary, "executor", None)
        if executor:
            line = f"executor            : {executor}"
            client = getattr(summary, "client", None)
            if client:
                line += f" (client {client}"
                pending = getattr(summary, "max_pending_observed", 0)
                if pending:
                    line += f", max {pending} pending"
                line += ")"
            lines.append(line)
        warm = getattr(summary, "warm_started_slots", 0)
        if warm:
            lines.append(f"warm starts         : {warm} slots walked by active set")
        hits = getattr(summary, "store_hits", 0)
        misses = getattr(summary, "store_misses", 0)
        if hits or misses:
            rate = hits / (hits + misses)
            lines.append(
                f"result store        : {hits} hits / {hits + misses} "
                f"probed ({100 * rate:.1f}% from disk)"
            )
    if bad:
        ids = ", ".join(str(c.slot) for c in bad[:12])
        more = "" if len(bad) <= 12 else f" (+{len(bad) - 12} more)"
        lines.append(f"failing slots       : {ids}{more}")
    return "\n".join(lines)
