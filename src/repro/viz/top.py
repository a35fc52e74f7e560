"""The ``repro top`` dashboard: a run ledger rendered as text frames.

One frame summarizes a run's execution shape — slot throughput, live
pending depth, latency percentiles, per-worker utilization, and the
retry/fallback/failure tallies — from nothing but the ledger's slot
record stream, so the same renderer serves three modes:

- **final** (``repro top RUN``): one frame over the whole ledger;
- **replay** (``--replay``): frames over growing prefixes of the slot
  stream, reconstructing how the run unfolded;
- **follow** (``--follow``): re-load a live ``.part`` ledger and render
  whatever consistent prefix is on disk (torn trailing lines are the
  reader's problem, and :func:`~repro.obs.load_run` already tolerates
  them).

Pure functions over :class:`~repro.obs.LedgerRun`; printing and
looping belong to the CLI.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.obs.ledger import LedgerRun, _percentile
from repro.viz.ascii import bar_chart, sparkline

__all__ = ["render_top", "replay_frames"]


def _throughput_series(times: Sequence[float], bins: int) -> list[float]:
    """Slots harvested per time bucket (uniform buckets over elapsed)."""
    if not times:
        return []
    hi = max(times)
    if hi <= 0:
        return [float(len(times))]
    bins = max(1, bins)
    series = [0.0] * bins
    for t in times:
        idx = min(bins - 1, int(t / hi * bins))
        series[idx] += 1.0
    return series


def _fmt_ms(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    return f"{seconds * 1e3:.2f} ms"


def render_top(
    run: LedgerRun,
    upto: int | None = None,
    width: int = 64,
) -> str:
    """Render one dashboard frame from the first ``upto`` slot records.

    Args:
        run: a parsed ledger (finalized or live).
        upto: number of slot records to include; None means all —
            replay mode passes growing prefixes here.
        width: chart width in characters.

    Returns a multi-line string; an empty run (header only) still
    renders, with the chart rows marked idle.
    """
    slots = run.slots if upto is None else run.slots[:upto]
    header = run.header
    expected = header.get("slots_expected")
    solver = header.get("solver", "?")
    status = "final" if run.finalized and upto is None else "live"
    progress = f"{len(slots)}/{expected}" if expected else str(len(slots))

    lines = [
        f"run {run.run_id}  solver={solver}  [{status}]  slots {progress}",
    ]
    config = header.get("config", {})
    if config:
        knobs = []
        for key in ("client", "workers", "max_pending", "batched"):
            if config.get(key) not in (None, False):
                knobs.append(f"{key}={config[key]}")
        if knobs:
            lines.append("  " + "  ".join(knobs))

    times = [float(s.get("t_rel_s", 0.0)) for s in slots]
    walls = [float(s.get("wall_s", 0.0)) for s in slots]
    elapsed = max(times) if times else 0.0

    if times:
        rate = len(slots) / elapsed if elapsed > 0 else float(len(slots))
        series = _throughput_series(times, min(width, max(1, len(slots))))
        lines.append(
            f"throughput | {sparkline(series, width=width)} {rate:,.1f} slots/s"
        )
    else:
        lines.append("throughput | (no slots harvested yet)")

    pending = [int(s.get("pending", 0)) for s in slots]
    if pending and any(pending):
        lines.append(
            f"pending    | {sparkline([float(p) for p in pending], width=width)} "
            f"now {pending[-1]}, peak {max(pending)}"
        )
    if walls:
        lines.append(
            f"latency    | p50 {_fmt_ms(_percentile(walls, 0.50))}, "
            f"p99 {_fmt_ms(_percentile(walls, 0.99))}, "
            f"max {_fmt_ms(max(walls))}"
        )

    busy: dict[str, float] = {}
    hosts: dict[str, str] = {}
    for s in slots:
        worker = str(s.get("worker", "?"))
        busy[worker] = busy.get(worker, 0.0) + (
            float(s.get("wall_s", 0.0))
            + float(s.get("compile_s", 0.0))
            + float(s.get("certify_s", 0.0))
        )
        if s.get("worker_host"):
            hosts[worker] = str(s["worker_host"])
    if busy:
        label = {
            w: f"{w}@{hosts[w]}" if w in hosts else w for w in busy
        }
        utilization = {
            label[w]: (100.0 * b / elapsed if elapsed > 0 else 0.0)
            for w, b in sorted(busy.items(), key=lambda kv: -kv[1])
        }
        total_busy = sum(busy.values())
        lines.append(f"workers    | {len(busy)} busy ({total_busy:.3f} s total)")
        lines.append(bar_chart(utilization, width=max(10, width - 24), fmt="{:,.1f}%"))

    failed = sum(1 for s in slots if not s.get("ok", False))
    retries = sum(max(0, int(s.get("attempts", 1)) - 1) for s in slots)
    fallbacks = sum(1 for s in slots if s.get("fallback_solver"))
    degraded = sum(1 for s in slots if s.get("degraded"))
    store_hits = sum(1 for s in slots if s.get("store_hit"))
    lines.append(
        f"outcomes   | failed {failed}, retries {retries}, "
        f"fallbacks {fallbacks}, degraded {degraded}, store hits {store_hits}"
    )
    warm = sum(1 for s in slots if s.get("warm_start"))
    if warm:
        saved = sum(int(s.get("iterations_saved", 0)) for s in slots)
        lines.append(f"warm chain | {warm} warm slots, {saved} iterations saved"
        )
    lineages = [s["lineage"] for s in slots if s.get("lineage")]
    fleet = run.summary.get("fleet") if run.summary else None
    if lineages or fleet:
        resub = sum(max(0, int(li.get("attempts", 1)) - 1) for li in lineages)
        hedged = sum(1 for li in lineages if li.get("hedged"))
        hedge_won = sum(1 for li in lineages if li.get("hedge_won"))
        fleet = fleet or {}
        lines.append(
            f"fleet      | resubmissions {fleet.get('resubmissions', resub)}, "
            f"hedges {fleet.get('hedges_launched', hedged)} "
            f"({fleet.get('hedges_won', hedge_won)} won), workers "
            f"-{fleet.get('workers_lost', 0)}/+{fleet.get('workers_revived', 0)} "
            f"({fleet.get('workers_quarantined', 0)} quarantined)"
        )
    if run.finalized and upto is None and run.summary is not None:
        wall = run.summary.get("wall_s")
        if wall is not None:
            lines.append(f"run wall   | {float(wall):.3f} s")
    return "\n".join(lines)


def replay_frames(
    run: LedgerRun,
    frames: int = 10,
    width: int = 64,
) -> Iterator[tuple[int, str]]:
    """Yield ``(slots_shown, frame)`` pairs over growing slot prefixes.

    The final frame always covers the full slot stream, so a replay of
    N frames ends on exactly the same picture ``render_top(run)`` gives
    (modulo the live/final status tag).
    """
    total = len(run.slots)
    frames = max(1, frames)
    shown: set[int] = set()
    for i in range(1, frames + 1):
        upto = max(1, round(i * total / frames)) if total else 0
        if upto in shown:
            continue
        shown.add(upto)
        yield upto, render_top(run, upto=upto, width=width)
