"""Aggregate a horizon run's per-slot telemetry into one summary.

:class:`HorizonSummary` is what the CLI's ``--profile`` prints and
what :class:`~repro.sim.results.SimulationResult` carries: total wall
time split into compile / solve / overhead phases, the executor
decision (serial, pool, or a recorded fallback), compiled-structure
cache statistics and convergence totals.  It is built from any
sequence of outcome-like objects exposing ``ok`` and ``telemetry``
attributes (duck-typed so this module stays import-free of the engine
layer above it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = ["HorizonSummary"]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile over a small sample (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[int(idx)]


@dataclass
class HorizonSummary:
    """One horizon run's timing, cache and convergence aggregate.

    Attributes:
        solver: solver name the horizon ran with.
        slots: total slots submitted.
        ok_slots / failed_slots: per-slot success split.
        wall_s: end-to-end engine wall time.
        compile_s: total seconds compiling slot-invariant structure,
            summed across workers.
        solve_s: total seconds inside ``solver.solve``, summed across
            workers.
        overhead_s: wall time not explained by (amortized) compile and
            solve — process-pool IPC, argument/result pickling, chunk
            imbalance and per-slot bookkeeping.
        executor: the lane that ran: ``"serial"`` (in-process),
            ``"pool"`` (multiprocessing) or, with an explicit client,
            its name (``"in-process"``, ``"mp"``, ``"socket"``, ...),
            suffixed ``"-batch"`` for the vectorized ``solve_batch``
            lane (e.g. ``"serial-batch"``, ``"pool-batch"``,
            ``"mp-batch"``).
        decision: why that executor ran (e.g.
            ``"serial:fallback-single-cpu"``, ``"pool:clamped-to-cpus"``).
        workers_requested / workers_effective: pool sizing before and
            after clamping to usable CPUs.
        usable_cpus: CPUs available to this process (affinity-aware).
        mp_start_method: the pinned multiprocessing start method (None
            for serial runs).
        cache_hits / cache_misses: compiled-structure cache counters.
        iterations_total: summed solver iterations.
        converged_slots: slots whose solver reported convergence.
        error_types: failed-slot exception class name -> count.
        certified_slots: slots that carried a certificate (0 when
            certification was off).
        suspect_slots: indices of certified slots that failed their
            certificate (feasibility or KKT threshold).
        certify_s: total seconds spent certifying, summed across
            workers.
        worst_violation: max relative feasibility violation over all
            certified slots.
        worst_kkt: max relative KKT residual over all certified slots.
        degraded_slots: indices of slots whose result was flagged
            degraded (fallback solver or degraded solver completion).
        retries_total: extra solve attempts beyond the first, summed
            over all slots (0 on the non-resilient path).
        fallbacks_total: slots rescued by a fallback solver.
        client: execution-client name the run solved through
            (``"in-process"`` for serial runs, ``"mp"`` for pools, or
            the named client).  None only when no slot
            reached a client: no client was named and every slot
            resolved from the store.
        warm_started_slots: slots this run solved by walking the
            active-set homotopy from an earlier slot's KKT point (their
            ``warm_mechanism`` is ``"active-set"``; store hits do not
            count).
        max_pending_observed: deepest in-flight batch window the
            pipelined scheduler reached (0 when nothing was
            scheduled).
        store_hits / store_misses: result-store probe counters for
            this run (both 0 when no store was attached).
        fleet: the fleet supervisor's tally for this run —
            ``resubmissions``, ``hedges_launched`` / ``hedges_won`` /
            ``hedges_lost``, ``workers_lost`` / ``workers_revived`` /
            ``workers_quarantined`` — or None when the run was not
            supervised.
        worker_busy_s: summed per-slot busy seconds (solve + compile +
            certify) keyed by worker pid — the per-worker utilization
            view ``repro top`` renders.
        slot_p50_s / slot_p99_s: per-slot solve-wall latency
            percentiles over all slots that reported telemetry.
    """

    solver: str
    slots: int
    ok_slots: int
    failed_slots: int
    wall_s: float
    compile_s: float
    solve_s: float
    overhead_s: float
    executor: str
    decision: str
    workers_requested: int
    workers_effective: int
    usable_cpus: int
    mp_start_method: str | None
    cache_hits: int
    cache_misses: int
    iterations_total: int
    converged_slots: int
    error_types: dict[str, int] = field(default_factory=dict)
    certified_slots: int = 0
    suspect_slots: tuple[int, ...] = ()
    certify_s: float = 0.0
    worst_violation: float = 0.0
    worst_kkt: float = 0.0
    degraded_slots: tuple[int, ...] = ()
    retries_total: int = 0
    fallbacks_total: int = 0
    client: str | None = None
    warm_started_slots: int = 0
    max_pending_observed: int = 0
    store_hits: int = 0
    store_misses: int = 0
    fleet: dict[str, int] | None = None
    worker_busy_s: dict[str, float] = field(default_factory=dict)
    slot_p50_s: float = 0.0
    slot_p99_s: float = 0.0

    @classmethod
    def from_outcomes(
        cls,
        outcomes: Iterable[Any],
        *,
        solver: str,
        wall_s: float,
        executor: str,
        decision: str,
        workers_requested: int,
        workers_effective: int,
        usable_cpus: int,
        mp_start_method: str | None = None,
        client: str | None = None,
        max_pending_observed: int = 0,
        store_hits: int = 0,
        store_misses: int = 0,
        fleet: dict[str, int] | None = None,
    ) -> "HorizonSummary":
        """Aggregate outcome-like objects (``.ok``, ``.telemetry``)."""
        outcomes = list(outcomes)
        compile_s = solve_s = certify_s = 0.0
        hits = misses = iterations = converged = failed = certified = 0
        worst_violation = worst_kkt = 0.0
        retries = fallbacks = 0
        warm_started = 0
        suspect: list[int] = []
        degraded: list[int] = []
        error_types: dict[str, int] = {}
        worker_busy: dict[str, float] = {}
        walls: list[float] = []
        for outcome in outcomes:
            tele = getattr(outcome, "telemetry", None)
            if not outcome.ok:
                failed += 1
                name = getattr(outcome, "error_type", None) or "Exception"
                error_types[name] = error_types.get(name, 0) + 1
            retries += max(0, getattr(outcome, "attempts", 1) - 1)
            if getattr(outcome, "fallback_solver", None):
                fallbacks += 1
            if getattr(outcome, "degraded", False):
                degraded.append(getattr(outcome, "index", len(degraded)))
            cert = getattr(outcome, "certificate", None)
            if cert is not None:
                certified += 1
                certify_s += cert.certify_s
                worst_violation = max(worst_violation, cert.worst_violation)
                worst_kkt = max(worst_kkt, cert.kkt_residual)
                if not cert.ok:
                    suspect.append(getattr(outcome, "index", cert.slot))
            result = getattr(outcome, "result", None)
            extras = getattr(result, "extras", None)
            if tele is None:
                continue
            if extras and not tele.store_hit:
                warm_started += extras.get("warm_mechanism") == "active-set"
            compile_s += tele.compile_s
            solve_s += tele.wall_s
            walls.append(tele.wall_s)
            pid = str(tele.worker if tele.worker is not None else "?")
            worker_busy[pid] = worker_busy.get(pid, 0.0) + (
                tele.wall_s + tele.compile_s + tele.certify_s
            )
            if tele.cache_hit is True:
                hits += 1
            elif tele.cache_hit is False:
                misses += 1
            iterations += tele.iterations
            converged += bool(tele.converged)
        # Busy time is summed across workers; amortize it over the
        # effective worker count to estimate the wall share it covers.
        workers_effective = max(1, workers_effective)
        busy_amortized = (compile_s + solve_s) / workers_effective
        overhead_s = max(0.0, wall_s - busy_amortized)
        return cls(
            solver=solver,
            slots=len(outcomes),
            ok_slots=len(outcomes) - failed,
            failed_slots=failed,
            wall_s=wall_s,
            compile_s=compile_s,
            solve_s=solve_s,
            overhead_s=overhead_s,
            executor=executor,
            decision=decision,
            workers_requested=workers_requested,
            workers_effective=workers_effective,
            usable_cpus=usable_cpus,
            mp_start_method=mp_start_method,
            cache_hits=hits,
            cache_misses=misses,
            iterations_total=iterations,
            converged_slots=converged,
            error_types=error_types,
            certified_slots=certified,
            suspect_slots=tuple(suspect),
            certify_s=certify_s,
            worst_violation=worst_violation,
            worst_kkt=worst_kkt,
            degraded_slots=tuple(degraded),
            retries_total=retries,
            fallbacks_total=fallbacks,
            client=client,
            warm_started_slots=warm_started,
            max_pending_observed=max_pending_observed,
            store_hits=store_hits,
            store_misses=store_misses,
            fleet=fleet,
            worker_busy_s={k: worker_busy[k] for k in sorted(worker_busy)},
            slot_p50_s=_percentile(walls, 0.50),
            slot_p99_s=_percentile(walls, 0.99),
        )

    @property
    def store_hit_rate(self) -> float | None:
        """Fraction of probed slots the store resolved (None: no store)."""
        probed = self.store_hits + self.store_misses
        if probed == 0:
            return None
        return self.store_hits / probed

    # -- derived quantities ---------------------------------------------------

    def _share(self, seconds: float) -> float:
        """``seconds`` (amortized over workers) as a fraction of wall."""
        if self.wall_s <= 0:
            return 0.0
        return (seconds / self.workers_effective) / self.wall_s

    @property
    def accounted_fraction(self) -> float:
        """Fraction of wall time the compile+solve phases explain."""
        return min(1.0, self._share(self.compile_s) + self._share(self.solve_s))

    def phase_dict(self) -> dict[str, Any]:
        """The JSON-ready phase breakdown (benchmarks record this)."""
        return {
            "wall_s": round(self.wall_s, 4),
            "compile_s": round(self.compile_s, 4),
            "solve_s": round(self.solve_s, 4),
            "overhead_s": round(self.overhead_s, 4),
            "accounted_fraction": round(self.accounted_fraction, 4),
            "executor": self.executor,
            "decision": self.decision,
            "workers_effective": self.workers_effective,
            "mp_start_method": self.mp_start_method,
            "client": self.client,
            "max_pending_observed": self.max_pending_observed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def to_dict(self) -> dict[str, Any]:
        """The full summary as a JSON-ready dict."""
        out = {
            "solver": self.solver,
            "slots": self.slots,
            "ok_slots": self.ok_slots,
            "failed_slots": self.failed_slots,
            "workers_requested": self.workers_requested,
            "usable_cpus": self.usable_cpus,
            "iterations_total": self.iterations_total,
            "converged_slots": self.converged_slots,
            "error_types": dict(self.error_types),
        }
        out.update(self.phase_dict())
        if self.retries_total or self.fallbacks_total or self.degraded_slots:
            out.update(
                {
                    "retries_total": self.retries_total,
                    "fallbacks_total": self.fallbacks_total,
                    "degraded_slots": list(self.degraded_slots),
                }
            )
        if self.certified_slots:
            out.update(
                {
                    "certified_slots": self.certified_slots,
                    "suspect_slots": list(self.suspect_slots),
                    "certify_s": round(self.certify_s, 4),
                    "worst_violation": self.worst_violation,
                    "worst_kkt": self.worst_kkt,
                }
            )
        # A store that was never probed (disabled, or attached to a
        # zero-slot run) reports an explicit null — rendering it as
        # 0.0 would be indistinguishable from a genuine 0% hit rate
        # (store attached, every probe missed).
        rate = self.store_hit_rate
        out["store_hit_rate"] = None if rate is None else round(rate, 4)
        if self.store_hits or self.store_misses:
            out.update(
                {
                    "store_hits": self.store_hits,
                    "store_misses": self.store_misses,
                }
            )
        if self.warm_started_slots:
            out["warm_started_slots"] = self.warm_started_slots
        if self.fleet is not None:
            out["fleet"] = dict(self.fleet)
        out["slot_p50_s"] = round(self.slot_p50_s, 6)
        out["slot_p99_s"] = round(self.slot_p99_s, 6)
        if self.worker_busy_s:
            out["worker_busy_s"] = {
                k: round(v, 6) for k, v in self.worker_busy_s.items()
            }
        return out

    def format_table(self) -> str:
        """The human-readable profile block ``--profile`` prints."""
        pct = lambda s: f"{100 * self._share(s):5.1f}% of wall"  # noqa: E731
        workers = (
            f"requested {self.workers_requested}, effective "
            f"{self.workers_effective} of {self.usable_cpus} usable CPUs"
        )
        if self.mp_start_method:
            workers += f"; start method {self.mp_start_method}"
        executor_line = f"  executor       : {self.executor}  [{self.decision}]"
        if self.client:
            executor_line += f"  client={self.client}"
            if self.max_pending_observed:
                executor_line += f" (max {self.max_pending_observed} pending)"
        lines = [
            f"horizon profile ({self.solver}, {self.slots} slots)",
            executor_line,
            f"  workers        : {workers}",
            f"  wall time      : {self.wall_s:8.3f} s",
            f"  compile        : {self.compile_s:8.3f} s  {pct(self.compile_s)}"
            f"  ({self.cache_misses} misses, {self.cache_hits} hits)",
            f"  solve          : {self.solve_s:8.3f} s  {pct(self.solve_s)}",
            f"  overhead (IPC) : {self.overhead_s:8.3f} s  "
            f"{100 * self.overhead_s / self.wall_s if self.wall_s > 0 else 0.0:5.1f}% of wall",
            f"  slots          : {self.ok_slots} ok, {self.failed_slots} failed",
            f"  slot latency   : p50 {1e3 * self.slot_p50_s:.2f} ms, "
            f"p99 {1e3 * self.slot_p99_s:.2f} ms",
            f"  iterations     : total {self.iterations_total}, "
            f"converged {self.converged_slots}/{self.slots}",
        ]
        if self.warm_started_slots:
            lines.append(
                f"  warm starts    : {self.warm_started_slots} slots walked "
                "by active set"
            )
        if len(self.worker_busy_s) > 1:
            busiest = sorted(
                self.worker_busy_s.items(), key=lambda kv: -kv[1]
            )
            shown = ", ".join(f"{pid}={busy:.3f}s" for pid, busy in busiest[:4])
            if len(busiest) > 4:
                shown += ", ..."
            lines.append(
                f"  workers busy   : {len(busiest)} workers ({shown})"
            )
        if self.certified_slots:
            verdict = (
                "all passed"
                if not self.suspect_slots
                else f"{len(self.suspect_slots)} suspect: "
                + ", ".join(str(i) for i in self.suspect_slots[:8])
                + ("..." if len(self.suspect_slots) > 8 else "")
            )
            lines.append(
                f"  certification  : {self.certified_slots} slots in "
                f"{self.certify_s:.3f} s  ({verdict}; worst violation "
                f"{self.worst_violation:.2e}, worst KKT {self.worst_kkt:.2e})"
            )
        if self.retries_total or self.fallbacks_total or self.degraded_slots:
            shown = ", ".join(str(i) for i in self.degraded_slots[:8])
            if len(self.degraded_slots) > 8:
                shown += "..."
            lines.append(
                f"  resilience     : {self.retries_total} retries, "
                f"{self.fallbacks_total} fallbacks, "
                f"{len(self.degraded_slots)} degraded slots"
                + (f" ({shown})" if shown else "")
            )
        if self.fleet is not None:
            fleet = self.fleet
            hedges = (
                f"{fleet.get('hedges_launched', 0)} hedges "
                f"({fleet.get('hedges_won', 0)} won, "
                f"{fleet.get('hedges_lost', 0)} lost)"
            )
            lines.append(
                f"  fleet          : {fleet.get('resubmissions', 0)} "
                f"resubmissions, {hedges}, workers "
                f"-{fleet.get('workers_lost', 0)}"
                f"/+{fleet.get('workers_revived', 0)} "
                f"({fleet.get('workers_quarantined', 0)} quarantined)"
            )
        rate = self.store_hit_rate
        if rate is not None:
            lines.append(
                f"  result store   : {self.store_hits} hits, "
                f"{self.store_misses} misses  ({100 * rate:5.1f}% from disk)"
            )
        if self.error_types:
            counts = ", ".join(
                f"{name} x{count}" for name, count in sorted(self.error_types.items())
            )
            lines.append(f"  failures       : {counts}")
        return "\n".join(lines)
