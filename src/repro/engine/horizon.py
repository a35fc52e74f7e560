"""Map independent slot problems over pluggable execution clients.

Interactive workloads cannot be deferred, so the paper's 168 hourly
UFC problems are independent — the horizon is an embarrassingly
parallel map of **one per-slot step**: compile lookup → solve (with an
optional warm payload) → post-hoc timeout check → certify → outcome.
:class:`HorizonEngine` runs it as a *policy layer* over the
:mod:`repro.exec` client stack.  Concretely:

- **one slot step** (:class:`_SlotStep`) walks a lane list — just the
  primary solver, or with a :class:`ResilienceConfig` the primary ×
  ``retry.max_attempts`` then each fallback once, with quarantine —
  and every outcome is built by one success builder
  (:func:`_slot_outcome`) or one failure builder
  (:func:`_failed_outcome`), whichever lane, batch, warm chain or
  store hit produced it;
- **one chunk task** (:func:`_solve_chunk`) is what every execution
  client runs, cold or warm: a per-slot loop (chaining the warm
  payload when asked) or the (model, strategy)-grouped ``solve_batch``
  lane, wrapped by worker observability in one place;
- **executors**: a serial in-process client (``workers=1``) or a
  chunked multiprocessing pool (``workers>1``), or any registered
  client (``"mp"``, ``"socket"``, a custom
  :class:`~repro.exec.clients.ExecutionClient`), with at most
  ``max_pending`` chunks in flight and results reassembled in slot
  order, so serial and parallel runs return bit-identical
  allocations;
- **pool sizing that cannot hurt**: the requested worker count is
  clamped to the usable CPUs and a pool that cannot help falls back
  to the serial path — every such decision is recorded in the run's
  telemetry and :class:`~repro.obs.HorizonSummary`;
- **compiled-structure caching**: each distinct (model, strategy) pair
  gets one :meth:`SlotSolver.compile` call per chunk — per horizon on
  the serial lane — through the identity-safe :class:`CompileCache`;
- an optional **persistent result store**
  (:class:`~repro.exec.store.ResultStore`): slots whose digest is
  already on disk resolve from the store instead of the solver;
- **per-slot error capture**: a slot whose solve raises becomes a
  failed :class:`SlotOutcome` with structured error fields instead of
  killing the horizon;
- **warm-start chaining** (``warm_start=True``): each slot resumes
  from the previous slot's payload — one chunk on a synchronous
  client, depth-one per-slot submissions on an asynchronous one;
- **telemetry**: every outcome carries a
  :class:`~repro.obs.SlotTelemetry`, and
  :attr:`HorizonEngine.last_summary` aggregates the run.
"""

from __future__ import annotations

import cProfile
import hashlib
import os
import platform
import sys
import time
import traceback
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.core.problem import UFCProblem
from repro.engine.protocol import SlotResult, SlotSolver
from repro.engine.registry import create_solver
from repro.engine.resilience import ResilienceConfig
from repro.exec.clients import (
    ExecutionClient,
    InProcessClient,
    MultiprocessingClient,
    WorkerLostError,
    create_client,
    usable_cpu_count,
)
from repro.exec.pipeline import BatchScheduler
from repro.exec.store import ResultStore, problem_digest
from repro.exec.supervisor import (
    FleetStats,
    FleetSupervisor,
    SupervisorConfig,
    TaskTimeoutError,
)
from repro.obs import (
    HorizonSummary,
    RunLedger,
    SlotTelemetry,
    SpanTracer,
    Telemetry,
    TraceContext,
    WorkerObsPlan,
    WorkerReport,
    as_telemetry,
    interrupt_guard,
    new_run_id,
)
from repro.obs.worker import local_host, profile_hotspots, slot_metrics

__all__ = [
    "SlotOutcome",
    "SlotTimeoutError",
    "CompileCache",
    "HorizonEngine",
    "usable_cpu_count",
]


class SlotTimeoutError(RuntimeError):
    """An attempt exceeded the per-slot wall-clock budget.

    In-process solvers cannot be preempted, so the budget is enforced
    after the attempt returns (and, for asynchronous clients, on the
    whole pending batch at harvest time); the late result is discarded
    and the fallback chain escalates.
    """


@dataclass
class SlotOutcome:
    """One slot's engine outcome: a result or a captured error.

    Attributes:
        index: slot index within the submitted horizon.
        result: the solver's :class:`SlotResult` (None on error).
        error: formatted traceback of the slot's failure (None on
            success).
        error_type: exception class name (e.g. ``"LinAlgError"``) so
            callers can branch on failure kind without parsing the
            traceback; None on success.
        error_message: ``str(exception)`` of the failure; None on
            success.
        telemetry: the slot's :class:`~repro.obs.SlotTelemetry`
            measurements (None only for legacy hand-built outcomes).
        certificate: the slot's numerical-health
            :class:`~repro.obs.certify.Certificate` when the engine ran
            with certification on; None otherwise.
        attempts: total solve attempts this slot consumed (1 on the
            non-resilient path; retries and fallbacks each add one).
        degraded: the result came from a fallback solver or the solver
            itself reported a degraded completion — flagged, never
            hidden.
        fallback_solver: name of the fallback solver that produced the
            result; None when the primary did.
        chain_errors: one ``"solver[attempt k]: ErrType: message"``
            entry per failed attempt along the retry/fallback chain.
        worker_report: the slot's worker-side
            :class:`~repro.obs.WorkerReport` (metric samples, spans,
            optional profile) when the engine ran with worker
            observability on; None otherwise (the default — the
            observability-off outcome is unchanged).
        lineage: the fleet supervisor's retry lineage for this slot's
            chunk (attempt count, workers tried, faults, hedge
            outcome) when the slot was not first-try-clean under
            supervision; None otherwise.
    """

    index: int
    result: SlotResult | None = None
    error: str | None = None
    error_type: str | None = None
    error_message: str | None = None
    telemetry: SlotTelemetry | None = None
    certificate: Any | None = None
    attempts: int = 1
    degraded: bool = False
    fallback_solver: str | None = None
    chain_errors: tuple[str, ...] = ()
    worker_report: WorkerReport | None = None
    lineage: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class CompileCache:
    """Identity-safe (model, strategy) -> compiled-structure cache.

    Keys combine ``id(model)`` (models are mutable and unhashable by
    value) with the strategy.  A raw id key is unsafe on its own:
    CPython recycles addresses, so a freed transient model's id can be
    reassigned to a different model, which would then be served the
    stale structure.  Two defenses make the cache exact:

    - every entry holds a **strong reference** to its keyed model, so
      a cached model can never be garbage-collected (and its id never
      recycled) while the cache lives;
    - lookups verify the stored model ``is`` the requesting problem's
      model, so even a corrupted or inherited entry can never hit for
      a different object.

    The cache also times compilation and counts hits/misses for the
    observability layer.
    """

    def __init__(self, solver: SlotSolver) -> None:
        self._solver = solver
        self._entries: dict[tuple[int, Any], tuple[Any, Any]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, model: Any, strategy: Any) -> tuple[Any, bool, float]:
        """The compiled structure for (model, strategy).

        Returns:
            ``(compiled, hit, compile_seconds)`` — ``hit`` is False and
            ``compile_seconds`` nonzero when this call compiled.
        """
        key = (id(model), strategy)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is model:
            self.hits += 1
            return entry[1], True, 0.0
        start = time.perf_counter()
        compiled = self._solver.compile(model, strategy)
        elapsed = time.perf_counter() - start
        self.misses += 1
        self._entries[key] = (model, compiled)
        return compiled, False, elapsed


@dataclass
class _Chunk:
    """A batch of slots shipped to one worker.

    Usually a contiguous run (``start + offset`` indexing); a store-
    warmed horizon solves only the miss slots, so ``indices`` carries
    the explicit (sorted, possibly gapped) slot indices in that case.
    """

    start: int
    problems: list[UFCProblem] = field(default_factory=list)
    indices: list[int] | None = None

    def index(self, offset: int) -> int:
        """The global slot index of the chunk's ``offset``-th problem."""
        if self.indices is not None:
            return self.indices[offset]
        return self.start + offset


def _slot_outcome(
    index: int,
    problem: UFCProblem,
    result: SlotResult,
    solver_name: str,
    certifier: Any | None,
    *,
    wall_s: float,
    compile_s: float = 0.0,
    cache_hit: bool | None = None,
    warm_start: bool = False,
    store_hit: bool = False,
    attempts: int = 1,
    fallback_solver: str | None = None,
    chain_errors: tuple[str, ...] = (),
) -> SlotOutcome:
    """The successful :class:`SlotOutcome` of a solved or stored slot.

    The one place a success is built, whichever lane produced it: the
    result is certified here when a certifier is attached (solver
    duals preferred when shipped; a certification crash propagates to
    the caller, which turns it into a failed outcome), and the outcome
    is ``degraded`` whenever a fallback solver produced it or the
    solver reported a degraded completion.
    """
    extras = result.extras or {}
    certificate = None
    if certifier is not None:
        certificate = certifier.certify(
            problem,
            result.allocation,
            duals=extras.get("duals"),
            solver=solver_name,
            slot=index,
        )
    return SlotOutcome(
        index=index,
        result=result,
        certificate=certificate,
        attempts=attempts,
        degraded=bool(extras.get("degraded")) or fallback_solver is not None,
        fallback_solver=fallback_solver,
        chain_errors=chain_errors,
        telemetry=SlotTelemetry(
            solver=solver_name,
            wall_s=wall_s,
            compile_s=compile_s,
            iterations=result.iterations,
            converged=result.converged,
            cache_hit=cache_hit,
            worker=os.getpid(),
            warm_start=warm_start,
            store_hit=store_hit,
            certify_s=0.0 if certificate is None else certificate.certify_s,
        ),
    )


def _failed_outcome(
    index: int,
    exc: BaseException,
    solver_name: str,
    *,
    error: str | None = None,
    wall_s: float = 0.0,
    compile_s: float = 0.0,
    cache_hit: bool | None = None,
    warm_start: bool = False,
    attempts: int = 1,
    chain_errors: tuple[str, ...] = (),
) -> SlotOutcome:
    """A failed :class:`SlotOutcome` with structured error info.

    ``error`` defaults to the traceback of the exception being
    handled, so call it from the ``except`` block or pass one.
    """
    return SlotOutcome(
        index=index,
        error=traceback.format_exc() if error is None else error,
        error_type=type(exc).__name__,
        error_message=str(exc),
        attempts=attempts,
        chain_errors=chain_errors,
        telemetry=SlotTelemetry(
            solver=solver_name,
            wall_s=wall_s,
            compile_s=compile_s,
            iterations=0,
            converged=False,
            cache_hit=cache_hit,
            worker=os.getpid(),
            warm_start=warm_start,
            error_type=type(exc).__name__,
        ),
    )


def _failed_chunk(
    chunk: _Chunk,
    solver_name: str,
    exc_type: Callable[[str], BaseException],
    reason: str,
) -> list[SlotOutcome]:
    """One failed outcome per slot of a chunk that never came back.

    A lost worker (``WorkerLostError``) or a batch abandoned at harvest
    (``SlotTimeoutError``) delivers no per-slot telemetry, so every slot
    becomes a structured failure attributed to the harvesting process —
    not a silent gap.
    """
    outcomes = []
    for offset in range(len(chunk.problems)):
        index = chunk.index(offset)
        exc = exc_type(f"slot {index}: {reason}")
        outcomes.append(
            _failed_outcome(
                index, exc, solver_name, error=f"{type(exc).__name__}: {exc}"
            )
        )
    return outcomes


class _SlotStep:
    """The per-slot step every lane runs: compile lookup → solve → certify.

    Built once per chunk, it owns one :class:`CompileCache` per lane.
    Without a resilience config the lane list is just the primary
    solver, one attempt.  With one, the primary gets
    ``retry.max_attempts`` tries, then each fallback (instantiated once
    per chunk) gets one; an attempt exceeding ``slot_timeout_s`` is
    discarded as a :class:`SlotTimeoutError`; and after
    ``quarantine_after`` consecutive slots where the primary's whole
    budget failed, the primary is skipped for the rest of the chunk.
    A slot only becomes a failed outcome when every lane failed.
    """

    def __init__(
        self,
        solver: SlotSolver,
        certifier: Any | None,
        resilience: ResilienceConfig | None,
    ) -> None:
        self.solver = solver
        self.certifier = certifier
        self.resilience = resilience
        self.cache = CompileCache(solver)
        budget = 1 if resilience is None else resilience.retry.max_attempts
        self.lanes: list[tuple[SlotSolver, CompileCache, int]] = [
            (solver, self.cache, budget)
        ]
        for name in () if resilience is None else resilience.fallback:
            fallback = create_solver(name)
            self.lanes.append((fallback, CompileCache(fallback), 1))
        self.primary_failures = 0

    def __call__(
        self, index: int, problem: UFCProblem, warm: Any | None = None
    ) -> SlotOutcome:
        """Solve one slot, capturing any failure as a failed outcome."""
        resilience = self.resilience
        timeout_s = None if resilience is None else resilience.slot_timeout_s
        after = 0 if resilience is None else resilience.quarantine_after
        quarantined = bool(after) and self.primary_failures >= after
        chain_errors: list[str] = []
        if quarantined:
            chain_errors.append(
                f"{self.solver.name}: quarantined after "
                f"{self.primary_failures} consecutive slot failures"
            )
        attempts = 0
        start = time.perf_counter()
        for lane, (solver, cache, budget) in enumerate(self.lanes):
            if lane == 0 and quarantined:
                continue
            for attempt in range(1, budget + 1):
                attempts += 1
                cache_hit: bool | None = None
                compile_s = 0.0
                try:
                    compiled, cache_hit, compile_s = cache.lookup(
                        problem.model, problem.strategy
                    )
                    solve_start = time.perf_counter()
                    result = solver.solve(problem, compiled=compiled, warm=warm)
                    wall_s = time.perf_counter() - solve_start
                    if timeout_s is not None and wall_s > timeout_s:
                        raise SlotTimeoutError(
                            f"slot {index}: {solver.name} attempt took "
                            f"{wall_s:.3f}s > budget {timeout_s:.3f}s"
                        )
                    outcome = _slot_outcome(
                        index,
                        problem,
                        result,
                        solver.name,
                        self.certifier,
                        wall_s=wall_s,
                        compile_s=compile_s,
                        cache_hit=cache_hit,
                        warm_start=warm is not None,
                        attempts=attempts,
                        fallback_solver=None if lane == 0 else solver.name,
                        chain_errors=tuple(chain_errors),
                    )
                except Exception as exc:
                    failure = (exc, traceback.format_exc(), compile_s, cache_hit)
                    if resilience is not None:
                        chain_errors.append(
                            f"{solver.name}[attempt {attempt}]: "
                            f"{type(exc).__name__}: {exc}"
                        )
                    continue
                if lane == 0:
                    self.primary_failures = 0
                return outcome
            if lane == 0:
                self.primary_failures += 1
        exc, error, compile_s, cache_hit = failure
        return _failed_outcome(
            index,
            exc,
            self.solver.name,
            error=error,
            wall_s=time.perf_counter() - start,
            compile_s=compile_s,
            cache_hit=cache_hit,
            warm_start=warm is not None,
            attempts=attempts,
            chain_errors=tuple(chain_errors),
        )

    def batch(self, chunk: _Chunk) -> list[SlotOutcome]:
        """Solve a chunk through the solver's vectorized ``solve_batch``.

        Slots are grouped by (model, strategy) — the unit the compile
        cache keys on — and each group goes to ``solver.solve_batch``
        as one stacked solve.  The batch wall clock is apportioned
        evenly across the group; the group's single compile cost lands
        on its first slot, mirroring the per-slot path where the first
        slot misses and the rest hit.  A group-level failure (compile
        error, non-representable cost, ...) re-solves each of its
        slots through the per-slot step.
        """
        groups: dict[tuple[int, Any], list[int]] = {}
        for offset, problem in enumerate(chunk.problems):
            key = (id(problem.model), problem.strategy)
            groups.setdefault(key, []).append(offset)
        outcomes: dict[int, SlotOutcome] = {}
        name = self.solver.name
        for offsets in groups.values():
            group = [chunk.problems[offset] for offset in offsets]
            model, strategy = group[0].model, group[0].strategy
            cache_hit: bool | None = None
            compile_s = 0.0
            try:
                compiled, cache_hit, compile_s = self.cache.lookup(
                    model, strategy
                )
                solve_start = time.perf_counter()
                results = self.solver.solve_batch(group, compiled=compiled)
                wall_s = (time.perf_counter() - solve_start) / len(group)
            except Exception:
                for offset in offsets:
                    outcomes[offset] = self(
                        chunk.index(offset), chunk.problems[offset]
                    )
                continue
            for j, (offset, problem, result) in enumerate(
                zip(offsets, group, results)
            ):
                index = chunk.index(offset)
                if j:
                    compile_s = 0.0
                    cache_hit = True
                try:
                    outcomes[offset] = _slot_outcome(
                        index, problem, result, name, self.certifier,
                        wall_s=wall_s, compile_s=compile_s, cache_hit=cache_hit,
                    )
                except Exception as exc:
                    outcomes[offset] = _failed_outcome(
                        index, exc, name,
                        wall_s=wall_s, compile_s=compile_s, cache_hit=cache_hit,
                    )
        return [outcomes[offset] for offset in range(len(chunk.problems))]


def _synth_slot_span(outcome: SlotOutcome, pid: int) -> dict[str, Any]:
    """A synthesized ``worker.slot`` span dict built from telemetry.

    The batched lane solves many slots inside one solver call, so
    individual slots cannot be wrapped live; their spans are
    reconstructed from the per-slot telemetry instead (wall time known,
    CPU time not) and marked ``synthesized``.
    """
    tele = outcome.telemetry
    wall = 0.0 if tele is None else tele.wall_s + tele.compile_s + tele.certify_s
    return {
        "name": "worker.slot",
        "span_id": 0,
        "parent_id": None,
        "wall_s": wall,
        "cpu_s": 0.0,
        "attributes": {
            "index": outcome.index,
            "worker": pid,
            "ok": outcome.ok,
            "iterations": 0 if tele is None else tele.iterations,
            "converged": bool(tele is not None and tele.converged),
            "synthesized": True,
        },
    }


def _attach_report(
    outcome: SlotOutcome,
    obs: WorkerObsPlan,
    *,
    pid: int,
    spans: tuple[dict[str, Any], ...],
    profiler: cProfile.Profile | None,
    profile_scope: str = "slot",
) -> None:
    tele = outcome.telemetry
    outcome.worker_report = WorkerReport(
        worker=pid,
        host=local_host(),
        metrics=(
            slot_metrics(tele).to_dict() if obs.metrics and tele is not None else None
        ),
        spans=spans,
        trace=obs.trace,
        profile=(
            () if profiler is None else profile_hotspots(profiler, obs.profile)
        ),
        profile_scope=profile_scope,
    )


@contextmanager
def _profiled(obs: WorkerObsPlan | None) -> Iterator[cProfile.Profile | None]:
    """cProfile the block when the plan asks for profiles; else None."""
    if obs is None or obs.profile <= 0:
        yield None
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()


def _solve_chunk(
    solver: SlotSolver,
    chunk: _Chunk,
    certifier: Any | None = None,
    resilience: ResilienceConfig | None = None,
    batched: bool = False,
    obs: WorkerObsPlan | None = None,
    warm_start: bool = False,
    warm: Any | None = None,
) -> list[SlotOutcome]:
    """Solve one chunk of slots: the task every execution client runs.

    Module-level so process and socket clients can pickle it.  Cold
    and warm runs, serial and pooled, submit this one function; the
    per-slot telemetry (and, with ``certifier``, each certificate)
    travels back attached to the outcomes, which is what lets the
    parent aggregate every lane without a second channel.

    The chunk runs through the per-slot :class:`_SlotStep` loop or,
    with ``batched``, through :meth:`_SlotStep.batch`.  With
    ``warm_start`` the loop chains: ``warm`` seeds the first slot and
    each success's :attr:`SlotResult.warm` seeds the next, while a
    failure ships no payload and cold-restarts the chain.

    With an ``obs`` plan every outcome comes back with a
    :class:`~repro.obs.WorkerReport` whose metric samples cover exactly
    that slot: per-slot lanes wrap each slot in a live ``worker.slot``
    span and (optionally) its own cProfile; the batched lane
    synthesizes per-slot spans from telemetry and lands one chunk
    profile on its first outcome (``profile_scope="chunk"``).
    """
    step = _SlotStep(solver, certifier, resilience)
    pid = os.getpid()
    if batched:
        with _profiled(obs) as profiler:
            outcomes = step.batch(chunk)
        if obs is not None:
            for j, outcome in enumerate(outcomes):
                _attach_report(
                    outcome,
                    obs,
                    pid=pid,
                    spans=(_synth_slot_span(outcome, pid),) if obs.spans else (),
                    profiler=profiler if j == 0 else None,
                    profile_scope="chunk",
                )
        return outcomes
    outcomes = []
    for offset, problem in enumerate(chunk.problems):
        index = chunk.index(offset)
        if obs is None:
            outcome = step(index, problem, warm)
        else:
            tracer = SpanTracer() if obs.spans else None
            with (
                nullcontext() if tracer is None else tracer.span(
                    "worker.slot", index=index, solver=solver.name, worker=pid
                )
            ) as span:
                with _profiled(obs) as profiler:
                    outcome = step(index, problem, warm)
                if span is not None:
                    tele = outcome.telemetry
                    span.set(
                        ok=outcome.ok,
                        iterations=0 if tele is None else tele.iterations,
                        converged=bool(tele is not None and tele.converged),
                    )
            _attach_report(
                outcome,
                obs,
                pid=pid,
                spans=() if tracer is None else tuple(tracer.to_dicts()),
                profiler=profiler,
            )
        if warm_start:
            warm = outcome.result.warm if outcome.ok else None
        outcomes.append(outcome)
    return outcomes


def _ledger_environment() -> dict[str, Any]:
    """The run-ledger header's environment stamp (parent process)."""
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "host": local_host(),
        "usable_cpus": usable_cpu_count(),
        "pid": os.getpid(),
    }


@dataclass
class _ExecStats:
    """What the execution layer reports back into the run summary."""

    executor: str = "serial"
    decision: str = "serial:requested"
    effective: int = 1
    usable: int = 1
    start_method: str | None = None
    client: str | None = None
    pending_max: int = 0
    store_hits: int = 0
    store_misses: int = 0
    fleet: FleetStats | None = None


class HorizonEngine:
    """Run a sequence of slot problems through one solver.

    Args:
        solver: a solver specification (registry name, SlotSolver, or
            legacy solver instance — see
            :func:`repro.engine.registry.create_solver`).
        workers: worker processes; 1 (default) runs in-process.  Counts
            above the usable CPUs are clamped (and recorded), and a
            pool that cannot help (≤1 usable CPU) falls back to the
            serial path — see ``oversubscribe``.
        chunk_size: slots per process-pool task; None picks
            ``ceil(T / (4 * workers))`` so the pool load-balances while
            amortizing per-task pickling.
        telemetry: optional :class:`~repro.obs.Telemetry` sink for
            engine events; None (default) is the no-op sink.
        oversubscribe: run the requested worker count even beyond the
            usable CPUs (benchmarks use this to *measure* the pool
            penalty; tests use it to exercise the pool path on 1-CPU
            CI).  Off by default.
        certify: audit every successful slot a posteriori and attach a
            :class:`~repro.obs.certify.Certificate` to its outcome.
            ``True`` builds a default
            :class:`~repro.obs.certify.CertificationContext`; passing a
            context (anything with a ``certify(problem, allocation,
            ...)`` method) customizes thresholds.  Certification never
            changes solutions — it reads them after the solver is done.
        metrics: optional :class:`~repro.obs.MetricsRegistry`; each run
            records slot counts, solve-time/iteration histograms and —
            with ``certify`` on — certificate residual histograms.
            Process-local: pool-run metrics are recorded in the parent
            from the shipped-back outcomes.
        resilience: optional
            :class:`~repro.engine.resilience.ResilienceConfig` giving
            every slot a retry budget, a solver fallback chain, a
            per-attempt wall-clock budget, and quarantine for a
            repeatedly-failing primary.  None (default) keeps the
            original single-attempt path bit-identical.  Incompatible
            with ``warm_start`` runs (a fallback breaks the chain's
            state contract).  With an asynchronous client,
            ``slot_timeout_s`` is additionally enforced on each whole
            pending batch at harvest time: a batch still outstanding
            after ``slot_timeout_s x slots`` seconds is abandoned and
            every slot in it surfaces as a ``SlotTimeoutError``
            outcome.
        supervision: optional
            :class:`~repro.exec.supervisor.SupervisorConfig` (or
            ``True`` for the defaults).  Wraps the run's client in a
            :class:`~repro.exec.supervisor.FleetSupervisor`: lost or
            timed-out batches are resubmitted to surviving workers
            under a bounded retry budget, stragglers are hedged,
            faulty workers quarantined, and (when configured) lost
            loopback workers respawned.  Only asynchronous clients are
            supervised — with a synchronous client (or ``None``,
            default) the pre-supervision code path runs bit-identical.
            With both ``resilience.slot_timeout_s`` and supervision
            set, the supervisor owns the clock: each *attempt* gets
            the per-batch budget, and only budget exhaustion surfaces
            as ``SlotTimeoutError`` outcomes.
        client: execution backend the horizon runs through — a
            registry name (``"in-process"``, ``"mp"``, ``"socket"``;
            see :func:`repro.exec.clients.available_clients`) or an
            :class:`~repro.exec.clients.ExecutionClient` instance (the
            caller keeps ownership of an instance's lifecycle; names
            are instantiated per run with this engine's ``workers`` /
            ``oversubscribe`` and closed afterwards).  None (default)
            picks the classic backends from ``workers``: the
            in-process client serially, the multiprocessing client for
            pools — outcomes are bit-identical across all of them.
        max_pending: maximum slot batches in flight at once (None
            keeps every batch in flight, the classic pool shape).
            Bounding it pipelines the horizon: batches are submitted
            out of order as others complete, which caps memory and
            keeps elastic backends busy without flooding them.
        store: optional persistent result store — a
            :class:`~repro.exec.store.ResultStore` or a directory
            path.  Before solving, every slot's (model, strategy,
            solver, inputs) digest is probed; hits resolve from disk
            (and are re-certified in-process when ``certify`` is on),
            misses are solved and written back.  Degraded/fallback
            results are never stored.
        tracer: optional :class:`~repro.obs.SpanTracer`.  Each run
            opens an ``engine.run`` span, and worker-side spans shipped
            back in :class:`~repro.obs.WorkerReport` payloads are
            re-parented under it (:meth:`SpanTracer.adopt`), so one
            trace covers local and remote work.
        ledger: optional run ledger — a directory path (each run writes
            a fresh :class:`~repro.obs.RunLedger` there) or a
            :class:`~repro.obs.RunLedger` instance (single-use; the
            engine finalizes it).  Every run persists its header
            (config + input digests + environment), the per-slot
            outcome stream in harvest order, and the final summary;
            the path of the last finalized ledger is
            :attr:`last_ledger_path`.
        worker_obs: collect worker-side observability (metric samples,
            spans, optional profiles) and attach a
            :class:`~repro.obs.WorkerReport` to every outcome.  None
            (default) auto-enables it exactly when there is a consumer
            — ``metrics``, ``tracer`` or ``worker_profile`` — so the
            observability-off path stays bit-identical; True/False
            force it.
        worker_profile: when > 0, run cProfile around each slot's solve
            in the worker and ship the top-N hotspot rows back on the
            report (per-slot on the per-slot lanes, per-chunk on the
            batched lane).

    After each :meth:`run`, :attr:`last_summary` holds the run's
    :class:`~repro.obs.HorizonSummary` (phase breakdown, executor
    decision, client and store statistics, cache, convergence and
    certification totals).
    """

    def __init__(
        self,
        solver: str | SlotSolver | Any = "centralized",
        workers: int = 1,
        chunk_size: int | None = None,
        telemetry: Telemetry | None = None,
        oversubscribe: bool = False,
        certify: bool | Any = False,
        metrics: Any | None = None,
        resilience: ResilienceConfig | None = None,
        supervision: SupervisorConfig | bool | None = None,
        client: str | ExecutionClient | None = None,
        max_pending: int | None = None,
        store: ResultStore | str | os.PathLike | None = None,
        tracer: SpanTracer | None = None,
        ledger: RunLedger | str | os.PathLike | None = None,
        worker_obs: bool | None = None,
        worker_profile: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if worker_profile < 0:
            raise ValueError(f"worker_profile must be >= 0, got {worker_profile}")
        self.solver = create_solver(solver)
        self.workers = int(workers)
        self.chunk_size = chunk_size
        self.telemetry = as_telemetry(telemetry)
        self.oversubscribe = bool(oversubscribe)
        self.client = client
        self.max_pending = max_pending
        if store is None or isinstance(store, ResultStore):
            self.store: ResultStore | None = store
        else:
            self.store = ResultStore(store)
        if certify is True:
            from repro.obs.certify import CertificationContext

            self.certifier: Any | None = CertificationContext()
        elif certify:
            self.certifier = certify
        else:
            self.certifier = None
        self.metrics = metrics
        self.resilience = resilience
        if supervision is True:
            self.supervision: SupervisorConfig | None = SupervisorConfig()
        elif supervision:
            self.supervision = supervision
        else:
            self.supervision = None
        self.tracer = tracer
        self.ledger = ledger
        self.worker_obs = worker_obs
        self.worker_profile = int(worker_profile)
        self.last_summary: HorizonSummary | None = None
        self.last_ledger_path: Any | None = None
        # Per-run observability state (set up in run(), read on the
        # harvest path); the engine is not reentrant, matching the
        # existing last_summary contract.
        self._run_ledger: RunLedger | None = None
        self._run_plan: WorkerObsPlan | None = None

    def plan_workers(self, n_items: int) -> tuple[int, str, int]:
        """The pool-sizing decision for a horizon of ``n_items`` slots.

        Returns:
            ``(effective_workers, decision, usable_cpus)`` — effective
            is 1 for every serial outcome; the decision string says
            why (``"serial:requested"``, ``"serial:single-slot"``,
            ``"serial:fallback-single-cpu"``, ``"pool:requested"``,
            ``"pool:clamped-to-cpus"``, ``"pool:oversubscribed"``).
        """
        usable = usable_cpu_count()
        if self.workers == 1:
            return 1, "serial:requested", usable
        if n_items <= 1:
            return 1, "serial:single-slot", usable
        if self.oversubscribe:
            return self.workers, "pool:oversubscribed", usable
        effective = min(self.workers, usable)
        if effective <= 1:
            return 1, "serial:fallback-single-cpu", usable
        if effective < self.workers:
            return effective, "pool:clamped-to-cpus", usable
        return effective, "pool:requested", usable

    def _plan_batch(self, batch: bool | None, warm_start: bool) -> bool:
        """Whether this run takes the vectorized ``solve_batch`` lane.

        ``None`` (default) auto-enables batching whenever the solver
        exposes a callable ``solve_batch`` and nothing incompatible is
        requested (warm-start chaining consumes slots sequentially;
        resilience retries are per-slot by design).  ``True`` forces
        the lane and raises on any incompatibility; ``False`` forces
        the scalar per-slot path.
        """
        capable = callable(getattr(self.solver, "solve_batch", None))
        if batch is None:
            return capable and not warm_start and self.resilience is None
        if not batch:
            return False
        if not capable:
            raise ValueError(
                f"solver {self.solver.name!r} has no solve_batch; use a "
                "batch-capable solver (e.g. 'centralized-batch') or "
                "run with batch=False"
            )
        if warm_start:
            raise ValueError(
                "batch=True cannot combine with warm_start: warm chaining "
                "consumes slots sequentially"
            )
        if self.resilience is not None:
            raise ValueError(
                "batch=True cannot combine with a resilience config: "
                "retry/fallback budgets are per-slot; run with batch=False"
            )
        return True

    def run(
        self,
        problems: Sequence[UFCProblem],
        warm_start: bool = False,
        batch: bool | None = None,
    ) -> list[SlotOutcome]:
        """Solve every problem; outcomes are returned in input order.

        Args:
            problems: the horizon's slot problems.
            warm_start: chain each slot from the previous slot's warm
                payload.  Requires a warm-start-capable solver and
                ``workers=1`` (the chain is sequential by nature).
                A synchronous client runs the chain as one chunk; an
                asynchronous one at pipeline depth one: slot
                ``t + 1``'s submission carries slot ``t``'s harvested
                payload, so warm hints survive process and socket
                boundaries.
            batch: take the vectorized ``solve_batch`` lane.  None
                (default) auto-enables it for batch-capable solvers
                (see :meth:`_plan_batch`); True forces it (raising on
                an incompatible configuration); False forces the
                scalar per-slot path.

        Raises:
            ValueError: for warm-start or batch requests the
                configuration cannot honor (clear error instead of
                silent fallback).
        """
        problems = list(problems)
        start = time.perf_counter()
        batched = self._plan_batch(batch, warm_start)
        if warm_start:
            if not self.solver.supports_warm_start:
                raise ValueError(
                    f"solver {self.solver.name!r} does not support warm "
                    "starts; run with warm_start=False"
                )
            if self.resilience is not None:
                raise ValueError(
                    "warm-start chaining cannot combine with a resilience "
                    "config: a fallback solver would break the chain's "
                    "warm-state contract"
                )
            if self.workers > 1:
                raise ValueError(
                    "warm-start chaining is sequential; use workers=1 "
                    "(the Fig. 11 iteration counts are cold-started anyway)"
                )
            if self.store is not None:
                raise ValueError(
                    "warm-start chaining cannot combine with a result "
                    "store: a store hit would break the chain's "
                    "warm-state hand-off"
                )
        ledger = self._open_ledger()
        self._run_ledger = ledger
        try:
            with ExitStack() as stack:
                if ledger is not None:
                    # SIGINT/SIGTERM/atexit leave a flushed, resumable
                    # .part ledger behind instead of an open handle.
                    stack.enter_context(interrupt_guard(ledger))
                run_span = None
                if self.tracer is not None:
                    run_span = stack.enter_context(
                        self.tracer.span(
                            "engine.run",
                            solver=self.solver.name,
                            slots=len(problems),
                            warm_start=warm_start,
                            batched=batched,
                        )
                    )
                if self._worker_obs_enabled():
                    trace_id = (
                        ledger.run_id if ledger is not None else new_run_id()
                    )
                    self._run_plan = WorkerObsPlan(
                        trace=TraceContext(
                            trace_id=trace_id,
                            parent_span_id=(
                                None if run_span is None else run_span.span_id
                            ),
                        ),
                        profile=self.worker_profile,
                    )
                if ledger is not None:
                    ledger.write_header(
                        solver=self.solver.name,
                        config=self._ledger_config(warm_start, batched),
                        digests=self._ledger_digests(problems),
                        environment=_ledger_environment(),
                        slots_expected=len(problems),
                    )
                outcomes, stats = self._run_horizon(problems, batched, warm_start)
                wall_s = time.perf_counter() - start
                summary = HorizonSummary.from_outcomes(
                    outcomes,
                    solver=self.solver.name,
                    wall_s=wall_s,
                    executor=stats.executor,
                    decision=stats.decision,
                    workers_requested=self.workers,
                    workers_effective=stats.effective,
                    usable_cpus=stats.usable,
                    mp_start_method=stats.start_method,
                    client=stats.client,
                    max_pending_observed=stats.pending_max,
                    store_hits=stats.store_hits,
                    store_misses=stats.store_misses,
                    fleet=(
                        None if stats.fleet is None else stats.fleet.to_dict()
                    ),
                )
                if run_span is not None:
                    run_span.set(
                        executor=summary.executor,
                        failed=summary.failed_slots,
                        store_hits=summary.store_hits,
                    )
        except BaseException:
            if ledger is not None:
                ledger.abandon()
            raise
        finally:
            self._run_ledger = None
            self._run_plan = None
        self.last_summary = summary
        if ledger is not None:
            self.last_ledger_path = ledger.finalize(summary.to_dict())
        self._emit(summary, outcomes)
        self._record_metrics(summary, outcomes)
        return outcomes

    # -- observability plumbing ----------------------------------------------

    def _worker_obs_enabled(self) -> bool:
        """Whether workers should ship :class:`WorkerReport` payloads.

        ``worker_obs=None`` auto-enables exactly when a consumer exists
        (a metrics registry, a tracer, or profiling), so a bare engine
        keeps the observability-off fast path bit-identical.
        """
        if self.worker_obs is not None:
            return bool(self.worker_obs)
        return (
            self.metrics is not None
            or self.tracer is not None
            or self.worker_profile > 0
        )

    def _open_ledger(self) -> RunLedger | None:
        """Materialize this run's ledger from the ``ledger`` setting.

        A directory gets a fresh ledger per run; a
        :class:`~repro.obs.RunLedger` instance is used as-is (and is
        therefore single-use — the engine finalizes or abandons it).
        """
        if self.ledger is None:
            return None
        if isinstance(self.ledger, RunLedger):
            return self.ledger
        return RunLedger(self.ledger)

    def _ledger_config(self, warm_start: bool, batched: bool) -> dict[str, Any]:
        """The run's engine configuration, JSON-ready, for the header."""
        client = self.client
        if client is not None and not isinstance(client, str):
            client = getattr(client, "name", type(client).__name__)
        return {
            "solver": self.solver.name,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "oversubscribe": self.oversubscribe,
            "certify": self.certifier is not None,
            "resilience": self.resilience is not None,
            "supervised": self.supervision is not None,
            "client": client,
            "max_pending": self.max_pending,
            "store": self.store is not None,
            "warm_start": warm_start,
            "batched": batched,
            "worker_profile": self.worker_profile,
        }

    def _ledger_digests(self, problems: list[UFCProblem]) -> dict[str, Any]:
        """Input identity: per-slot digests folded into one run digest."""
        hasher = hashlib.sha256()
        for problem in problems:
            hasher.update(problem_digest(problem, self.solver.name).encode())
        return {"slots": len(problems), "inputs_sha256": hasher.hexdigest()}

    def _absorb(self, outcome: SlotOutcome, pending: int | None = None) -> None:
        """Fold one harvested outcome into the parent-side observers.

        This is the single merge point for remote work: the worker
        report's metric samples land in the engine's registry, its
        spans are re-parented under the run span, and the outcome is
        appended to the run ledger (with the live pending depth when
        the scheduler knows it).
        """
        report = outcome.worker_report
        if report is not None:
            if report.metrics is not None and self.metrics is not None:
                self.metrics.merge_samples(report.metrics)
            if report.spans and self.tracer is not None:
                parent = (
                    report.trace.parent_span_id
                    if report.trace is not None
                    else None
                )
                self.tracer.adopt(report.spans, parent_id=parent)
        if self._run_ledger is not None:
            self._run_ledger.record_slot(outcome, pending=pending)

    def _emit(self, summary: HorizonSummary, outcomes: list[SlotOutcome]) -> None:
        """Stream the run's events to the telemetry sink (if enabled)."""
        sink = self.telemetry
        if not sink.enabled:
            return
        sink.counter(
            "engine.decision",
            summary.workers_effective,
            requested=summary.workers_requested,
            usable_cpus=summary.usable_cpus,
            executor=summary.executor,
            decision=summary.decision,
            mp_start_method=summary.mp_start_method,
        )
        for outcome in outcomes:
            tele = outcome.telemetry
            if tele is None:
                continue
            sink.timer(
                "engine.slot",
                tele.wall_s,
                index=outcome.index,
                solver=tele.solver,
                iterations=tele.iterations,
                converged=tele.converged,
                cache_hit=tele.cache_hit,
                worker=tele.worker,
                warm_start=tele.warm_start,
                ok=outcome.ok,
                error_type=outcome.error_type,
                attempts=outcome.attempts,
                degraded=outcome.degraded,
                fallback_solver=outcome.fallback_solver,
            )
        sink.timer(
            "engine.compile",
            summary.compile_s,
            hits=summary.cache_hits,
            misses=summary.cache_misses,
        )
        sink.timer(
            "engine.run",
            summary.wall_s,
            solver=summary.solver,
            slots=summary.slots,
            failed=summary.failed_slots,
            executor=summary.executor,
            overhead_s=round(summary.overhead_s, 6),
        )
        if summary.certified_slots:
            sink.counter(
                "engine.certified",
                summary.certified_slots,
                suspect=len(summary.suspect_slots),
                worst_violation=summary.worst_violation,
                worst_kkt=summary.worst_kkt,
                certify_s=round(summary.certify_s, 6),
            )

    def _record_metrics(
        self, summary: HorizonSummary, outcomes: list[SlotOutcome]
    ) -> None:
        """Record the run into the metrics registry (parent process).

        Registries are process-local, so pool workers cannot record
        directly; everything here is derived from the outcomes they
        shipped back, which keeps serial and pool runs identical in
        what they expose.
        """
        reg = self.metrics
        if reg is None:
            return
        from repro.obs.metrics import (
            DEFAULT_ITERATION_BUCKETS,
            DEFAULT_RESIDUAL_BUCKETS,
            DEFAULT_TIME_BUCKETS,
        )

        solver = summary.solver
        reg.counter("repro_engine_runs_total", solver=solver, executor=summary.executor).inc()
        reg.gauge("repro_engine_last_run_seconds", solver=solver).set(summary.wall_s)
        solve_hist = reg.histogram(
            "repro_engine_slot_solve_seconds", buckets=DEFAULT_TIME_BUCKETS,
            solver=solver,
        )
        iter_hist = reg.histogram(
            "repro_engine_slot_iterations", buckets=DEFAULT_ITERATION_BUCKETS,
            solver=solver,
        )
        for outcome in outcomes:
            reg.counter("repro_engine_slots_total", solver=solver).inc()
            if not outcome.ok:
                reg.counter("repro_engine_slot_failures_total", solver=solver).inc()
            if outcome.attempts > 1:
                reg.counter("repro_engine_slot_retries_total", solver=solver).inc(
                    outcome.attempts - 1
                )
            if outcome.fallback_solver:
                reg.counter(
                    "repro_engine_slot_fallbacks_total",
                    solver=solver,
                    fallback=outcome.fallback_solver,
                ).inc()
            if outcome.degraded:
                reg.counter(
                    "repro_engine_degraded_slots_total", solver=solver
                ).inc()
            tele = outcome.telemetry
            if tele is not None:
                solve_hist.observe(tele.wall_s)
                iter_hist.observe(tele.iterations)
                if tele.warm_start:
                    reg.counter(
                        "repro_warm_starts_total", solver=solver
                    ).inc()
            result = outcome.result
            extras = result.extras if result is not None else None
            if extras:
                if extras.get("incumbent_reuse"):
                    reg.counter(
                        "repro_incumbent_reuse_total", solver=solver
                    ).inc()
                saved = extras.get("iterations_saved")
                if saved is not None:
                    reg.histogram(
                        "repro_warm_iterations_saved",
                        buckets=DEFAULT_ITERATION_BUCKETS,
                        solver=solver,
                    ).observe(saved)
            cert = outcome.certificate
            if cert is not None:
                reg.histogram(
                    "repro_cert_kkt_residual", buckets=DEFAULT_RESIDUAL_BUCKETS,
                    solver=solver,
                ).observe(cert.kkt_residual)
                reg.histogram(
                    "repro_cert_feasibility_violation",
                    buckets=DEFAULT_RESIDUAL_BUCKETS,
                    solver=solver,
                ).observe(cert.worst_violation)
                if not cert.ok:
                    reg.counter("repro_cert_suspect_total", solver=solver).inc()

    # -- executors -----------------------------------------------------------

    def _run_horizon(
        self, problems: list[UFCProblem], batched: bool, warm_start: bool
    ) -> tuple[list[SlotOutcome], _ExecStats]:
        """Solve a horizon through the execution-client layer.

        The one client-driven lane, cold or warm.  With ``client=None``
        the worker plan picks the in-process or multiprocessing backend
        and keeps the historical executor strings (``"serial"``,
        ``"pool"``, …); an explicit client is named verbatim
        (``executor=client.name``, ``decision="client:<name>"``).
        When a result store is attached, every slot is probed in the
        parent before anything is scheduled; only misses reach the
        client, and fresh non-degraded results are written back after
        harvest.

        A warm chain submits the same :func:`_solve_chunk` task with
        the chain's payload.  A synchronous client gets the whole
        horizon as one chunk, exactly like the cold serial lane, so
        its compile cache spans the horizon.  An asynchronous client
        pipelines at depth one: each single-slot chunk is submitted
        only after the previous one is harvested and carries its
        :attr:`SlotResult.warm` payload, so warm hints cross process
        and socket boundaries.  A failed slot — including a lost
        worker — ships no payload, so the next slot cold-restarts the
        chain; warm chains are never wrapped in a fleet supervisor.

        Returns ``(outcomes, stats)``.
        """
        stats = _ExecStats()
        outcomes: list[SlotOutcome | None] = [None] * len(problems)

        # Store probe: parent-process, before any scheduling.
        keys: list[str | None] = [None] * len(problems)
        if self.store is None:
            to_solve: list[tuple[int, UFCProblem]] = list(enumerate(problems))
        else:
            to_solve = []
            for index, problem in enumerate(problems):
                key = problem_digest(problem, self.solver.name)
                keys[index] = key
                load_start = time.perf_counter()
                result = self.store.get(key)
                load_s = time.perf_counter() - load_start
                if result is None:
                    stats.store_misses += 1
                    to_solve.append((index, problem))
                else:
                    stats.store_hits += 1
                    # Re-certified in-process when the engine certifies:
                    # the digest vouches for identity, not feasibility.
                    try:
                        outcomes[index] = _slot_outcome(
                            index, problem, result, self.solver.name,
                            self.certifier, wall_s=load_s, store_hit=True,
                        )
                    except Exception as exc:
                        outcomes[index] = _failed_outcome(
                            index, exc, self.solver.name, wall_s=load_s
                        )
                    self._absorb(outcomes[index])

        # Client resolution: None keeps the classic worker plan and
        # its executor vocabulary; a name or instance takes over.
        spec = self.client
        owns = False
        client: ExecutionClient | None = None
        if spec is None:
            effective, stats.decision, stats.usable = self.plan_workers(
                len(to_solve)
            )
            stats.executor = "pool" if effective > 1 else "serial"
            if to_solve:
                if effective > 1:
                    client = MultiprocessingClient(
                        workers=effective, oversubscribe=True
                    )
                else:
                    client = InProcessClient()
                owns = True
        else:
            stats.usable = usable_cpu_count()
            if isinstance(spec, str):
                client = create_client(
                    spec, workers=self.workers, oversubscribe=self.oversubscribe
                )
                owns = True
            else:
                client = spec
            effective = 1 if warm_start else getattr(client, "workers", 1)
            stats.decision = f"client:{client.name}"
            stats.executor = client.name
        stats.effective = effective
        stats.start_method = getattr(client, "start_method", None)
        stats.client = None if client is None else client.name
        asynchronous = bool(getattr(client, "asynchronous", False))
        supervisor: FleetSupervisor | None = None

        try:
            if to_solve:
                chunks = self._chunk_tasks(
                    to_solve,
                    len(problems),
                    asynchronous,
                    effective,
                    1 if warm_start else self.chunk_size,
                )
                budget_fn = None
                solver_name = self.solver.name
                if (
                    self.resilience is not None
                    and self.resilience.slot_timeout_s is not None
                    and asynchronous
                ):
                    timeout_s = self.resilience.slot_timeout_s

                    def budget_fn(task: tuple[Any, ...]) -> float:
                        return timeout_s * len(task[1].problems)

                def on_timeout(task: tuple[Any, ...]) -> list[SlotOutcome]:
                    chunk = task[1]
                    budget_s = 0.0 if budget_fn is None else budget_fn(task)
                    return _failed_chunk(
                        chunk,
                        solver_name,
                        SlotTimeoutError,
                        f"pending batch exceeded its harvest budget "
                        f"({budget_s:.3f}s for {len(chunk.problems)} slots); "
                        "the batch was abandoned and its late result discarded",
                    )

                if self.supervision is not None and asynchronous and not warm_start:
                    # The supervisor owns the clock: each *attempt* gets
                    # the per-batch budget, and the scheduler's own
                    # deadline enforcement is turned off — resubmission
                    # extends a batch's life past any single attempt.
                    supervisor = FleetSupervisor(
                        client,
                        self.supervision,
                        budget_s=budget_fn,
                        metrics=self.metrics,
                    )
                    stats.fleet = supervisor.stats
                scheduler = BatchScheduler(
                    supervisor if supervisor is not None else client,
                    max_pending=self.max_pending,
                    telemetry=self.telemetry,
                    metrics=self.metrics,
                )

                def on_error(
                    task: tuple[Any, ...], exc: BaseException
                ) -> list[SlotOutcome]:
                    # A lost worker becomes structured per-slot failures
                    # (the fleet already shrank); under supervision this
                    # only fires once the retry budget is spent.  A
                    # supervised batch whose every attempt blew its
                    # budget gets the same timeout verdict the
                    # scheduler's own enforcement would give.  Anything
                    # else is a real bug and propagates as before.
                    if isinstance(exc, WorkerLostError):
                        return _failed_chunk(
                            task[1], solver_name, WorkerLostError, str(exc)
                        )
                    if isinstance(exc, TaskTimeoutError) and supervisor is not None:
                        return on_timeout(task)
                    raise exc

                tasks = [
                    (
                        self.solver,
                        chunk,
                        self.certifier,
                        self.resilience,
                        batched,
                        self._run_plan,
                    )
                    for chunk in chunks
                ]
                # The supervisor assigns its task ids in submission
                # order, which is list order here — that is what lets
                # the harvest hook look a chunk's retry lineage up.
                task_order = {id(task): i for i, task in enumerate(tasks)}

                def on_harvest(
                    task: tuple[Any, ...], result: Any, depth: int
                ) -> None:
                    if supervisor is not None:
                        lin = supervisor.lineage(task_order[id(task)])
                        if lin is not None:
                            for outcome in result:
                                outcome.lineage = lin
                    for outcome in result:
                        self._absorb(outcome, pending=depth)
                        # Write back at harvest, not at run end: a run
                        # killed mid-horizon keeps every completed
                        # slot's result on disk, which is what makes
                        # `repro resume` skip the finished work.  Only
                        # fresh, trustworthy results land (no degraded
                        # or fallback allocations — a healthy re-run
                        # should never inherit those).
                        if (
                            self.store is not None
                            and keys[outcome.index] is not None
                            and outcome.ok
                            and not outcome.degraded
                        ):
                            self.store.put(keys[outcome.index], outcome.result)

                def harvest(
                    tasks: list[tuple[Any, ...]]
                ) -> list[list[SlotOutcome]]:
                    return scheduler.map(
                        _solve_chunk,
                        tasks,
                        budget_s=None if supervisor is not None else budget_fn,
                        on_timeout=None if supervisor is not None else on_timeout,
                        on_result=on_harvest,
                        on_error=on_error,
                    )

                if warm_start:
                    harvested = []
                    warm = None
                    for task in tasks:
                        (chunk_outcomes,) = harvest([(*task, True, warm)])
                        last = chunk_outcomes[-1]
                        warm = last.result.warm if last.ok else None
                        harvested.append(chunk_outcomes)
                else:
                    harvested = harvest(tasks)
                for chunk_outcomes in harvested:
                    for outcome in chunk_outcomes:
                        outcomes[outcome.index] = outcome
                stats.pending_max = scheduler.pending_max_observed
        finally:
            if owns and client is not None:
                client.close()

        if batched:
            stats.executor += "-batch"
        if warm_start:
            stats.executor += "-warm"
            stats.decision = (
                "serial:warm-start" if spec is None else f"{stats.decision}:warm-chain"
            )
        return [outcome for outcome in outcomes if outcome is not None], stats

    def _chunk_tasks(
        self,
        to_solve: list[tuple[int, UFCProblem]],
        total: int,
        asynchronous: bool,
        effective: int,
        chunk_size: int | None,
    ) -> list[_Chunk]:
        """Split pending (index, problem) pairs into solver batches.

        A synchronous single-worker client gets ONE chunk — that is
        the serial lane, and one chunk is what lets its
        :class:`CompileCache` span the whole horizon.  Everything else
        uses ``chunk_size`` or, when that is None, the classic pool
        rule ``ceil(T / (4 * workers))``.  Chunks over a contiguous
        zero-based range skip the explicit index list (matching the
        historical pool task payloads); store-thinned runs carry their
        slot indices explicitly.
        """
        contiguous = len(to_solve) == total
        if effective <= 1 and not asynchronous:
            size = len(to_solve)
        else:
            size = chunk_size
            if size is None:
                size = max(1, -(-len(to_solve) // (4 * max(1, effective))))
        chunks = []
        for lo in range(0, len(to_solve), size):
            part = to_solve[lo : lo + size]
            chunks.append(
                _Chunk(
                    start=part[0][0],
                    problems=[problem for _, problem in part],
                    indices=(
                        None if contiguous else [index for index, _ in part]
                    ),
                )
            )
        return chunks
