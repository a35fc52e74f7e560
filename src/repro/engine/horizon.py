"""Map independent slot problems over pluggable execution clients.

Interactive workloads cannot be deferred, so the paper's 168 hourly
UFC problems are independent — the horizon is an embarrassingly
parallel map of **one per-slot step**: compile lookup → solve →
certify → outcome.
:class:`HorizonEngine` runs it as a *policy layer* over the
:mod:`repro.exec` client stack.  Concretely:

- **one slot step** (:class:`_SlotStep`) walks a fallback chain —
  the primary solver once, then each ``fallback`` solver once — and
  every outcome is built by one success builder
  (:func:`_slot_outcome`) or one failure builder
  (:func:`_failed_outcome`), whichever lane, batch or store hit
  produced it;
- **one chunk task** (:func:`_solve_chunk`) is what every execution
  client runs: a per-slot loop or the (model, strategy)-grouped
  ``solve_batch`` lane, whose outcomes are the only thing a worker
  sends home;
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
  :class:`~repro.obs.HorizonSummary` (and ledger);
- **compiled-structure caching**: each distinct (model, strategy) pair
  gets one :meth:`SlotSolver.compile` call per chunk — per horizon on
  the serial lane — through the identity-safe :class:`CompileCache`;
- an optional **persistent result store**
  (:class:`~repro.exec.store.ResultStore`): slots whose digest is
  already on disk resolve from the store instead of the solver;
- **per-slot error capture**: a slot whose solve raises on every lane
  of the chain becomes a failed :class:`SlotOutcome` with structured
  error fields instead of killing the horizon;
- **slot chaining inside the solver**: the engine hands slots over
  independently; a solver whose slots chain (``centralized-batch``,
  ``centralized-warm``) walks them inside ``solve_batch``, so chaining
  works with pools, clients and a store like any other batched run;
- **per-slot records**: every outcome carries a
  :class:`~repro.obs.SlotTelemetry`; at harvest the parent derives
  the ``repro_worker_*`` series from it,
  :attr:`HorizonEngine.last_summary` aggregates the run, and an
  optional run ledger persists both.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.problem import UFCProblem
from repro.engine.protocol import SlotResult, SlotSolver
from repro.engine.registry import available_solvers, create_solver
from repro.exec.clients import (
    ExecutionClient,
    InProcessClient,
    MultiprocessingClient,
    WorkerLostError,
    available_clients,
    create_client,
    usable_cpu_count,
)
from repro.exec.pipeline import BatchScheduler
from repro.exec.store import ResultStore, problem_digests
from repro.exec.supervisor import FleetStats, FleetSupervisor, SupervisorConfig
from repro.obs import (
    DEFAULT_ITERATION_BUCKETS,
    DEFAULT_RESIDUAL_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    HorizonSummary,
    RunLedger,
    SlotTelemetry,
    interrupt_guard,
)

__all__ = [
    "SlotOutcome",
    "CompileCache",
    "HorizonEngine",
    "usable_cpu_count",
]

#: This process's node name, stamped on the telemetry of every slot it
#: solves (computed once per process).
_HOST = platform.node() or "localhost"


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
        attempts: solve attempts this slot consumed: 1 for the
            primary, plus one per fallback solver tried.
        degraded: the result came from a fallback solver or the solver
            itself reported a degraded completion — flagged, never
            hidden.
        fallback_solver: name of the fallback solver that produced the
            result; None when the primary did.
        chain_errors: one ``"solver: ErrType: message"`` entry per
            failed lane of the fallback chain (empty without a chain).
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
    store_hit: bool = False,
    attempts: int = 1,
    fallback_solver: str | None = None,
    chain_errors: tuple[str, ...] = (),
) -> SlotOutcome:
    """The successful :class:`SlotOutcome` of a solved or stored slot.

    The one place a success is built, whichever lane produced it: the
    result is certified here when a certifier is attached (solver
    duals preferred when shipped, and the QP the solver built and the
    UFC it computed reused; a certification crash propagates to the
    caller, which turns it into a failed outcome), and the outcome is
    ``degraded`` whenever a fallback solver produced it or the solver
    reported a degraded completion.  The result's
    :attr:`~SlotResult.qp` is detached here, so no outcome keeps a
    slot's QP alive.  A structured-lane result is certified against
    the reduced QP in its ``extras["structured_qp"]``, the layout its
    multipliers are in.
    """
    extras = result.extras or {}
    qp = getattr(result, "qp", None)
    if qp is not None:
        result.qp = None
    else:
        qp = extras.get("structured_qp")
    certificate = None
    if certifier is not None:
        certificate = certifier.certify(
            problem,
            result.allocation,
            duals=extras.get("duals"),
            solver=solver_name,
            slot=index,
            qp=qp,
            ufc=result.ufc,
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
            store_hit=store_hit,
            certify_s=0.0 if certificate is None else certificate.certify_s,
            host=None if store_hit else _HOST,
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
    attempts: int = 1,
    chain_errors: tuple[str, ...] = (),
    host: str | None = _HOST,
) -> SlotOutcome:
    """A failed :class:`SlotOutcome` with structured error info.

    ``error`` defaults to the traceback of the exception being
    handled, so call it from the ``except`` block or pass one.
    ``host`` is None for a failure no worker produced (a stand-in for
    a lost batch, or a stored result that failed re-certification).
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
            error_type=type(exc).__name__,
            host=host,
        ),
    )


def _failed_chunk(chunk: _Chunk, solver_name: str, reason: str) -> list[SlotOutcome]:
    """One failed outcome per slot of a chunk whose worker was lost.

    A lost worker delivers no per-slot telemetry, so every slot becomes
    a structured ``WorkerLostError`` failure attributed to the
    harvesting process — not a silent gap — with no host, since no
    worker returned it.
    """
    outcomes = []
    for offset in range(len(chunk.problems)):
        index = chunk.index(offset)
        exc = WorkerLostError(f"slot {index}: {reason}")
        outcomes.append(
            _failed_outcome(
                index,
                exc,
                solver_name,
                error=f"{type(exc).__name__}: {exc}",
                host=None,
            )
        )
    return outcomes


class _SlotStep:
    """The per-slot step every lane runs: compile lookup → solve → certify.

    Built once per chunk, it owns one :class:`CompileCache` per lane of
    the fallback chain: the primary solver, then each ``fallback``
    solver (instantiated once per chunk).  A slot tries each lane once,
    in order, and the first success is its outcome.  A slot becomes a
    failed outcome only when every lane failed.
    """

    def __init__(
        self,
        solver: SlotSolver,
        certifier: Any | None,
        fallback: tuple[str, ...] = (),
    ) -> None:
        self.solver = solver
        self.certifier = certifier
        self.cache = CompileCache(solver)
        self.lanes: list[tuple[SlotSolver, CompileCache]] = [(solver, self.cache)]
        for name in fallback:
            lane = create_solver(name)
            self.lanes.append((lane, CompileCache(lane)))

    def __call__(self, index: int, problem: UFCProblem) -> SlotOutcome:
        """Solve one slot, capturing any failure as a failed outcome."""
        chain_errors: list[str] = []
        start = time.perf_counter()
        for attempt, (solver, cache) in enumerate(self.lanes, 1):
            cache_hit: bool | None = None
            compile_s = 0.0
            try:
                compiled, cache_hit, compile_s = cache.lookup(
                    problem.model, problem.strategy
                )
                solve_start = time.perf_counter()
                result = solver.solve(problem, compiled=compiled)
                return _slot_outcome(
                    index,
                    problem,
                    result,
                    solver.name,
                    self.certifier,
                    wall_s=time.perf_counter() - solve_start,
                    compile_s=compile_s,
                    cache_hit=cache_hit,
                    attempts=attempt,
                    fallback_solver=None if attempt == 1 else solver.name,
                    chain_errors=tuple(chain_errors),
                )
            except Exception as exc:
                failure = (exc, traceback.format_exc(), compile_s, cache_hit)
                if len(self.lanes) > 1:
                    chain_errors.append(
                        f"{solver.name}: {type(exc).__name__}: {exc}"
                    )
        exc, error, compile_s, cache_hit = failure
        return _failed_outcome(
            index,
            exc,
            self.solver.name,
            error=error,
            wall_s=time.perf_counter() - start,
            compile_s=compile_s,
            cache_hit=cache_hit,
            attempts=len(self.lanes),
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


def _solve_chunk(
    solver: SlotSolver,
    chunk: _Chunk,
    certifier: Any | None = None,
    fallback: tuple[str, ...] = (),
    batched: bool = False,
) -> list[SlotOutcome]:
    """Solve one chunk of slots: the task every execution client runs.

    Module-level so process and socket clients can pickle it.  Serial
    and pooled, batched or not, observed or not, every run submits this
    one function, and the outcomes are all that comes back: each carries
    its :class:`~repro.obs.SlotTelemetry` (and, with ``certifier``,
    its certificate), from which the parent derives every per-slot
    metric and ledger record.

    The chunk runs through the per-slot :class:`_SlotStep` loop or,
    with ``batched``, through :meth:`_SlotStep.batch`.
    """
    step = _SlotStep(solver, certifier, fallback)
    if batched:
        return step.batch(chunk)
    return [
        step(chunk.index(offset), problem)
        for offset, problem in enumerate(chunk.problems)
    ]


def _record_worker_slot(reg: Any, tele: SlotTelemetry) -> None:
    """Record one worker-solved slot's ``repro_worker_*`` series.

    Derived in the parent from the slot's telemetry:

    - ``repro_worker_slots_total{worker,solver}``
    - ``repro_worker_slot_solve_seconds{worker}`` (histogram)
    - ``repro_worker_slot_compile_seconds{worker}`` (histogram, cache
      misses only)
    - ``repro_worker_slot_certify_seconds{worker}`` (histogram, when
      certification ran)
    - ``repro_worker_slot_failures_total{worker,error_type}``

    Summed over a run without store hits, the solve histogram's
    ``_sum`` is exactly the summary's ``solve_s``.
    """
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


def _ledger_environment() -> dict[str, Any]:
    """The run-ledger header's environment stamp (parent process)."""
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "host": _HOST,
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
        oversubscribe: run the requested worker count even beyond the
            usable CPUs (benchmarks use this to *measure* the pool
            penalty; tests use it to exercise the pool path on 1-CPU
            CI).  Off by default.
        certify: audit every successful slot a posteriori and attach a
            :class:`~repro.obs.certify.Certificate` to its outcome.
            ``True`` builds a default
            :class:`~repro.obs.certify.CertificationContext`; passing a
            context (anything with a ``certify(problem, allocation, *,
            duals, solver, slot, qp)`` method, ``qp`` being the QP the
            solver built — the reduced ``StructuredSlotQP`` on the
            structured lane — or None) customizes thresholds.  Certification
            never changes solutions — it reads them after the solver is
            done.
        metrics: optional :class:`~repro.obs.MetricsRegistry`; each run
            records slot counts, solve-time/iteration histograms and —
            with ``certify`` on — certificate residual histograms, plus
            the ``repro_worker_*`` series of every slot a worker
            returned.  Process-local: all of it is recorded in the
            parent from the outcomes' telemetry.
        fallback: registry names of the solvers that rescue a slot
            the primary failed, tried once each, in order (e.g.
            ``("centralized", "proportional")``).  A rescued outcome
            is flagged ``degraded`` with ``fallback_solver`` set, is
            still certified, and is never stored.  The empty default
            runs the primary alone; a name that
            :func:`~repro.engine.registry.available_solvers` does not
            list raises ``ValueError`` here, before any slot runs.
        supervision: optional
            :class:`~repro.exec.supervisor.SupervisorConfig` (or
            ``True`` for the defaults).  Wraps the run's client in a
            :class:`~repro.exec.supervisor.FleetSupervisor`: batches
            lost with their worker are resubmitted to surviving
            workers under a bounded retry budget, stragglers are
            hedged, faulty workers quarantined, and (when configured)
            lost loopback workers respawned.  Only asynchronous
            clients are supervised — with a synchronous client (or
            ``None``, default) the pre-supervision code path runs
            bit-identical.
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
        ledger: optional run ledger — a directory path (each run writes
            a fresh :class:`~repro.obs.RunLedger` there) or a
            :class:`~repro.obs.RunLedger` instance (single-use; the
            engine finalizes it).  Every run persists its header
            (config + input digests + environment), the per-slot
            outcome stream in harvest order, and the final summary;
            the path of the last finalized ledger is
            :attr:`last_ledger_path`.

    Workers run the same code whatever observes the run: the outcome,
    with its telemetry and certificate, is the one record that crosses
    the process boundary, so the observability-off path stays
    bit-identical.

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
        oversubscribe: bool = False,
        certify: bool | Any = False,
        metrics: Any | None = None,
        fallback: Sequence[str] = (),
        supervision: SupervisorConfig | bool | None = None,
        client: str | ExecutionClient | None = None,
        max_pending: int | None = None,
        store: ResultStore | str | os.PathLike | None = None,
        ledger: RunLedger | str | os.PathLike | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        unknown = [name for name in fallback if name not in available_solvers()]
        if unknown:
            raise ValueError(
                f"unknown fallback solver(s) {', '.join(map(repr, unknown))}; "
                f"available: {', '.join(available_solvers())}"
            )
        self.solver = create_solver(solver)
        self.workers = int(workers)
        self.chunk_size = chunk_size
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
        self.fallback = tuple(fallback)
        if supervision is True:
            self.supervision: SupervisorConfig | None = SupervisorConfig()
        elif supervision:
            self.supervision = supervision
        else:
            self.supervision = None
        self.ledger = ledger
        self.last_summary: HorizonSummary | None = None
        self.last_ledger_path: Any | None = None
        # Per-run observability state (set up in run(), read on the
        # harvest path); the engine is not reentrant, matching the
        # existing last_summary contract.
        self._run_ledger: RunLedger | None = None

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
        exposes a callable ``solve_batch``.  ``True`` forces the lane
        and raises when the solver has none; ``False`` forces the
        scalar per-slot path.  A fallback chain works on either lane: a
        failed batch group is re-solved slot by slot through the chain.
        Slots chain only inside ``solve_batch`` (the
        ``centralized-batch`` and ``centralized-warm`` lanes walk each
        slot from a cold anchor), so ``warm_start`` asks for the
        batched lane and raises with a solver that has none or with
        ``batch=False``.
        """
        capable = callable(getattr(self.solver, "solve_batch", None))
        if batch is None:
            batch = warm_start or capable
        if batch and not capable:
            raise ValueError(
                f"solver {self.solver.name!r} has no solve_batch; use a "
                "batch-capable solver (e.g. 'centralized-batch') or "
                "run with batch=False and warm_start=False"
            )
        if warm_start and not batch:
            raise ValueError(
                "warm_start=True chains slots inside solve_batch; run "
                "with batch=None or batch=True"
            )
        return bool(batch)

    def run(
        self,
        problems: Sequence[UFCProblem],
        warm_start: bool = False,
        batch: bool | None = None,
        context: Mapping[str, Any] | None = None,
    ) -> list[SlotOutcome]:
        """Solve every problem; outcomes are returned in input order.

        Args:
            problems: the horizon's slot problems.
            warm_start: chain slots: asks for the batched lane, whose
                solver walks each slot from a cold anchor inside
                ``solve_batch`` (see :meth:`_plan_batch`).
            batch: take the vectorized ``solve_batch`` lane.  None
                (default) auto-enables it for batch-capable solvers
                (see :meth:`_plan_batch`); True forces it (raising
                when the solver has no ``solve_batch``); False forces
                the scalar per-slot path.
            context: recorded data for the ledger header's ``context``
                (the :class:`~repro.sim.Simulator` stamps its run
                recipe there); used only when ``ledger`` is a
                directory — a :class:`~repro.obs.RunLedger` instance
                keeps its own context.

        Raises:
            ValueError: for warm-start or batch requests the solver
                cannot honor (clear error instead of silent fallback).
        """
        problems = list(problems)
        start = time.perf_counter()
        batched = self._plan_batch(batch, warm_start)
        ledger = self._open_ledger(context)
        self._run_ledger = ledger
        try:
            with ExitStack() as stack:
                if ledger is not None:
                    # SIGINT/SIGTERM/atexit leave a flushed, resumable
                    # .part ledger behind instead of an open handle.
                    stack.enter_context(interrupt_guard(ledger))
                # One key per slot, shared by the ledger header and
                # the store probe.
                keys: list[str] | None = None
                if ledger is not None or self.store is not None:
                    keys = problem_digests(problems, self.solver.name)
                if ledger is not None:
                    ledger.write_header(
                        solver=self.solver.name,
                        config=self._ledger_config(batched),
                        digests=self._ledger_digests(keys),
                        environment=_ledger_environment(),
                        slots_expected=len(problems),
                    )
                outcomes, stats = self._run_horizon(problems, batched, keys)
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
        except BaseException:
            if ledger is not None:
                ledger.abandon()
            raise
        finally:
            self._run_ledger = None
        self.last_summary = summary
        if ledger is not None:
            self.last_ledger_path = ledger.finalize(summary.to_dict())
        self._record_metrics(summary, outcomes)
        return outcomes

    # -- observability plumbing ----------------------------------------------

    def _open_ledger(
        self, context: Mapping[str, Any] | None
    ) -> RunLedger | None:
        """Materialize this run's ledger from the ``ledger`` setting.

        A directory gets a fresh ledger per run, its header carrying
        ``context``; a :class:`~repro.obs.RunLedger` instance is used
        as-is (and is therefore single-use — the engine finalizes or
        abandons it).
        """
        if self.ledger is None:
            return None
        if isinstance(self.ledger, RunLedger):
            return self.ledger
        return RunLedger(self.ledger, context=context)

    @property
    def client_name(self) -> str | None:
        """The ``client`` setting as the ledger records it: a registry
        name as given, an instance by its display name."""
        client = self.client
        if client is not None and not isinstance(client, str):
            client = getattr(client, "name", type(client).__name__)
        return client

    def _ledger_config(self, batched: bool) -> dict[str, Any]:
        """The run's engine configuration, JSON-ready, for the header."""
        return {
            "solver": self.solver.name,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "oversubscribe": self.oversubscribe,
            "certify": self.certifier is not None,
            "fallback": list(self.fallback),
            "supervised": self.supervision is not None,
            "client": self.client_name,
            "max_pending": self.max_pending,
            "store": self.store is not None,
            "batched": batched,
        }

    @staticmethod
    def _ledger_digests(keys: list[str]) -> dict[str, Any]:
        """Input identity: the per-slot store keys folded into one run digest."""
        hasher = hashlib.sha256()
        for key in keys:
            hasher.update(key.encode())
        return {"slots": len(keys), "inputs_sha256": hasher.hexdigest()}

    def _absorb(self, outcome: SlotOutcome, pending: int | None = None) -> None:
        """Fold one harvested outcome into the parent-side observers.

        The single point where remote work meets the parent's
        observers, both fed from the outcome's telemetry: a slot a
        worker returned (its telemetry names a host) gets its
        ``repro_worker_*`` series, and every outcome is appended to
        the run ledger (with the live pending depth when the scheduler
        knows it).  Store hits and the stand-ins for lost batches name
        no host, so they get no worker series.
        """
        tele = outcome.telemetry
        if self.metrics is not None and tele is not None and tele.host is not None:
            _record_worker_slot(self.metrics, tele)
        if self._run_ledger is not None:
            self._run_ledger.record_slot(outcome, pending=pending)

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
        if summary.warm_started_slots:
            reg.counter("repro_warm_starts_total", solver=solver).inc(
                summary.warm_started_slots
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
        self,
        problems: list[UFCProblem],
        batched: bool,
        keys: list[str] | None,
    ) -> tuple[list[SlotOutcome], _ExecStats]:
        """Solve a horizon through the execution-client layer.

        The one client-driven lane.  With ``client=None`` the worker
        plan picks the in-process or multiprocessing backend and keeps
        the historical executor strings (``"serial"``, ``"pool"``,
        …); an explicit client is named verbatim
        (``executor=client.name``, ``decision="client:<name>"``).
        When a result store is attached, every slot is probed in the
        parent under its key in ``keys`` (the run's
        :func:`~repro.exec.store.problem_digests`) before anything is
        scheduled; only misses reach the client, and fresh non-degraded
        results are written back after harvest.

        Returns ``(outcomes, stats)``.
        """
        stats = _ExecStats()
        outcomes: list[SlotOutcome | None] = [None] * len(problems)

        # Store probe: parent-process, before any scheduling.
        if self.store is None:
            to_solve: list[tuple[int, UFCProblem]] = list(enumerate(problems))
        else:
            to_solve = []
            for index, problem in enumerate(problems):
                load_start = time.perf_counter()
                result = self.store.get(keys[index])
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
                            index, exc, self.solver.name, wall_s=load_s,
                            host=None,
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
                stats.client = client.name
        else:
            stats.usable = usable_cpu_count()
            if not isinstance(spec, str):
                client = spec
            elif to_solve:
                # Built only when there is work: an all-hit store run
                # spawns no workers, yet its summary names the client.
                client = create_client(
                    spec, workers=self.workers, oversubscribe=self.oversubscribe
                )
                owns = True
            elif spec not in available_clients():
                raise KeyError(f"unknown execution client {spec!r}")
            name = spec if client is None else client.name
            effective = 1 if client is None else getattr(client, "workers", 1)
            stats.decision = f"client:{name}"
            stats.executor = stats.client = name
        stats.effective = effective
        stats.start_method = getattr(client, "start_method", None)
        asynchronous = bool(getattr(client, "asynchronous", False))
        supervisor: FleetSupervisor | None = None

        try:
            if to_solve:
                chunks = self._chunk_tasks(
                    to_solve, len(problems), asynchronous, effective
                )
                if self.supervision is not None and asynchronous:
                    supervisor = FleetSupervisor(
                        client, self.supervision, metrics=self.metrics
                    )
                    stats.fleet = supervisor.stats
                scheduler = BatchScheduler(
                    supervisor if supervisor is not None else client,
                    max_pending=self.max_pending,
                    metrics=self.metrics,
                )

                def on_error(
                    task: tuple[Any, ...], exc: BaseException
                ) -> list[SlotOutcome]:
                    # A lost worker becomes structured per-slot failures
                    # (the fleet already shrank); under supervision this
                    # only fires once the retry budget is spent.
                    # Anything else is a real bug and propagates.
                    if isinstance(exc, WorkerLostError):
                        return _failed_chunk(task[1], self.solver.name, str(exc))
                    raise exc

                tasks = [
                    (
                        self.solver,
                        chunk,
                        self.certifier,
                        self.fallback,
                        batched,
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
                            and outcome.ok
                            and not outcome.degraded
                        ):
                            self.store.put(keys[outcome.index], outcome.result)

                harvested = scheduler.map(
                    _solve_chunk, tasks, on_result=on_harvest, on_error=on_error
                )
                for chunk_outcomes in harvested:
                    for outcome in chunk_outcomes:
                        outcomes[outcome.index] = outcome
                stats.pending_max = scheduler.pending_max_observed
        finally:
            if owns and client is not None:
                client.close()

        if batched:
            stats.executor += "-batch"
        return [outcome for outcome in outcomes if outcome is not None], stats

    def _chunk_tasks(
        self,
        to_solve: list[tuple[int, UFCProblem]],
        total: int,
        asynchronous: bool,
        effective: int,
    ) -> list[_Chunk]:
        """Split pending (index, problem) pairs into solver batches.

        A synchronous single-worker client gets ONE chunk — that is
        the serial lane, and one chunk is what lets its
        :class:`CompileCache` span the whole horizon.  Everything else
        uses ``self.chunk_size`` or, when that is None, the classic pool
        rule ``ceil(T / (4 * workers))``.  Chunks over a contiguous
        zero-based range skip the explicit index list (matching the
        historical pool task payloads); store-thinned runs carry their
        slot indices explicitly.
        """
        contiguous = len(to_solve) == total
        if effective <= 1 and not asynchronous:
            size = len(to_solve)
        else:
            size = self.chunk_size
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
