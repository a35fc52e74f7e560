"""Fleet supervision: retries, hedging and liveness over any client.

PR 8 made remote failure *observable*: a dead socket worker surfaces as
structured :class:`~repro.exec.clients.WorkerLostError` outcomes and
the run ledger records them.  This module makes it *recoverable*.
:class:`FleetSupervisor` wraps any asynchronous
:class:`~repro.exec.clients.ExecutionClient` behind the same
submit/wait_next/discard surface, so the batch scheduler and engine
use it transparently, and adds four behaviors:

- **Resubmission.**  A task whose worker died is resubmitted to the
  surviving fleet under a bounded retry budget — per-task attempt cap,
  exponential backoff, and a per-run retry ceiling.  Only
  when the budget is exhausted does the failure propagate (with the
  supervisor's task id attached, so the scheduler can still absorb it
  per-task).
- **Straggler hedging.**  Once enough attempts have completed to
  estimate a latency quantile, a task in flight longer than
  ``quantile * HEDGE_MULTIPLIER`` is speculatively duplicated on
  another worker; the first completed attempt wins and the loser is
  discarded.  Task functions are deterministic, so hedging never
  changes results — only tail latency.
- **Worker quarantine.**  A worker that loses tasks repeatedly
  (``QUARANTINE_AFTER`` times) is retired from the rotation,
  circuit-breaker style.
- **Respawn.**  When the wrapped client can grow its fleet back
  (:meth:`~repro.exec.clients.SocketClient.respawn_workers`), lost
  loopback workers are replaced up to ``max_respawns``.

Everything degrades gracefully by capability probing: a client without
``worker_for_task`` loses per-worker attribution but keeps retries and
hedging; one without ``check_liveness`` skips heartbeats.  The
supervisor is strictly opt-in — unwrapped clients take the exact
pre-supervision code path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.exec.clients import WorkerLostError

__all__ = [
    "FleetStats",
    "FleetSupervisor",
    "SupervisorConfig",
]


#: Total submissions per task, first try included.
MAX_ATTEMPTS = 3
#: Pause before a task's first resubmission, in seconds.
BACKOFF_S = 0.05
#: Growth factor of the pause per further resubmission.
BACKOFF_MULTIPLIER = 2.0
#: Ceiling on resubmissions across a whole run, so a poisoned horizon
#: cannot retry forever.
MAX_RETRIES_RUN = 64
#: Completed-attempt latency quantile the straggler deadline derives
#: from; a task is a straggler once its attempt has been in flight
#: ``quantile * HEDGE_MULTIPLIER`` seconds.
HEDGE_QUANTILE = 0.99
HEDGE_MULTIPLIER = 3.0
#: Completed attempts required before the quantile is trusted (no
#: hedging before that).
HEDGE_MIN_SAMPLES = 8
#: Ceiling on hedges across a whole run.
MAX_HEDGES_RUN = 16
#: Task losses a single worker may cause before it is retired from the
#: rotation.
QUARANTINE_AFTER = 3
#: Idle workers are pinged this often, in seconds.
HEARTBEAT_S = 5.0


def backoff_for(resubmission: int) -> float:
    """Backoff before the ``resubmission``-th resubmission (1-based)."""
    return BACKOFF_S * BACKOFF_MULTIPLIER ** max(0, resubmission - 1)


@dataclass(frozen=True)
class SupervisorConfig:
    """Fleet supervision policy.

    Retries, hedging, quarantine and heartbeats always run, with the
    module constants above; only respawning varies per run.

    Args:
        respawn: replace lost workers when the client can
            (``respawn_workers``).
        max_respawns: ceiling on replacement workers per run.
    """

    respawn: bool = False
    max_respawns: int = 2

    def __post_init__(self) -> None:
        if self.max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {self.max_respawns}")


@dataclass
class FleetStats:
    """What the supervisor did over one run — feeds the HorizonSummary."""

    resubmissions: int = 0
    hedges_launched: int = 0
    hedges_won: int = 0
    hedges_lost: int = 0
    workers_lost: int = 0
    workers_revived: int = 0
    workers_quarantined: int = 0

    def to_dict(self) -> dict[str, int]:
        """Counters as a plain dict (ledger summary / JSON reports)."""
        return {
            "resubmissions": self.resubmissions,
            "hedges_launched": self.hedges_launched,
            "hedges_won": self.hedges_won,
            "hedges_lost": self.hedges_lost,
            "workers_lost": self.workers_lost,
            "workers_revived": self.workers_revived,
            "workers_quarantined": self.workers_quarantined,
        }


def _quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile over a non-empty sample list."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


class _Attempt:
    __slots__ = ("inner_id", "submitted_at", "worker", "hedge")

    def __init__(self, inner_id: int, submitted_at: float, hedge: bool) -> None:
        self.inner_id = inner_id
        self.submitted_at = submitted_at
        self.worker: str | None = None
        self.hedge = hedge


class _TaskState:
    __slots__ = (
        "outer_id",
        "fn",
        "args",
        "attempts",
        "live",
        "retry_at",
        "faults",
        "hedged",
        "workers_tried",
    )

    def __init__(self, outer_id: int, fn: Callable[..., Any], args: tuple) -> None:
        self.outer_id = outer_id
        self.fn = fn
        self.args = args
        self.attempts = 0  # total submissions, hedges included
        self.live: list[_Attempt] = []
        self.retry_at: float | None = None  # backoff-pending resubmission
        self.faults: list[str] = []  # error types, submission order
        self.hedged = False
        self.workers_tried: list[str] = []


class FleetSupervisor:
    """Self-healing wrapper around an asynchronous execution client.

    Implements the :class:`~repro.exec.clients.ExecutionClient`
    protocol, so it drops in anywhere a client does; the engine wraps
    its client in one when supervision is enabled.  Task ids returned
    by :meth:`submit` are the supervisor's own, assigned sequentially
    in submission order — resubmissions and hedges happen on inner ids
    the caller never sees.

    Args:
        client: the wrapped client; must be asynchronous (a synchronous
            client has already finished a task when submit returns, so
            there is nothing to supervise).
        config: supervision policy.
        metrics: optional registry; maintains
            ``repro_exec_resubmits_total{reason=}``,
            ``repro_exec_hedges_total{outcome=}`` and the
            ``repro_exec_workers_alive`` gauge.
    """

    asynchronous = True

    def __init__(
        self,
        client: Any,
        config: SupervisorConfig | None = None,
        metrics: Any | None = None,
    ) -> None:
        if not getattr(client, "asynchronous", False):
            raise ValueError(
                "FleetSupervisor requires an asynchronous client; "
                f"{getattr(client, 'name', type(client).__name__)!r} is synchronous"
            )
        self.inner = client
        self.config = config or SupervisorConfig()
        self.metrics = metrics
        self.stats = FleetStats()
        self._tasks: dict[int, _TaskState] = {}
        self._inner_to_outer: dict[int, int] = {}
        self._ready: dict[int, Any] = {}
        self._lineages: dict[int, dict[str, Any]] = {}
        self._durations: list[float] = []
        self._worker_faults: dict[str, int] = {}
        self._quarantined: set[str] = set()
        self._respawns_used = 0
        self._fleet_target = int(getattr(client, "workers", 1))
        self._last_workers = self._fleet_target
        self._next_outer = 0
        self._heartbeat_due = time.monotonic() + HEARTBEAT_S
        self._set_liveness_gauge()

    # -- ExecutionClient surface ---------------------------------------------

    @property
    def name(self) -> str:
        return str(getattr(self.inner, "name", "client"))

    @property
    def workers(self) -> int:
        return int(getattr(self.inner, "workers", 1))

    @property
    def start_method(self) -> str | None:
        return getattr(self.inner, "start_method", None)

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> int:
        """Submit through the wrapped client under supervision."""
        outer_id = self._next_outer
        self._next_outer += 1
        state = _TaskState(outer_id, fn, args)
        self._tasks[outer_id] = state
        self._launch_attempt(state, hedge=False)
        return outer_id

    def wait_next(self, timeout_s: float | None = None) -> tuple[int, Any] | None:
        """Deliver the next surviving result; recover along the way.

        Between deliveries the supervisor runs its housekeeping loop:
        flush backoff-due resubmissions, launch hedges for stragglers,
        heartbeat idle workers, respawn lost ones.  A task whose retry
        budget is exhausted raises — with the supervisor's task id
        attached — exactly like an unsupervised failure, so existing
        scheduler error handling applies.
        """
        caller_deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        while True:
            if self._ready:
                return self._pop_ready()
            if not self._tasks:
                return None
            now = time.monotonic()
            self._flush_retries(now)
            self._launch_hedges(now)
            self._heartbeat(now)
            if self._ready:
                return self._pop_ready()
            wake = self._next_wake(now)
            if caller_deadline is not None:
                wake = min(wake, caller_deadline)
            inner_timeout = max(0.0, wake - now)
            try:
                got = self.inner.wait_next(timeout_s=inner_timeout)
            except Exception as exc:  # noqa: BLE001 - triaged below
                self._handle_failure(exc)  # re-raises when not recoverable
                continue
            if got is not None:
                self._handle_success(got[0], got[1], time.monotonic())
                continue
            now = time.monotonic()
            if caller_deadline is not None and now >= caller_deadline:
                return None
            if self.inner.num_pending() == 0:
                # Nothing in flight below us: either a resubmission is
                # waiting out its backoff (sleep it off — the inner
                # client returns immediately when idle) or we are stuck
                # with no way to run the remaining tasks.
                retry_due = self._earliest_retry()
                if retry_due is not None:
                    time.sleep(max(0.0, min(retry_due - now, 0.05)))
                    continue
                if not any(s.live for s in self._tasks.values()):
                    self._fail_stranded()

    def discard(self, task_id: int) -> None:
        """Abandon a supervised task and every attempt it has in flight."""
        self._ready.pop(task_id, None)
        state = self._tasks.pop(task_id, None)
        if state is None:
            return
        for attempt in state.live:
            self._inner_to_outer.pop(attempt.inner_id, None)
            self.inner.discard(attempt.inner_id)

    def num_pending(self) -> int:
        """Supervised tasks not yet delivered."""
        return len(self._tasks) + len(self._ready)

    def close(self) -> None:
        """Close the wrapped client.  Idempotent."""
        self.inner.close()

    # -- lineage --------------------------------------------------------------

    def lineage(self, task_id: int) -> dict[str, Any] | None:
        """The retry lineage for a delivered/failed task, or None.

        Returns None for first-try-clean tasks — only slots with a
        story get a lineage record in the ledger.
        """
        return self._lineages.get(task_id)

    def lineages(self) -> dict[int, dict[str, Any]]:
        """All recorded lineages, keyed by supervisor task id."""
        return dict(self._lineages)

    # -- attempt lifecycle ----------------------------------------------------

    def _launch_attempt(self, state: _TaskState, hedge: bool) -> None:
        now = time.monotonic()
        inner_id = self.inner.submit(state.fn, *state.args)
        attempt = _Attempt(inner_id, now, hedge)
        state.attempts += 1
        state.live.append(attempt)
        state.retry_at = None
        self._inner_to_outer[inner_id] = state.outer_id
        worker = self._worker_of(inner_id)
        if worker is not None:
            attempt.worker = worker
            if worker not in state.workers_tried:
                state.workers_tried.append(worker)

    def _worker_of(self, inner_id: int) -> str | None:
        probe = getattr(self.inner, "worker_for_task", None)
        if probe is None:
            return None
        worker = probe(inner_id)
        return None if worker is None else str(worker)

    def _refresh_attribution(self, state: _TaskState, attempt: _Attempt) -> None:
        """Re-read an attempt's worker — queued tasks have none at submit."""
        attempt.worker = self._worker_of(attempt.inner_id) or attempt.worker
        if attempt.worker and attempt.worker not in state.workers_tried:
            state.workers_tried.append(attempt.worker)

    def _pop_ready(self) -> tuple[int, Any]:
        outer_id = min(self._ready)
        return outer_id, self._ready.pop(outer_id)

    def _handle_success(self, inner_id: int, value: Any, now: float) -> None:
        outer_id = self._inner_to_outer.pop(inner_id, None)
        if outer_id is None or outer_id not in self._tasks:
            return  # late result of a task discarded above us
        state = self._tasks.pop(outer_id)
        winner = None
        for attempt in state.live:
            if attempt.inner_id == inner_id:
                winner = attempt
            else:
                self._refresh_attribution(state, attempt)
                self._inner_to_outer.pop(attempt.inner_id, None)
                self.inner.discard(attempt.inner_id)
        if winner is not None:
            winner.worker = self._worker_of(inner_id) or winner.worker
            if winner.worker and winner.worker not in state.workers_tried:
                state.workers_tried.append(winner.worker)
            self._durations.append(now - winner.submitted_at)
        if state.hedged:
            if winner is not None and winner.hedge:
                self.stats.hedges_won += 1
                self._count("repro_exec_hedges_total", outcome="won")
            else:
                self.stats.hedges_lost += 1
                self._count("repro_exec_hedges_total", outcome="lost")
        self._record_lineage(
            state, outcome="ok", winner_hedge=bool(winner and winner.hedge)
        )
        self._ready[outer_id] = value

    def _handle_failure(self, exc: BaseException) -> None:
        """Recover from an inner-task failure, or re-raise it.

        Only worker loss is recoverable — a task that *raised* on a
        healthy worker is deterministic and would raise again, so it
        propagates untouched (with the outer id for attribution).
        """
        inner_id = getattr(exc, "task_id", None)
        outer_id = (
            self._inner_to_outer.pop(inner_id, None) if inner_id is not None else None
        )
        self._note_worker_change()
        if outer_id is None or outer_id not in self._tasks:
            raise exc  # unattributable (or already-discarded): propagate
        state = self._tasks[outer_id]
        attempt = next(
            (a for a in state.live if a.inner_id == inner_id), None
        )
        if attempt is not None:
            state.live.remove(attempt)
            self._refresh_attribution(state, attempt)
        if not isinstance(exc, WorkerLostError):
            # Deterministic task failure: retrying cannot help.
            self._finish_failed(state, exc)
            exc.task_id = outer_id
            raise exc
        state.faults.append(type(exc).__name__)
        self._fault_worker(attempt.worker if attempt is not None else None)
        self._maybe_respawn()
        if state.live:
            return  # a hedge twin is still running this task
        if self._may_retry(state):
            self._schedule_retry(state, reason="lost")
            return
        self._finish_failed(state, exc)
        exc.task_id = outer_id
        exc.attempts = state.attempts
        raise exc

    def _may_retry(self, state: _TaskState) -> bool:
        if state.attempts >= MAX_ATTEMPTS:
            return False
        if self.stats.resubmissions >= MAX_RETRIES_RUN:
            return False
        if self.workers < 1 and not self._can_respawn():
            return False
        return True

    def _schedule_retry(self, state: _TaskState, reason: str) -> None:
        resubmission = state.attempts  # 1-based: first retry after attempt 1
        state.retry_at = time.monotonic() + backoff_for(resubmission)
        self.stats.resubmissions += 1
        self._count("repro_exec_resubmits_total", reason=reason)

    def _flush_retries(self, now: float) -> None:
        for state in self._tasks.values():
            if state.retry_at is not None and state.retry_at <= now:
                self._launch_attempt(state, hedge=False)

    def _finish_failed(self, state: _TaskState, exc: BaseException) -> None:
        self._tasks.pop(state.outer_id, None)
        for attempt in state.live:
            self._inner_to_outer.pop(attempt.inner_id, None)
            self.inner.discard(attempt.inner_id)
        self._record_lineage(
            state, outcome=type(exc).__name__, winner_hedge=False
        )

    def _fail_stranded(self) -> None:
        """No workers, no retries in flight: fail the oldest task."""
        outer_id = min(self._tasks)
        state = self._tasks[outer_id]
        error = WorkerLostError(
            "all workers lost and retry budget exhausted", task_id=outer_id
        )
        self._finish_failed(state, error)
        raise error

    # -- hedging --------------------------------------------------------------

    def _straggler_deadline_s(self) -> float | None:
        if len(self._durations) < HEDGE_MIN_SAMPLES:
            return None
        return _quantile(self._durations, HEDGE_QUANTILE) * HEDGE_MULTIPLIER

    def _launch_hedges(self, now: float) -> None:
        if self.stats.hedges_launched >= MAX_HEDGES_RUN:
            return
        threshold = self._straggler_deadline_s()
        if threshold is None:
            return
        idle_probe = getattr(self.inner, "idle_workers", None)
        for state in self._tasks.values():
            if len(state.live) != 1 or state.hedged or state.retry_at is not None:
                continue
            if now - state.live[0].submitted_at < threshold:
                continue
            if idle_probe is not None and idle_probe() < 1:
                return  # a hedge with nowhere to run just queues behind itself
            state.hedged = True
            self.stats.hedges_launched += 1
            self._launch_attempt(state, hedge=True)
            if self.stats.hedges_launched >= MAX_HEDGES_RUN:
                return

    # -- fleet health ---------------------------------------------------------

    def _fault_worker(self, worker: str | None) -> None:
        if worker is None:
            return
        self._worker_faults[worker] = self._worker_faults.get(worker, 0) + 1
        if (
            worker not in self._quarantined
            and self._worker_faults[worker] >= QUARANTINE_AFTER
        ):
            probe = getattr(self.inner, "quarantine_worker", None)
            if probe is not None and probe(worker):
                self._quarantined.add(worker)
                self.stats.workers_quarantined += 1
                self._note_worker_change()

    def _can_respawn(self) -> bool:
        return (
            self.config.respawn
            and self._respawns_used < self.config.max_respawns
            and getattr(self.inner, "respawn_workers", None) is not None
        )

    def _maybe_respawn(self) -> None:
        if not self._can_respawn():
            return
        deficit = self._fleet_target - self.workers
        if deficit < 1:
            return
        want = min(deficit, self.config.max_respawns - self._respawns_used)
        revived = int(self.inner.respawn_workers(want))
        self._respawns_used += want
        if revived:
            self.stats.workers_revived += revived
            self._note_worker_change(revival=True)

    def _heartbeat(self, now: float) -> None:
        if now < self._heartbeat_due:
            return
        self._heartbeat_due = now + HEARTBEAT_S
        probe = getattr(self.inner, "check_liveness", None)
        if probe is None:
            return
        dropped = probe(timeout_s=min(1.0, HEARTBEAT_S))
        if dropped:
            self._note_worker_change()
            self._maybe_respawn()

    def _note_worker_change(self, revival: bool = False) -> None:
        current = self.workers
        if current < self._last_workers and not revival:
            self.stats.workers_lost += self._last_workers - current
        self._last_workers = current
        self._set_liveness_gauge()

    def _set_liveness_gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_exec_workers_alive", client=self.name
            ).set(self.workers)

    # -- scheduling helpers ---------------------------------------------------

    def _earliest_retry(self) -> float | None:
        dues = [
            s.retry_at for s in self._tasks.values() if s.retry_at is not None
        ]
        return min(dues) if dues else None

    def _next_wake(self, now: float) -> float:
        """When housekeeping next needs the loop back."""
        candidates = [self._heartbeat_due]
        retry = self._earliest_retry()
        if retry is not None:
            candidates.append(retry)
        threshold = self._straggler_deadline_s()
        if threshold is not None:
            for state in self._tasks.values():
                if len(state.live) == 1 and not state.hedged:
                    candidates.append(state.live[0].submitted_at + threshold)
        return min(candidates)

    def _record_lineage(
        self, state: _TaskState, outcome: str, winner_hedge: bool
    ) -> None:
        if state.attempts <= 1 and not state.hedged and not state.faults:
            return  # first-try clean: no story to tell
        self._lineages[state.outer_id] = {
            "attempts": state.attempts,
            "workers": list(state.workers_tried),
            "faults": list(state.faults),
            "hedged": state.hedged,
            "hedge_won": winner_hedge if state.hedged else None,
            "outcome": outcome,
        }

    def _count(self, name: str, **labels: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, client=self.name, **labels).inc()
