"""Pipelined pending-batch scheduling over an execution client.

:class:`BatchScheduler` is the piece between "a list of batches" and
"a client that runs one batch at a time": it keeps up to
``max_pending`` batches in flight, submits the next batch the moment
one completes (out-of-order completion, in-order results), and — for
asynchronous clients — enforces a wall-clock harvest budget per batch,
so a wedged worker surfaces as a timed-out batch instead of stalling
the whole horizon.

Observability is built in: a metrics registry (when attached) gains
batch counters plus two pending-depth series — a live gauge updated on both
the submit and harvest paths (so drain phases are visible as the depth
walks back to zero) and a high-water peak gauge.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from repro.obs import MetricsRegistry

__all__ = ["BatchScheduler"]


class BatchScheduler:
    """Submit batches through a client, pipelined, harvest-ordered.

    Args:
        client: an :class:`~repro.exec.clients.ExecutionClient`.
        max_pending: maximum batches in flight at once; None keeps
            every batch in flight (the classic submit-all-then-drain
            pool shape).  Lower values bound memory and smooth
            elasticity: with ``max_pending=4`` a 40-batch horizon
            never materializes more than 4 batches of futures.
        metrics: optional :class:`~repro.obs.MetricsRegistry`; when
            attached the scheduler maintains
            ``repro_exec_batches_total``,
            ``repro_exec_pending_batches`` (live in-flight depth,
            updated on submit *and* harvest),
            ``repro_exec_pending_batches_peak`` (high-water depth),
            ``repro_exec_batch_timeouts_total`` and
            ``repro_exec_batch_errors_total``.

    After :meth:`map`, :attr:`pending_max_observed` holds the deepest
    in-flight window the run reached and :attr:`timed_out_batches` the
    number of batches abandoned at harvest time.
    """

    def __init__(
        self,
        client: Any,
        max_pending: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.client = client
        self.max_pending = max_pending
        self.metrics: MetricsRegistry | None = metrics
        self.pending_max_observed = 0
        self.timed_out_batches = 0
        self.errored_batches = 0

    # -- internals -----------------------------------------------------------

    def _set_depth(self, depth: int) -> None:
        self.metrics.gauge(
            "repro_exec_pending_batches", client=self.client.name
        ).set(depth)
        peak = self.metrics.gauge(
            "repro_exec_pending_batches_peak", client=self.client.name
        )
        peak.set(max(peak.value, depth))

    def _record_submit(self, depth: int) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "repro_exec_batches_total", client=self.client.name
            ).inc()
            self._set_depth(depth)

    def _record_harvest(
        self, depth: int, timed_out: bool = False, errored: bool = False
    ) -> None:
        if self.metrics is not None:
            self._set_depth(depth)
            if timed_out:
                self.metrics.counter(
                    "repro_exec_batch_timeouts_total", client=self.client.name
                ).inc()
            if errored:
                self.metrics.counter(
                    "repro_exec_batch_errors_total", client=self.client.name
                ).inc()

    # -- the one entry point -------------------------------------------------

    def map(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[tuple[Any, ...]],
        budget_s: Callable[[tuple[Any, ...]], float | None] | None = None,
        on_timeout: Callable[[tuple[Any, ...]], Any] | None = None,
        on_result: Callable[[tuple[Any, ...], Any, int], None] | None = None,
        on_error: Callable[[tuple[Any, ...], BaseException], Any] | None = None,
    ) -> list[Any]:
        """Run ``fn(*task)`` for every task; results in task order.

        Args:
            fn: picklable callable every task is applied to.
            tasks: argument tuples, one per batch.
            budget_s: optional per-batch harvest budget (seconds from
                submission), computed per task.  Only enforceable on
                asynchronous clients — a synchronous client has already
                finished the task when submit returns.
            on_timeout: builds the stand-in result for a batch that
                blew its budget; required when ``budget_s`` is given.
                The abandoned task is discarded on the client, so a
                late result is dropped, not delivered.
            on_result: called once per harvested batch, in *harvest*
                order, with ``(task, result, pending_depth)`` — the
                hook live consumers (run ledger, metrics merging) ride,
                including timeout/error stand-ins.
            on_error: called when a batch's harvest *raises* and the
                client could attribute the exception to a task (the
                exception carries a ``task_id``); returns the stand-in
                result for that batch, or re-raises.  Without it, the
                exception propagates exactly as before.

        A task that *raised* re-raises here (per-slot error capture
        belongs to the task function itself, exactly as with a plain
        executor) — unless ``on_error`` absorbs it into a stand-in
        result, which is how worker-loss surfaces as structured
        per-slot failures instead of killing the run.
        """
        tasks = list(tasks)
        if budget_s is not None and on_timeout is None:
            raise ValueError("budget_s requires on_timeout")
        enforce = (
            budget_s is not None
            and bool(getattr(self.client, "asynchronous", False))
        )
        results: list[Any] = [None] * len(tasks)
        pending: dict[int, tuple[int, float | None]] = {}
        next_task = 0
        harvested = 0
        while harvested < len(tasks):
            while next_task < len(tasks) and (
                self.max_pending is None or len(pending) < self.max_pending
            ):
                args = tasks[next_task]
                submitted_at = time.monotonic()
                task_id = self.client.submit(fn, *args)
                deadline = None
                if enforce:
                    budget = budget_s(args)
                    if budget is not None:
                        deadline = submitted_at + budget
                pending[task_id] = (next_task, deadline)
                self.pending_max_observed = max(
                    self.pending_max_observed, len(pending)
                )
                self._record_submit(len(pending))
                next_task += 1
            timeout = None
            if enforce:
                deadlines = [d for _, d in pending.values() if d is not None]
                if deadlines:
                    timeout = max(0.0, min(deadlines) - time.monotonic())
            try:
                got = self.client.wait_next(timeout_s=timeout)
            except Exception as exc:
                failed_id = getattr(exc, "task_id", None)
                if on_error is None or failed_id is None or failed_id not in pending:
                    raise
                index, _ = pending.pop(failed_id)
                results[index] = on_error(tasks[index], exc)
                harvested += 1
                self.errored_batches += 1
                self._record_harvest(len(pending), errored=True)
                if on_result is not None:
                    on_result(tasks[index], results[index], len(pending))
                continue
            now = time.monotonic()
            if enforce:
                # Expire over-deadline tasks on *every* pass, not only
                # when the wait timed out: with a steady result stream a
                # wedged task would otherwise keep its window slot for
                # the rest of the run, silently shrinking concurrency.
                # (A task that just delivered is handled below — its
                # late arrival gets the same timeout verdict without a
                # double harvest.)
                expired = [
                    task_id
                    for task_id, (_, deadline) in pending.items()
                    if deadline is not None
                    and deadline <= now
                    and (got is None or task_id != got[0])
                ]
                for task_id in expired:
                    index, _ = pending.pop(task_id)
                    self.client.discard(task_id)
                    results[index] = on_timeout(tasks[index])
                    harvested += 1
                    self.timed_out_batches += 1
                    self._record_harvest(len(pending), timed_out=True)
                    if on_result is not None:
                        on_result(tasks[index], results[index], len(pending))
            if got is None:
                continue
            task_id, value = got
            if task_id not in pending:  # pragma: no cover - defensive
                continue
            index, deadline = pending.pop(task_id)
            if enforce and deadline is not None and now > deadline:
                # Arrived, but past its harvest budget: same verdict as
                # never arriving — the budget is the contract.
                results[index] = on_timeout(tasks[index])
                self.timed_out_batches += 1
                self._record_harvest(len(pending), timed_out=True)
            else:
                results[index] = value
                self._record_harvest(len(pending))
            harvested += 1
            if on_result is not None:
                on_result(tasks[index], results[index], len(pending))
        return results
