"""Pipelined pending-batch scheduling over an execution client.

:class:`BatchScheduler` is the piece between "a list of batches" and
"a client that runs one batch at a time": it keeps up to
``max_pending`` batches in flight, submits the next batch the moment
one completes (out-of-order completion, in-order results).  A batch
lost with its worker can be absorbed into a stand-in result through
``on_error``; resubmitting it is the fleet supervisor's job.

Observability is built in: a metrics registry (when attached) gains
batch counters plus two pending-depth series — a live gauge updated on both
the submit and harvest paths (so drain phases are visible as the depth
walks back to zero) and a high-water peak gauge.
"""

from __future__ import annotations

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
            ``repro_exec_pending_batches_peak`` (high-water depth) and
            ``repro_exec_batch_errors_total``.

    After :meth:`map`, :attr:`pending_max_observed` holds the deepest
    in-flight window the run reached and :attr:`errored_batches` the
    number of batches ``on_error`` absorbed.
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

    def _record_harvest(self, depth: int, errored: bool = False) -> None:
        if self.metrics is not None:
            self._set_depth(depth)
            if errored:
                self.metrics.counter(
                    "repro_exec_batch_errors_total", client=self.client.name
                ).inc()

    # -- the one entry point -------------------------------------------------

    def map(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[tuple[Any, ...]],
        on_result: Callable[[tuple[Any, ...], Any, int], None] | None = None,
        on_error: Callable[[tuple[Any, ...], BaseException], Any] | None = None,
    ) -> list[Any]:
        """Run ``fn(*task)`` for every task; results in task order.

        Args:
            fn: picklable callable every task is applied to.
            tasks: argument tuples, one per batch.
            on_result: called once per harvested batch, in *harvest*
                order, with ``(task, result, pending_depth)`` — the
                hook live consumers (run ledger, metrics merging) ride,
                including ``on_error`` stand-ins.
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
        results: list[Any] = [None] * len(tasks)
        pending: dict[int, int] = {}
        next_task = 0
        harvested = 0
        while harvested < len(tasks):
            while next_task < len(tasks) and (
                self.max_pending is None or len(pending) < self.max_pending
            ):
                task_id = self.client.submit(fn, *tasks[next_task])
                pending[task_id] = next_task
                self.pending_max_observed = max(
                    self.pending_max_observed, len(pending)
                )
                self._record_submit(len(pending))
                next_task += 1
            try:
                got = self.client.wait_next()
            except Exception as exc:
                failed_id = getattr(exc, "task_id", None)
                if on_error is None or failed_id is None or failed_id not in pending:
                    raise
                index = pending.pop(failed_id)
                results[index] = on_error(tasks[index], exc)
                errored = True
            else:
                if got is None:
                    continue
                task_id, value = got
                if task_id not in pending:  # pragma: no cover - defensive
                    continue
                index = pending.pop(task_id)
                results[index] = value
                errored = False
            harvested += 1
            if errored:
                self.errored_batches += 1
            self._record_harvest(len(pending), errored=errored)
            if on_result is not None:
                on_result(tasks[index], results[index], len(pending))
        return results
