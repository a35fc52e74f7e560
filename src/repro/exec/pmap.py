"""Order-preserving parallel map over an execution client.

The canonical home of what used to be
``repro.engine.horizon.parallel_map``: the sweep drivers (Fig. 9/10)
evaluate independent grid points through the same client layer the
horizon engine solves slots through, so mp-context pinning, CPU
clamping and pipelining live in exactly one place
(:mod:`repro.exec.clients`).
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from repro.exec.clients import MultiprocessingClient, usable_cpu_count
from repro.exec.pipeline import BatchScheduler

__all__ = ["parallel_map"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def parallel_map(
    fn: Callable[[_T], _R], items: Iterable[_T], workers: int = 1
) -> list[_R]:
    """Order-preserving map over the multiprocessing client.

    ``fn`` and every item must be picklable (module-level functions,
    models, bundles all are).  The worker count is clamped to the
    usable CPUs, and with ≤1 effective worker — requested or clamped —
    the map degrades to a plain list comprehension.

    Exceptions propagate to the caller — a sweep point is not a slot,
    so there is no per-item capture here.
    """
    items = list(items)
    effective = min(workers, usable_cpu_count(), len(items))
    if effective <= 1:
        return [fn(item) for item in items]
    backend = MultiprocessingClient(workers=effective, oversubscribe=True)
    try:
        return BatchScheduler(backend).map(fn, [(item,) for item in items])
    finally:
        backend.close()
