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

from repro.exec.clients import (
    ExecutionClient,
    MultiprocessingClient,
    create_client,
    usable_cpu_count,
)
from repro.exec.pipeline import BatchScheduler

__all__ = ["parallel_map"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    workers: int = 1,
    oversubscribe: bool = False,
    client: str | ExecutionClient | None = None,
    max_pending: int | None = None,
) -> list[_R]:
    """Order-preserving map over an execution client.

    ``fn`` and every item must be picklable (module-level functions,
    models, bundles all are).  With the default ``client=None`` the
    worker count decides the backend: clamped to the usable CPUs
    (``oversubscribe=True`` disables the clamp), and with ≤1 effective
    worker — requested or clamped — the map degrades to a plain list
    comprehension.  Passing ``client``
    (a registry name or an :class:`ExecutionClient` instance) routes
    the map through that backend instead — a name is instantiated and
    closed here; an instance stays open for the caller to reuse.
    ``max_pending`` caps the in-flight window (None keeps every item
    in flight).

    Exceptions propagate to the caller — a sweep point is not a slot,
    so there is no per-item capture here.
    """
    items = list(items)
    owns = False
    backend: ExecutionClient | None = None
    if client is None:
        if workers > 1 and not oversubscribe:
            workers = min(workers, usable_cpu_count())
        effective = workers if (workers > 1 and len(items) > 1) else 1
    else:
        backend = create_client(client, workers=workers, oversubscribe=oversubscribe)
        owns = isinstance(client, str)
        effective = getattr(backend, "workers", 1)
    if backend is None:
        if effective <= 1:
            return [fn(item) for item in items]
        backend = MultiprocessingClient(
            workers=min(effective, len(items)), oversubscribe=True
        )
        owns = True
    try:
        scheduler = BatchScheduler(backend, max_pending=max_pending)
        return scheduler.map(fn, [(item,) for item in items])
    finally:
        if owns:
            backend.close()
