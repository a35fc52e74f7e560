"""Per-layer timing from outside the program.

:class:`LayerTracer` replaces public functions and methods of
``repro``'s layers with timing wrappers for the length of a traced
pass, then puts the originals back.  Nothing inside the program is
changed: a wrapped function is swapped wherever a ``repro`` module
holds a reference to it, and the wrapper calls the original.

Each wrapped call is a span.  Spans nest on a stack, so a layer's
self time is its duration minus the spans directly inside it.  A
layer called inside itself (a solver retrying through its own entry
point) counts once, at the outermost call.  Calls made in forked
worker processes pass straight through: their timings could not come
home, and the engine already ships the workers' own per-slot
telemetry back on every outcome.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

__all__ = ["LayerTracer", "install_layers"]


class LayerTracer:
    """Spans, counts and samples for named layers."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.counts: Counter[str] = Counter()
        #: Wall time of spans entered with no span open.
        self.top_s = 0.0
        self._stack: list[list[Any]] = []
        self._active: Counter[str] = Counter()
        self._pid = os.getpid()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- spans --------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Callable[["LayerTracer", Any], None] | None = None,
        measure: Callable[["LayerTracer", tuple], None] | None = None,
    ) -> Callable[..., Any]:
        """A wrapper timing ``fn`` as layer ``name``.

        ``after(tracer, result)`` records counts from the result;
        ``measure(tracer, args)`` records counts from the arguments, its
        own time charged to no layer.
        """

        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != self._pid or self._active[name]:
                return fn(*args, **kwargs)
            if measure is not None:
                probe_start = time.perf_counter()
                measure(self, args)
                if self._stack:
                    self._stack[-1][1] += time.perf_counter() - probe_start
            frame = [name, 0.0]
            self._stack.append(frame)
            self._active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._active[name] -= 1
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                else:
                    self.top_s += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                self.samples[name].append(elapsed)
            if after is not None:
                after(self, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def patch_function(self, module: Any, attr: str, name: str, **hooks: Any) -> None:
        """Wrap ``module.attr`` in every ``repro`` module that holds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls: type, attr: str, name: str, **hooks: Any) -> None:
        """Wrap the method ``cls.attr`` (defined on ``cls`` itself)."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **hooks))

    def remove(self) -> None:
        """Put every original back."""
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


# -- the layers ------------------------------------------------------------------


def _count_iterations(field: str) -> Callable[[LayerTracer, Any], None]:
    def after(tracer: LayerTracer, result: Any) -> None:
        tracer.counts[field] += int(result.iterations)

    return after


def _after_warm(tracer: LayerTracer, solve: Any) -> None:
    tracer.counts["optim.solve_qp_warm.iters"] += int(solve.result.iterations)
    tracer.counts["optim.warm." + solve.info.mechanism.replace("-", "_")] += 1


def _after_batch(tracer: LayerTracer, result: Any) -> None:
    tracer.counts["optim.solve_qp_batch.iters"] += int(result.iterations.sum())
    tracer.counts["optim.batch.scalar_fallbacks"] += int(result.fallback.sum())


def _after_certify(tracer: LayerTracer, cert: Any) -> None:
    tracer.counts["obs.certify.failed"] += int(not cert.ok)


def _after_store_get(tracer: LayerTracer, result: Any) -> None:
    tracer.counts["exec.store.get.hits"] += int(result is not None)


def _measure_submit(tracer: LayerTracer, args: tuple) -> None:
    # args = (client, fn, *task_args): the bytes a worker receives.
    payload = pickle.dumps(args[1:], protocol=pickle.HIGHEST_PROTOCOL)
    tracer.counts["exec.submit.bytes"] += len(payload)


def install_layers(tracer: LayerTracer) -> None:
    """Wrap the public entry points of every layer the benchmark names."""
    from repro.core.compiled import CompiledQPStructure
    from repro.engine import horizon
    from repro.engine.adapters import CentralizedSlotSolver, StructuredCentralizedSolver
    from repro.engine.batch import CentralizedBatchSlotSolver
    from repro.engine.warm import CentralizedWarmSlotSolver
    from repro.exec.clients import MultiprocessingClient
    from repro.exec.store import ResultStore
    from repro.obs import certify
    from repro.optim import batch, ipqp, kkt, warm

    for cls in (
        CentralizedSlotSolver,
        CentralizedWarmSlotSolver,
        CentralizedBatchSlotSolver,
        StructuredCentralizedSolver,
    ):
        tracer.patch_method(cls, "compile", "core.compile")
    tracer.patch_method(CompiledQPStructure, "qp_for", "core.qp_for")
    tracer.patch_method(CompiledQPStructure, "qp_for_batch", "core.qp_for")
    tracer.patch_method(kkt.StructuredQPCompiler, "structured_qp_for", "core.qp_for")

    tracer.patch_function(
        ipqp, "solve_qp", "optim.solve_qp",
        after=_count_iterations("optim.solve_qp.iters"),
    )
    tracer.patch_function(warm, "solve_qp_warm", "optim.solve_qp_warm", after=_after_warm)
    tracer.patch_function(batch, "solve_qp_batch", "optim.solve_qp_batch", after=_after_batch)
    tracer.patch_function(
        kkt, "solve_structured_qp", "optim.solve_structured_qp",
        after=_count_iterations("optim.solve_structured_qp.iters"),
    )

    tracer.patch_method(horizon.HorizonEngine, "run", "engine.run")

    tracer.patch_method(
        MultiprocessingClient, "submit", "exec.submit", measure=_measure_submit
    )
    tracer.patch_method(MultiprocessingClient, "wait_next", "exec.wait")
    tracer.patch_method(ResultStore, "get", "exec.store.get", after=_after_store_get)
    tracer.patch_method(ResultStore, "put", "exec.store.put")

    tracer.patch_method(certify.CertificationContext, "certify", "obs.certify",
                        after=_after_certify)
    tracer.patch_function(certify, "certify_solution", "obs.certify", after=_after_certify)
    tracer.patch_function(
        certify, "certify_structured_solution", "obs.certify", after=_after_certify
    )
