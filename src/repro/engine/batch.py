"""The batched centralized solver lane: stacked cold anchors and walks.

:class:`CentralizedBatchSlotSolver` is the registered
``"centralized-batch"`` solver, and the same class answers to
``"centralized-warm"``: slots chain inside the solver, so the warm lane
is this lane under its warm name.  It speaks the same
:class:`~repro.engine.protocol.SlotSolver` protocol as every other
solver — ``compile`` returns the identical
:class:`~repro.core.compiled.CompiledQPStructure`, ``solve`` delegates
to the scalar :class:`~repro.engine.adapters.CentralizedSlotSolver` —
and adds one method the :class:`~repro.engine.horizon.HorizonEngine`
batch lane discovers by duck typing:

- :meth:`CentralizedBatchSlotSolver.solve_batch` compiles every slot's
  QP (through the shared compiled structure when it matches) and groups
  the QPs by shared constraint structure.  In each group every
  :data:`ANCHOR_SPACING`-th slot, one per diurnal day, is an anchor,
  solved cold by :func:`~repro.optim.batch.solve_qp_batch` as
  one interior-point stack, and the slots between two anchors are
  walked from the earlier one, slot by slot, by the parametric
  active-set homotopy (:func:`~repro.optim.warm.solve_qp_warm`).
  Anchors and walks run on the structure's one
  :class:`~repro.optim.ipqp.QPKernel`.  Each slot comes back as an
  ordinary :class:`~repro.engine.protocol.SlotResult` carrying its own
  duals, iteration count and convergence flag, so certification,
  telemetry and metrics downstream are oblivious to the batching.

Every slot's ``extras["warm_mechanism"]`` says what answered it:
``"batch"`` (an anchor), ``"batch-scalar-fallback"`` (an anchor the
batched iteration did not converge, re-solved by the scalar
interior-point solver inside :func:`solve_qp_batch`), ``"active-set"``
(a walked slot) or ``"cold"`` (a walk that gave up and solved the slot
on the scalar path; its ``"warm_fallback_reason"`` says why).  A
whole-group failure is handled one level up by the engine, which
re-runs the group's slots through the scalar :meth:`solve` path.

Anchors agree with the scalar path to solver tolerance (see
:mod:`repro.optim.batch`) and walked slots are verified KKT points at
the same tolerance; per-iteration ``ip_trace`` diagnostics are a
scalar-path-only feature and are not recorded here.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.centralized import CentralizedSolver
from repro.core.compiled import CompiledQPStructure
from repro.core.model import CloudModel
from repro.core.problem import QPForm, UFCProblem
from repro.core.strategies import Strategy
from repro.engine.adapters import CentralizedSlotSolver
from repro.engine.protocol import SlotResult
from repro.engine.registry import register_solver
from repro.optim.batch import solve_qp_batch
from repro.optim.ipqp import QPKernel
from repro.optim.warm import WarmSolve, cold_state, solve_qp_warm

__all__ = ["CentralizedBatchSlotSolver", "ANCHOR_SPACING"]

#: Slots between two cold anchors of a group: one anchor per diurnal
#: day of hourly slots.  On the paper weeks the walk cost per slot
#: barely grows with the distance from its anchor, while each anchor
#: costs a full interior-point solve; see ``docs/performance.md`` for
#: the measured counts behind the choice.
ANCHOR_SPACING = 24


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.stack(arrays)``, without the copy when the arrays are
    consecutive rows of one parent array.

    :meth:`~repro.core.compiled.CompiledQPStructure.qp_for_batch`
    hands out each slot's ``P``/``q``/``b`` as a view into one stacked
    array, so a group of consecutive slots is a slice of that stack.
    """
    parent = arrays[0].base
    if parent is not None and parent.ndim == arrays[0].ndim + 1:
        addr = [a.__array_interface__["data"][0] for a in arrays]
        start, rem = divmod(addr[0] - parent.__array_interface__["data"][0],
                            parent.strides[0])
        rows = parent[start : start + len(arrays)]
        if (
            rem == 0
            and 0 <= start
            and len(rows) == len(arrays)
            and all(
                a.base is parent and a.shape == row.shape and a.strides == row.strides
                and address == row.__array_interface__["data"][0]
                for a, row, address in zip(arrays, rows, addr)
            )
        ):
            return rows
    return np.stack(arrays)


def _share_groups(qps: list[QPForm]) -> list[list[int]]:
    """Partition QP indices into runs sharing one constraint structure.

    Two QPs batch together when their ``A`` and ``G`` matrices are
    equal (identical objects in the compiled-structure case, where
    ``qp_for`` hands out the same arrays every slot; value-equal
    otherwise).  ``P``/``q``/``b``/``h`` stay per-slot and are stacked
    by the caller.
    """
    groups: list[tuple[QPForm, list[int]]] = []
    for i, qp in enumerate(qps):
        for rep, members in groups:
            if (
                rep.A.shape == qp.A.shape
                and rep.G.shape == qp.G.shape
                and (rep.A is qp.A or np.array_equal(rep.A, qp.A))
                and (rep.G is qp.G or np.array_equal(rep.G, qp.G))
            ):
                members.append(i)
                break
        else:
            groups.append((qp, [i]))
    return [members for _, members in groups]


class CentralizedBatchSlotSolver:
    """Centralized solver that solves whole horizons as anchors and walks.

    Scalar ``solve`` calls delegate to the plain centralized adapter
    (bit-identical results); ``solve_batch`` is the anchor-and-walk lane.
    Registered as ``"centralized-batch"`` and, with ``name`` set to it,
    as ``"centralized-warm"``.

    Args:
        inner: pre-configured :class:`CentralizedSolver`; built from
            ``**kwargs`` (``tol``, ``max_iter``, ...) when omitted.
    """

    name = "centralized-batch"

    def __init__(self, inner: CentralizedSolver | None = None, **kwargs: Any) -> None:
        self._scalar = CentralizedSlotSolver(inner=inner, **kwargs)
        self.inner = self._scalar.inner

    def compile(self, model: CloudModel, strategy: Strategy) -> CompiledQPStructure:
        """The slot-invariant QP skeleton for (model, strategy)."""
        return self.inner.compile(model, strategy)

    def solve(
        self,
        problem: UFCProblem,
        compiled: CompiledQPStructure | None = None,
    ) -> SlotResult:
        """Solve one slot through the scalar interior-point path."""
        return self._scalar.solve(problem, compiled=compiled)

    def solve_batch(
        self,
        problems: Sequence[UFCProblem],
        compiled: CompiledQPStructure | None = None,
    ) -> list[SlotResult]:
        """Solve a run of slots as cold anchors and walks between them.

        Args:
            problems: the slots to solve (any mix; QPs are grouped by
                shared constraint structure internally, and each group
                keeps its slots' input order).
            compiled: optional compiled structure; used for every
                problem it :meth:`~CompiledQPStructure.matches`.

        Returns:
            One :class:`SlotResult` per problem, in input order.  Each
            carries ``extras["duals"]`` for certification plus
            ``"batched"``, ``"batch_size"``, ``"batch_fallback"`` and
            ``"warm_mechanism"`` diagnostics.

        Raises:
            NotImplementedError: when a slot's emission cost is not
                QP-representable (same contract as the scalar path).
        """
        problems = list(problems)
        if not problems:
            return []
        forms: list[QPForm | None] = [None] * len(problems)
        if compiled is not None:
            matched = [
                i for i, problem in enumerate(problems)
                if compiled.matches(problem)
            ]
            if matched:
                batch_compile = getattr(compiled, "qp_for_batch", None)
                if batch_compile is not None:
                    compiled_forms = batch_compile(
                        [problems[i].inputs for i in matched]
                    )
                    for i, form in zip(matched, compiled_forms):
                        forms[i] = form
                else:
                    for i in matched:
                        forms[i] = compiled.qp_for(problems[i].inputs)
        qps: list[QPForm] = [
            form if form is not None else problems[i].to_qp()
            for i, form in enumerate(forms)
        ]
        results: list[SlotResult | None] = [None] * len(problems)
        for members in _share_groups(qps):
            rep = qps[members[0]]
            kernel = (compiled.kernel() if forms[members[0]] is not None
                      else QPKernel(rep.A, rep.G))
            self._solve_group(problems, qps, members, results, kernel)
        return results  # type: ignore[return-value]

    def _solve_group(
        self,
        problems: list[UFCProblem],
        qps: list[QPForm],
        members: list[int],
        results: list[SlotResult | None],
        kernel: QPKernel,
    ) -> None:
        """Solve one shared-structure group and fill its results."""
        rep = qps[members[0]]
        P = _stack([qps[i].P for i in members])
        q = _stack([qps[i].q for i in members])
        size = len(members)
        b = _stack([qps[i].b for i in members]) if kernel.p else np.zeros((size, 0))
        h = np.stack([qps[i].h for i in members])
        tol, max_iter = self.inner.tol, self.inner.max_iter
        # Without inequality rows every slot is one closed-form solve,
        # so every slot is an anchor.
        spacing = ANCHOR_SPACING if kernel.m else 1
        # Views, not copies: the anchors are every spacing-th row.
        every = slice(None, None, spacing)
        res = solve_qp_batch(
            P[every], q[every],
            A=rep.A if kernel.p else None, b=b[every] if kernel.p else None,
            G=rep.G if kernel.m else None, h=h[every] if kernel.m else None,
            tol=tol, max_iter=max_iter, kernel=kernel,
        )
        cold = [res.instance(pos) for pos in range(len(res))]
        walks: dict[int, WarmSolve] = {}
        for a, anchor in zip(range(0, size, spacing), cold):
            state = cold_state(kernel, anchor, q[a], b[a], h[a], tol)
            for t in range(a + 1, min(a + spacing, size)):
                walks[t] = solve_qp_warm(
                    P[t], q[t], A=rep.A, b=b[t], G=rep.G, h=h[t],
                    state=state, tol=tol, max_iter=max_iter,
                )
                state = walks[t].state
        for t, i in enumerate(members):
            extras: dict[str, Any] = {"batched": True, "batch_size": size,
                                      "batch_fallback": False}
            if t % spacing == 0:
                out = cold[t // spacing]
                if res.fallback[t // spacing]:
                    extras["batch_fallback"] = True
                    extras["warm_mechanism"] = "batch-scalar-fallback"
                else:
                    extras["warm_mechanism"] = "batch"
            else:
                out = walks[t].result
                extras["warm_mechanism"] = walks[t].info.mechanism
                if walks[t].info.fallback_reason:
                    extras["warm_fallback_reason"] = walks[t].info.fallback_reason
            extras["duals"] = (out.eq_dual, out.ineq_dual)
            alloc = qps[i].extract(out.x)
            results[i] = SlotResult(
                allocation=alloc,
                ufc=problems[i].ufc(alloc),
                iterations=int(out.iterations),
                converged=bool(out.converged),
                extras=extras,
                qp=qps[i],
            )


def _warm_lane(**kwargs: Any) -> CentralizedBatchSlotSolver:
    """The anchor-and-walk lane under its ``"centralized-warm"`` name."""
    solver = CentralizedBatchSlotSolver(**kwargs)
    solver.name = "centralized-warm"
    return solver


register_solver("centralized-batch", CentralizedBatchSlotSolver)
register_solver("centralized-warm", _warm_lane)
