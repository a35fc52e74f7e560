"""The batched centralized solver lane: whole-horizon vectorized IPQP.

:class:`CentralizedBatchSlotSolver` is the registered
``"centralized-batch"`` solver.  It speaks the same
:class:`~repro.engine.protocol.SlotSolver` protocol as every other
solver — ``compile`` returns the identical
:class:`~repro.core.compiled.CompiledQPStructure`, ``solve`` delegates
to the scalar :class:`~repro.engine.adapters.CentralizedSlotSolver` —
and adds one method the :class:`~repro.engine.horizon.HorizonEngine`
batch lane discovers by duck typing:

- :meth:`CentralizedBatchSlotSolver.solve_batch` compiles every slot's
  QP (through the shared compiled structure when it matches), groups
  the QPs by shared constraint structure, and hands each group to
  :func:`~repro.optim.batch.solve_qp_batch` as one stacked
  ``(T, n, n)`` solve.  Each slot comes back as an ordinary
  :class:`~repro.engine.protocol.SlotResult` carrying its own duals,
  iteration count and convergence flag, so certification, telemetry
  and metrics downstream are oblivious to the batching.

Instances the batched iteration cannot converge are re-solved by the
scalar interior-point solver inside :func:`solve_qp_batch` (flagged
``"batch_fallback"`` in the result extras); a whole-group failure is
handled one level up by the engine, which re-runs the group's slots
through the scalar :meth:`solve` path.

Batched solves agree with the scalar path to solver tolerance (see
:mod:`repro.optim.batch`); per-iteration ``ip_trace`` diagnostics are
a scalar-path-only feature and are not recorded here.
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

__all__ = ["CentralizedBatchSlotSolver"]


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
    """Interior-point solver that solves whole horizons in one batch.

    Scalar ``solve`` calls delegate to the plain centralized adapter
    (bit-identical results); ``solve_batch`` is the vectorized lane.

    Args:
        inner: pre-configured :class:`CentralizedSolver`; built from
            ``**kwargs`` (``tol``, ``max_iter``, ...) when omitted.
    """

    name = "centralized-batch"
    supports_warm_start = False

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
        warm: Any | None = None,
    ) -> SlotResult:
        """Solve one slot through the scalar interior-point path."""
        return self._scalar.solve(problem, compiled=compiled, warm=warm)

    def solve_batch(
        self,
        problems: Sequence[UFCProblem],
        compiled: CompiledQPStructure | None = None,
    ) -> list[SlotResult]:
        """Solve a run of slots as stacked batched interior-point QPs.

        Args:
            problems: the slots to solve (any mix; QPs are grouped by
                shared constraint structure internally).
            compiled: optional compiled structure; used for every
                problem it :meth:`~CompiledQPStructure.matches`.

        Returns:
            One :class:`SlotResult` per problem, in input order.  Each
            carries ``extras["duals"]`` for certification plus
            ``"batched"``, ``"batch_size"`` and ``"batch_fallback"``
            diagnostics.

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
            self._solve_group(problems, qps, members, results)
        return results  # type: ignore[return-value]

    def _solve_group(
        self,
        problems: list[UFCProblem],
        qps: list[QPForm],
        members: list[int],
        results: list[SlotResult | None],
    ) -> None:
        """Solve one shared-structure group and fill its results."""
        rep = qps[members[0]]
        p, m = rep.A.shape[0], rep.G.shape[0]
        res = solve_qp_batch(
            _stack([qps[i].P for i in members]),
            _stack([qps[i].q for i in members]),
            A=rep.A if p else None,
            b=_stack([qps[i].b for i in members]) if p else None,
            G=rep.G if m else None,
            h=np.stack([qps[i].h for i in members]) if m else None,
            tol=self.inner.tol,
            max_iter=self.inner.max_iter,
        )
        size = len(members)
        for pos, i in enumerate(members):
            alloc = qps[i].extract(res.x[pos])
            results[i] = SlotResult(
                allocation=alloc,
                ufc=problems[i].ufc(alloc),
                iterations=int(res.iterations[pos]),
                converged=bool(res.converged[pos]),
                extras={
                    "duals": (res.eq_dual[pos], res.ineq_dual[pos]),
                    "batched": True,
                    "batch_size": size,
                    "batch_fallback": bool(res.fallback[pos]),
                },
                qp=qps[i],
            )


register_solver("centralized-batch", CentralizedBatchSlotSolver)
