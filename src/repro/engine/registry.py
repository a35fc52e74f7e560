"""String-keyed factory for slot solvers.

``create_solver`` is the single place the library turns a solver
*specification* — a registry name, an already-adapted
:class:`~repro.engine.protocol.SlotSolver`, or a bare legacy solver
instance (:class:`CentralizedSolver`, :class:`DistributedUFCSolver`,
:class:`DualSubgradientSolver`) — into a protocol-conformant solver.
The simulator, CLI, experiment drivers and benchmarks all resolve
through it, which is what lets ``--solver dual-subgradient`` or a
custom registered solver flow through every code path unchanged.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.admg.solver import DistributedUFCSolver
from repro.baselines.dual_subgradient import DualSubgradientSolver
from repro.core.centralized import CentralizedSolver
from repro.engine.adapters import (
    HEURISTIC_POLICIES,
    CentralizedSlotSolver,
    DistributedSlotSolver,
    DualSubgradientSlotSolver,
    HeuristicSlotSolver,
    StructuredCentralizedSolver,
)
from repro.engine.protocol import SlotSolver

__all__ = ["available_solvers", "create_solver", "register_solver"]

_FACTORIES: dict[str, Callable[..., SlotSolver]] = {}


def register_solver(name: str, factory: Callable[..., SlotSolver]) -> None:
    """Register a solver factory under ``name``.

    The factory receives ``create_solver``'s keyword arguments and must
    return a :class:`SlotSolver`.  Re-registering a name overwrites it.
    """
    if not name:
        raise ValueError("solver name must be non-empty")
    _FACTORIES[name] = factory


def available_solvers() -> tuple[str, ...]:
    """Registered solver names, sorted."""
    return tuple(sorted(_FACTORIES))


def create_solver(spec: str | SlotSolver | Any = "centralized", **kwargs: Any) -> SlotSolver:
    """Resolve a solver specification into a :class:`SlotSolver`.

    Args:
        spec: a registry name (see :func:`available_solvers`), an
            object already implementing the protocol, or a bare
            ``CentralizedSolver`` / ``DistributedUFCSolver`` /
            ``DualSubgradientSolver`` instance (adapted in place).
        **kwargs: forwarded to the registered factory (ignored for
            pre-built instances).  The built-in adapters forward them
            to the underlying solver constructor, so observability
            knobs resolve here too — e.g.
            ``create_solver("distributed", trace=True)`` yields a
            solver whose every slot carries a per-iteration
            ``residual_trace`` in ``SlotResult.extras``.

    Raises:
        KeyError: for an unknown registry name.
        TypeError: for a specification of an unsupported type.
    """
    if isinstance(spec, str):
        try:
            factory = _FACTORIES[spec]
        except KeyError:
            raise KeyError(
                f"unknown solver {spec!r}; available: "
                f"{', '.join(available_solvers())}"
            ) from None
        return factory(**kwargs)
    if isinstance(spec, CentralizedSolver):
        return CentralizedSlotSolver(inner=spec)
    if isinstance(spec, DistributedUFCSolver):
        return DistributedSlotSolver(inner=spec)
    if isinstance(spec, DualSubgradientSolver):
        return DualSubgradientSlotSolver(inner=spec)
    if isinstance(spec, SlotSolver):
        return spec
    raise TypeError(
        f"cannot build a slot solver from {type(spec).__name__!r}; pass a "
        "registry name, a SlotSolver, or a supported solver instance"
    )


register_solver("centralized", CentralizedSlotSolver)
register_solver("centralized-structured", StructuredCentralizedSolver)
register_solver("distributed", DistributedSlotSolver)
register_solver("dual-subgradient", DualSubgradientSlotSolver)
for _name, _policy in HEURISTIC_POLICIES.items():
    register_solver(
        _name,
        lambda policy=_policy, name=_name, **kwargs: HeuristicSlotSolver(policy, name),
    )
