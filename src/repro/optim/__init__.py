"""Convex-optimization substrate built from scratch on numpy.

This package provides every numerical building block the paper's
distributed 4-block ADM-G algorithm (:mod:`repro.admg`) needs, plus
the centralized interior-point solvers it is checked against:

- :mod:`repro.optim.simplex` — exact Euclidean projection onto the
  (scaled) simplex, and quadratic programs over a simplex solved with
  accelerated projected gradient (FISTA) plus an active-set polish.
- :mod:`repro.optim.rank_one` — exact solver for quadratic programs
  whose Hessian is ``rho * (I + beta^2 * 1 1^T)`` (diagonal plus
  rank-one) under a total-capacity constraint; this is the paper's
  per-datacenter ``a``-minimization (20).
- :mod:`repro.optim.scalar` — one-dimensional convex minimization:
  closed forms for quadratics, exact breakpoint prox for
  piecewise-linear convex functions (stepped carbon taxes), and a
  golden-section fallback; this is the paper's ``nu``-minimization (19).
- :mod:`repro.optim.ipqp` — the interior-point core: the one Mehrotra
  predictor-corrector loop every QP route runs, the :class:`QPKernel`
  a family of QPs sharing ``A`` and ``G`` compiles once, the one
  Newton system the dense routes run on it, and the dense reference
  solver :func:`solve_qp`.
- :mod:`repro.optim.warm` — :func:`solve_qp_warm`, the cross-slot
  warm re-solve: a parametric active-set homotopy from the previous
  slot's KKT point, with a cold solve as its fallback.
- :mod:`repro.optim.batch` — :func:`solve_qp_batch`, the
  interior-point loop over a batch of QPs sharing one constraint
  structure (one in-place LAPACK LU per instance and iteration), plus
  batched rank-one QP solves.
- :mod:`repro.optim.kkt` — the block-sparse representation of the UFC
  QP (:class:`StructuredSlotQP`) and :func:`solve_structured_qp`, the
  interior-point loop over the block-arrowhead Newton system (block
  elimination into a small dense Schur complement), which makes
  hyperscale instances (hundreds of datacenters, thousands of
  front-ends) tractable.  It is the one route of the
  ``centralized-structured`` lane, and every solve on it starts cold;
  the dense lanes never take it.
"""

from repro.optim.batch import (
    BatchIPQPResult,
    solve_capped_rank_one_qp_batch,
    solve_qp_batch,
)
from repro.optim.ipqp import IPQPResult, QPKernel, solve_qp
from repro.optim.kkt import (
    StructuredQPCompiler,
    StructuredSlotQP,
    full_reach,
    solve_structured_qp,
)
from repro.optim.rank_one import solve_capped_rank_one_qp
from repro.optim.scalar import (
    PiecewiseLinearConvex,
    QuadraticScalar,
    minimize_convex_on_interval,
    prox_nonneg,
)
from repro.optim.simplex import minimize_qp_simplex, project_box, project_simplex
from repro.optim.warm import WarmSolve, WarmSolveInfo, WarmState, solve_qp_warm

__all__ = [
    "BatchIPQPResult",
    "IPQPResult",
    "PiecewiseLinearConvex",
    "QPKernel",
    "QuadraticScalar",
    "StructuredQPCompiler",
    "StructuredSlotQP",
    "WarmSolve",
    "WarmSolveInfo",
    "WarmState",
    "full_reach",
    "minimize_convex_on_interval",
    "minimize_qp_simplex",
    "project_box",
    "project_simplex",
    "prox_nonneg",
    "solve_capped_rank_one_qp",
    "solve_capped_rank_one_qp_batch",
    "solve_qp",
    "solve_qp_batch",
    "solve_qp_warm",
    "solve_structured_qp",
]
