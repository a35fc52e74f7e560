"""Centralized reference solvers for the UFC problem.

Two solvers live here:

- :class:`CentralizedSolver` compiles a slot's UFC problem to a dense
  QP and solves it with the library's interior-point method
  (:func:`repro.optim.ipqp.solve_qp`).  It is the ground truth the
  distributed ADM-G algorithm is verified against.
- :func:`optimal_power_split` solves the *restricted* problem of
  choosing ``(mu_j, nu_j)`` for a fixed routing — a one-dimensional
  convex problem per datacenter.  It powers the Table I warm-up
  (single-site arbitrage) and is used to polish near-feasible iterates
  into exactly power-balanced allocations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import CloudModel
from repro.core.problem import QPForm, SlotInputs, UFCProblem
from repro.core.solution import Allocation
from repro.core.strategies import HYBRID, Strategy
from repro.optim.ipqp import solve_qp
from repro.optim.scalar import minimize_convex_on_interval

__all__ = ["CentralizedResult", "CentralizedSolver", "optimal_power_split"]


@dataclass(frozen=True)
class CentralizedResult:
    """A centralized solve outcome.

    Attributes:
        allocation: the optimal (lambda, mu, nu).
        ufc: UFC value at the optimum.
        iterations: interior-point iterations used.
        converged: solver convergence flag.
        eq_dual: equality multipliers at the optimum (certification
            uses these as the solver-provided dual certificate).
        ineq_dual: inequality multipliers at the optimum.
    """

    allocation: Allocation
    ufc: float
    iterations: int
    converged: bool
    eq_dual: np.ndarray | None = None
    ineq_dual: np.ndarray | None = None


class CentralizedSolver:
    """Interior-point reference solver for per-slot UFC maximization.

    Every slot goes through the dense KKT factorization, at any size;
    the block-elimination route is its own lane
    (``create_solver("centralized-structured")``).

    Args:
        tol: interior-point tolerance.
        max_iter: interior-point iteration cap.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            forwarded to the interior-point method (duck-typed; the
            optim layer never imports obs).
    """

    def __init__(self, tol: float = 1e-9, max_iter: int = 120, metrics=None) -> None:
        self.tol = tol
        self.max_iter = max_iter
        self.metrics = metrics

    def compile(self, model: CloudModel, strategy: Strategy) -> "CompiledQPStructure":
        """Slot-invariant QP structure for (model, strategy).

        Passing the returned structure back into :meth:`solve` skips
        the per-slot constraint-matrix assembly; the emitted QP (and
        therefore the solution) is bit-identical to a from-scratch
        compile.
        """
        from repro.core.compiled import CompiledQPStructure

        return CompiledQPStructure(model, strategy)

    def solve(
        self, problem: UFCProblem, compiled: "CompiledQPStructure | None" = None
    ) -> CentralizedResult:
        """Solve one slot to optimality.

        Args:
            problem: the slot's UFC problem.
            compiled: optional slot-invariant structure from
                :meth:`compile`; ignored when it was built for a
                different model or strategy.

        Raises:
            NotImplementedError: when an emission cost is not
                QP-representable (see :meth:`UFCProblem.to_qp`).
        """
        return self.solve_with_qp(problem, compiled)[0]

    def solve_with_qp(
        self, problem: UFCProblem, compiled: "CompiledQPStructure | None" = None
    ) -> tuple[CentralizedResult, QPForm]:
        """:meth:`solve`, plus the dense QP it solved.

        A caller that audits the result (the engine's certifier) reuses
        the QP instead of compiling the slot a second time.
        """
        use_compiled = compiled is not None and compiled.matches(problem)
        qp = compiled.qp_for(problem.inputs) if use_compiled else problem.to_qp()
        if use_compiled and qp.A is compiled._A and qp.G is compiled._G:
            res = compiled.kernel().solve(
                qp.P, qp.q, qp.b, qp.h, tol=self.tol, max_iter=self.max_iter,
                metrics=self.metrics,
            )
        else:
            res = solve_qp(
                qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h,
                tol=self.tol, max_iter=self.max_iter, metrics=self.metrics,
            )
        alloc = qp.extract(res.x)
        result = CentralizedResult(
            allocation=alloc,
            ufc=problem.ufc(alloc),
            iterations=res.iterations,
            converged=res.converged,
            eq_dual=res.eq_dual,
            ineq_dual=res.ineq_dual,
        )
        return result, qp


def optimal_power_split(
    model: CloudModel,
    inputs: SlotInputs,
    loads: np.ndarray,
    strategy: Strategy = HYBRID,
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal ``(mu, nu)`` for fixed per-datacenter loads.

    For each datacenter the demand ``D_j = alpha_j + beta_j * load_j``
    must be met by ``mu_j + nu_j``; minimizing
    ``p0 mu + p_j nu + V_j(C_j nu)`` over ``0 <= mu <= min(mu_max, D)``
    with ``nu = D - mu`` is scalar convex.  Linear emission costs give
    the bang-bang arbitrage rule the paper's Table I uses; other convex
    costs are solved by golden-section search.

    Returns:
        ``(mu, nu)`` arrays of shape (N,).

    Raises:
        ValueError: if the Fuel-cell strategy cannot cover demand
            (``D_j > mu_j^max`` with the grid disabled).
    """
    loads = np.asarray(loads, dtype=float)
    n = model.num_datacenters
    if loads.shape != (n,):
        raise ValueError(f"loads shape {loads.shape} != ({n},)")
    demand = model.alphas + model.betas * loads
    mu_cap = strategy.effective_mu_max(model.mu_max)
    mu = np.zeros(n)
    nu = np.zeros(n)
    for j in range(n):
        d = float(demand[j])
        hi = min(float(mu_cap[j]), d)
        if not strategy.grid_enabled:
            if d > mu_cap[j] * (1 + 1e-9):
                raise ValueError(
                    f"datacenter {model.datacenters[j].name!r}: demand "
                    f"{d:.3f} MW exceeds fuel-cell capacity {mu_cap[j]:.3f} MW "
                    "and the grid is disabled"
                )
            mu[j], nu[j] = d, 0.0
            continue
        if hi <= 0:
            mu[j], nu[j] = 0.0, d
            continue
        v_j = model.emission_costs[j]
        c_j = float(inputs.carbon_rates[j])
        p_j = float(inputs.prices[j])
        p0 = model.fuel_cell_price

        quad = v_j.nu_quadratic(c_j)
        if quad is not None and quad[0] == 0.0:
            # Linear total cost in mu: bang-bang arbitrage.
            marginal_grid = p_j + quad[1]
            mu[j] = hi if p0 < marginal_grid else 0.0
        else:
            def split_cost(mu_val: float, _d: float = d, _vj=v_j, _c=c_j, _p=p_j) -> float:
                nu_val = _d - mu_val
                return p0 * mu_val + _p * nu_val + _vj.cost(_c * nu_val)

            mu[j] = minimize_convex_on_interval(split_cost, 0.0, hi, tol=1e-12)
        nu[j] = d - mu[j]
    return mu, nu
