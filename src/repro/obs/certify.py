"""A posteriori certification of per-slot solutions.

Given any :class:`~repro.core.solution.Allocation` — whoever produced
it — :func:`certify_solution` audits it against the slot's
:class:`~repro.core.problem.UFCProblem` and compiled QP and issues a
:class:`Certificate` with three independent verdicts:

- **Primal feasibility**: worst relative violation per constraint
  family (load balance, capacity, power balance, variable bounds),
  normalized by the same natural scales as
  :meth:`Allocation.check_feasibility`, with the single worst
  constraint named (``"power_balance[j=3]"``).
- **Stationarity / KKT residual**: the allocation is embedded into the
  QP's stacked vector and Lagrange multipliers are fitted by a
  complementarity-penalized non-negative least-squares problem over
  the *full* constraint set.  The reported ``kkt_residual`` is
  ``max(stationarity, complementarity)`` — either alone is gameable
  (the constraint normals span the space, so some multiplier vector
  always zeroes the gradient; the penalty forces multipliers of slack
  constraints toward zero so only genuine optima score well).
- **Duality gap**: the complementarity slack plus the equality
  residual weighted by its multipliers, an upper bound on the gap
  implied by the fitted (or solver-provided) certificate.

When the producing solver shipped its own multipliers (the centralized
interior-point solver does), they are checked first: if they already
meet the KKT tolerance they are the certificate and no fit runs.  The
fit runs only when no multipliers were shipped (ADM-G, heuristics) or
they fail the tolerance; then both are evaluated and the better one is
kept.  Either way the verdict is the one the better of the two would
give.  ``dual_source`` records which certificate was kept.

Unlike the rest of ``repro.obs`` this module imports numpy/scipy and
``repro.core`` — certification sits *above* the model layer, not below
it.  The dependency is one-way: nothing in ``repro.core`` imports obs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np
from scipy.optimize import nnls

from repro.core.compiled import CompiledQPStructure
from repro.core.model import SiteArrays
from repro.core.problem import QPForm, UFCProblem
from repro.core.solution import Allocation
from repro.optim.kkt import StructuredSlotQP

__all__ = [
    "Certificate",
    "certify_solution",
    "certify_structured_solution",
    "CertificationContext",
    "DEFAULT_FEAS_TOL",
    "DEFAULT_KKT_TOL",
]

#: Acceptance threshold on the worst relative feasibility violation.
DEFAULT_FEAS_TOL = 1e-6

#: Acceptance threshold on the relative KKT residual.
DEFAULT_KKT_TOL = 1e-5


@dataclass(frozen=True)
class Certificate:
    """The numerical-health verdict for one slot's solution.

    Attributes:
        slot: horizon index (-1 when certified outside an engine run).
        solver: name of the solver that produced the allocation.
        strategy: operating strategy name.
        feasibility: worst *relative* violation per constraint family.
        worst_violation: max over :attr:`feasibility`.
        worst_constraint: the single worst constraint, with its index.
        stationarity: relative gradient-of-Lagrangian residual.
        complementarity: relative complementary-slackness residual.
        kkt_residual: ``max(stationarity, complementarity)``.
        duality_gap: relative duality-gap bound from the multipliers.
        dual_source: ``"solver"`` or ``"fitted"``.
        ufc: the UFC value of the certified allocation.
        feas_tol: threshold :attr:`worst_violation` was judged against.
        kkt_tol: threshold :attr:`kkt_residual` was judged against.
        certify_s: wall seconds spent producing this certificate.
    """

    slot: int
    solver: str
    strategy: str
    feasibility: dict[str, float] = field(default_factory=dict)
    worst_violation: float = 0.0
    worst_constraint: str = ""
    stationarity: float = 0.0
    complementarity: float = 0.0
    kkt_residual: float = 0.0
    duality_gap: float = 0.0
    dual_source: str = "fitted"
    ufc: float = 0.0
    feas_tol: float = DEFAULT_FEAS_TOL
    kkt_tol: float = DEFAULT_KKT_TOL
    certify_s: float = 0.0

    @property
    def feasible(self) -> bool:
        """Whether every constraint family is within ``feas_tol``."""
        return self.worst_violation <= self.feas_tol

    @property
    def stationary(self) -> bool:
        """Whether the KKT residual is within ``kkt_tol``."""
        return self.kkt_residual <= self.kkt_tol

    @property
    def ok(self) -> bool:
        """Whether the slot passes certification outright."""
        return self.feasible and self.stationary

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready flat representation (includes the verdicts)."""
        return {
            "slot": self.slot,
            "solver": self.solver,
            "strategy": self.strategy,
            "feasibility": dict(self.feasibility),
            "worst_violation": self.worst_violation,
            "worst_constraint": self.worst_constraint,
            "stationarity": self.stationarity,
            "complementarity": self.complementarity,
            "kkt_residual": self.kkt_residual,
            "duality_gap": self.duality_gap,
            "dual_source": self.dual_source,
            "ufc": self.ufc,
            "feas_tol": self.feas_tol,
            "kkt_tol": self.kkt_tol,
            "certify_s": self.certify_s,
            "feasible": self.feasible,
            "stationary": self.stationary,
            "ok": self.ok,
        }


# -- feasibility audit --------------------------------------------------------


def _audit_feasibility(
    problem: UFCProblem, alloc: Allocation, site: SiteArrays
) -> tuple[dict[str, float], float, str]:
    """Per-family relative violations plus the named worst constraint.

    Mirrors :meth:`Allocation.check_feasibility` exactly — same
    families, same natural scales — but keeps the argmax index so the
    doctor can say *which* constraint is the problem.  ``site`` holds
    the model's per-datacenter arrays.
    """
    arrivals = problem.inputs.arrivals
    strategy = problem.strategy
    load = alloc.datacenter_load()
    mu_max = strategy.effective_mu_max(site.mu_max)

    arrival_scale = max(1.0, float(arrivals.max(initial=0.0)))
    power_scale = max(1.0, float((site.alphas + site.betas * site.capacities).max()))
    bound_scale = max(arrival_scale, power_scale)

    lb_raw = np.abs(alloc.lam.sum(axis=1) - arrivals)
    cap_raw = np.maximum(load - site.capacities, 0.0)
    pb_raw = np.abs(site.alphas + site.betas * load - alloc.mu - alloc.nu)

    bound_candidates: list[tuple[float, str]] = [
        (float(np.maximum(-alloc.lam, 0.0).max()), "lam>=0"),
        (float(np.maximum(-alloc.mu, 0.0).max()), "mu>=0"),
        (float(np.maximum(alloc.mu - mu_max, 0.0).max()), "mu<=mu_max"),
        (float(np.maximum(-alloc.nu, 0.0).max()), "nu>=0"),
    ]
    if not strategy.nu_allowed:
        bound_candidates.append(
            (float(np.abs(alloc.nu).max(initial=0.0)), "nu==0")
        )
    bounds_raw, bounds_name = max(bound_candidates, key=lambda t: t[0])

    families = {
        "load_balance": (
            float(lb_raw.max()) / arrival_scale,
            f"load_balance[i={int(lb_raw.argmax())}]",
        ),
        "capacity": (
            float(cap_raw.max()) / arrival_scale,
            f"capacity[j={int(cap_raw.argmax())}]",
        ),
        "power_balance": (
            float(pb_raw.max()) / power_scale,
            f"power_balance[j={int(pb_raw.argmax())}]",
        ),
        "bounds": (bounds_raw / bound_scale, f"bounds[{bounds_name}]"),
    }
    feasibility = {name: viol for name, (viol, _) in families.items()}
    worst_family = max(families, key=lambda name: families[name][0])
    return feasibility, families[worst_family][0], families[worst_family][1]


# -- KKT residual -------------------------------------------------------------


def _embed(qp: QPForm, alloc: Allocation) -> np.ndarray:
    """The allocation as the QP's stacked vector, epigraph vars rebuilt.

    Epigraph variables ``u_j`` (piecewise-linear emission costs with
    multiple segments) are not part of an :class:`Allocation`; at any
    optimum they sit on the active segment, so they are reconstructed
    as the max over their epigraph rows.
    """
    m, n = qp.num_frontends, qp.num_datacenters
    dim = qp.P.shape[0]
    x = np.zeros(dim)
    x[: m * n] = (alloc.lam / qp.lam_scale).ravel()
    if qp.mu_offset is not None:
        x[qp.mu_offset : qp.mu_offset + n] = alloc.mu
    if qp.nu_offset is not None:
        x[qp.nu_offset : qp.nu_offset + n] = alloc.nu
    u_offset = m * n + (n if qp.mu_offset is not None else 0) + (
        n if qp.nu_offset is not None else 0
    )
    for uc in range(u_offset, dim):
        rows = np.flatnonzero(qp.G[:, uc] == -1.0)
        if rows.size:
            x[uc] = float((qp.G[rows] @ x - qp.h[rows]).max())
    return x


def _residuals_from_duals(
    r: np.ndarray,
    slack: np.ndarray,
    qp: QPForm,
    eq_dual: np.ndarray,
    ineq_dual: np.ndarray,
    gscale: float,
    fscale: float,
) -> tuple[float, float]:
    """(stationarity, complementarity) for given multipliers.

    Tries both signs of the equality multipliers so either Lagrangian
    convention certifies.
    """
    z = np.maximum(np.asarray(ineq_dual, dtype=float), 0.0)
    y = np.asarray(eq_dual, dtype=float)
    grad_ineq = r + qp.G.T @ z
    stat = min(
        float(np.abs(grad_ineq + qp.A.T @ y).max(initial=0.0)),
        float(np.abs(grad_ineq - qp.A.T @ y).max(initial=0.0)),
    ) / gscale
    comp = float(np.abs(z * slack).sum()) / fscale
    return stat, comp


def _kkt_certificate(
    qp: QPForm,
    x: np.ndarray,
    duals: tuple[np.ndarray, np.ndarray] | None,
    kkt_tol: float,
) -> tuple[float, float, float, str]:
    """(stationarity, complementarity, duality_gap, dual_source) at x.

    Solver multipliers that already meet ``kkt_tol`` are the
    certificate.  Otherwise multipliers are fitted by non-negative
    least squares over the full constraint set with a complementarity
    penalty: each inequality multiplier ``z_i`` pays ``slack_i`` per
    unit, so multipliers on inactive constraints are pushed to zero and
    the fit can only score well where a genuine KKT point exists.
    Stationarity alone is meaningless here — the two-sided bound rows
    span the space — which is why the verdict couples it with the
    resulting complementarity.  The better of the solver's and the
    fitted certificate is kept, so the verdict is the same as if both
    were always evaluated.
    """
    r = qp.P @ x + qp.q
    slack = qp.h - qp.G @ x
    eq_res = qp.A @ x - qp.b
    gscale = max(
        1.0,
        float(np.abs(qp.q).max(initial=0.0)),
        float(np.abs(qp.P @ x).max(initial=0.0)),
    )
    fscale = max(1.0, abs(float(0.5 * x @ qp.P @ x + qp.q @ x)))

    solver_cert = None
    if duals is not None and duals[0] is not None and duals[1] is not None:
        stat_s, comp_s = _residuals_from_duals(
            r, slack, qp, duals[0], duals[1], gscale, fscale
        )
        solver_cert = (stat_s, comp_s, np.asarray(duals[0]), "solver")
        if max(stat_s, comp_s) <= kkt_tol:
            return _with_gap(solver_cert, eq_res, fscale)

    p_eq = qp.A.shape[0]
    m_ineq = qp.G.shape[0]
    basis = np.hstack([qp.A.T, -qp.A.T, qp.G.T])
    penalty = np.zeros((m_ineq, basis.shape[1]))
    penalty[np.arange(m_ineq), 2 * p_eq + np.arange(m_ineq)] = (
        np.maximum(slack, 0.0) * (gscale / fscale)
    )
    w, _ = nnls(
        np.vstack([basis, penalty]),
        np.concatenate([-r, np.zeros(m_ineq)]),
    )
    y_fit = w[:p_eq] - w[p_eq : 2 * p_eq]
    z_fit = w[2 * p_eq :]
    stat_fit = float(np.abs(r + basis @ w).max(initial=0.0)) / gscale
    comp_fit = float(np.abs(z_fit * slack).sum()) / fscale

    best = (stat_fit, comp_fit, y_fit, "fitted")
    if solver_cert is not None and max(solver_cert[:2]) < max(stat_fit, comp_fit):
        best = solver_cert
    return _with_gap(best, eq_res, fscale)


def _with_gap(
    cert: tuple[float, float, np.ndarray, str],
    eq_res: np.ndarray,
    fscale: float,
) -> tuple[float, float, float, str]:
    """Swap a certificate's equality multipliers for its duality-gap bound."""
    stat, comp, y, source = cert
    return stat, comp, comp + float(np.abs(y @ eq_res)) / fscale, source


# -- public entry points ------------------------------------------------------


def certify_solution(
    problem: UFCProblem,
    allocation: Allocation,
    *,
    qp: QPForm | None = None,
    duals: tuple[np.ndarray, np.ndarray] | None = None,
    solver: str = "",
    slot: int = -1,
    feas_tol: float = DEFAULT_FEAS_TOL,
    kkt_tol: float = DEFAULT_KKT_TOL,
    ufc: float | None = None,
) -> Certificate:
    """Audit one slot's allocation and issue a :class:`Certificate`.

    Args:
        problem: the slot instance the allocation claims to solve.
        allocation: the solution under audit (any producer).
        qp: the slot's compiled QP; compiled on the fly when omitted.
        duals: optional ``(eq_dual, ineq_dual)`` from the producing
            solver; checked first, and the certificate when they meet
            ``kkt_tol`` or beat the fitted multipliers.
        solver: producer name recorded on the certificate.
        slot: horizon index recorded on the certificate.
        feas_tol: relative feasibility acceptance threshold.
        kkt_tol: relative KKT-residual acceptance threshold.
        ufc: ``problem.ufc(allocation)`` when the caller already has
            it; computed here otherwise.
    """
    start = time.perf_counter()
    return _certify(
        problem,
        allocation,
        problem.to_qp() if qp is None else qp,
        problem.model.site_arrays(),
        duals=duals,
        solver=solver,
        slot=slot,
        feas_tol=feas_tol,
        kkt_tol=kkt_tol,
        ufc=ufc,
        start=start,
    )


def _certify(
    problem: UFCProblem,
    allocation: Allocation,
    qp: QPForm,
    site: SiteArrays,
    *,
    duals: tuple[np.ndarray, np.ndarray] | None,
    solver: str,
    slot: int,
    feas_tol: float,
    kkt_tol: float,
    ufc: float | None,
    start: float,
) -> Certificate:
    """The certificate of :func:`certify_solution`, timed from ``start``."""
    feasibility, worst_violation, worst_constraint = _audit_feasibility(
        problem, allocation, site
    )
    x = _embed(qp, allocation)
    stationarity, complementarity, duality_gap, dual_source = _kkt_certificate(
        qp, x, duals, kkt_tol
    )
    return Certificate(
        slot=slot,
        solver=solver,
        strategy=getattr(problem.strategy, "name", str(problem.strategy)),
        feasibility=feasibility,
        worst_violation=worst_violation,
        worst_constraint=worst_constraint,
        stationarity=stationarity,
        complementarity=complementarity,
        kkt_residual=max(stationarity, complementarity),
        duality_gap=duality_gap,
        dual_source=dual_source,
        ufc=float(problem.ufc(allocation) if ufc is None else ufc),
        feas_tol=feas_tol,
        kkt_tol=kkt_tol,
        certify_s=time.perf_counter() - start,
    )


def certify_structured_solution(
    sqp: StructuredSlotQP,
    problem: UFCProblem,
    allocation: Allocation,
    *,
    x: np.ndarray | None = None,
    duals: tuple[np.ndarray, np.ndarray] | None = None,
    solver: str = "",
    slot: int = -1,
    feas_tol: float = DEFAULT_FEAS_TOL,
    kkt_tol: float = DEFAULT_KKT_TOL,
) -> Certificate:
    """Certify a slot through its block-sparse QP — no dense matrices.

    The hyperscale lane's counterpart of :func:`certify_solution`: the
    feasibility audit is the same model-level check, but stationarity,
    complementarity and the gap bound are evaluated with the
    :class:`~repro.optim.kkt.StructuredSlotQP` matvecs (``O(M k + N)``
    memory) against the *solver-provided* multipliers.  The fitted
    NNLS certificate needs the dense constraint matrix and is
    deliberately unavailable here — at (N, M) = (100, 1000) that matrix
    alone is tens of gigabytes — so ``duals`` is required and
    ``dual_source`` is always ``"solver"``.

    Args:
        sqp: the slot's :class:`~repro.optim.kkt.StructuredSlotQP`.
        problem: the slot instance the allocation claims to solve.
        allocation: the solution under audit.
        x: the reduced primal vector the solver produced; rebuilt from
            ``allocation`` (reach-gathered, rescaled) when omitted.
        duals: ``(eq_dual, ineq_dual)`` in the reduced canonical layout.
        solver: producer name recorded on the certificate.
        slot: horizon index recorded on the certificate.
        feas_tol: relative feasibility acceptance threshold.
        kkt_tol: relative KKT-residual acceptance threshold.

    Raises:
        ValueError: when ``duals`` is missing (there is no fitted
            fallback on this path).
    """
    start = time.perf_counter()
    if duals is None or duals[0] is None or duals[1] is None:
        raise ValueError(
            "structured certification requires solver multipliers; the "
            "fitted NNLS fallback would need the dense constraint matrix"
        )
    feasibility, worst_violation, worst_constraint = _audit_feasibility(
        problem, allocation, problem.model.site_arrays()
    )
    if x is None:
        lam_r = (
            np.take_along_axis(allocation.lam, sqp.reach, axis=1) / sqp.lam_scale
        )
        parts = [lam_r.ravel()]
        if sqp.include_mu:
            parts.append(allocation.mu)
        if sqp.include_nu:
            parts.append(allocation.nu)
        x = np.concatenate(parts)

    r = sqp.obj_grad(x)
    q_vec = sqp.obj_grad(np.zeros(sqp.dim))
    slack = sqp.ineq_slack(x)
    eq_res = sqp.eq_residual(x)
    gscale = max(
        1.0,
        float(np.abs(q_vec).max(initial=0.0)),
        float(np.abs(r - q_vec).max(initial=0.0)),
    )
    fscale = max(1.0, abs(sqp.objective(x)))

    y = np.asarray(duals[0], dtype=float)
    z = np.maximum(np.asarray(duals[1], dtype=float), 0.0)
    grad_ineq = r + sqp.gt_mul(z)
    at_y = sqp.at_mul(y)
    stationarity = min(
        float(np.abs(grad_ineq + at_y).max(initial=0.0)),
        float(np.abs(grad_ineq - at_y).max(initial=0.0)),
    ) / gscale
    complementarity = float(np.abs(z * slack).sum()) / fscale
    duality_gap = complementarity + float(np.abs(y @ eq_res)) / fscale

    return Certificate(
        slot=slot,
        solver=solver,
        strategy=getattr(problem.strategy, "name", str(problem.strategy)),
        feasibility=feasibility,
        worst_violation=worst_violation,
        worst_constraint=worst_constraint,
        stationarity=stationarity,
        complementarity=complementarity,
        kkt_residual=max(stationarity, complementarity),
        duality_gap=duality_gap,
        dual_source="solver",
        ufc=float(problem.ufc(allocation)),
        feas_tol=feas_tol,
        kkt_tol=kkt_tol,
        certify_s=time.perf_counter() - start,
    )


class CertificationContext:
    """A reusable certifier with a compiled-structure cache.

    Certifying every slot of a horizon recompiles the same QP geometry
    168 times unless the slot-invariant part is shared; this context
    keeps one :class:`CompiledQPStructure` per (model, strategy) seen,
    mirroring the engine's own compile cache, and takes the model's
    per-datacenter arrays from it too.  The cache is dropped on
    pickling, so a context shipped to process-pool workers starts cold
    there and warm copies never cross process boundaries.
    """

    def __init__(
        self,
        feas_tol: float = DEFAULT_FEAS_TOL,
        kkt_tol: float = DEFAULT_KKT_TOL,
    ) -> None:
        self.feas_tol = float(feas_tol)
        self.kkt_tol = float(kkt_tol)
        self._structures: list[CompiledQPStructure] = []

    def _structure_for(self, problem: UFCProblem) -> CompiledQPStructure:
        for structure in self._structures:
            if structure.matches(problem):
                return structure
        structure = CompiledQPStructure(problem.model, problem.strategy)
        self._structures.append(structure)
        return structure

    def certify(
        self,
        problem: UFCProblem,
        allocation: Allocation,
        *,
        duals: tuple[np.ndarray, np.ndarray] | None = None,
        solver: str = "",
        slot: int = -1,
        qp: QPForm | StructuredSlotQP | None = None,
        ufc: float | None = None,
    ) -> Certificate:
        """Certify one slot through the shared structure cache.

        ``qp`` is the slot's QP when the caller already built it (at
        the default workload scale, as the producing solver does); it
        is compiled from the cached structure otherwise.  A
        :class:`~repro.optim.kkt.StructuredSlotQP` is certified by
        :func:`certify_structured_solution`, with no dense QP built.
        ``ufc`` is the allocation's UFC when the caller already
        computed it.
        """
        if isinstance(qp, StructuredSlotQP):
            return certify_structured_solution(
                qp,
                problem,
                allocation,
                duals=duals,
                solver=solver,
                slot=slot,
                feas_tol=self.feas_tol,
                kkt_tol=self.kkt_tol,
            )
        start = time.perf_counter()
        structure = self._structure_for(problem)
        return _certify(
            problem,
            allocation,
            structure.qp_for(problem.inputs) if qp is None else qp,
            structure.site,
            duals=duals,
            solver=solver,
            slot=slot,
            feas_tol=self.feas_tol,
            kkt_tol=self.kkt_tol,
            ufc=ufc,
            start=start,
        )

    def __getstate__(self) -> Mapping[str, Any]:
        state = dict(self.__dict__)
        state["_structures"] = []
        return state
