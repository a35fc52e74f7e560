"""Bounded-staleness (partially asynchronous) execution of ADM-G.

The synchronous coordinator assumes every message lands within its
round.  Over a WAN, stragglers happen; waiting for them wastes the
whole fleet's round.  This runtime explores the alternative: agents
proceed every round with the *latest received* values, and a message
delayed by the network simply updates its (i, j) slot one round late
(staleness 1, extendable).

The paper's convergence theory does not cover stale iterates, so this
is an empirical robustness study: the benchmark shows the iteration
count degrades gracefully for delay probabilities up to ~0.3 while
each round no longer blocks on stragglers — the classic synchronous
vs bounded-staleness trade.  Convergence is declared only after the
residuals stay below tolerance for ``stable_rounds`` consecutive
rounds, guarding against transient dips caused by stale reads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.admg.solver import DistributedUFCSolver
from repro.core.problem import UFCProblem
from repro.core.repair import polish_allocation
from repro.core.solution import Allocation
from repro.distributed.agents import DatacenterAgent, FrontEndAgent

__all__ = ["StaleRun", "StalenessRuntime"]


@dataclass
class StaleRun:
    """Outcome of a bounded-staleness run.

    Satisfies the :class:`~repro.distributed.runs.RunRecord` protocol,
    so report/metrics code handles it and
    :class:`~repro.distributed.coordinator.DistributedRun` uniformly.

    Attributes:
        allocation: polished allocation from the final front-end state.
        ufc: UFC of that allocation.
        iterations: rounds executed.
        converged: residuals stayed below tolerance for the required
            consecutive rounds.
        delayed_messages: messages that arrived one round late.
        total_messages: all messages sent (same as ``messages_sent``;
            kept for backward compatibility).
        messages_sent: all messages sent.
        floats_sent: payload scalars sent (2 per proposal, 1 per
            assignment).
        bytes_sent: payload bytes (8 per float).
        wall_s: end-to-end wall seconds of :meth:`StalenessRuntime.run`.
    """

    allocation: Allocation
    ufc: float
    iterations: int
    converged: bool
    delayed_messages: int
    total_messages: int
    coupling_residuals: list[float] = field(default_factory=list)
    messages_sent: int = 0
    floats_sent: int = 0
    bytes_sent: int = 0
    wall_s: float = 0.0


class StalenessRuntime:
    """Run ADM-G with randomly delayed (stale) messages.

    Args:
        problem: the slot's UFC problem.
        solver: hyper-parameter carrier (rho, eps, tol, max_iter).
        delay_probability: per-message chance of arriving next round.
        seed: RNG seed for delays.
        stable_rounds: consecutive below-tolerance rounds required.
    """

    def __init__(
        self,
        problem: UFCProblem,
        solver: DistributedUFCSolver | None = None,
        delay_probability: float = 0.1,
        seed: int = 0,
        stable_rounds: int = 3,
    ) -> None:
        if not 0.0 <= delay_probability < 1.0:
            raise ValueError(
                f"delay probability must be in [0, 1), got {delay_probability}"
            )
        self.problem = problem
        self.solver = solver if solver is not None else DistributedUFCSolver()
        self.delay_probability = float(delay_probability)
        self.stable_rounds = int(stable_rounds)
        self._rng = np.random.default_rng(seed)
        view, inputs = self.solver.scaled_context(problem)
        self.view = view
        self.scaled_inputs = inputs
        strategy = problem.strategy
        mu_caps = strategy.effective_mu_max(view.mu_max)
        m, n = view.num_frontends, view.num_datacenters
        self.frontends = [
            FrontEndAgent(
                index=i,
                arrival=float(inputs.arrivals[i]),
                latency_row=view.latency_ms[i],
                utility=view.utility,
                weight=view.latency_weight,
                rho=self.solver.rho,
                eps=self.solver.eps,
                num_datacenters=n,
            )
            for i in range(m)
        ]
        self.datacenters = [
            DatacenterAgent(
                index=j,
                alpha=float(view.alphas[j]),
                beta=float(view.betas[j]),
                capacity=float(view.capacities[j]),
                mu_max=float(mu_caps[j]),
                price=float(inputs.prices[j]),
                carbon_rate=float(inputs.carbon_rates[j]),
                emission_cost=view.emission_costs[j],
                fuel_cell_price=view.fuel_cell_price,
                grid_enabled=strategy.grid_enabled,
                rho=self.solver.rho,
                eps=self.solver.eps,
                num_frontends=m,
            )
            for j in range(n)
        ]
        # Latest-received views (staleness-1 buffers).
        self._lam_view = np.zeros((m, n))
        self._varphi_view = np.zeros((m, n))
        self._a_view = np.zeros((m, n))
        self._pending: list[tuple[str, int, int, float, float]] = []
        self.delayed_messages = 0
        self.total_messages = 0
        self.floats_sent = 0

    def _transmit(self, kind: str, i: int, j: int, v1: float, v2: float = 0.0) -> bool:
        """Send one logical message; returns False when delayed."""
        self.total_messages += 1
        self.floats_sent += 2 if kind == "proposal" else 1
        if self._rng.random() < self.delay_probability:
            self._pending.append((kind, i, j, v1, v2))
            self.delayed_messages += 1
            return False
        self._apply(kind, i, j, v1, v2)
        return True

    def _apply(self, kind: str, i: int, j: int, v1: float, v2: float) -> None:
        if kind == "proposal":
            self._lam_view[i, j] = v1
            self._varphi_view[i, j] = v2
        else:
            self._a_view[i, j] = v1

    def run(self) -> StaleRun:
        """Execute rounds until stable convergence or the cap."""
        run_start = time.perf_counter()
        view, inputs = self.view, self.scaled_inputs
        arrival_scale = max(1.0, float(inputs.arrivals.max(initial=0.0)))
        power_scale = max(
            1.0, float((view.alphas + view.betas * view.capacities).max())
        )
        m = len(self.frontends)
        n = len(self.datacenters)
        coupling_hist: list[float] = []
        stable = 0
        converged = False
        it = 0
        for it in range(1, self.solver.max_iter + 1):
            # Deliver last round's stragglers first.
            for msg in self._pending:
                self._apply(*msg)
            self._pending.clear()

            # Front-ends propose against their own (fresh) state.
            for fe in self.frontends:
                lam_pred, varphi = fe.propose()
                for j in range(n):
                    self._transmit(
                        "proposal",
                        fe.index,
                        j,
                        float(lam_pred[j]),
                        float(varphi[j]),
                    )
            # Datacenters act on their possibly stale views.
            for dc in self.datacenters:
                a_pred = dc.process(
                    self._lam_view[:, dc.index].copy(),
                    self._varphi_view[:, dc.index].copy(),
                )
                for i in range(m):
                    self._transmit(
                        "assignment", i, dc.index, float(a_pred[i])
                    )
            # Front-ends integrate possibly stale assignment views.
            coupling = 0.0
            for fe in self.frontends:
                coupling = max(
                    coupling, fe.integrate(self._a_view[fe.index].copy())
                )
            coupling_rel = coupling / arrival_scale
            coupling_hist.append(coupling_rel)
            power_rel = max(
                dc.last_power_residual for dc in self.datacenters
            ) / power_scale
            change_rel = max(
                max(fe.last_lam_change for fe in self.frontends)
                / arrival_scale,
                max(fe.last_a_change for fe in self.frontends)
                / arrival_scale,
                max(dc.last_mu_change for dc in self.datacenters)
                / power_scale,
                max(dc.last_nu_change for dc in self.datacenters)
                / power_scale,
            )
            if max(coupling_rel, power_rel, change_rel) < self.solver.tol:
                stable += 1
                if stable >= self.stable_rounds:
                    converged = True
                    break
            else:
                stable = 0

        lam_servers = (
            np.vstack([fe.lam for fe in self.frontends]) * view.workload_scale
        )
        alloc = polish_allocation(
            self.problem.model,
            self.problem.inputs,
            lam_servers,
            strategy=self.problem.strategy,
        )
        return StaleRun(
            allocation=alloc,
            ufc=self.problem.ufc(alloc),
            iterations=it,
            converged=converged,
            delayed_messages=self.delayed_messages,
            total_messages=self.total_messages,
            coupling_residuals=coupling_hist,
            messages_sent=self.total_messages,
            floats_sent=self.floats_sent,
            bytes_sent=8 * self.floats_sent,
            wall_s=time.perf_counter() - run_start,
        )
