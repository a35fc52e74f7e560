"""Synchronous round coordinator for the message-passing deployment.

Runs the paper's distributed ADM-G over a simulated network: every
iteration is two message waves (proposals out, assignments back).
The coordinator itself never touches primal state — it only moves
messages and aggregates the scalar residual reports each agent emits,
which is the kind of lightweight convergence beacon a real deployment
would piggyback on its control plane.

With a :class:`~repro.faults.plan.FaultInjector` attached the
coordinator switches to its *self-healing* round loop: agents proceed
on their latest-received views when messages are lost (sends run
under a budgeted retransmit policy instead of an infinite resend
loop), crashed agents are skipped and later revived from the fleet's
last checkpoint, a divergence watchdog restores a healthy checkpoint
with a damped step when residuals blow up (NaN/Inf or sustained
growth), and when every budget is exhausted the run completes
*degraded* — the last healthy iterate is polished into a feasible
allocation instead of raising.  Without an injector the original
fault-free path runs unchanged (bit-identical, no RNG touched).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.admg.solver import DistributedUFCSolver
from repro.core.problem import UFCProblem
from repro.core.repair import polish_allocation
from repro.core.solution import Allocation
from repro.distributed.agents import DatacenterAgent, FrontEndAgent
from repro.distributed.messages import (
    RoutingAssignment,
    RoutingProposal,
    SimulatedNetwork,
)
from repro.faults.plan import FaultEvent, FaultInjector

__all__ = ["DistributedRun", "DistributedRuntime"]

# Recovery budgets of the self-healing round loop.
#: Snapshot the fleet every this many healthy rounds.
CHECKPOINT_EVERY = 1
#: The watchdog trips after this many *consecutive* rounds of growing
#: residual (NaN/Inf trips immediately).
WATCHDOG_WINDOW = 4
#: Rounds to ignore before growth counting starts (the first
#: iterations climb out of the zero start).
WATCHDOG_WARMUP = 10
#: A round only counts toward the growth streak when its residual
#: exceeds the previous round's by this factor: plain packet loss makes
#: residuals *oscillate*, and the watchdog must not mistake that for
#: divergence.  Growth tracking is also suspended while any agent is
#: crashed (a half-fleet cannot be expected to contract).
GROWTH_FACTOR = 1.2
#: Every agent's Gaussian back-substitution step ``eps`` is multiplied
#: by this on each watchdog restart ...
DAMPING = 0.9
#: ... down to this floor (ADM-G theory wants ``eps > 0.5``).
MIN_EPS = 0.55
#: Watchdog restarts before the runtime stops restoring and completes
#: degraded.
MAX_RESTARTS = 3


@dataclass
class DistributedRun:
    """Outcome of a message-passing ADM-G run.

    Attributes:
        allocation: polished, feasible allocation.
        ufc: UFC value of that allocation.
        iterations: rounds executed.
        converged: whether the residual criterion was met.
        messages_sent: total messages over the run.
        floats_sent: total payload scalars over the run.
        coupling_residuals: per-round max coupling residual (relative).
        power_residuals: per-round max power residual (relative).
        bytes_sent: payload bytes (8 per float).
        wall_s: end-to-end wall seconds of :meth:`DistributedRuntime.run`.
        degraded: the run exhausted a recovery budget (or never met the
            stopping rule under faults) and returned a
            polished-but-uncertified-optimal iterate.
        retransmits: dropped attempts retried within the budget.
        sends_failed: sends abandoned after the budget (or a partition).
        checkpoint_restores: agent revivals plus watchdog restores.
        watchdog_trips: divergence-watchdog restarts taken.
        fault_counts: full fault/recovery counter map (empty when no
            injector was attached).
        fault_events: the injector's bounded notable-event log.
    """

    allocation: Allocation
    ufc: float
    iterations: int
    converged: bool
    messages_sent: int
    floats_sent: int
    coupling_residuals: list[float] = field(default_factory=list)
    power_residuals: list[float] = field(default_factory=list)
    bytes_sent: int = 0
    wall_s: float = 0.0
    degraded: bool = False
    retransmits: int = 0
    sends_failed: int = 0
    checkpoint_restores: int = 0
    watchdog_trips: int = 0
    fault_counts: dict[str, int] = field(default_factory=dict)
    fault_events: tuple[FaultEvent, ...] = ()


def _snapshot_agent(agent) -> dict:
    """A value copy of an agent's mutable state (arrays copied)."""
    return {
        k: (v.copy() if isinstance(v, np.ndarray) else v)
        for k, v in vars(agent).items()
    }


def _restore_agent_state(agent, snapshot: dict) -> None:
    for k, v in snapshot.items():
        setattr(agent, k, v.copy() if isinstance(v, np.ndarray) else v)


class DistributedRuntime:
    """Instantiate agents for one slot's problem and run rounds.

    Mirrors :class:`repro.admg.solver.DistributedUFCSolver` exactly
    (same scaling, same stopping rule) but executes through agents and
    messages.  The solver object supplies the hyper-parameters.

    Pass a :class:`~repro.faults.plan.FaultInjector` as ``faults`` to
    run the self-healing loop under injected faults, with the recovery
    budgets above.  With ``faults=None`` (the default) the original
    synchronous path runs unchanged.
    """

    def __init__(
        self,
        problem: UFCProblem,
        solver: DistributedUFCSolver | None = None,
        network: SimulatedNetwork | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.problem = problem
        self.solver = solver if solver is not None else DistributedUFCSolver()
        self.view, self.scaled_inputs = self.solver.scaled_context(problem)
        self.faults = faults
        if faults is not None and network is None:
            from repro.faults.network import FaultyNetwork

            network = FaultyNetwork(faults)
        self.network = network if network is not None else SimulatedNetwork()
        view, inputs = self.view, self.scaled_inputs
        strategy = problem.strategy
        mu_caps = strategy.effective_mu_max(view.mu_max)
        self.frontends = [
            FrontEndAgent(
                index=i,
                arrival=float(inputs.arrivals[i]),
                latency_row=view.latency_ms[i],
                utility=view.utility,
                weight=view.latency_weight,
                rho=self.solver.rho,
                eps=self.solver.eps,
                num_datacenters=view.num_datacenters,
            )
            for i in range(view.num_frontends)
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
                num_frontends=view.num_frontends,
            )
            for j in range(view.num_datacenters)
        ]
        if faults is not None:
            m, n = view.num_frontends, view.num_datacenters
            # Latest-received views: a lost message leaves its (i, j)
            # slot at the last value that got through (zeros match the
            # agents' initial state).
            self._lam_view = np.zeros((m, n))
            self._varphi_view = np.zeros((m, n))
            self._a_view = np.zeros((m, n))

    def _round(self) -> tuple[float, float, float, float]:
        """One synchronous ADM-G round over the network.

        Returns:
            ``(coupling_residual, power_residual, routing_change,
            power_change)`` in the scaled units the stopping rule uses.
        """
        m = len(self.frontends)
        n = len(self.datacenters)
        # Wave 1: proposals out.
        for fe in self.frontends:
            lam_pred, varphi = fe.propose()
            for j in range(n):
                self.network.send(
                    RoutingProposal(
                        sender=f"fe{fe.index}",
                        receiver=f"dc{j}",
                        lam=float(lam_pred[j]),
                        varphi=float(varphi[j]),
                    )
                )
        # Wave 2: datacenters process and reply.
        for dc in self.datacenters:
            inbox = self.network.deliver(f"dc{dc.index}")
            lam_col = np.zeros(m)
            varphi_col = np.zeros(m)
            for msg in inbox:
                i = int(msg.sender[2:])
                lam_col[i] = msg.lam
                varphi_col[i] = msg.varphi
            a_pred = dc.process(lam_col, varphi_col)
            for i in range(m):
                self.network.send(
                    RoutingAssignment(
                        sender=f"dc{dc.index}",
                        receiver=f"fe{i}",
                        a=float(a_pred[i]),
                    )
                )
        # Front-ends integrate assignments and correct local state.
        coupling = 0.0
        for fe in self.frontends:
            inbox = self.network.deliver(f"fe{fe.index}")
            a_pred = np.zeros(n)
            for msg in inbox:
                a_pred[int(msg.sender[2:])] = msg.a
            coupling = max(coupling, fe.integrate(a_pred))

        power = max(dc.last_power_residual for dc in self.datacenters)
        routing_change = max(
            max(fe.last_lam_change for fe in self.frontends),
            max(fe.last_a_change for fe in self.frontends),
        )
        power_change = max(
            max(dc.last_mu_change for dc in self.datacenters),
            max(dc.last_nu_change for dc in self.datacenters),
        )
        return coupling, power, routing_change, power_change

    def run(self) -> DistributedRun:
        """Execute rounds until convergence, recovery, or degradation."""
        start = time.perf_counter()
        if self.faults is None:
            run = self._run_sync()
        else:
            run = self._run_resilient()
        run.wall_s = time.perf_counter() - start
        return run

    def _run_sync(self) -> DistributedRun:
        """The fault-free synchronous loop (the original code path)."""
        view, inputs = self.view, self.scaled_inputs
        arrival_scale = max(1.0, float(inputs.arrivals.max(initial=0.0)))
        power_scale = max(
            1.0, float((view.alphas + view.betas * view.capacities).max())
        )
        coupling_hist: list[float] = []
        power_hist: list[float] = []
        converged = False
        it = 0
        for it in range(1, self.solver.max_iter + 1):
            coupling, power, routing_change, power_change = self._round()
            coupling_rel = coupling / arrival_scale
            power_rel = power / power_scale
            change_rel = max(
                routing_change / arrival_scale, power_change / power_scale
            )
            coupling_hist.append(coupling_rel)
            power_hist.append(power_rel)
            if max(coupling_rel, power_rel, change_rel) < self.solver.tol:
                converged = True
                break

        lam_servers = (
            np.vstack([fe.lam for fe in self.frontends]) * view.workload_scale
        )
        alloc = polish_allocation(
            self.problem.model,
            self.problem.inputs,
            lam_servers,
            strategy=self.problem.strategy,
        )
        return DistributedRun(
            allocation=alloc,
            ufc=self.problem.ufc(alloc),
            iterations=it,
            converged=converged,
            messages_sent=self.network.messages_sent,
            floats_sent=self.network.floats_sent,
            coupling_residuals=coupling_hist,
            power_residuals=power_hist,
            bytes_sent=self.network.bytes_sent,
        )

    # -- self-healing loop ----------------------------------------------------

    def _take_checkpoint(self, round_: int) -> dict:
        """A full value snapshot of the fleet (agents + shared views)."""
        return {
            "round": round_,
            "frontends": [_snapshot_agent(fe) for fe in self.frontends],
            "datacenters": [_snapshot_agent(dc) for dc in self.datacenters],
            "views": (
                self._lam_view.copy(),
                self._varphi_view.copy(),
                self._a_view.copy(),
            ),
        }

    def _restore_fleet(self, checkpoint: dict, restarts: int) -> None:
        """Rewind every agent and view to ``checkpoint``, damping eps."""
        for fe, snap in zip(self.frontends, checkpoint["frontends"]):
            _restore_agent_state(fe, snap)
        for dc, snap in zip(self.datacenters, checkpoint["datacenters"]):
            _restore_agent_state(dc, snap)
        lam_v, varphi_v, a_v = checkpoint["views"]
        self._lam_view = lam_v.copy()
        self._varphi_view = varphi_v.copy()
        self._a_view = a_v.copy()
        # Damping survives restores: derive eps from the restart count
        # rather than the (restored) agent state.
        eps = max(MIN_EPS, self.solver.eps * DAMPING**restarts)
        for agent in (*self.frontends, *self.datacenters):
            agent.eps = eps

    def _restore_one_agent(self, agent_id: str, checkpoint: dict) -> None:
        """Revive one crashed agent from its checkpointed state."""
        index = int(agent_id[2:])
        if agent_id.startswith("fe"):
            _restore_agent_state(
                self.frontends[index], checkpoint["frontends"][index]
            )
        else:
            _restore_agent_state(
                self.datacenters[index], checkpoint["datacenters"][index]
            )

    def _round_resilient(
        self, round_: int, crashed: frozenset[str]
    ) -> tuple[float, float, float, float]:
        """One fault-tolerant round: live agents act on latest views."""
        m = len(self.frontends)
        n = len(self.datacenters)
        net = self.network
        injector = self.faults
        # Wave 1: live front-ends propose; sends are budgeted.
        for fe in self.frontends:
            fe_id = f"fe{fe.index}"
            if fe_id in crashed:
                continue
            lam_pred, varphi = fe.propose()
            for j in range(n):
                if f"dc{j}" in crashed:
                    # The failure detector knows the peer is down:
                    # don't burn the retry budget on a dead receiver.
                    injector.count("unreachable")
                    continue
                net.send(
                    RoutingProposal(
                        sender=fe_id,
                        receiver=f"dc{j}",
                        lam=float(lam_pred[j]),
                        varphi=float(varphi[j]),
                    )
                )
        # Wave 2: live datacenters fold deliveries into their view,
        # process, and reply.
        for dc in self.datacenters:
            dc_id = f"dc{dc.index}"
            inbox = net.deliver(dc_id)
            if dc_id in crashed:
                # Anything addressed to a dead agent (e.g. stragglers
                # delayed from before the crash) is lost with it.
                if inbox:
                    injector.count("lost_in_crash", len(inbox))
                continue
            for msg in inbox:
                i = int(msg.sender[2:])
                self._lam_view[i, dc.index] = msg.lam
                self._varphi_view[i, dc.index] = msg.varphi
            a_pred = dc.process(
                self._lam_view[:, dc.index].copy(),
                self._varphi_view[:, dc.index].copy(),
            )
            for i in range(m):
                if f"fe{i}" in crashed:
                    injector.count("unreachable")
                    continue
                net.send(
                    RoutingAssignment(
                        sender=dc_id, receiver=f"fe{i}", a=float(a_pred[i])
                    )
                )
        # Live front-ends integrate their (possibly stale) view.
        coupling = 0.0
        for fe in self.frontends:
            fe_id = f"fe{fe.index}"
            inbox = net.deliver(fe_id)
            if fe_id in crashed:
                if inbox:
                    injector.count("lost_in_crash", len(inbox))
                continue
            for msg in inbox:
                self._a_view[fe.index, int(msg.sender[2:])] = msg.a
            coupling = max(
                coupling, fe.integrate(self._a_view[fe.index].copy())
            )
        power = max(dc.last_power_residual for dc in self.datacenters)
        routing_change = max(
            max(fe.last_lam_change for fe in self.frontends),
            max(fe.last_a_change for fe in self.frontends),
        )
        power_change = max(
            max(dc.last_mu_change for dc in self.datacenters),
            max(dc.last_nu_change for dc in self.datacenters),
        )
        return coupling, power, routing_change, power_change

    def _fleet_finite(self) -> bool:
        """Whether every agent's numeric state is finite.

        Residual aggregation alone cannot be trusted for this: Python's
        ``max`` silently discards NaN when it is the first argument, so
        a NaN-poisoned agent can hide behind a finite-looking residual.
        """
        for agent in (*self.frontends, *self.datacenters):
            for value in vars(agent).values():
                if isinstance(value, np.ndarray):
                    if not np.isfinite(value).all():
                        return False
                elif isinstance(value, float) and not math.isfinite(value):
                    return False
        return True

    def _run_resilient(self) -> DistributedRun:
        """Rounds under injected faults, with recovery and degradation."""
        view, inputs = self.view, self.scaled_inputs
        injector = self.faults
        net = self.network
        arrival_scale = max(1.0, float(inputs.arrivals.max(initial=0.0)))
        power_scale = max(
            1.0, float((view.alphas + view.betas * view.capacities).max())
        )
        coupling_hist: list[float] = []
        power_hist: list[float] = []
        converged = False
        degraded = False
        it = 0
        restarts = 0
        growth_streak = 0
        prev_metric = math.inf
        checkpoint = self._take_checkpoint(0)
        previously_crashed: frozenset[str] = frozenset()
        for it in range(1, self.solver.max_iter + 1):
            if hasattr(net, "advance_round"):
                net.advance_round(it)
            crashed = injector.crashed_agents(it)
            for agent_id in sorted(crashed - previously_crashed):
                injector.record("crash", it, agent_id)
            for agent_id in sorted(previously_crashed - crashed):
                self._restore_one_agent(agent_id, checkpoint)
                injector.record(
                    "checkpoint_restore",
                    it,
                    agent_id,
                    f"rejoined from round-{checkpoint['round']} checkpoint",
                )
                injector.record("revive", it, agent_id)
            previously_crashed = crashed
            blown = False
            try:
                coupling, power, routing_change, power_change = (
                    self._round_resilient(it, crashed)
                )
            except Exception as exc:
                # A corrupted payload can crash a subproblem
                # outright; that is a divergence event, not a
                # run-killer.
                injector.record(
                    "round_error",
                    it,
                    "fleet",
                    f"{type(exc).__name__}: {exc}",
                )
                blown = True
                coupling_rel = power_rel = change_rel = math.nan
            if not blown:
                coupling_rel = coupling / arrival_scale
                power_rel = power / power_scale
                change_rel = max(
                    routing_change / arrival_scale,
                    power_change / power_scale,
                )
                coupling_hist.append(coupling_rel)
                power_hist.append(power_rel)
                metric = max(coupling_rel, power_rel)
                if not math.isfinite(metric) or not self._fleet_finite():
                    blown = True
                elif crashed:
                    # A half-fleet cannot be expected to
                    # contract; growth tracking resumes once
                    # everyone is back up.
                    growth_streak = 0
                    prev_metric = math.inf
                elif (
                    it > WATCHDOG_WARMUP
                    and metric > prev_metric * GROWTH_FACTOR
                ):
                    growth_streak += 1
                    prev_metric = metric
                else:
                    growth_streak = 0
                    prev_metric = metric
            if blown or growth_streak >= WATCHDOG_WINDOW:
                reason = (
                    "non-finite residual" if blown
                    else f"{growth_streak} consecutive growing rounds"
                )
                if restarts < MAX_RESTARTS:
                    restarts += 1
                    self._restore_fleet(checkpoint, restarts)
                    if hasattr(net, "reset_in_flight"):
                        net.reset_in_flight()
                    injector.record(
                        "watchdog_trip",
                        it,
                        "fleet",
                        f"{reason}; restart {restarts} from round "
                        f"{checkpoint['round']}, eps -> "
                        f"{self.frontends[0].eps:.3f}",
                    )
                    injector.record(
                        "checkpoint_restore", it, "fleet", "watchdog restart"
                    )
                    growth_streak = 0
                    prev_metric = math.inf
                    continue
                injector.record(
                    "watchdog_exhausted",
                    it,
                    "fleet",
                    f"{reason}; restart budget ({MAX_RESTARTS}) spent",
                )
                degraded = True
                break
            if growth_streak == 0 and it % CHECKPOINT_EVERY == 0:
                checkpoint = self._take_checkpoint(it)
            if not crashed and max(
                coupling_rel, power_rel, change_rel
            ) < self.solver.tol:
                converged = True
                break

        lam_scaled = np.vstack([fe.lam for fe in self.frontends])
        if not np.isfinite(lam_scaled).all():
            # Final state is poisoned: polish the last healthy
            # checkpoint instead of raising.
            lam_scaled = np.vstack([s["lam"] for s in checkpoint["frontends"]])
            injector.record(
                "degraded_completion",
                it,
                "fleet",
                f"polished round-{checkpoint['round']} checkpoint iterate",
            )
            degraded = True
        if not converged:
            degraded = True
        alloc = polish_allocation(
            self.problem.model,
            self.problem.inputs,
            lam_scaled * view.workload_scale,
            strategy=self.problem.strategy,
        )
        return DistributedRun(
            allocation=alloc,
            ufc=self.problem.ufc(alloc),
            iterations=it,
            converged=converged,
            messages_sent=net.messages_sent,
            floats_sent=net.floats_sent,
            coupling_residuals=coupling_hist,
            power_residuals=power_hist,
            bytes_sent=net.bytes_sent,
            degraded=degraded,
            retransmits=getattr(net, "retransmits", 0),
            sends_failed=getattr(net, "sends_failed", 0),
            checkpoint_restores=injector.counts.get("checkpoint_restore", 0),
            watchdog_trips=injector.counts.get("watchdog_trip", 0),
            fault_counts=injector.summary(),
            fault_events=tuple(injector.events),
        )
