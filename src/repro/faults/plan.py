"""Deterministic fault plans and per-slot fault injectors.

A :class:`FaultPlan` is a *replayable chaos scenario*: a plain
dict/JSON spec naming which faults to inject (message drop / delay /
duplication / corruption, agent crashes, network partitions) plus a
seed.  ``plan.injector(slot)`` derives an independent, deterministic
:class:`FaultInjector` for each horizon slot, so the same plan over
the same horizon reproduces the exact same fault sequence — chaos runs
are experiments, not dice rolls.

The injector is pure decision-making: it owns the RNG, the fault
schedule and the event/counter log, but never touches messages or
agent state itself.  The transport
(:class:`~repro.faults.network.FaultyNetwork`) and the runtime
(:class:`~repro.distributed.coordinator.DistributedRuntime`) consult
it and record what they did, which keeps the arithmetic of the solve
path free of any RNG when no plan is active.

This module imports nothing from the rest of the library so every
layer (transport, runtime, engine, CLI) can depend on it without
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

import numpy as np

__all__ = [
    "CrashSpec",
    "PartitionSpec",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
]

#: Fault kinds that land in the (bounded) event log; high-frequency
#: kinds (drop/delay/duplicate/corrupt/unreachable) are counted only.
LOGGED_KINDS = frozenset(
    {
        "crash",
        "revive",
        "checkpoint_restore",
        "watchdog_trip",
        "watchdog_exhausted",
        "send_failed",
        "partition",
        "degraded_completion",
        "round_error",
    }
)


@dataclass(frozen=True)
class CrashSpec:
    """Crash one agent for a contiguous span of rounds.

    Attributes:
        agent: agent id as the coordinator names them (``"fe3"``,
            ``"dc0"``).
        round: first round (1-based) the agent is down.
        revive_round: first round the agent is back up (restored from
            its last checkpoint); None means it never rejoins.
    """

    agent: str
    round: int
    revive_round: int | None = None

    def __post_init__(self) -> None:
        if self.round < 1:
            raise ValueError(f"crash round must be >= 1, got {self.round}")
        if self.revive_round is not None and self.revive_round <= self.round:
            raise ValueError(
                f"revive_round must exceed the crash round, got "
                f"{self.revive_round} <= {self.round}"
            )

    def down(self, round_: int) -> bool:
        """Whether the agent is down in ``round_``."""
        if round_ < self.round:
            return False
        return self.revive_round is None or round_ < self.revive_round


@dataclass(frozen=True)
class PartitionSpec:
    """Cut the listed agents off from everyone else for a round span.

    Links *within* the isolated set and *within* the rest of the fleet
    keep working; only traffic crossing the cut is lost.  Rounds are
    the half-open interval ``[start, stop)``.
    """

    start: int
    stop: int
    isolate: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.start < 1 or self.stop <= self.start:
            raise ValueError(
                f"partition needs 1 <= start < stop, got [{self.start}, {self.stop})"
            )
        if not self.isolate:
            raise ValueError("partition must isolate at least one agent")

    def cuts(self, sender: str, receiver: str, round_: int) -> bool:
        """Whether the link sender->receiver is severed in ``round_``."""
        if not self.start <= round_ < self.stop:
            return False
        return (sender in self.isolate) != (receiver in self.isolate)


@dataclass(frozen=True)
class FaultEvent:
    """One notable fault or recovery action (bounded log).

    Attributes:
        kind: event kind (one of :data:`LOGGED_KINDS`).
        round: ADM-G round the event happened in (0 = outside rounds).
        subject: the affected agent or link (``"dc0"``, ``"fe1->dc2"``).
        info: free-form detail for the report.
    """

    kind: str
    round: int
    subject: str
    info: str = ""


def _probability(spec: Mapping[str, Any], key: str, default: float = 0.0) -> float:
    value = float(spec.get(key, default))
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{key} must lie in [0, 1), got {value}")
    return value


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable chaos scenario.

    Build one from a dict/JSON spec with :meth:`from_spec` (also
    accepts a shipped scenario name via
    :mod:`repro.faults.scenarios`); :meth:`to_dict` round-trips it.

    Attributes:
        name: scenario name (for reports and metric labels).
        seed: base RNG seed; slot ``t`` uses ``default_rng((seed, t))``.
        drop_probability: per-transmission-attempt drop chance.
        delay_probability: chance a delivered message lands next round.
        duplicate_probability: chance of an extra delivered copy.
        corrupt_probability: chance a delivered payload is perturbed.
        corrupt_scale: multiplicative magnitude of a corruption.
        corrupt_nan_probability: chance a corruption is a NaN instead
            of a scale (exercises the divergence watchdog).
        crashes: agent crash/revive schedule.
        partitions: network partition schedule.
    """

    name: str = "custom"
    seed: int = 0
    drop_probability: float = 0.0
    delay_probability: float = 0.0
    duplicate_probability: float = 0.0
    corrupt_probability: float = 0.0
    corrupt_scale: float = 100.0
    corrupt_nan_probability: float = 0.0
    crashes: tuple[CrashSpec, ...] = ()
    partitions: tuple[PartitionSpec, ...] = ()

    @classmethod
    def from_spec(cls, spec: "FaultPlan | str | Mapping[str, Any]") -> "FaultPlan":
        """A plan from a spec dict, a shipped scenario name, or a plan."""
        if isinstance(spec, FaultPlan):
            return spec
        if isinstance(spec, str):
            from repro.faults.scenarios import scenario_spec

            return cls.from_spec(scenario_spec(spec))
        if not isinstance(spec, Mapping):
            raise TypeError(
                f"fault plan spec must be a dict, scenario name or FaultPlan, "
                f"got {type(spec).__name__!r}"
            )
        known = {
            "name", "seed", "drop_probability", "delay_probability",
            "duplicate_probability", "corrupt_probability", "corrupt_scale",
            "corrupt_nan_probability", "crashes", "partitions",
        }
        unknown = set(spec) - known
        if unknown:
            raise ValueError(
                f"unknown fault plan keys: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        crashes = tuple(
            c if isinstance(c, CrashSpec) else CrashSpec(
                agent=str(c["agent"]),
                round=int(c["round"]),
                revive_round=(
                    None if c.get("revive_round") is None
                    else int(c["revive_round"])
                ),
            )
            for c in spec.get("crashes", ())
        )
        partitions = tuple(
            p if isinstance(p, PartitionSpec) else PartitionSpec(
                start=int(p["start"]),
                stop=int(p["stop"]),
                isolate=tuple(str(a) for a in p["isolate"]),
            )
            for p in spec.get("partitions", ())
        )
        return cls(
            name=str(spec.get("name", "custom")),
            seed=int(spec.get("seed", 0)),
            drop_probability=_probability(spec, "drop_probability"),
            delay_probability=_probability(spec, "delay_probability"),
            duplicate_probability=_probability(spec, "duplicate_probability"),
            corrupt_probability=_probability(spec, "corrupt_probability"),
            corrupt_scale=float(spec.get("corrupt_scale", 100.0)),
            corrupt_nan_probability=_probability(spec, "corrupt_nan_probability"),
            crashes=crashes,
            partitions=partitions,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready spec that :meth:`from_spec` accepts back."""
        return {
            "name": self.name,
            "seed": self.seed,
            "drop_probability": self.drop_probability,
            "delay_probability": self.delay_probability,
            "duplicate_probability": self.duplicate_probability,
            "corrupt_probability": self.corrupt_probability,
            "corrupt_scale": self.corrupt_scale,
            "corrupt_nan_probability": self.corrupt_nan_probability,
            "crashes": [
                {
                    "agent": c.agent,
                    "round": c.round,
                    "revive_round": c.revive_round,
                }
                for c in self.crashes
            ],
            "partitions": [
                {"start": p.start, "stop": p.stop, "isolate": list(p.isolate)}
                for p in self.partitions
            ],
        }

    @property
    def message_faults_active(self) -> bool:
        """Whether any per-message fault can fire."""
        return any(
            p > 0
            for p in (
                self.drop_probability,
                self.delay_probability,
                self.duplicate_probability,
                self.corrupt_probability,
            )
        )

    def injector(self, slot: int = 0) -> "FaultInjector":
        """The deterministic injector for horizon slot ``slot``."""
        return FaultInjector(self, slot)


class FaultInjector:
    """Per-slot fault oracle: seeded decisions plus the fault ledger.

    One injector serves exactly one slot's run.  All randomness lives
    here; the transport and runtime ask (``attempt``, ``corrupts``,
    ``duplicates``, ``crashed``, ``cut``) and report what they did
    (``count``, ``record``), so the full fault history of a run is one
    object: :attr:`counts` (every fault, cheap) and :attr:`events`
    (notable faults, bounded by ``max_events``).
    """

    def __init__(self, plan: FaultPlan, slot: int = 0, max_events: int = 512) -> None:
        self.plan = plan
        self.slot = int(slot)
        self.max_events = int(max_events)
        self._rng = np.random.default_rng((plan.seed, self.slot))
        self.counts: dict[str, int] = {}
        self.events: list[FaultEvent] = []
        self.events_dropped = 0

    # -- ledger --------------------------------------------------------------

    def count(self, kind: str, amount: int = 1) -> None:
        """Bump the counter for ``kind``."""
        self.counts[kind] = self.counts.get(kind, 0) + amount

    def record(self, kind: str, round_: int, subject: str, info: str = "") -> None:
        """Count ``kind`` and, for notable kinds, log the event."""
        self.count(kind)
        if kind in LOGGED_KINDS:
            if len(self.events) < self.max_events:
                self.events.append(FaultEvent(kind, round_, subject, info))
            else:
                self.events_dropped += 1

    @property
    def faults_injected(self) -> int:
        """Total injected faults (drops, delays, corruptions, ...).

        Recovery actions (restores, watchdog trips) are bookkeeping,
        not injections, and are excluded.
        """
        injected = (
            "drop", "delay", "duplicate", "corrupt", "partition",
            "crash", "unreachable",
        )
        return sum(self.counts.get(k, 0) for k in injected)

    def summary(self) -> dict[str, int]:
        """A copy of the fault/recovery counters."""
        return dict(self.counts)

    # -- schedule queries (deterministic, no RNG) ----------------------------

    def crashed(self, agent: str, round_: int) -> bool:
        """Whether ``agent`` is down in ``round_``."""
        return any(
            c.agent == agent and c.down(round_) for c in self.plan.crashes
        )

    def crashed_agents(self, round_: int) -> frozenset[str]:
        """All agents down in ``round_``."""
        return frozenset(
            c.agent for c in self.plan.crashes if c.down(round_)
        )

    def cut(self, sender: str, receiver: str, round_: int) -> bool:
        """Whether a partition severs sender->receiver in ``round_``."""
        return any(p.cuts(sender, receiver, round_) for p in self.plan.partitions)

    # -- randomized per-message decisions ------------------------------------

    def attempt(self) -> str:
        """Fate of one transmission attempt: drop, delay or deliver."""
        plan = self.plan
        if plan.drop_probability and self._rng.random() < plan.drop_probability:
            return "drop"
        if plan.delay_probability and self._rng.random() < plan.delay_probability:
            return "delay"
        return "deliver"

    def corrupts(self) -> bool:
        """Whether this delivered payload gets perturbed."""
        p = self.plan.corrupt_probability
        return bool(p) and self._rng.random() < p

    def corrupt_value(self, value: float) -> float:
        """The perturbed payload value (possibly NaN)."""
        plan = self.plan
        if (
            plan.corrupt_nan_probability
            and self._rng.random() < plan.corrupt_nan_probability
        ):
            return float("nan")
        # A signed multiplicative blow-up: large enough to destabilize
        # the iteration, finite so only the growth watchdog sees it.
        factor = 1.0 + plan.corrupt_scale * (2.0 * self._rng.random() - 1.0)
        return float(value) * factor

    def duplicates(self) -> bool:
        """Whether this delivered message gets an extra copy."""
        p = self.plan.duplicate_probability
        return bool(p) and self._rng.random() < p

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)
