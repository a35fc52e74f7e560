"""A fault-injected transport with a budgeted retransmit loop.

:class:`FaultyNetwork` extends the reliable
:class:`~repro.distributed.messages.SimulatedNetwork` with the fault
taxonomy of a :class:`~repro.faults.plan.FaultInjector`: per-attempt
drops retried under a budget of :data:`RETRANSMIT_ATTEMPTS` attempts
(exponential backoff is *accounted* in ``simulated_backoff_s``, never
slept, so chaos runs stay fast and deterministic),
one-round delivery delays, payload corruption and duplication, and
partition cuts.  Every attempt — dropped, delayed, duplicated or
landed — bills the message/float/byte counters exactly once, matching
the audited :class:`~repro.distributed.messages.LossyNetwork`
semantics.

Unlike ``LossyNetwork``'s unbudgeted resend loop, a send here can
*fail*: after :data:`RETRANSMIT_ATTEMPTS` drops (or on a partition
cut, which no retry can cross) the coordinator is told so and the
receiver proceeds on its stale view of that pair.
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.distributed.messages import Message, SimulatedNetwork
from repro.faults.plan import FaultInjector

__all__ = ["FaultyNetwork"]

#: Total transmission attempts per message, first try included.
RETRANSMIT_ATTEMPTS = 4
#: Simulated wait before the first retransmission, in seconds; each
#: further retry waits ``RETRANSMIT_BACKOFF_FACTOR`` times longer.
RETRANSMIT_BACKOFF_S = 0.05
RETRANSMIT_BACKOFF_FACTOR = 2.0


def _corrupt_payload(message: Message, injector: FaultInjector) -> Message:
    """A copy of ``message`` with every float payload field perturbed."""
    changes = {
        f.name: injector.corrupt_value(getattr(message, f.name))
        for f in dataclasses.fields(message)
        if f.name not in ("sender", "receiver") and f.type in ("float", float)
    }
    return dataclasses.replace(message, **changes)


class FaultyNetwork(SimulatedNetwork):
    """Transport that consults a fault injector on every attempt.

    Attributes:
        round: current ADM-G round (the coordinator advances it).
        retransmits: dropped attempts that were retried within budget.
        sends_failed: sends abandoned (budget exhausted or partition).
        duplicates_delivered: extra copies delivered.
        corruptions: delivered payloads that were perturbed.
        delayed_delivered: messages that landed one round late.
        simulated_backoff_s: summed virtual backoff wait (never slept).
    """

    def __init__(self, injector: FaultInjector) -> None:
        super().__init__()
        self.injector = injector
        self.round = 0
        self.retransmits = 0
        self.sends_failed = 0
        self.duplicates_delivered = 0
        self.corruptions = 0
        self.delayed_delivered = 0
        self.simulated_backoff_s = 0.0
        self._delayed: list[Message] = []

    def advance_round(self, round_: int) -> int:
        """Start ``round_``: deliver last round's delayed messages.

        Returns:
            how many straggler messages landed at the round boundary.
        """
        self.round = int(round_)
        stragglers = len(self._delayed)
        for message in self._delayed:
            self._enqueue(message)
        self._delayed.clear()
        self.delayed_delivered += stragglers
        return stragglers

    def reset_in_flight(self) -> int:
        """Drop every queued/delayed message (watchdog restart).

        A restart rewinds the fleet to a checkpointed state; in-flight
        traffic belongs to the abandoned trajectory and must not leak
        into the restarted one.
        """
        dropped = len(self._delayed) + sum(len(q) for q in self._queues.values())
        self._delayed.clear()
        self._queues.clear()
        return dropped

    def _enqueue(self, message: Message) -> None:
        """Place a message in its receiver's queue (no accounting)."""
        self._queues.setdefault(message.receiver, deque()).append(message)

    def _bill(self, message: Message) -> None:
        self.messages_sent += 1
        self.floats_sent += message.payload_floats()

    def send(self, message: Message) -> bool:  # type: ignore[override]
        """Transmit with the retry budget; False when the send failed."""
        injector = self.injector
        link = f"{message.sender}->{message.receiver}"
        if injector.cut(message.sender, message.receiver, self.round):
            # A partition is not a lossy link: no number of retries
            # crosses it, so bill one attempt and give up immediately.
            self._bill(message)
            injector.record("partition", self.round, link)
            self.sends_failed += 1
            return False
        backoff = RETRANSMIT_BACKOFF_S
        for attempt in range(1, RETRANSMIT_ATTEMPTS + 1):
            self._bill(message)
            fate = injector.attempt()
            if fate == "drop":
                injector.count("drop")
                if attempt < RETRANSMIT_ATTEMPTS:
                    self.retransmits += 1
                    self.simulated_backoff_s += backoff
                    backoff *= RETRANSMIT_BACKOFF_FACTOR
                continue
            delivered = message
            if injector.corrupts():
                delivered = _corrupt_payload(message, injector)
                injector.count("corrupt")
                self.corruptions += 1
            if fate == "delay":
                injector.count("delay")
                self._delayed.append(delivered)
            else:
                self._enqueue(delivered)
                if injector.duplicates():
                    self._bill(delivered)
                    self._enqueue(delivered)
                    injector.count("duplicate")
                    self.duplicates_delivered += 1
            return True
        injector.record(
            "send_failed",
            self.round,
            link,
            f"budget of {RETRANSMIT_ATTEMPTS} attempts exhausted",
        )
        self.sends_failed += 1
        return False
