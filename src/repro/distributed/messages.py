"""Typed messages and the simulated network.

One ADM-G iteration exchanges exactly two message waves (paper Fig. 2):

1. each front-end ``i`` sends each datacenter ``j`` a
   :class:`RoutingProposal` carrying its predicted routing
   ``lambda~_ij`` and the coupling dual ``varphi_ij`` the datacenter
   needs for its ``a``-minimization;
2. each datacenter ``j`` replies with a :class:`RoutingAssignment`
   carrying the predicted auxiliary routing ``a~_ij``.

Everything else (``mu``, ``nu``, ``phi`` and the corrections) is
computed from purely local state.  The network counts messages and
payload floats so tests can assert the paper's ``O(M N)``
per-iteration communication complexity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields

__all__ = [
    "Message",
    "RoutingProposal",
    "RoutingAssignment",
    "SimulatedNetwork",
    "LossyNetwork",
]


@dataclass(frozen=True)
class Message:
    """Base class for agent-to-agent messages.

    Attributes:
        sender: originating agent id (front-end or datacenter index,
            namespaced by the coordinator).
        receiver: destination agent id.
    """

    sender: str
    receiver: str

    def payload_floats(self) -> int:
        """Number of scalar payload values (for byte accounting)."""
        return sum(
            1
            for f in fields(self)
            if f.name not in ("sender", "receiver") and f.type in ("float", float)
        )


@dataclass(frozen=True)
class RoutingProposal(Message):
    """Front-end -> datacenter: predicted routing plus coupling dual.

    Attributes:
        lam: predicted ``lambda~_ij`` (scaled workload units).
        varphi: current coupling dual ``varphi_ij``.
    """

    lam: float = 0.0
    varphi: float = 0.0


@dataclass(frozen=True)
class RoutingAssignment(Message):
    """Datacenter -> front-end: predicted auxiliary routing ``a~_ij``."""

    a: float = 0.0


class SimulatedNetwork:
    """In-order, reliable message transport with accounting.

    Messages are queued per receiver and drained by the coordinator at
    round boundaries (a synchronous model: the paper's algorithm is a
    synchronous iterative scheme).
    """

    def __init__(self) -> None:
        self._queues: dict[str, deque[Message]] = {}
        self.messages_sent = 0
        self.floats_sent = 0

    def send(self, message: Message) -> None:
        """Enqueue ``message`` for its receiver."""
        self._queues.setdefault(message.receiver, deque()).append(message)
        self.messages_sent += 1
        self.floats_sent += message.payload_floats()

    def deliver(self, receiver: str) -> list[Message]:
        """Drain and return every message queued for ``receiver``."""
        queue = self._queues.get(receiver)
        if not queue:
            return []
        out = list(queue)
        queue.clear()
        return out

    @property
    def bytes_sent(self) -> int:
        """Payload bytes, at 8 bytes per float."""
        return 8 * self.floats_sent


class LossyNetwork(SimulatedNetwork):
    """A network that drops and duplicates messages.

    Senders use at-least-once delivery: a dropped message is
    retransmitted (timeout-driven in a real system) until it lands, so
    the synchronous round structure is preserved while the traffic
    bill grows.  Duplicates are delivered as extra copies; the agents'
    updates are idempotent per (iteration, pair) — a duplicated
    proposal or assignment just overwrites the same slot with the same
    value — so correctness is unaffected by design.

    Accounting is exactly-once per transmission attempt: every dropped
    attempt, the attempt that finally lands, and every duplicate copy
    each bill ``messages_sent``/``floats_sent`` (and therefore
    ``bytes_sent``) exactly once.  For a message dropped ``d`` times
    then delivered with one duplicate, the bill is ``d + 2`` messages.

    For a *budgeted* retry loop whose sends can fail (and simulated
    backoff accounting), see
    :class:`~repro.faults.network.FaultyNetwork`.

    Attributes:
        dropped_attempts: transmission attempts the network dropped,
            each of which triggered a retransmission.  (Not just first
            attempts: a message dropped three times counts three.)
        duplicates_delivered: extra copies delivered.
    """

    def __init__(
        self,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1), got {loss_probability}"
            )
        if not 0.0 <= duplicate_probability < 1.0:
            raise ValueError(
                f"duplicate probability must be in [0, 1), got "
                f"{duplicate_probability}"
            )
        super().__init__()
        self.loss_probability = float(loss_probability)
        self.duplicate_probability = float(duplicate_probability)
        self.dropped_attempts = 0
        self.duplicates_delivered = 0
        self._rng = __import__("numpy").random.default_rng(seed)

    def send(self, message: Message) -> None:
        # Retransmit until the copy lands (at-least-once).  Each
        # dropped attempt is billed exactly once here; the landing
        # copy is billed exactly once by super().send.
        while self._rng.random() < self.loss_probability:
            self.messages_sent += 1
            self.floats_sent += message.payload_floats()
            self.dropped_attempts += 1
        super().send(message)
        if self._rng.random() < self.duplicate_probability:
            super().send(message)
            self.duplicates_delivered += 1
