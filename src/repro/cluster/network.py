"""Point-to-point message network with per-NIC bandwidth contention.

Models the paper's "Task Comm." (master <-> workers) and "Data Comm."
(worker <-> worker) channels (Fig. 6) over a shared-medium NIC per machine:
each machine serializes outgoing messages FIFO at its link bandwidth, then
the message arrives after a propagation latency.  This is the model under
which the paper's horizontal-scalability bottleneck appears — Table VI shows
the master-free data plane saturating worker NICs near 941 Mbps while the
master's own send channel stays small (because plans carry no row ids).

Local sends (``src == dst``) are free: the paper skips communication when
the requested data is local.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .machine import MachineStats
from .simulation import SimulationEngine


@dataclass
class Message:
    """One message on the wire."""

    src: int
    dst: int
    kind: str
    payload: Any
    size_bytes: int


class DeadMachineError(RuntimeError):
    """Raised when sending from a crashed machine (fault-injection tests)."""


class Network:
    """Per-sender FIFO serialization + fixed latency delivery."""

    def __init__(
        self,
        engine: SimulationEngine,
        n_nodes: int,
        bandwidth_bytes_per_second: float,
        latency_seconds: float,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("network needs at least one node")
        self._engine = engine
        self._bandwidth = bandwidth_bytes_per_second
        self._latency = latency_seconds
        self._sender_free_at = [0.0] * n_nodes
        self._deliver: Callable[[Message], None] | None = None
        self._dead = [False] * n_nodes
        #: Each node's counter record (its :class:`Machine` keeps it): the
        #: wire counts sends and receipts into it.
        self.stats = [MachineStats() for _ in range(n_nodes)]
        self.messages_dropped = 0

    def on_deliver(self, handler: Callable[[Message], None]) -> None:
        """Install the delivery callback (the cluster's actor dispatch)."""
        self._deliver = handler

    def mark_dead(self, node: int) -> None:
        """Crash a machine: future sends from/to it fail or are dropped."""
        self._dead[node] = True

    def is_dead(self, node: int) -> bool:
        """Whether a machine has been crashed."""
        return self._dead[node]

    def sender_free_at(self, node: int) -> float:
        """When the node's send channel next becomes idle.

        The master's dispatch loop uses this to pace plan assignment —
        which is what makes the B_plan deque actually queue up and the
        BFS/DFS ordering matter, as in the real system.
        """
        return max(self._engine.now, self._sender_free_at[node])

    def send(
        self, src: int, dst: int, kind: str, payload: Any, size_bytes: int
    ) -> float:
        """Enqueue a message; returns its delivery time.

        Charges serialization on the sender's NIC unless ``src == dst``.
        Messages to a crashed machine are silently dropped (the sender
        cannot know); sending *from* a crashed machine raises, because the
        engine must never execute logic on a dead worker.
        """
        if self._deliver is None:
            raise RuntimeError("network has no delivery handler installed")
        if self._dead[src]:
            raise DeadMachineError(f"machine {src} is dead and cannot send")
        if size_bytes < 0:
            raise ValueError("message size must be non-negative")

        message = Message(src, dst, kind, payload, size_bytes)
        now = self._engine.now
        if src == dst:
            deliver_at = now
        else:
            start = max(now, self._sender_free_at[src])
            serialize = size_bytes / self._bandwidth
            self._sender_free_at[src] = start + serialize
            self.stats[src].count_send(kind, size_bytes)
            deliver_at = start + serialize + self._latency

        if self._dead[dst]:
            self.messages_dropped += 1
            return deliver_at
        if src != dst:
            self.stats[dst].bytes_received += size_bytes

        def fire() -> None:
            if self._dead[dst]:
                self.messages_dropped += 1
                return
            assert self._deliver is not None
            self._deliver(message)

        self._engine.schedule_at(deliver_at, fire)
        return deliver_at
