"""Real-machine stand-ins for the simulator surface the actors consume.

``MasterActor`` and ``WorkerActor`` talk to a small slice of
:class:`~repro.cluster.topology.SimulatedCluster`, and on the process
backends the same actor code runs against :class:`LocalCluster` instead.
The whole surface (``docs/RUNTIME.md`` keeps the inventory):

* ``cost``, ``n_workers`` / ``worker_ids()`` and ``send`` — sends go
  straight to the backing :class:`~repro.runtime.base.Transport`;
* ``machines[i].execute / alloc / free / set_base_memory / halted /
  stats`` — compute runs *immediately on the calling OS process* (the op
  estimate is kept for metrics), and memory accounting stays live because
  the clean-shutdown invariant — every worker returns to zero task bytes
  — is checked on the real backends too, via the run-end stats reports;
* ``engine.now / schedule_at / drain`` — ``schedule_at`` becomes a
  run-to-completion callback queue drained by the owning event loop, so
  the master's self-rescheduling dispatch pump drains ``B_plan`` without
  recursion and without simulated pacing;
* ``network.sender_free_at`` — a real NIC is never artificially busy.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from ..cluster.cost import CostModel
from ..cluster.machine import MachineStats
from .base import Transport


class ImmediateEngine:
    """Run-to-completion replacement for the simulation engine.

    ``schedule_at`` enqueues the callback and ignores the timestamp; the
    owner drains the queue after every delivered message.  ``now`` stays
    ``0.0`` — on the real backend, time is wall-clock and lives outside
    the protocol.
    """

    now = 0.0

    def __init__(self) -> None:
        self._pending: deque[Callable[[], None]] = deque()

    def schedule_at(self, when: float, fn: Callable[[], None]) -> None:
        """Queue ``fn``; ``when`` is meaningless off the simulator."""
        self._pending.append(fn)

    def drain(self) -> None:
        """Run queued callbacks until none remain (they may enqueue more)."""
        while self._pending:
            self._pending.popleft()()


class LocalNic:
    """Network stand-in: a real NIC is never artificially busy."""

    def sender_free_at(self, node: int) -> float:
        """The dispatch pump never waits on serialization here."""
        return 0.0


class LocalMachine:
    """A machine whose compute is the hosting OS process itself."""

    def __init__(self, machine_id: int) -> None:
        self.machine_id = machine_id
        self.stats = MachineStats()

    @property
    def halted(self) -> bool:
        """A live process is never halted; death is detected externally."""
        return False

    def execute(
        self, ops: float, fn: Callable[[], None], label: str = "task"
    ) -> None:
        """Run ``fn`` right now; keep the op estimate for metrics."""
        if ops < 0:
            raise ValueError("ops must be non-negative")
        self.stats.ops_executed += ops
        fn()

    def set_base_memory(self, nbytes: int) -> None:
        """Record resident column bytes (reported in worker stats)."""
        self.stats.mem_base_bytes = int(nbytes)

    def alloc(self, nbytes: int) -> None:
        """Charge task memory, tracking the peak."""
        if nbytes < 0:
            raise ValueError("cannot alloc negative bytes")
        self.stats.mem_task_bytes += int(nbytes)
        self.stats.mem_task_peak = max(
            self.stats.mem_task_peak, self.stats.mem_task_bytes
        )

    def free(self, nbytes: int) -> None:
        """Release task memory; going negative is a protocol bug."""
        self.stats.mem_task_bytes -= int(nbytes)
        if self.stats.mem_task_bytes < 0:
            raise RuntimeError(
                f"machine {self.machine_id} freed more task memory than "
                f"allocated"
            )


class LocalCluster:
    """Duck-typed ``SimulatedCluster`` facade over a real transport.

    One instance exists *per OS process*: the master's lives in the parent
    and owns the real :class:`ImmediateEngine` loop; each worker process
    builds its own around the shared queue fabric.  Only the machines
    hosted by this process accumulate meaningful stats.
    """

    def __init__(
        self, n_workers: int, cost: CostModel, transport: Transport
    ) -> None:
        self.cost = cost
        self.engine = ImmediateEngine()
        self.network = LocalNic()
        self._n_workers = n_workers
        self.machines = [LocalMachine(i) for i in range(n_workers + 1)]
        self._transport = transport
        # --- send-side metrics (per hosting process) -------------------
        self.messages_sent = 0
        self.bytes_by_kind: dict[str, int] = {}

    @property
    def n_workers(self) -> int:
        """Number of worker machines."""
        return self._n_workers

    def worker_ids(self) -> list[int]:
        """Machine ids of all workers (1-based, master is 0)."""
        return list(range(1, self._n_workers + 1))

    def send(
        self, src: int, dst: int, kind: str, payload: Any, size_bytes: int
    ) -> None:
        """Hand one protocol message to the transport."""
        self.messages_sent += 1
        self.bytes_by_kind[kind] = (
            self.bytes_by_kind.get(kind, 0) + size_bytes
        )
        self._transport.send(src, dst, kind, payload, size_bytes)
