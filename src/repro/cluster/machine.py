"""Simulated machines: multi-core execution and memory accounting.

A :class:`Machine` owns ``n_cores`` compers (the paper's computing threads).
Work items are submitted with an abstract op count; a free core runs the
item for ``ops / ops_per_second`` simulated seconds, otherwise the item
waits in a FIFO run queue — exactly the behaviour of the worker's
``B_task`` buffer drained by compers (paper Fig. 7).

Memory accounting tracks the bytes a worker holds for task data (gathered
``D_x`` tables, stored ``I_x`` row sets) on top of its resident data
columns; Table III's peak-memory-vs-``n_pool`` experiment reads these
numbers.

A :class:`Machine` is also the :class:`~repro.runtime.base.Host` an actor
runs on in the simulator: it sends through the cluster's network and
paces the master's dispatch pump on its own NIC.  Its counters are one
:class:`MachineStats` record, the one its network counts its sends and
receipts into.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from .simulation import SimulationEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cost import CostModel
    from .network import Network


@dataclass
class _WorkItem:
    ops: float
    fn: Callable[[], None]
    label: str


@dataclass
class MachineStats:
    """Every counter one machine keeps over a run, on every backend.

    The simulator's :class:`Machine` and each process backend's
    ``ProcessHost`` keep one; its actor and its send path increment it
    where the thing happens, a process worker ships it home whole in its
    ``WorkerStatsMsg``, and :func:`~repro.cluster.metrics.cluster_report`
    reduces a run's records to its :class:`ClusterReport`.  Each numeric
    field is a report key: it appears under that name in a process run's
    ``transport["per_worker"]`` entries and sums into ``transport``
    (``docs/RUNTIME.md`` tabulates units and increment sites).
    """

    #: Cores the machine computes on: the ceiling of its CPU rate.
    n_cores: int = 1
    busy_core_seconds: float = 0.0
    items_executed: int = 0
    ops_executed: float = 0.0
    queue_peak: int = 0
    mem_task_bytes: int = 0
    mem_task_peak: int = 0
    mem_base_bytes: int = 0
    messages_handled: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    #: Shared bytes consumed without pickling: the attached table image
    #: plus every arena slice copied out (process backends).
    shm_bytes_mapped: int = 0
    #: ``revoke_tree`` broadcasts the worker processed.
    revoked_trees_seen: int = 0
    #: ``row_response_shm`` descriptors dropped because the owning
    #: (crashed) worker's arena segment was already swept.
    stale_shm_drops: int = 0
    #: Wall seconds inside subtree builds, the slice of them spent
    #: gathering ``y`` / column values, and the nodes they built.
    subtree_kernel_s: float = 0.0
    subtree_gather_s: float = 0.0
    subtree_nodes_built: int = 0
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    ops_by_label: dict[str, float] = field(default_factory=dict)
    #: Optional per-item execution trace: (label, start, end).  Populated
    #: only when the machine's ``record_timeline`` flag is set.
    timeline: list[tuple[str, float, float]] = field(default_factory=list)

    def charge(self, ops: float, seconds: float, label: str) -> None:
        """Count one work item of ``ops`` taking ``seconds`` of a core."""
        self.busy_core_seconds += seconds
        self.ops_executed += ops
        self.ops_by_label[label] = self.ops_by_label.get(label, 0.0) + ops

    def count_send(self, kind: str, size: int) -> None:
        """Count one sent protocol message of ``size`` modelled bytes."""
        self.messages_sent += 1
        self.bytes_sent += size
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + size

    def utilization(self, elapsed: float) -> float:
        """Average core utilization in [0, 1] over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_core_seconds / (self.n_cores * elapsed))


class MemoryLedger:
    """Task-memory accounting, the same on every host.

    The clean-shutdown invariant — every worker returns to zero task
    bytes — is checked on every backend, so the simulated machine and the
    process host keep these books with this one implementation, in the
    host's :class:`MachineStats` (``stats``, a fresh one by default).
    """

    def __init__(
        self, machine_id: int, stats: MachineStats | None = None
    ) -> None:
        self.machine_id = machine_id
        self.stats = MachineStats() if stats is None else stats

    def set_base_memory(self, nbytes: int) -> None:
        """Record the resident bytes of loaded data columns."""
        self.stats.mem_base_bytes = int(nbytes)

    def alloc(self, nbytes: int) -> None:
        """Charge task memory (e.g. a stored ``I_x`` or gathered ``D_x``)."""
        if nbytes < 0:
            raise ValueError("cannot alloc negative bytes")
        self.stats.mem_task_bytes += int(nbytes)
        self.stats.mem_task_peak = max(
            self.stats.mem_task_peak, self.stats.mem_task_bytes
        )

    def free(self, nbytes: int) -> None:
        """Release previously charged task memory."""
        self.stats.mem_task_bytes -= int(nbytes)
        if self.stats.mem_task_bytes < 0:
            raise RuntimeError(
                f"machine {self.machine_id} freed more task memory than allocated"
            )


class Machine(MemoryLedger):
    """One simulated worker (or master) machine.

    As a host it sends on ``network`` and hands its actor ``cost``; a
    machine built without them still computes and accounts memory.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        machine_id: int,
        n_cores: int,
        ops_per_second: float,
        network: Network | None = None,
        cost: CostModel | None = None,
    ) -> None:
        if n_cores < 1:
            raise ValueError("machine needs at least one core")
        if ops_per_second <= 0:
            raise ValueError("ops_per_second must be positive")
        super().__init__(
            machine_id,
            None if network is None else network.stats[machine_id],
        )
        self.stats.n_cores = n_cores
        self._engine = engine
        self._network = network
        self.cost = cost
        self.ops_per_second = ops_per_second
        self._free_cores = n_cores
        self._queue: deque[_WorkItem] = deque()
        self._halted = False
        #: Record a (label, start, end) trace of every executed item —
        #: utilization-over-time analyses; off by default (memory).
        self.record_timeline = False

    # ------------------------------------------------------------------
    # compute
    # ------------------------------------------------------------------
    def execute(
        self, ops: float, fn: Callable[[], None], label: str = "task"
    ) -> None:
        """Run ``fn`` after ``ops`` worth of simulated compute on a core.

        ``fn`` fires at completion time; if all cores are busy the item
        queues FIFO.  ``label`` feeds the per-kind ops breakdown metric.
        """
        if ops < 0:
            raise ValueError("ops must be non-negative")
        if self._halted:
            return
        item = _WorkItem(ops=ops, fn=fn, label=label)
        if self._free_cores > 0:
            self._start(item)
        else:
            self._queue.append(item)
            self.stats.queue_peak = max(self.stats.queue_peak, len(self._queue))

    def _start(self, item: _WorkItem) -> None:
        self._free_cores -= 1
        duration = item.ops / self.ops_per_second
        self.stats.charge(item.ops, duration, item.label)
        if self.record_timeline:
            start = self._engine.now
            self.stats.timeline.append((item.label, start, start + duration))
        self._engine.schedule(duration, lambda: self._finish(item))

    def _finish(self, item: _WorkItem) -> None:
        self._free_cores += 1
        self.stats.items_executed += 1
        if not self._halted:
            item.fn()
        while self._free_cores > 0 and self._queue and not self._halted:
            self._start(self._queue.popleft())

    def halt(self) -> None:
        """Crash the machine: queued and future work is discarded."""
        self._halted = True
        self._queue.clear()

    @property
    def halted(self) -> bool:
        """Whether the machine has crashed."""
        return self._halted

    @property
    def n_cores(self) -> int:
        """Cores this machine computes on."""
        return self.stats.n_cores

    # ------------------------------------------------------------------
    # the rest of the host surface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Simulated seconds."""
        return self._engine.now

    def send(self, dst: int, kind: str, payload: Any, size: int) -> None:
        """Ride the simulated network (FIFO NIC + latency)."""
        self._network.send(self.machine_id, dst, kind, payload, size)

    def pace(
        self, dispatch_seconds: float, sent: bool, fn: Callable[[], None]
    ) -> None:
        """Run the next pump turn once the dispatch compute is done and,
        if it sent anything, once this machine's NIC has serialized it."""
        ready_at = self._engine.now + dispatch_seconds
        if sent:
            ready_at = max(
                self._network.sender_free_at(self.machine_id), ready_at
            )
        self._engine.schedule_at(ready_at, fn)
