"""Cluster assembly: engine + machines + network + actor dispatch.

A :class:`SimulatedCluster` wires one :class:`SimulationEngine`, ``n``
:class:`Machine` instances and a :class:`Network` together and routes
delivered messages to per-machine *actors* (objects with a
``handle_message(Message)`` method).  The TreeServer master and workers, and
the baselines' drivers, are all actors on this substrate; the TreeServer
actors see only their own :class:`Machine`, as their host.
"""

from __future__ import annotations

from typing import Protocol

from .cost import CostModel
from .machine import Machine
from .metrics import ClusterReport, collect_metrics
from .network import Message, Network
from .simulation import SimulationEngine


class Actor(Protocol):
    """Anything that can receive messages on a cluster machine."""

    def handle_message(self, message: Message) -> None:
        """Process one delivered message."""
        ...  # pragma: no cover - protocol


class SimulatedCluster:
    """The full simulated deployment.

    Machine 0 is conventionally the master (dedicated to task management —
    it never computes tasks itself, matching the paper), machines
    ``1..n_workers`` are workers.
    """

    MASTER = 0

    def __init__(
        self,
        n_workers: int,
        compers_per_worker: int,
        cost: CostModel | None = None,
        extra_machines: int = 0,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker machine")
        if extra_machines < 0:
            raise ValueError("extra_machines must be >= 0")
        self.cost = cost or CostModel()
        self.engine = SimulationEngine()
        self._n_workers = n_workers
        # machines: [master] + workers + extras (e.g. a secondary master).
        n_machines = n_workers + 1 + extra_machines
        self.network = Network(
            self.engine,
            n_machines,
            self.cost.bandwidth_bytes_per_second,
            self.cost.latency_seconds,
        )
        self.machines = [
            Machine(
                self.engine,
                machine_id=i,
                # Master-role machines get one core: they only run dispatch
                # and bookkeeping, never task computation.
                n_cores=(
                    1
                    if (i == self.MASTER or i > n_workers)
                    else compers_per_worker
                ),
                ops_per_second=self.cost.ops_per_second,
                network=self.network,
                cost=self.cost,
            )
            for i in range(n_machines)
        ]
        self._actors: dict[int, Actor] = {}
        self.network.on_deliver(self._dispatch)

    def worker_ids(self) -> list[int]:
        """Machine ids of all workers."""
        return list(range(1, self._n_workers + 1))

    def register(self, machine_id: int, actor: Actor) -> None:
        """Attach an actor to a machine."""
        self._actors[machine_id] = actor

    def _dispatch(self, message: Message) -> None:
        actor = self._actors.get(message.dst)
        if actor is None:
            raise RuntimeError(
                f"message {message.kind!r} delivered to machine "
                f"{message.dst} which has no actor"
            )
        actor.handle_message(message)

    def send(
        self, src: int, dst: int, kind: str, payload, size_bytes: int
    ) -> float:
        """Send a message between machines; returns delivery time."""
        return self.network.send(src, dst, kind, payload, size_bytes)

    def run(self, max_events: int | None = None) -> ClusterReport:
        """Drain the event queue and summarize metrics."""
        self.engine.run(max_events=max_events)
        return collect_metrics(
            elapsed=self.engine.now,
            machines=self.machines,
            network=self.network,
            master_id=self.MASTER,
            events_processed=self.engine.events_processed,
        )
