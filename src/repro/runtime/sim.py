"""The discrete-event backend: the original simulated deployment.

This is the default runtime and the reference for the parity guarantee:
``ProcessRuntime`` must train bit-identical models.  Each actor's
:class:`~repro.runtime.base.Host` is its simulated
:class:`~repro.cluster.machine.Machine`, which sends over the per-NIC
:class:`~repro.cluster.network.Network`.  :class:`SimRuntime` does cluster
assembly, column placement, fault plans / secondary master, and the
run-end protocol invariants.
"""

from __future__ import annotations

import time
from typing import Callable

from ..cluster.machine import MachineStats
from ..cluster.network import Message
from ..cluster.topology import Actor, SimulatedCluster
from ..core.histogram import build_threshold_book
from ..core.jobs import TrainingJob
from ..core.load_balance import assign_columns_to_workers
from ..core.master import MasterActor, _TableInfo
from ..core.secondary import SecondaryMasterActor
from ..core.tasks import WorkerStatsMsg
from ..core.worker import WorkerActor
from ..data.table import DataTable
from .base import FaultPlan, Runtime, apply_fault_policy, finish_run

#: Simulated seconds between a machine's crash and its detection, standing
#: in for the heartbeat a real deployment would use.
DETECTION_DELAY_SECONDS = 0.05


class _MessageCounter:
    """An actor whose machine fails once it has handled the ``after``-th
    message of one of its fault plans, as its record counts them."""

    def __init__(
        self,
        actor: Actor,
        stats: MachineStats,
        plans: list[FaultPlan],
        fail: Callable[[FaultPlan, str], None],
    ) -> None:
        self.actor = actor
        self.stats = stats
        self.plans = plans
        self.fail = fail

    def handle_message(self, message: Message) -> None:
        self.actor.handle_message(message)
        handled = self.stats.messages_handled
        for plan in self.plans:
            if plan.fires(plan.worker, handled):
                self.fail(plan, f"after {handled} messages")


class SimRuntime(Runtime):
    """Training on the deterministic discrete-event simulator."""

    name = "sim"

    def _fit(
        self,
        table: DataTable,
        jobs: list[TrainingJob],
        *,
        max_events: int | None,
        secondary_master: bool,
        record_timeline: bool,
    ):
        """Run the full protocol on the simulator (see ``TreeServer.fit``).

        Fault plans (``options.faults``, else ``REPRO_FAULT``) halt their
        machine and mark it dead on the network; the failure is detected
        :data:`DETECTION_DELAY_SECONDS` later.  A dead master hands over
        to the standby, a dead worker goes through the fault policy.
        """
        from ..core.server import RunReport

        start = time.perf_counter()
        plans = self.options.faults or FaultPlan.from_env()
        cluster = SimulatedCluster(
            n_workers=self.system.n_workers,
            compers_per_worker=self.system.compers_per_worker,
            cost=self.cost,
            extra_machines=1 if secondary_master else 0,
        )
        for plan in plans:
            if plan.worker == cluster.MASTER and not secondary_master:
                raise ValueError("master failure needs secondary_master=True")
            if plan.worker > self.system.n_workers:
                raise ValueError(
                    f"fault plan {plan} names no machine of "
                    f"{self.system.n_workers} workers"
                )
        if record_timeline:
            for machine in cluster.machines:
                machine.record_timeline = True
        dead: list[int] = []
        failures = 0

        def register(machine_id: int, actor: Actor) -> None:
            counted = [
                plan
                for plan in plans
                if plan.worker == machine_id and plan.after is not None
            ]
            if counted:
                actor = _MessageCounter(
                    actor, cluster.machines[machine_id].stats, counted, fail
                )
            cluster.register(machine_id, actor)

        def fail(plan: FaultPlan, when: str) -> None:
            machine = cluster.machines[plan.worker]
            if machine.halted:
                return
            machine.halt()
            cluster.network.mark_dead(plan.worker)
            dead.append(plan.worker)
            what = "crash" if plan.kind == "crash" else "worker logic error"
            cluster.engine.schedule(
                DETECTION_DELAY_SECONDS,
                lambda: detect(plan.worker, f"injected {what} {when}"),
            )

        def detect(machine_id: int, detail: str) -> None:
            nonlocal failures
            if machine_id == cluster.MASTER:
                assert secondary is not None
                secondary.on_master_failure(set(dead))
                return
            failures += 1
            active = (
                secondary.promoted
                if secondary is not None and secondary.promoted
                else master
            )
            apply_fault_policy(
                self.options, active, machine_id, failures, detail=detail
            )

        worker_ids = cluster.worker_ids()
        placement = assign_columns_to_workers(
            table.n_columns, worker_ids, self.system.column_replication
        )
        # Hist-mode equi-depth thresholds: computed once, before any task,
        # and shared by every worker (empty when all jobs train exact).
        book = build_threshold_book(table, jobs)
        workers: list[WorkerActor] = []
        for wid in worker_ids:
            held = {c for c, ws in placement.items() if wid in ws}
            worker = WorkerActor(
                cluster.machines[wid], table, held, threshold_book=book
            )
            register(wid, worker)
            workers.append(worker)

        info = _TableInfo.of(table)
        secondary: SecondaryMasterActor | None = None
        if secondary_master:
            secondary_id = self.system.n_workers + 1
            secondary = SecondaryMasterActor(
                cluster.machines[secondary_id],
                info,
                jobs,
                self.system,
                placement,
            )
            cluster.register(secondary_id, secondary)
        master = MasterActor(
            cluster.machines[cluster.MASTER],
            info,
            jobs,
            self.system,
            placement,
            secondary_id=(secondary.machine_id if secondary else None),
        )
        register(cluster.MASTER, master)
        for plan in plans:
            if plan.at is not None:
                cluster.engine.schedule_at(
                    plan.at,
                    lambda plan=plan: fail(plan, f"at {plan.at} s"),
                )

        master.start()
        report = cluster.run(max_events=max_events)

        if secondary is not None and secondary.promoted is not None:
            master = secondary.promoted  # results live in the new master
        if not master.is_done():
            raise RuntimeError(
                "simulation drained but training is incomplete "
                f"({master.pool.completed_trees}/{master.pool.total_trees} trees)"
            )
        finish_run(
            master,
            {
                worker.worker_id: WorkerStatsMsg(
                    worker.worker_id,
                    worker.outstanding_state(),
                    worker.host.stats,
                )
                for worker in workers
                if not worker.host.halted  # crashed ones keep their state
            },
        )

        models = {job.name: master.trained_trees(job.name) for job in jobs}
        return RunReport(
            sim_seconds=report.elapsed_seconds,
            cluster=report,
            counters=master.counters,
            models=models,
            machines=cluster.machines if record_timeline else None,
            backend=self.name,
            wall_seconds=time.perf_counter() - start,
        )
