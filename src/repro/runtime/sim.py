"""The discrete-event backend: the original simulated deployment.

This is the default runtime and the reference for the parity guarantee:
``ProcessRuntime`` must train bit-identical models.  Each actor's
:class:`~repro.runtime.base.Host` is its simulated
:class:`~repro.cluster.machine.Machine`, which sends over the per-NIC
:class:`~repro.cluster.network.Network`.  :class:`SimRuntime` does cluster
assembly, column placement, optional fault injection / secondary master,
and the run-end protocol invariants.
"""

from __future__ import annotations

from typing import Any

from ..cluster.cost import CostModel
from ..cluster.faults import CrashPlan, FaultInjector
from ..cluster.topology import SimulatedCluster
from ..core.config import SystemConfig
from ..core.histogram import build_threshold_book
from ..core.jobs import TrainingJob
from ..core.load_balance import assign_columns_to_workers
from ..core.master import MasterActor, _TableInfo
from ..core.secondary import SecondaryMasterActor
from ..core.worker import WorkerActor
from ..data.table import DataTable
from .base import Runtime, RuntimeOptions, WorkerDiedError, finish_run


class SimRuntime(Runtime):
    """Training on the deterministic discrete-event simulator."""

    name = "sim"

    def __init__(
        self,
        system: SystemConfig,
        cost: CostModel,
        options: RuntimeOptions | None = None,
    ) -> None:
        super().__init__(system, cost)
        self.options = options or RuntimeOptions()

    def fit(
        self,
        table: DataTable,
        jobs: list[TrainingJob],
        crash_plans: list[CrashPlan] | None = None,
        max_events: int | None = None,
        secondary_master: bool = False,
        record_timeline: bool = False,
        **_: Any,
    ):
        """Run the full protocol on the simulator (see ``TreeServer.fit``)."""
        import time

        from ..core.server import RunReport

        start = time.perf_counter()
        self.validate(table, jobs)
        if self.options.fault is not None:
            raise ValueError(
                "RuntimeOptions.fault needs a process backend (mp or "
                "socket); the simulator injects crashes with crash_plans"
            )
        cluster = SimulatedCluster(
            n_workers=self.system.n_workers,
            compers_per_worker=self.system.compers_per_worker,
            cost=self.cost,
            extra_machines=1 if secondary_master else 0,
        )
        if record_timeline:
            for machine in cluster.machines:
                machine.record_timeline = True
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
            cluster.register(wid, worker)
            workers.append(worker)

        info = _TableInfo.of(table)
        secondary: SecondaryMasterActor | None = None
        if secondary_master:
            secondary_id = self.system.n_workers + 1
            secondary = SecondaryMasterActor(
                cluster,
                secondary_id,
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
        cluster.register(cluster.MASTER, master)

        if crash_plans:
            injector = FaultInjector(
                cluster.engine, cluster.machines, cluster.network
            )
            fault_policy = self.options.resolved_fault_policy(self.name)

            def on_failure(machine_id: int) -> None:
                if machine_id == cluster.MASTER:
                    assert secondary is not None
                    secondary.on_master_failure()
                    return
                if fault_policy == "fail_fast":
                    raise WorkerDiedError(
                        machine_id,
                        None,
                        "fault_policy='fail_fast' treats the injected crash "
                        "as fatal (pass fault_policy='recover' to retrain "
                        "on survivors)",
                    )
                active = (
                    secondary.promoted
                    if secondary is not None and secondary.promoted
                    else master
                )
                if active.halted:
                    # The master died before this worker-crash was
                    # detected; the upcoming failover rebuilds its state
                    # from live workers only, so nothing to do here.
                    return
                active.on_worker_crashed(machine_id)

            injector.on_failure_detected(on_failure)
            for plan in crash_plans:
                if plan.machine_id == cluster.MASTER and not secondary_master:
                    raise ValueError(
                        "master failure needs secondary_master=True"
                    )
                injector.schedule_crash(plan)

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
                worker.worker_id: (
                    worker.outstanding_state(),
                    worker.host.stats.mem_task_bytes,
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
