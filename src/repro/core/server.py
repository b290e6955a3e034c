"""TreeServer facade: the public entry point for distributed training.

Partitions the data table's columns across workers with ``k``-way
replication, runs the submitted jobs through the master/worker protocol on
the selected **runtime backend**, and returns the trained models together
with paper-style run metrics.

Three backends (see ``repro.runtime`` and ``docs/RUNTIME.md``):

* ``"sim"`` (default) — the deterministic discrete-event simulator; time
  is simulated seconds, faults can strike at a simulated instant and
  the secondary master is available.
* ``"mp"`` — real OS processes exchanging the same typed messages over
  ``multiprocessing`` queues; time is wall-clock.  Bit-identical models
  to ``"sim"`` on the same inputs.
* ``"socket"`` — the same protocol over length-prefixed pickled frames
  on persistent TCP, for true multi-host runs (``repro worker``) with a
  loopback self-launch mode on one machine.  Bit-identical too.

Typical use::

    from repro import TreeServer, SystemConfig, random_forest_job

    server = TreeServer(SystemConfig(n_workers=8).scaled_to(table.n_rows))
    report = server.fit(table, [random_forest_job("rf", n_trees=20)])
    forest = report.forest("rf")

    real = TreeServer(SystemConfig(n_workers=4), backend="mp")
    report = real.fit(table, [random_forest_job("rf", n_trees=20)])
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.cost import CostModel
from ..cluster.metrics import ClusterReport
from .config import SystemConfig
from .jobs import TrainingJob
from .tasks import TaskCounters
from .tree import DecisionTree


@dataclass
class RunReport:
    """Everything a training run produced."""

    sim_seconds: float
    cluster: ClusterReport
    counters: TaskCounters
    models: dict[str, list[DecisionTree]] = field(default_factory=dict)
    #: The simulated machines, kept only when the run recorded timelines.
    machines: list | None = None
    #: Which runtime backend produced this report (one of
    #: ``repro.runtime.BACKENDS``).
    backend: str = "sim"
    #: Real elapsed seconds.  On the mp and socket backends this equals
    #: ``sim_seconds`` (there is no simulated clock there); on the sim
    #: backend it is how long the simulation itself took to run.
    wall_seconds: float = 0.0

    def utilization_curve(self, n_bins: int = 20) -> list[float]:
        """Busy cores per time bin (requires ``record_timeline=True``)."""
        if self.machines is None:
            raise ValueError(
                "run without timelines; pass record_timeline=True to fit()"
            )
        from ..cluster.metrics import utilization_curve

        return utilization_curve(self.machines, self.sim_seconds, n_bins)

    def trees(self, job_name: str) -> list[DecisionTree]:
        """Trained trees of one job."""
        return self.models[job_name]

    def tree(self, job_name: str) -> DecisionTree:
        """The single tree of a one-tree job."""
        trees = self.models[job_name]
        if len(trees) != 1:
            raise ValueError(
                f"job {job_name!r} trained {len(trees)} trees, expected 1"
            )
        return trees[0]

    def forest(self, job_name: str):
        """Trees of a job wrapped as a :class:`repro.ensemble.ForestModel`."""
        from ..ensemble.forest import ForestModel

        return ForestModel(self.models[job_name])


class TreeServer:
    """A TreeServer deployment ready to train tree models.

    ``backend`` selects the execution substrate: ``"sim"`` (default, the
    discrete-event simulator), ``"mp"`` (real worker processes) or
    ``"socket"`` (worker processes over TCP, possibly on other hosts).
    ``runtime_options`` tunes the process backends' timeouts, start
    method and socket rendezvous, and the fault plans and fault policy on
    any backend (the simulator ignores the process-only knobs).
    """

    def __init__(
        self,
        system: SystemConfig | None = None,
        cost: CostModel | None = None,
        backend: str = "sim",
        runtime_options=None,
    ) -> None:
        from ..runtime import BACKENDS

        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.system = system or SystemConfig()
        self.cost = cost or CostModel(
            ops_per_second=self.system.core_ops_per_second,
            bandwidth_bytes_per_second=self.system.bandwidth_bytes_per_second,
            latency_seconds=self.system.network_latency_seconds,
        )
        self.backend = backend
        self.runtime_options = runtime_options

    def fit(
        self,
        table,
        jobs: list[TrainingJob],
        max_events: int | None = None,
        secondary_master: bool = False,
        record_timeline: bool = False,
    ) -> RunReport:
        """Train all jobs on the table; returns models plus run metrics.

        ``secondary_master`` enables the Appendix-E hot standby, making a
        master crash (a ``FaultPlan`` on machine 0 in
        ``RuntimeOptions.faults``) survivable; ``record_timeline`` traces
        every executed work item so :meth:`RunReport.utilization_curve`
        can be used; ``max_events`` is a runaway guard.  All three are
        simulator-only features — the process backends reject them.
        """
        from ..runtime import create_runtime

        runtime = create_runtime(
            self.backend, self.system, self.cost, self.runtime_options
        )
        return runtime.fit(
            table,
            jobs,
            max_events=max_events,
            secondary_master=secondary_master,
            record_timeline=record_timeline,
        )
