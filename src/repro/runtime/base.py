"""Runtime backends: the contract between the protocol and its substrate.

The TreeServer protocol (``core/master.py`` / ``core/worker.py``) is a set
of actors exchanging the typed messages of ``core/tasks.py``.  *Where*
those actors run and *how* the messages travel is the runtime's concern:

* a :class:`Host` is everything one actor needs from the machine it runs
  on — the simulator's :class:`~repro.cluster.machine.Machine`, or the
  :class:`~repro.runtime.process.ProcessHost` of one OS process;
* a :class:`Transport` moves one addressed message between the processes
  of a real run — one implementation,
  :class:`~repro.runtime.socket.SocketTransport`, rides length-prefixed
  pickled frames over persistent TCP for both ``mp`` (workers
  self-launched on this host) and ``socket`` (workers on any host); the
  simulator's hosts send through its discrete-event ``Network`` instead;
* a :class:`Runtime` owns a whole training run on one substrate and
  returns the same :class:`~repro.core.server.RunReport` either way.

``TreeServer(..., backend="sim" | "mp" | "socket")`` picks the runtime
through :func:`create_runtime`; the simulator stays the default.  All
backends run the identical master state machine, and because split
arbitration is ``min (score, column)`` and all per-node randomness
derives from ``(tree seed, node path)``, they produce bit-identical
models (pinned by ``tests/test_runtime_mp.py`` and
``tests/test_runtime_socket.py``).
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

from ..data.schema import ProblemKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..cluster.cost import CostModel
    from ..cluster.machine import MachineStats
    from ..core.config import SystemConfig
    from ..core.jobs import TrainingJob
    from ..core.master import MasterActor
    from ..core.server import RunReport
    from ..core.tasks import WorkerStatsMsg
    from ..data.table import DataTable

#: Names accepted by ``TreeServer(..., backend=...)`` / ``repro train --backend``.
BACKENDS = ("sim", "mp", "socket")

#: Accepted ``RuntimeOptions.fault_policy`` values.  ``fail_fast`` turns a
#: worker crash into a :class:`WorkerDiedError`; ``recover`` feeds it into
#: the master's replica-reassignment + tree-revocation path and keeps
#: training on the survivors.
FAULT_POLICIES = ("fail_fast", "recover")

#: Accepted :attr:`FaultPlan.kind` values.
FAULT_KINDS = ("crash", "raise")

#: The one fault-injection environment variable: a :class:`FaultPlan` in
#: its text form.  Only code that starts workers reads it — the
#: self-launching transport of ``mp`` and ``socket``, ``repro worker``
#: and the serving fleet.
FAULT_ENV = "REPRO_FAULT"


@runtime_checkable
class Host(Protocol):
    """Everything one actor needs from the machine it runs on.

    The simulator's :class:`~repro.cluster.machine.Machine` is a host; on
    the process backends each OS process builds one
    :class:`~repro.runtime.process.ProcessHost`.  ``docs/RUNTIME.md``
    tabulates what each member means on each.
    """

    machine_id: int
    cost: "CostModel"
    stats: "MachineStats"

    @property
    def halted(self) -> bool:
        """Whether the machine has crashed (its actor then does nothing)."""

    @property
    def now(self) -> float:
        """Seconds on this host's clock: simulated, or wall since start."""

    def send(self, dst: int, kind: str, payload: Any, size: int) -> None:
        """Send one protocol message from this machine to ``dst``."""

    def execute(
        self, ops: float, fn: Callable[[], None], label: str = "task"
    ) -> None:
        """Run ``fn`` once, after ``ops`` of compute (counted in ``stats``)."""

    def alloc(self, nbytes: int) -> None:
        """Charge task memory, tracking the peak."""

    def free(self, nbytes: int) -> None:
        """Release task memory; freeing more than was charged raises."""

    def set_base_memory(self, nbytes: int) -> None:
        """Record the resident bytes of loaded data columns."""

    def pace(
        self, dispatch_seconds: float, sent: bool, fn: Callable[[], None]
    ) -> None:
        """Queue the master's next pump turn ``fn`` after a dispatch that
        took ``dispatch_seconds`` and did or did not send; paced callbacks
        run FIFO, each to completion, so the pump never recurses."""


@runtime_checkable
class Transport(Protocol):
    """Moves one addressed protocol message between machines.

    ``send`` must preserve per-sender FIFO order towards each destination
    — the protocol's extra-trees retry path (task_delete immediately
    followed by a fresh column_plan to the same worker) relies on it.
    One TCP stream preserves its sender's order, and the master hub's
    relay keeps it (one reader thread per source, one writer queue per
    destination); the simulated network, which the simulator's hosts
    send through, serializes each sender's NIC FIFO.
    """

    def send(
        self, src: int, dst: int, kind: str, payload: Any, size_bytes: int
    ) -> None:
        """Deliver ``payload`` from machine ``src`` to machine ``dst``.

        Delivery may be deferred until :meth:`flush` — transports are
        allowed to coalesce several sends into one physical handoff, as
        long as per-sender FIFO order per destination is preserved.
        """
        ...  # pragma: no cover - protocol

    def flush(self) -> None:
        """Push out any coalesced-but-unsent messages (flush-on-idle).

        Event loops call this before blocking on their inbox; transports
        that deliver eagerly implement it as a no-op.
        """
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release transport resources (idempotent)."""
        ...  # pragma: no cover - protocol


class RuntimeBackendError(RuntimeError):
    """Base class of structured runtime-backend failures."""


class WorkerDiedError(RuntimeBackendError):
    """A worker process exited (or crashed) while training was in flight."""

    def __init__(self, worker_id: int, exitcode: int | None, detail: str = ""):
        self.worker_id = worker_id
        self.exitcode = exitcode
        message = (
            f"worker {worker_id} died mid-run "
            f"(exitcode={exitcode if exitcode is not None else 'unknown'})"
        )
        if detail:
            message += f": {detail}"
        super().__init__(message)


class MessageTimeoutError(RuntimeBackendError):
    """No protocol message arrived within the configured timeout."""

    def __init__(self, timeout_seconds: float, waiting_for: str):
        self.timeout_seconds = timeout_seconds
        super().__init__(
            f"no message for {timeout_seconds:.1f}s while waiting for "
            f"{waiting_for}; transport presumed wedged"
        )


@dataclass(frozen=True)
class FaultPlan:
    """One injected machine fault, for tests and CI.

    Machine ``worker`` (0 is the master, workers count from 1) fails
    either right after handling its ``after``-th message, on every
    backend, or at simulated instant ``at`` seconds, on ``sim`` only.
    ``kind="crash"`` hard-exits the process with no goodbye,
    ``kind="raise"`` raises an ordinary exception, which the worker ships
    home as ``worker_error``; on ``sim`` both halt the machine.  A master
    plan needs ``sim`` with ``secondary_master=True``.  The text form is
    ``kind:worker:after``, e.g. ``crash:2:6`` (:meth:`parse`);
    :data:`FAULT_ENV` holds a comma-separated list of them.
    """

    kind: str
    worker: int
    after: int | None = None
    at: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not isinstance(self.worker, int) or self.worker < 0:
            raise ValueError(f"fault worker must be >= 0, got {self.worker!r}")
        if (self.after is None) == (self.at is None):
            raise ValueError("a fault plan takes exactly one of after, at")
        if self.after is not None and not (
            isinstance(self.after, int) and self.after >= 1
        ):
            raise ValueError(f"fault after must be >= 1, got {self.after!r}")
        if self.at is not None and not self.at >= 0:
            raise ValueError(f"fault at must be >= 0 seconds, got {self.at!r}")

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """The plan written as ``kind:worker:after``."""
        try:
            kind, worker, after = text.split(":")
            return cls(kind, int(worker), int(after))
        except ValueError:
            raise ValueError(
                f"invalid fault plan {text!r}; expected 'kind:worker:after' "
                f"with kind one of {FAULT_KINDS}, worker >= 0 and after "
                f">= 1, e.g. 'crash:2:6'"
            ) from None

    @classmethod
    def from_env(cls) -> "tuple[FaultPlan, ...]":
        """The plans listed in :data:`FAULT_ENV` (none when it is unset)."""
        text = os.environ.get(FAULT_ENV)
        if not text:
            return ()
        try:
            return tuple(cls.parse(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"{FAULT_ENV}: {exc}") from None

    def fires(self, worker_id: int, handled: int) -> bool:
        """Whether the plan fails ``worker_id`` once it has handled
        ``handled`` messages."""
        return (
            worker_id == self.worker
            and self.after is not None
            and handled >= self.after
        )


def message_faults(plans: "tuple[FaultPlan, ...]") -> "tuple[FaultPlan, ...]":
    """``plans``, checked for code that can only count the messages of
    the worker processes it starts (mp, socket, the serving fleet)."""
    for plan in plans:
        if plan.at is not None or plan.worker == 0:
            raise ValueError(
                f"only the sim backend takes a master plan or an 'at' "
                f"plan, got {plan}"
            )
    return plans


@dataclass(frozen=True)
class RuntimeOptions:
    """Knobs of the runtime backends.

    Most fields concern only the process backends (``mp`` and
    ``socket``); the simulator honours ``faults``, ``fault_policy`` and
    ``max_worker_failures`` and ignores the rest.

    ``message_timeout_seconds`` bounds the silence the master-side driver
    tolerates between protocol messages before declaring the transport
    wedged.  ``start_method`` picks the ``multiprocessing`` context the
    workers are started with (``None`` = ``fork`` where available, else
    ``spawn`` — both are first-class; anything else the platform offers
    can be named explicitly).  ``faults`` are the :class:`FaultPlan` s a test injects,
    on any backend (when empty, the run reads :data:`FAULT_ENV`); a socket
    master in external mode (``listen`` set) starts no worker process and
    refuses them.

    Shared-memory data plane (``docs/RUNTIME.md``): ``use_shm`` places
    the table in one ``multiprocessing.shared_memory`` segment that
    workers map read-only instead of inheriting fork copies (and that
    ``spawn`` workers would otherwise receive as pickles), and routes
    large row-id sets through a pooled shm arena as tiny descriptors
    instead of pickled arrays.  How large is large, how many messages
    one frame may coalesce and how often an idle loop polls are
    module constants, not options: ``SHM_THRESHOLD_BYTES`` in
    ``core/worker.py``, ``COALESCE_MAX_MESSAGES`` and
    ``POLL_INTERVAL_SECONDS`` in ``runtime/process.py``.

    Fault policy, the same on every backend (:func:`apply_fault_policy`):
    ``fault_policy`` is ``"fail_fast"`` (the default: a worker failure
    raises :class:`WorkerDiedError`) or ``"recover"`` (the master
    reassigns the dead worker's columns to surviving replica holders,
    revokes the trees it was involved in, and retrains them on the
    survivors).  ``max_worker_failures`` caps how many worker failures a
    recovering run absorbs before giving up; recovery also requires every
    column of the dead worker to retain a live replica (``k >= 2``).

    Socket backend (``docs/RUNTIME.md``): ``listen`` is the
    ``host:port`` the master binds for worker rendezvous; ``None`` (the
    default, and the only value ``mp`` takes) self-launches the workers
    as local processes dialing in over loopback.  ``expected_hosts`` optionally pins the rendezvous
    roster — a worker whose handshake host id is not in the list is
    rejected.  ``rendezvous_timeout_seconds`` bounds how long the master
    waits for all workers to dial in.

    Nothing here configures a tree: what is trained, and how its splits
    are searched, is :class:`~repro.core.config.TreeConfig` alone.
    """

    message_timeout_seconds: float = 30.0
    start_method: str | None = None
    faults: tuple[FaultPlan, ...] = ()
    use_shm: bool = True
    fault_policy: str = "fail_fast"
    max_worker_failures: int = 1
    listen: str | None = None
    expected_hosts: tuple[str, ...] | None = None
    rendezvous_timeout_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.fault_policy not in FAULT_POLICIES:
            raise ValueError(
                f"unknown fault_policy {self.fault_policy!r}; expected one "
                f"of {FAULT_POLICIES}"
            )
        if self.max_worker_failures < 0:
            raise ValueError("max_worker_failures must be >= 0")
        if self.message_timeout_seconds <= 0:
            raise ValueError(
                f"message_timeout_seconds must be > 0, got "
                f"{self.message_timeout_seconds!r}"
            )
        if self.rendezvous_timeout_seconds <= 0:
            raise ValueError(
                f"rendezvous_timeout_seconds must be > 0, got "
                f"{self.rendezvous_timeout_seconds!r}"
            )
        if not isinstance(self.faults, tuple) or not all(
            isinstance(plan, FaultPlan) for plan in self.faults
        ):
            raise ValueError(
                f"faults must be a tuple of FaultPlan, got {self.faults!r}"
            )
        if self.faults and self.listen is not None:
            raise ValueError(
                "faults cannot be injected with listen set: an "
                "external-mode master starts no worker; set "
                f"{FAULT_ENV} for `repro worker` on the worker's "
                f"machine instead"
            )


class Runtime(abc.ABC):
    """One training substrate; ``fit`` runs the full protocol on it."""

    #: Backend name as accepted by ``TreeServer(..., backend=...)``.
    name: str = ""

    def __init__(
        self,
        system: "SystemConfig",
        cost: "CostModel",
        options: RuntimeOptions | None = None,
    ) -> None:
        self.system = system
        self.cost = cost
        self.options = options or RuntimeOptions()

    def fit(
        self,
        table: "DataTable",
        jobs: "list[TrainingJob]",
        *,
        max_events: int | None = None,
        secondary_master: bool = False,
        record_timeline: bool = False,
    ) -> "RunReport":
        """Train all jobs on the table; returns models plus run metrics.

        The keywords are simulator features (see ``TreeServer.fit``); the
        process backends reject them.
        """
        self.validate(table, jobs)
        return self._fit(
            table,
            jobs,
            max_events=max_events,
            secondary_master=secondary_master,
            record_timeline=record_timeline,
        )

    @abc.abstractmethod
    def _fit(
        self, table: "DataTable", jobs: "list[TrainingJob]", **features: Any
    ) -> "RunReport":
        """Run the protocol on validated inputs, given ``fit``'s keywords."""

    @staticmethod
    def validate(table: "DataTable", jobs: "list[TrainingJob]") -> None:
        """Shared admission checks, identical across backends."""
        if not jobs:
            raise ValueError("no jobs submitted")
        if table.n_rows < 1:
            raise ValueError("empty training table")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError("job names must be unique")
        # A criterion that does not fit the table fails here, before any
        # worker starts, not deep inside a scan.
        is_classification = table.problem is ProblemKind.CLASSIFICATION
        for job in jobs:
            for stage in job.stages:
                for request in stage.trees:
                    request.config.resolved_criterion(is_classification)


def finish_run(
    master: "MasterActor", workers: "dict[int, WorkerStatsMsg]"
) -> None:
    """The run-end invariants of every backend, then the plan-deque
    counters folded into the master's.

    ``workers`` maps each surviving worker to its end-of-run report: no
    task state may be left, no task byte held, and the load matrix must
    be back at zero.
    """
    for wid in sorted(workers):
        leftovers = {k: v for k, v in workers[wid].outstanding.items() if v}
        if leftovers:
            raise RuntimeError(f"worker {wid} leaked task state: {leftovers}")
        task_bytes = workers[wid].stats.mem_task_bytes
        if task_bytes != 0:
            raise RuntimeError(
                f"worker {wid} leaked {task_bytes} bytes of task memory"
            )
    if not master.matrix.is_zero():
        raise RuntimeError(
            f"load matrix did not return to zero: {master.matrix.snapshot()}"
        )
    master.counters.head_insertions = master.bplan.head_insertions
    master.counters.tail_insertions = master.bplan.tail_insertions
    master.counters.bplan_peak = max(
        master.counters.bplan_peak, master.bplan.peak_size
    )


def apply_fault_policy(
    options: RuntimeOptions,
    master: "MasterActor",
    worker: int,
    failures: int,
    exitcode: int | None = None,
    detail: str = "",
) -> None:
    """Apply the fault policy to the run's ``failures``-th worker failure.

    ``fail_fast`` — and any failure recovery cannot survive: more than
    ``max_worker_failures`` failures, or a column losing its last live
    replica — raises :class:`WorkerDiedError`.  Otherwise the dead worker
    goes through ``master.on_worker_crashed`` (replica reassignment + tree
    revocation) and training continues on the survivors.
    """
    if options.fault_policy == "fail_fast":
        raise WorkerDiedError(worker, exitcode, detail)
    if failures > options.max_worker_failures:
        raise WorkerDiedError(
            worker,
            exitcode,
            f"fault_policy='recover' exhausted: failure number {failures} "
            f"exceeds max_worker_failures={options.max_worker_failures}",
        )
    lost = sorted(
        col
        for col, holders in master.holders.items()
        if set(holders) == {worker}
    )
    if lost:
        raise WorkerDiedError(
            worker,
            exitcode,
            f"columns {lost} have no surviving replica "
            f"(column_replication too small for this crash)",
        )
    master.on_worker_crashed(worker)


def create_runtime(
    backend: str,
    system: "SystemConfig",
    cost: "CostModel",
    options: RuntimeOptions | None = None,
) -> Runtime:
    """Instantiate the runtime for a backend name (one of :data:`BACKENDS`)."""
    if backend == "sim":
        from .sim import SimRuntime

        return SimRuntime(system, cost, options)
    if backend == "mp":
        from .process import ProcessRuntime

        return ProcessRuntime(system, cost, options)
    if backend == "socket":
        from .socket import SocketRuntime

        return SocketRuntime(system, cost, options)
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {BACKENDS}"
    )
