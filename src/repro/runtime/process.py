"""Process backends: the TreeServer protocol on real OS cores.

Machine 0 (the master) is the driver process: it runs the unmodified
:class:`~repro.core.master.MasterActor` state machine.  Machines
``1..n`` are worker processes, each owning its column shards and
running the unmodified :class:`~repro.core.worker.WorkerActor`.  Every
process hosts its one actor on a :class:`ProcessHost` and sends through
one :class:`QueueFabric`.

Both real backends ride one transport, the framed TCP hub of
:mod:`repro.runtime.socket`: ``backend="mp"`` is that transport in its
self-launch mode (workers are local processes that dial the driver over
loopback), and ``backend="socket"`` also lets the workers run on other
hosts (``RuntimeOptions.listen``).  This module holds what every process
of either backend runs: the host, the fabric, the worker event loop
(:func:`run_worker_loop`) and the driver event loop
(:class:`ProcessRuntime`).

The data plane is shared-memory first (``RuntimeOptions.use_shm``,
default on — see ``docs/RUNTIME.md``):

* the column table and ``Y`` live in one named shm segment
  (:class:`~repro.data.shm.SharedTableHandle`); workers map it as
  read-only views instead of inheriting fork copies, which also makes
  the ``spawn`` start method a first-class citizen — only a small handle
  is pickled to each child;
* large row-id sets (``I_xl`` / ``I_xr``) are parked in per-worker
  pooled arenas (:class:`~repro.data.shm.ShmArena`) and travel as
  :class:`~repro.data.shm.ShmSlice` descriptors between workers on one
  host;
* the :class:`QueueFabric` coalesces queued sends into one pickled blob
  per destination, flushed whenever an event loop goes idle, cutting
  per-message pickle + syscall overhead in message-dominated shapes.

Each worker starts from one :class:`~repro.core.tasks.WorkerWelcomeMsg`,
the record the rendezvous sends.  :func:`run_worker_loop` reads held
columns, cost model, threshold book, shm prefix and shm peers from it.
Three transport settings are module constants, because nothing runs
with another value: :data:`POLL_INTERVAL_SECONDS`,
:data:`COALESCE_MAX_MESSAGES` and ``core.worker.SHM_THRESHOLD_BYTES``.
Faults are injected for tests and CI by
:class:`~repro.runtime.base.FaultPlan` s (``RuntimeOptions.faults``,
else the ``REPRO_FAULT`` variable), which the transport reads when it
starts the workers and hands to each of them.

Failure semantics (the edges the simulator never has):

* **worker death** — the driver polls worker liveness whenever its inbox
  is quiet, and feeds a dead process (or a worker-side exception, which
  ships its traceback home first) to
  :func:`~repro.runtime.base.apply_fault_policy`, as the simulator does.
  Under ``fault_policy="fail_fast"`` (the default) it surfaces as a
  structured :class:`~repro.runtime.base.WorkerDiedError`, never a hang.
  Under ``fault_policy="recover"`` the policy instead feeds
  ``MasterActor.on_worker_crashed`` — replica reassignment + tree
  revocation — and the driver reaps the dead process, closes its link,
  and sweeps its shm arena segments so mid-run ``I_x`` slices are not
  leaked.  Stragglers the dead worker produced (or peers produced
  towards it) are fenced by the revoked-uid checks both actors already
  apply; a peer holding a shm descriptor into the swept arena drops it
  on ``FileNotFoundError`` (counted as ``stale_shm_drops``) because a
  vanished segment proves the owner died and the tagged tree is being
  revoked.  Recovery requires every column of the dead worker to retain
  a live replica (``k >= 2``) and gives up past ``max_worker_failures``
  crashes — both degrade to the structured ``WorkerDiedError``, never a
  hang;
* **wedged transport** — silence longer than
  ``RuntimeOptions.message_timeout_seconds`` raises
  :class:`~repro.runtime.base.MessageTimeoutError`;
* **orphaned worker** — a worker whose driver died reads EOF on its one
  connection and exits;
* **shutdown** — on success, error or KeyboardInterrupt alike, the links
  are closed, the workers joined (terminate → join → kill escalation)
  and every shared-memory segment of the run is unlinked: workers unlink
  their own arenas on clean exit, and the driver unlinks the table and
  sweeps any segment a crashed worker left behind, so nothing leaks into
  ``/dev/shm``.

Parity: split arbitration is ``min (score, column)`` over exact per-column
results and all randomness is derived from ``(tree seed, node path)``, so
which worker computes what (timing-dependent, load-balanced) never affects
the trained model — the forest is bit-identical to ``backend="sim"``,
with and without the shared-memory data plane.
"""

from __future__ import annotations

import contextlib
import pickle
import queue as queue_module
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import multiprocessing

from ..cluster.cost import CostModel
from ..cluster.machine import MemoryLedger
from ..cluster.metrics import cluster_report
from ..cluster.network import Message
from ..core.histogram import build_threshold_book
from ..core.jobs import TrainingJob
from ..core.load_balance import assign_columns_to_workers
from ..core.master import MasterActor, _TableInfo
from ..core.tasks import (
    MSG_SHUTDOWN,
    MSG_WORKER_ERROR,
    MSG_WORKER_STATS,
    ShutdownMsg,
    WorkerErrorMsg,
    WorkerStatsMsg,
    WorkerWelcomeMsg,
)
from ..data.shm import SharedTableHandle, ShmArena
from ..data.table import DataTable
from .base import (
    FaultPlan,
    MessageTimeoutError,
    Runtime,
    Transport,
    WorkerDiedError,
    apply_fault_policy,
    finish_run,
)

if TYPE_CHECKING:  # pragma: no cover - the socket module imports this one
    from .socket import SocketTransport

#: Exit code of an injected ``crash`` fault (distinguishable from crashes).
CRASH_EXITCODE = 71

#: How long an idle event loop — driver or worker — blocks on its inbox
#: before it checks worker liveness (driver) or its own self-sends
#: (worker).
POLL_INTERVAL_SECONDS = 0.05

#: Most protocol messages one frame carries before the fabric flushes
#: early; it flushes anyway whenever its event loop goes idle.
COALESCE_MAX_MESSAGES = 32


def resolve_start_method(requested: str | None) -> str:
    """Pick the ``multiprocessing`` start method, explicitly.

    ``fork`` is preferred where available (cheapest startup), ``spawn``
    is the first-class fallback (viable because the shm data plane ships
    handles, not tables).  An unavailable explicit request — or a
    platform offering neither — raises a clear error instead of silently
    deferring to whatever the platform default happens to be.
    """
    available = multiprocessing.get_all_start_methods()
    if requested is not None:
        if requested not in available:
            raise ValueError(
                f"start method {requested!r} is not available on this "
                f"platform (available: {available})"
            )
        return requested
    for method in ("fork", "spawn"):
        if method in available:
            return method
    raise RuntimeError(  # pragma: no cover - no known such platform
        f"no supported multiprocessing start method (available: {available})"
    )


@dataclass
class FabricStats:
    """What one process's :class:`QueueFabric` put on the wire."""

    #: Serialized bytes of every flushed batch.
    bytes_pickled: int = 0
    #: Flushes that carried more than one coalesced message.
    coalesced_batches: int = 0


class QueueFabric:
    """One process's send fabric: every destination behind one ``put``.

    Implements :class:`~repro.runtime.base.Transport` for whichever
    process holds it.  Sends are buffered per destination and handed to
    ``put(dst, blob)`` as one pickled blob — either when the buffer
    reaches :data:`COALESCE_MAX_MESSAGES` or when the owning event loop
    goes idle (:meth:`flush`).  ``put`` must keep one destination's blobs
    in order (a local inbox, one TCP stream and the driver's per-worker
    writer queue all do), and each blob preserves append order, which
    together give the per-sender FIFO the protocol requires.  Doing the
    pickling here also makes the serialized byte count an exact, free
    metric, kept in :attr:`stats`.
    """

    def __init__(
        self, n_machines: int, put: Callable[[int, bytes], None]
    ) -> None:
        self._put = put
        self._buffers: list[list[Message]] = [[] for _ in range(n_machines)]
        self.stats = FabricStats()

    def send(
        self, src: int, dst: int, kind: str, payload: Any, size_bytes: int
    ) -> None:
        """Buffer one message towards ``dst``; flush on a full batch."""
        self._buffers[dst].append(Message(src, dst, kind, payload, size_bytes))
        if len(self._buffers[dst]) >= COALESCE_MAX_MESSAGES:
            self._flush_dst(dst)

    def flush(self) -> None:
        """Push every buffered message out (the flush-on-idle rule)."""
        for dst, buffer in enumerate(self._buffers):
            if buffer:
                self._flush_dst(dst)

    def _flush_dst(self, dst: int) -> None:
        batch = self._buffers[dst]
        self._buffers[dst] = []
        blob = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        self.stats.bytes_pickled += len(blob)
        if len(batch) > 1:
            self.stats.coalesced_batches += 1
        self._put(dst, blob)


class ProcessHost(MemoryLedger):
    """The :class:`~repro.runtime.base.Host` of the one machine id an OS
    process hosts on the process backends.

    A live process is never halted: the driver detects death.  A real NIC
    is never artificially busy, so :meth:`pace` ignores the timing and
    queues the pump turn for the owning event loop's :meth:`drain`.  Its
    counters are one :class:`~repro.cluster.machine.MachineStats` record,
    like a simulated machine's, with one core: an OS process.
    """

    halted = False

    def __init__(
        self, machine_id: int, cost: CostModel, transport: Transport
    ) -> None:
        super().__init__(machine_id)
        self.cost = cost
        self._transport = transport
        self._started = time.monotonic()
        self._paced: deque[Callable[[], None]] = deque()

    @property
    def now(self) -> float:
        """Wall seconds since this host was built."""
        return time.monotonic() - self._started

    def send(self, dst: int, kind: str, payload: Any, size: int) -> None:
        """Count one protocol message and hand it to the transport."""
        self.stats.count_send(kind, size)
        self._transport.send(self.machine_id, dst, kind, payload, size)

    def execute(
        self, ops: float, fn: Callable[[], None], label: str = "task"
    ) -> None:
        """Run ``fn`` right now; count it at the cost model's estimate."""
        if ops < 0:
            raise ValueError("ops must be non-negative")
        self.stats.charge(ops, ops / self.cost.ops_per_second, label)
        fn()
        self.stats.items_executed += 1

    def pace(
        self, dispatch_seconds: float, sent: bool, fn: Callable[[], None]
    ) -> None:
        """Queue ``fn`` for the next :meth:`drain`, whatever the timing."""
        self._paced.append(fn)

    def drain(self) -> None:
        """Run paced callbacks until none remain (they may queue more)."""
        while self._paced:
            self._paced.popleft()()


def worker_error_message(worker_id: int, exc: BaseException) -> Message:
    """The ``worker_error`` a failing worker ships home (call while
    handling ``exc``: the traceback is the current one)."""
    error = WorkerErrorMsg(
        worker=worker_id,
        error=f"{type(exc).__name__}: {exc}",
        traceback=traceback.format_exc(),
    )
    return Message(worker_id, 0, MSG_WORKER_ERROR, error, 0)


@contextlib.contextmanager
def worker_table(
    table_ref: "DataTable | SharedTableHandle",
) -> Iterator[tuple[DataTable, int]]:
    """A started worker's table and the bytes it maps, for a ``with`` block.

    A :class:`SharedTableHandle` (shm data plane, either start method) is
    attached, and unmapped when the block ends; a table inherited under
    ``fork`` or pickled under ``spawn`` is used as is and maps nothing.
    """
    if not isinstance(table_ref, SharedTableHandle):
        yield table_ref, 0
        return
    table, attached = table_ref.attach()
    try:
        yield table, attached.nbytes
    finally:
        attached.close()


def run_worker_loop(
    worker_id: int,
    table: DataTable,
    welcome: WorkerWelcomeMsg,
    fabric: QueueFabric,
    next_messages: Callable[[], "Sequence[Message] | None"],
    crash: Callable[[], None],
    *,
    attached_nbytes: int,
    faults: tuple[FaultPlan, ...],
) -> None:
    """The worker event loop of the process backends.

    Builds the unmodified :class:`~repro.core.worker.WorkerActor` on a
    :class:`ProcessHost` over ``fabric``, configured by the start-up
    record ``welcome`` alone: held columns, cost model, threshold book,
    the shm prefix its arena is named under, and its shm peers — the
    workers the host map puts on its own host.  Then it pumps messages
    into the actor: flush the fabric whenever idle, answer the shutdown
    broadcast with a stats report and return.  What the substrates do
    per run comes in as two callables.  ``next_messages`` blocks for at
    most one poll interval and returns the next decoded batch, an empty
    one when nothing arrived, or ``None`` when the master is gone (we are
    orphaned: return quietly).  ``crash`` must not return — it
    is how the process leaves when a ``crash`` plan of ``faults`` fires on
    this worker, the hook behind the worker-death tests; a ``raise`` plan
    raises an ordinary exception instead, so the ``worker_error`` path
    (and its recovery) can be exercised end to end.  Any exception
    propagates: shipping it home is the caller's.
    """
    from ..core.worker import WorkerActor  # import here: cheap under fork

    own_host = welcome.host_map[worker_id]
    arena = None
    try:
        if welcome.shm_prefix is not None:
            arena = ShmArena(f"{welcome.shm_prefix}-w{worker_id}")
        host = ProcessHost(worker_id, welcome.cost, fabric)
        host.stats.shm_bytes_mapped = attached_nbytes
        actor = WorkerActor(
            host,
            table,
            set(welcome.held_columns),
            arena=arena,
            shm_peers=frozenset(
                wid
                for wid, peer_host in welcome.host_map.items()
                if wid != 0 and peer_host == own_host
            ),
            threshold_book=welcome.threshold_book,
        )
        pending: deque[Message] = deque()
        while True:
            if not pending:
                fabric.flush()  # idle: everything buffered goes out now
                batch = next_messages()
                if batch is None:
                    return  # orphaned; nothing useful left to do
                pending.extend(batch)
                continue
            message = pending.popleft()
            if isinstance(message.payload, ShutdownMsg):
                # Pickled when flushed, before the fabric counts the
                # flush: the records do not include their own trip home.
                stats = WorkerStatsMsg(
                    worker_id,
                    actor.outstanding_state(),
                    host.stats,
                    fabric.stats,
                )
                fabric.send(worker_id, 0, MSG_WORKER_STATS, stats, 0)
                fabric.flush()
                return
            host.stats.messages_handled += 1
            actor.handle_message(message)
            handled = host.stats.messages_handled
            for plan in faults:
                if plan.fires(worker_id, handled):
                    if plan.kind == "raise":
                        raise RuntimeError(
                            f"injected worker logic error after {handled} "
                            f"messages"
                        )
                    crash()
    finally:
        # Release the shm footprint: drop array references first so the
        # mmaps can actually unmap, then unlink what this process owns.
        actor = host = None  # noqa: F841
        if arena is not None:
            arena.close()


class ProcessRuntime(Runtime):
    """Training on real cores: one OS process per worker machine,
    self-launched on this host."""

    name = "mp"

    def _fit(self, table: DataTable, jobs: list[TrainingJob], **features):
        """Run the full protocol over real processes; see ``TreeServer.fit``."""
        # Imported here: the socket module builds on this one.
        from .socket import SocketTransport

        for feature, value in features.items():
            if value:
                raise ValueError(
                    f"{feature} is only supported on the sim backend"
                )
        if self.name == "mp" and self.options.listen is not None:
            raise ValueError(
                "backend='mp' starts its workers on this host and binds no "
                "address; use backend='socket' to listen for remote workers"
            )
        self._failures = 0
        start = time.perf_counter()
        placement = assign_columns_to_workers(
            table.n_columns,
            list(range(1, self.system.n_workers + 1)),
            self.system.column_replication,
        )
        # Hist-mode equi-depth thresholds: computed once on the driver,
        # before any worker starts, and shipped to every worker in its
        # start-up record.  Empty when every job trains exact.
        transport = SocketTransport(
            self.system.n_workers,
            table,
            placement,
            self.cost,
            self.options,
            threshold_book=build_threshold_book(table, jobs),
        )
        try:
            report = self._drive(table, jobs, placement, transport, start)
        finally:
            transport.shutdown()
        return report

    # ------------------------------------------------------------------
    def _drive(
        self,
        table: DataTable,
        jobs: list[TrainingJob],
        placement: dict[int, list[int]],
        transport: "SocketTransport",
        start: float,
    ):
        """Master-side event loop: pump plans out, fold results in."""
        from ..core.server import RunReport

        options = self.options
        host = ProcessHost(0, self.cost, transport)
        master = MasterActor(
            host, _TableInfo.of(table), jobs, self.system, placement
        )
        master.start()
        host.drain()

        live = set(range(1, self.system.n_workers + 1))
        last_message = time.monotonic()
        while not master.is_done():
            try:
                message = transport.recv_master(POLL_INTERVAL_SECONDS)
            except queue_module.Empty:
                if self._check_children(transport, master, host, live):
                    # Recovery just generated fresh traffic (revocations,
                    # re-planned tasks): restart the silence clock.
                    last_message = time.monotonic()
                if (
                    time.monotonic() - last_message
                    > options.message_timeout_seconds
                ):
                    raise MessageTimeoutError(
                        options.message_timeout_seconds,
                        f"task results "
                        f"({master.pool.completed_trees}/"
                        f"{master.pool.total_trees} trees done)",
                    )
                continue
            last_message = time.monotonic()
            payload = message.payload
            if isinstance(payload, WorkerErrorMsg):
                # A worker-side exception is a worker failure like any
                # other: under ``recover`` it takes the same
                # replica-reassignment + tree-revocation path as a hard
                # crash (the erroring process exits right after shipping
                # this message); under ``fail_fast`` it surfaces as a
                # structured error with the remote traceback attached.
                # An error from an already-recovered worker (liveness
                # poll won the race) is a straggler; drop it.
                if payload.worker in live:
                    self._recover_worker(
                        transport,
                        master,
                        host,
                        live,
                        payload.worker,
                        1,
                        detail=f"{payload.error}\n{payload.traceback}",
                    )
                continue
            host.stats.messages_handled += 1
            master.handle_message(message)
            host.drain()

        workers = self._collect_worker_stats(transport, host, live)
        finish_run(master, workers)
        wall = time.perf_counter() - start
        report = cluster_report(
            wall,
            {0: host.stats} | {wid: w.stats for wid, w in workers.items()},
            events_processed=host.stats.messages_handled,
            fabrics={0: transport.fabric.stats}
            | {wid: w.fabric for wid, w in workers.items()},
        )
        report.transport.update(
            shm=transport.shm_prefix is not None,
            start_method=transport.start_method,
            fault_policy=options.fault_policy,
            recovered_workers=master.counters.recovered_workers,
            revoked_trees=master.counters.revoked_trees,
        )
        models = {job.name: master.trained_trees(job.name) for job in jobs}
        return RunReport(
            sim_seconds=wall,
            cluster=report,
            counters=master.counters,
            models=models,
            backend=self.name,
            wall_seconds=wall,
        )

    # ------------------------------------------------------------------
    def _check_children(
        self,
        transport: "SocketTransport",
        master: MasterActor,
        host: ProcessHost,
        live: set[int],
    ) -> bool:
        """Liveness poll: apply the fault policy to any dead worker.

        Returns True when a crash was recovered from (the caller resets
        its silence clock).
        """
        dead = transport.dead_workers()
        if not dead:
            return False
        for wid, code in dead:
            self._recover_worker(transport, master, host, live, wid, code)
        return True

    def _recover_worker(
        self,
        transport: "SocketTransport",
        master: MasterActor,
        host: ProcessHost,
        live: set[int],
        wid: int,
        code: int,
        detail: str = "",
    ) -> None:
        """Apply the fault policy to one failed worker (crash or error);
        once it recovered, reap the worker and drop it from the live set."""
        self._failures += 1
        apply_fault_policy(
            self.options, master, wid, self._failures, code, detail
        )
        host.drain()
        transport.flush()
        transport.reap_worker(wid)
        live.discard(wid)

    # ------------------------------------------------------------------
    def _collect_worker_stats(
        self, transport: "SocketTransport", host: ProcessHost, live: set[int]
    ) -> dict[int, WorkerStatsMsg]:
        """Shutdown phase: every surviving worker reports stats, then exits.

        The broadcast goes out through the driver's ``host``, so its
        record counts every message the driver's fabric sends.
        """
        transport.begin_shutdown()
        for wid in sorted(live):
            host.send(wid, MSG_SHUTDOWN, ShutdownMsg(), 0)
        transport.flush()
        stats: dict[int, WorkerStatsMsg] = {}
        deadline = time.monotonic() + self.options.message_timeout_seconds
        while len(stats) < len(live):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                missing = sorted(live - set(stats))
                raise MessageTimeoutError(
                    self.options.message_timeout_seconds,
                    f"shutdown stats from workers {missing}",
                )
            try:
                message = transport.recv_master(
                    min(remaining, POLL_INTERVAL_SECONDS)
                )
            except queue_module.Empty:
                transport.check_alive(allow_clean_exit=True)
                continue
            payload = message.payload
            if isinstance(payload, WorkerErrorMsg):
                if payload.worker not in live:
                    continue  # straggler of an already-recovered worker
                raise WorkerDiedError(
                    payload.worker,
                    1,
                    f"{payload.error}\n{payload.traceback}",
                )
            if isinstance(payload, WorkerStatsMsg):
                stats[payload.worker] = payload
            # Anything else is a straggler of an already-resolved task
            # (cannot happen with a correct protocol, but must not wedge
            # the shutdown path); drop it.
        return stats
