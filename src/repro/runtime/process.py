"""Multiprocess backend: the TreeServer protocol on real OS cores.

Topology is a star of ``multiprocessing`` queues — one inbox per machine
id, every process holding every inbox — so workers exchange row ids and
column data **peer to peer**, exactly like the simulated data plane
(Section V: the master never relays row ids).  Machine 0 (the master) is
the parent process: it runs the unmodified
:class:`~repro.core.master.MasterActor` state machine; machines ``1..n``
are child processes each owning their column shards and running the
unmodified :class:`~repro.core.worker.WorkerActor`.  Every process hosts
its one actor on a :class:`ProcessHost`.

The data plane is shared-memory first (``RuntimeOptions.use_shm``,
default on — see ``docs/RUNTIME.md``):

* the column table and ``Y`` live in named shm segments
  (:class:`~repro.data.shm.SharedTableHandle`); workers map them as
  read-only views instead of inheriting fork copies, which also makes
  the ``spawn`` start method a first-class citizen — only a small handle
  is pickled to each child;
* large row-id sets (``I_xl`` / ``I_xr``) are parked in per-worker
  pooled arenas (:class:`~repro.data.shm.ShmArena`) and cross the
  queues as :class:`~repro.data.shm.ShmSlice` descriptors, with the
  master still out of the relay path;
* the :class:`QueueFabric` coalesces queued sends into one pickled blob
  per destination, flushed whenever an event loop goes idle, cutting
  per-message pickle + syscall overhead in message-dominated shapes.

The worker pool — spawning, liveness, reaping, the terminate → join →
kill escalation, the table's shm image and the run-prefix sweep — is
:class:`WorkerPool`, which the socket backend's transport extends as
well; :class:`ProcessTransport` adds only the queues.  Faults are
injected for tests and CI by one :class:`~repro.runtime.base.FaultPlan`
(``RuntimeOptions.fault``, else the ``REPRO_FAULT`` variable), which the
pool reads when it starts the workers and hands to each of them.

Failure semantics (the edges the simulator never has):

* **worker death** — the driver polls child liveness whenever its inbox is
  quiet.  Under ``fault_policy="fail_fast"`` (the mp default) a dead
  process (and a worker-side exception, which ships its traceback home
  first) surfaces as a structured
  :class:`~repro.runtime.base.WorkerDiedError`, never a hang.  Under
  ``fault_policy="recover"`` the driver instead feeds
  ``MasterActor.on_worker_crashed`` — the same replica-reassignment +
  tree-revocation path the simulator exercises — then reaps the dead
  process, drains its now-ownerless inbox, and sweeps its shm arena
  segments so mid-run ``I_x`` slices are not leaked.  Stragglers the dead
  worker produced (or peers produced towards it) are fenced by the
  revoked-uid checks both actors already apply; a peer holding a shm
  descriptor into the swept arena drops it on ``FileNotFoundError``
  (counted as ``stale_shm_drops``) because a vanished segment proves the
  owner died and the tagged tree is being revoked.  Recovery requires
  every column of the dead worker to retain a live replica (``k >= 2``)
  and gives up past ``max_worker_failures`` crashes — both degrade to
  the structured ``WorkerDiedError``, never a hang;
* **wedged transport** — silence longer than
  ``RuntimeOptions.message_timeout_seconds`` raises
  :class:`~repro.runtime.base.MessageTimeoutError`;
* **shutdown** — on success, error or KeyboardInterrupt alike, the pool is
  drained and joined (terminate → join → kill escalation) and every
  shared-memory segment of the run is unlinked: workers unlink their own
  arenas on clean exit, and the parent unlinks the table and sweeps any
  segment a crashed worker left behind, so nothing leaks into
  ``/dev/shm``.

Parity: split arbitration is ``min (score, column)`` over exact per-column
results and all randomness is derived from ``(tree seed, node path)``, so
which worker computes what (timing-dependent, load-balanced) never affects
the trained model — the forest is bit-identical to ``backend="sim"``,
with and without the shared-memory data plane.
"""

from __future__ import annotations

import abc
import contextlib
import os
import pickle
import queue as queue_module
import time
import traceback
from collections import deque
from typing import Any, Callable, Iterator, Sequence

import multiprocessing

from ..cluster.cost import CostModel
from ..cluster.machine import MemoryLedger
from ..cluster.metrics import ClusterReport, MachineReport
from ..cluster.network import Message
from ..core.config import SystemConfig
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
)
from ..data.shm import (
    SharedTableHandle,
    ShmArena,
    list_segments,
    new_run_prefix,
    unlink_segments,
)
from ..data.table import DataTable
from .base import (
    FaultPlan,
    MessageTimeoutError,
    Runtime,
    RuntimeOptions,
    Transport,
    WorkerDiedError,
    finish_run,
)
from .signals import stop_processes

#: Exit code of an injected ``crash`` fault (distinguishable from crashes).
CRASH_EXITCODE = 71


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


def _decode(obj: Any) -> list[Message]:
    """Inbox object -> protocol messages.

    The fabric ships pickled batches (``bytes``); a raw :class:`Message`
    is also accepted — the worker-error escape hatch and tests inject
    those directly.
    """
    if isinstance(obj, (bytes, bytearray)):
        return pickle.loads(obj)
    return [obj]


class QueueFabric:
    """The shared send fabric: one inbox queue per machine id.

    Implements :class:`~repro.runtime.base.Transport` for whichever
    process holds it.  Sends are buffered per destination and flushed as
    one pickled blob per queue put — either when the buffer reaches
    ``max_batch`` messages or when the owning event loop goes idle
    (:meth:`flush`).  A single producer's blobs into one queue stay
    FIFO, and each blob preserves append order, which together give the
    per-sender FIFO the protocol requires.  Doing the pickling here (the
    queue then only copies a ``bytes`` blob) also makes the serialized
    byte count an exact, free metric.
    """

    def __init__(self, queues: list, max_batch: int = 32) -> None:
        self.queues = queues
        self.max_batch = max(1, int(max_batch))
        self._buffers: list[list[Message]] = [[] for _ in queues]
        # -- data-plane counters (per hosting process) ------------------
        self.messages_sent = 0
        self.batches_sent = 0
        self.coalesced_batches = 0
        self.bytes_pickled = 0

    def send(
        self, src: int, dst: int, kind: str, payload: Any, size_bytes: int
    ) -> None:
        """Buffer one message towards ``dst``; flush on a full batch."""
        self._buffers[dst].append(Message(src, dst, kind, payload, size_bytes))
        if len(self._buffers[dst]) >= self.max_batch:
            self._flush_dst(dst)

    def flush(self) -> None:
        """Push every buffered message out (the flush-on-idle rule)."""
        for dst in range(len(self.queues)):
            if self._buffers[dst]:
                self._flush_dst(dst)

    def _flush_dst(self, dst: int) -> None:
        batch = self._buffers[dst]
        self._buffers[dst] = []
        blob = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        self.bytes_pickled += len(blob)
        self.messages_sent += len(batch)
        self.batches_sent += 1
        if len(batch) > 1:
            self.coalesced_batches += 1
        self.queues[dst].put(blob)

    def close(self) -> None:
        """Close all queues without waiting for feeder flushes."""
        for q in self.queues:
            q.close()
            q.cancel_join_thread()


class ProcessHost(MemoryLedger):
    """The :class:`~repro.runtime.base.Host` of the one machine id an OS
    process hosts on the process backends.

    A live process is never halted: the driver detects death.  A real NIC
    is never artificially busy, so :meth:`pace` ignores the timing and
    queues the pump turn for the owning event loop's :meth:`drain`.
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
        self.messages_sent = 0
        self.bytes_by_kind: dict[str, int] = {}

    @property
    def now(self) -> float:
        """Wall seconds since this host was built."""
        return time.monotonic() - self._started

    def send(self, dst: int, kind: str, payload: Any, size: int) -> None:
        """Count one protocol message and hand it to the transport."""
        self.messages_sent += 1
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + size
        self._transport.send(self.machine_id, dst, kind, payload, size)

    def execute(
        self, ops: float, fn: Callable[[], None], label: str = "task"
    ) -> None:
        """Run ``fn`` right now; keep the op estimate for metrics."""
        if ops < 0:
            raise ValueError("ops must be non-negative")
        self.stats.ops_executed += ops
        fn()

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
    attached = table_ref.attach()
    try:
        yield attached.table, attached.nbytes
    finally:
        attached.close()


def run_worker_loop(
    worker_id: int,
    table: DataTable,
    held_columns: set[int],
    cost: CostModel,
    fabric: QueueFabric,
    next_messages: Callable[[], "Sequence[Message] | None"],
    crash: Callable[[], None],
    *,
    shm_prefix: str | None,
    shm_threshold_bytes: int,
    threshold_book: dict | None,
    shm_peers: set[int] | None = None,
    attached_nbytes: int = 0,
    fault: FaultPlan | None = None,
) -> None:
    """The worker event loop of both process backends.

    Builds the unmodified :class:`~repro.core.worker.WorkerActor` on a
    :class:`ProcessHost` over ``fabric`` and pumps messages into it:
    flush the fabric whenever idle, answer the shutdown
    broadcast with a stats report and return.  What the substrates do
    differently comes in as two callables.  ``next_messages`` blocks for
    at most one poll interval and returns the next decoded batch, an
    empty one when nothing arrived, or ``None`` when the master is gone
    (we are orphaned: return quietly).  ``crash`` must not return — it
    is how the process leaves when a ``crash`` ``fault`` fires on this
    worker, the hook behind the worker-death tests; a ``raise`` fault
    raises an ordinary exception instead, so the ``worker_error`` path
    (and its recovery) can be exercised end to end.  Any exception
    propagates: shipping it home is the caller's.
    """
    from ..core.worker import WorkerActor  # import here: cheap under fork

    arena = None
    try:
        if shm_prefix is not None:
            arena = ShmArena(f"{shm_prefix}-w{worker_id}")
        host = ProcessHost(worker_id, cost, fabric)
        actor = WorkerActor(
            host,
            table,
            held_columns,
            arena=arena,
            shm_threshold_bytes=shm_threshold_bytes,
            shm_peers=shm_peers,
            threshold_book=threshold_book,
        )
        pending: deque[Message] = deque()
        handled = 0
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
                # Built before it is sent: the counters do not include it.
                stats = WorkerStatsMsg(
                    worker=worker_id,
                    outstanding=actor.outstanding_state(),
                    mem_task_bytes=host.stats.mem_task_bytes,
                    mem_task_peak=host.stats.mem_task_peak,
                    mem_base_bytes=host.stats.mem_base_bytes,
                    messages_handled=handled,
                    messages_sent=host.messages_sent,
                    ops_executed=host.stats.ops_executed,
                    bytes_by_kind=dict(host.bytes_by_kind),
                    bytes_pickled=fabric.bytes_pickled,
                    shm_bytes_mapped=attached_nbytes
                    + (arena.bytes_read if arena is not None else 0),
                    coalesced_batches=fabric.coalesced_batches,
                    revoked_trees_seen=actor.revoked_trees_seen,
                    stale_shm_drops=actor.stale_shm_drops,
                    subtree_kernel_s=actor.kernel_counters.build_s,
                    subtree_gather_s=actor.kernel_counters.gather_s,
                    subtree_nodes_built=actor.kernel_counters.nodes_built,
                )
                fabric.send(worker_id, 0, MSG_WORKER_STATS, stats, 0)
                fabric.flush()
                return
            handled += 1
            actor.handle_message(message)
            if fault is not None and fault.fires(worker_id, handled):
                if fault.kind == "raise":
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


def _worker_main(
    worker_id: int,
    table_ref: "DataTable | SharedTableHandle",
    held_columns: set[int],
    queues: list,
    cost: CostModel,
    options_tuple: tuple,
    fault: FaultPlan | None,
) -> None:
    """Entry point of one mp worker process.

    Runs :func:`run_worker_loop` on its inbox queue, over the table
    :func:`worker_table` gives it, until the shutdown broadcast (exit 0;
    a normal exit flushes the queue feeder threads), the parent
    disappears (exit silently — we are orphaned), or the actor raises
    (ship the traceback to the driver, exit 1).
    """
    (
        poll_seconds,
        shm_prefix,
        shm_threshold,
        coalesce_max,
        threshold_book,
    ) = options_tuple
    inbox = queues[worker_id]

    def next_messages() -> "Sequence[Message] | None":
        try:
            return _decode(inbox.get(timeout=poll_seconds))
        except queue_module.Empty:
            parent = multiprocessing.parent_process()
            if parent is not None and not parent.is_alive():
                return None
            return ()

    def crash() -> None:
        # Simulated hard crash: no goodbye, no shm teardown — the
        # parent's sweep covers the arena.  The queue feeders are
        # drained first because ``multiprocessing`` queues share
        # their write lock and byte stream across processes:
        # ``os._exit`` mid-write would leave a truncated frame (a
        # peer's ``recv_bytes`` blocks forever) or a held write
        # lock (every other sender blocks) — corruption a real
        # network transport cannot inflict on surviving peers.
        # The injected crash is abrupt at the *protocol* layer
        # (sends of the last handled message are still buffered
        # in the fabric and die with us) but clean at the
        # *transport* layer.
        for crash_queue in queues:
            crash_queue.close()
            crash_queue.join_thread()
        os._exit(CRASH_EXITCODE)

    try:
        with worker_table(table_ref) as (table, mapped_nbytes):
            run_worker_loop(
                worker_id,
                table,
                held_columns,
                cost,
                QueueFabric(queues, max_batch=coalesce_max),
                next_messages,
                crash,
                shm_prefix=shm_prefix,
                shm_threshold_bytes=shm_threshold,
                threshold_book=threshold_book,
                attached_nbytes=mapped_nbytes,
                fault=fault,
            )
    except BaseException as exc:  # noqa: BLE001 - ship any failure home
        try:
            queues[0].put(worker_error_message(worker_id, exc))
        except Exception:  # the fabric itself may be gone
            pass
        raise SystemExit(1)


class WorkerPool(abc.ABC):
    """The driver side of both process transports.

    Owns the worker processes and the run's shm segments, and moves the
    driver's messages through :attr:`fabric` and :attr:`_master_inbox`
    (anything whose ``get(timeout=...)`` raises ``queue.Empty``), which a
    subclass builds together with its links to the workers.  A subclass
    also says how a worker's death shows (:meth:`dead_workers`) and what
    else retiring one worker (:meth:`_release_worker`) or the whole pool
    (:meth:`_disconnect`) releases.
    """

    fabric: QueueFabric
    _master_inbox: Any
    #: How long :meth:`reap_worker` waits for a dead worker's process.
    reap_join_seconds = 5.0

    def __init__(
        self, n_workers: int, options: RuntimeOptions, start_method: str
    ) -> None:
        self.n_workers = n_workers
        self.options = options
        self.start_method = start_method
        self.processes: dict[int, Any] = {}
        self._pending_master: list[Message] = []
        self.shm_prefix: str | None = (
            new_run_prefix() if options.use_shm else None
        )
        self.table_handle: SharedTableHandle | None = None

    # -- start-up -------------------------------------------------------
    def _share_table(
        self, table: DataTable
    ) -> "DataTable | SharedTableHandle":
        """What a started worker gets for its table: a handle to the
        table's shm image (made here, unlinked by :meth:`shutdown`) when
        the shm data plane is on, else the table itself."""
        if self.shm_prefix is None:
            return table
        self.table_handle = SharedTableHandle.create(
            table, f"{self.shm_prefix}-t"
        )
        return self.table_handle

    def _start_workers(
        self,
        target: Callable[..., None],
        args_of: Callable[[int], tuple],
        name: str,
    ) -> None:
        """Start each worker ``wid`` as a daemon process running
        ``target(*args_of(wid), fault)``.

        ``fault`` is the run's :class:`~repro.runtime.base.FaultPlan`:
        ``options.fault``, else the ``REPRO_FAULT`` variable, read here —
        once per run, and only by code that starts workers.
        """
        context = multiprocessing.get_context(self.start_method)
        fault = self.options.fault or FaultPlan.from_env()
        for wid in range(1, self.n_workers + 1):
            process = context.Process(
                target=target,
                args=(*args_of(wid), fault),
                name=f"{name}-{wid}",
                daemon=True,
            )
            process.start()
            self.processes[wid] = process

    # -- driver-side sends / receives -----------------------------------
    def send(
        self, src: int, dst: int, kind: str, payload: Any, size_bytes: int
    ) -> None:
        """Transport interface: driver-side send towards any machine."""
        self.fabric.send(src, dst, kind, payload, size_bytes)

    def flush(self) -> None:
        """Transport interface: push buffered driver-side sends out."""
        self.fabric.flush()

    def recv_master(self, timeout: float) -> Message:
        """Blocking receive from the master inbox (raises ``queue.Empty``).

        Receiving means the driver is about to go idle, so buffered sends
        are flushed first — the other half of the flush-on-idle rule.
        """
        self.fabric.flush()
        if not self._pending_master:
            self._pending_master.extend(
                _decode(self._master_inbox.get(timeout=timeout))
            )
        return self._pending_master.pop(0)

    # -- liveness -------------------------------------------------------
    @abc.abstractmethod
    def dead_workers(
        self, allow_clean_exit: bool = False
    ) -> list[tuple[int, int]]:
        """Worker ids (with exit codes) that have died.

        ``allow_clean_exit`` tolerates exit code 0 (the shutdown phase,
        where workers legitimately finish after reporting their stats).
        Already-reaped workers (see :meth:`reap_worker`) are not listed.
        """

    def check_alive(self, allow_clean_exit: bool = False) -> None:
        """Raise :class:`WorkerDiedError` if any worker is gone."""
        dead = self.dead_workers(allow_clean_exit)
        if dead:
            raise WorkerDiedError(*dead[0])

    def reap_worker(self, worker_id: int) -> None:
        """Retire a dead worker the run is recovering from.

        Joins its process, releases its link (:meth:`_release_worker`),
        and sweeps its shm arena segments immediately — recovery must not
        leak the dead worker's parked ``I_x`` slices for the rest of a
        long run.  Any live peer still holding a descriptor into the
        swept arena tolerates the vanished segment (see
        ``WorkerActor._on_row_response_shm``).  The sweep reaches this
        host only; a remote worker's host cleans its own on exit.
        """
        process = self.processes.pop(worker_id, None)
        if process is not None:
            process.join(timeout=self.reap_join_seconds)
        self._release_worker(worker_id)
        if self.shm_prefix is not None:
            unlink_segments(list_segments(f"{self.shm_prefix}-w{worker_id}"))

    @abc.abstractmethod
    def _release_worker(self, worker_id: int) -> None:
        """Drop the link to a reaped worker."""

    def begin_shutdown(self) -> None:
        """Hook: the driver is entering the shutdown phase.

        A no-op here — process exit codes disambiguate clean from crashed
        regardless of phase.  The socket transport overrides this to start
        treating a clean EOF (orderly FIN with an empty frame buffer) as
        exit code 0, which over TCP is the only clean-exit signal there is.
        """

    # -- teardown -------------------------------------------------------
    def _disconnect(self, join_timeout: float) -> None:
        """Close the links to the workers before the pool is stopped
        (nothing to close first here)."""

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Close everything down; escalate terminate → kill. Idempotent.

        The links close first (:meth:`_disconnect`), then the pool is
        terminated, joined and, where needed, killed, and then every shm
        segment of the run is removed: the table image is unlinked and the
        run prefix swept, which reclaims arena segments of workers that
        died without cleaning up.
        """
        self._disconnect(join_timeout)
        stop_processes(self.processes.values(), join_timeout)
        self.processes = {}
        self.fabric.close()
        if self.table_handle is not None:
            self.table_handle.unlink()
            self.table_handle = None
        if self.shm_prefix is not None:
            unlink_segments(list_segments(self.shm_prefix))

    def close(self) -> None:
        """Transport interface alias for :meth:`shutdown`."""
        self.shutdown()


class ProcessTransport(WorkerPool):
    """The mp transport: one ``multiprocessing`` inbox per machine id."""

    # The dead worker's inbox is drained only after the join.
    reap_join_seconds = 1.0

    def __init__(
        self,
        n_workers: int,
        table: DataTable,
        placement: dict[int, list[int]],
        cost: CostModel,
        options: RuntimeOptions,
        threshold_book: dict | None = None,
    ) -> None:
        super().__init__(
            n_workers, options, resolve_start_method(options.start_method)
        )
        context = multiprocessing.get_context(self.start_method)
        self.queues = [context.Queue() for _ in range(n_workers + 1)]
        self.fabric = QueueFabric(
            self.queues, max_batch=options.coalesce_max_messages
        )
        self._master_inbox = self.queues[0]
        worker_options = (
            options.poll_interval_seconds,
            self.shm_prefix,
            options.shm_threshold_bytes,
            options.coalesce_max_messages,
            threshold_book,
        )
        try:
            table_ref = self._share_table(table)
            self._start_workers(
                _worker_main,
                lambda wid: (
                    wid,
                    table_ref,
                    {c for c, ws in placement.items() if wid in ws},
                    self.queues,
                    cost,
                    worker_options,
                ),
                "repro-worker",
            )
        except BaseException:
            self.shutdown()
            raise

    def dead_workers(
        self, allow_clean_exit: bool = False
    ) -> list[tuple[int, int]]:
        """Worker ids (with exit codes) whose processes have exited."""
        dead = []
        for wid, process in self.processes.items():
            code = process.exitcode
            if code is None:
                continue
            if allow_clean_exit and code == 0:
                continue
            dead.append((wid, code))
        return dead

    def _release_worker(self, worker_id: int) -> None:
        """Drain the reaped worker's now-ownerless inbox: anything queued
        there is a fenced straggler nobody will ever read."""
        try:
            while True:
                self.queues[worker_id].get_nowait()
        except queue_module.Empty:
            pass


class ProcessRuntime(Runtime):
    """Training on real cores: one OS process per worker machine."""

    name = "mp"
    #: The transport a run is driven over; the socket runtime swaps it.
    transport_class: type[WorkerPool] = ProcessTransport

    def __init__(
        self,
        system: SystemConfig,
        cost: CostModel,
        options: RuntimeOptions | None = None,
    ) -> None:
        super().__init__(system, cost)
        self.options = options or RuntimeOptions()
        self._fault_policy = self.options.resolved_fault_policy(self.name)
        self._failures = 0

    def fit(self, table: DataTable, jobs: list[TrainingJob], **kwargs: Any):
        """Run the full protocol over real processes; see ``TreeServer.fit``."""
        for feature in (
            "crash_plans",
            "secondary_master",
            "record_timeline",
            "max_events",
        ):
            if kwargs.get(feature):
                raise ValueError(
                    f"{feature} is only supported on the sim backend"
                )
        self.validate(table, jobs)
        self._failures = 0
        start = time.perf_counter()
        placement = assign_columns_to_workers(
            table.n_columns,
            list(range(1, self.system.n_workers + 1)),
            self.system.column_replication,
        )
        # Hist-mode equi-depth thresholds: computed once on the driver,
        # before any worker starts, and shipped to every worker (via the
        # spawn args on mp; via the rendezvous welcome on socket).  Empty
        # when every job trains exact.
        transport = self.transport_class(
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
        transport: WorkerPool,
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
        messages_handled = 0
        last_message = time.monotonic()
        while not master.is_done():
            try:
                message = transport.recv_master(options.poll_interval_seconds)
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
            messages_handled += 1
            master.handle_message(message)
            host.drain()

        stats = self._collect_worker_stats(transport, live)
        finish_run(
            master,
            {
                wid: (worker.outstanding, worker.mem_task_bytes)
                for wid, worker in stats.items()
            },
        )
        wall = time.perf_counter() - start
        models = {job.name: master.trained_trees(job.name) for job in jobs}
        return RunReport(
            sim_seconds=wall,
            cluster=self._cluster_report(
                wall, host, stats, messages_handled, transport, master
            ),
            counters=master.counters,
            models=models,
            backend=self.name,
            wall_seconds=wall,
        )

    # ------------------------------------------------------------------
    def _check_children(
        self,
        transport: WorkerPool,
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
        transport: WorkerPool,
        master: MasterActor,
        host: ProcessHost,
        live: set[int],
        wid: int,
        code: int,
        detail: str = "",
    ) -> None:
        """Apply the fault policy to one failed worker (crash or error).

        ``fail_fast`` — and any failure recovery cannot survive: a column
        losing its last replica, or more than ``max_worker_failures``
        failures — raises :class:`WorkerDiedError`.  Otherwise the dead
        worker is fed through ``MasterActor.on_worker_crashed`` (replica
        reassignment + tree revocation), reaped and removed from the live
        set; training continues on the survivors.
        """
        if self._fault_policy != "recover":
            raise WorkerDiedError(wid, code, detail)
        self._failures += 1
        if self._failures > self.options.max_worker_failures:
            raise WorkerDiedError(
                wid,
                code,
                f"fault_policy='recover' exhausted: failure number "
                f"{self._failures} exceeds max_worker_failures="
                f"{self.options.max_worker_failures}",
            )
        lost = sorted(
            col
            for col, holders in master.holders.items()
            if set(holders) == {wid}
        )
        if lost:
            raise WorkerDiedError(
                wid,
                code,
                f"columns {lost} have no surviving replica "
                f"(column_replication too small for this crash)",
            )
        master.on_worker_crashed(wid)
        host.drain()
        transport.flush()
        transport.reap_worker(wid)
        live.discard(wid)

    # ------------------------------------------------------------------
    def _collect_worker_stats(
        self, transport: WorkerPool, live: set[int]
    ) -> dict[int, WorkerStatsMsg]:
        """Shutdown phase: every surviving worker reports stats, then exits."""
        transport.begin_shutdown()
        for wid in sorted(live):
            transport.send(0, wid, MSG_SHUTDOWN, ShutdownMsg(), 0)
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
                    min(remaining, self.options.poll_interval_seconds)
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

    def _cluster_report(
        self,
        wall: float,
        host: ProcessHost,
        stats: dict[int, WorkerStatsMsg],
        messages_handled: int,
        transport: WorkerPool,
        master: MasterActor,
    ) -> ClusterReport:
        """Paper-style summary from real-process counters.

        CPU percent is the cost model's op estimate re-expressed over
        wall-clock — an indicative utilization figure, not a measured one.
        """
        report = ClusterReport(
            elapsed_seconds=wall, events_processed=messages_handled
        )
        master_bytes = sum(host.bytes_by_kind.values())
        report.machines.append(
            MachineReport(
                machine_id=0,
                cpu_percent=0.0,
                bytes_sent=master_bytes,
                bytes_received=0,
                send_mbps=(master_bytes * 8 / wall / 1e6) if wall > 0 else 0.0,
                peak_memory_bytes=0,
                items_executed=messages_handled,
            )
        )
        bytes_by_kind = dict(host.bytes_by_kind)
        for wid in sorted(stats):
            worker = stats[wid]
            sent = sum(worker.bytes_by_kind.values())
            for kind, nbytes in worker.bytes_by_kind.items():
                bytes_by_kind[kind] = bytes_by_kind.get(kind, 0) + nbytes
            seconds_of_ops = worker.ops_executed / self.cost.ops_per_second
            report.machines.append(
                MachineReport(
                    machine_id=wid,
                    cpu_percent=(
                        100.0 * seconds_of_ops / wall if wall > 0 else 0.0
                    ),
                    bytes_sent=sent,
                    bytes_received=0,
                    send_mbps=(sent * 8 / wall / 1e6) if wall > 0 else 0.0,
                    peak_memory_bytes=worker.mem_base_bytes
                    + worker.mem_task_peak,
                    items_executed=worker.messages_handled,
                )
            )
        workers = [m for m in report.machines if m.machine_id != 0]
        if workers:
            report.avg_worker_cpu_percent = sum(
                w.cpu_percent for w in workers
            ) / len(workers)
            report.max_worker_cpu_percent = max(w.cpu_percent for w in workers)
            report.avg_worker_send_mbps = sum(
                w.send_mbps for w in workers
            ) / len(workers)
            report.max_worker_send_mbps = max(w.send_mbps for w in workers)
            report.avg_peak_memory_bytes = sum(
                w.peak_memory_bytes for w in workers
            ) / len(workers)
        report.master_send_mbps = report.machines[0].send_mbps
        report.total_bytes = sum(m.bytes_sent for m in report.machines)
        report.bytes_by_kind = bytes_by_kind
        # -- real data-plane accounting (what actually crossed queues) --
        fabric = transport.fabric
        per_worker = {
            wid: {
                "messages_sent": stats[wid].messages_sent,
                "bytes_pickled": stats[wid].bytes_pickled,
                "shm_bytes_mapped": stats[wid].shm_bytes_mapped,
                "coalesced_batches": stats[wid].coalesced_batches,
                "revoked_trees_seen": stats[wid].revoked_trees_seen,
                "stale_shm_drops": stats[wid].stale_shm_drops,
                "subtree_kernel_s": stats[wid].subtree_kernel_s,
                "subtree_gather_s": stats[wid].subtree_gather_s,
                "subtree_nodes_built": stats[wid].subtree_nodes_built,
            }
            for wid in sorted(stats)
        }
        report.transport = {
            "shm": transport.shm_prefix is not None,
            "start_method": transport.start_method,
            "fault_policy": self._fault_policy,
            "recovered_workers": master.counters.recovered_workers,
            "revoked_trees": master.counters.revoked_trees,
            "stale_shm_drops": sum(
                w["stale_shm_drops"] for w in per_worker.values()
            ),
            "messages_sent": fabric.messages_sent
            + sum(w["messages_sent"] for w in per_worker.values()),
            "bytes_pickled": fabric.bytes_pickled
            + sum(w["bytes_pickled"] for w in per_worker.values()),
            "shm_bytes_mapped": sum(
                w["shm_bytes_mapped"] for w in per_worker.values()
            ),
            "coalesced_batches": fabric.coalesced_batches
            + sum(w["coalesced_batches"] for w in per_worker.values()),
            "subtree_kernel_s": sum(
                w["subtree_kernel_s"] for w in per_worker.values()
            ),
            "subtree_gather_s": sum(
                w["subtree_gather_s"] for w in per_worker.values()
            ),
            "subtree_nodes_built": sum(
                w["subtree_nodes_built"] for w in per_worker.values()
            ),
            "per_worker": per_worker,
        }
        return report
