"""Task and plan objects exchanged between the master and workers.

Terminology follows the paper:

* A **task** ``t_x`` is identified by ``(tree_uid, path)`` where ``path`` is
  the node's heap index within its tree (root = 1, children of ``p`` are
  ``2p`` and ``2p + 1``).
* A **plan** is a task that has not been assigned workers yet; plans wait in
  the master's deque ``B_plan``.
* A **column-task** plan fans out to the workers holding the candidate
  columns; a **subtree-task** plan goes to one *key worker*.
* A child task's **parent ref** names the *parent worker* — the delegate
  worker of the parent task that holds ``I_x`` — so row indices are fetched
  worker-to-worker and never relayed through the master (Section V).

All payload classes here are plain data; they travel inside simulated
network messages, with sizes charged per :class:`repro.cluster.CostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..data.shm import ShmSlice
from .builder import NodeStats
from .config import TreeConfig
from .splits import CandidateSplit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.machine import MachineStats
    from ..runtime.process import FabricStats

#: Task identity: (tree_uid, heap path).
TaskId = tuple[int, int]

#: Message kind strings used on the simulated network.
MSG_COLUMN_PLAN = "column_plan"
MSG_SUBTREE_PLAN = "subtree_plan"
MSG_COLUMN_RESULT = "column_result"
MSG_SPLIT_CONFIRM = "split_confirm"
MSG_SPLIT_DONE = "split_done"
MSG_TASK_DELETE = "task_delete"
MSG_EXPECT_FETCHES = "expect_fetches"
MSG_ROW_REQUEST = "row_request"
MSG_ROW_RESPONSE = "row_response"
MSG_ROW_RESPONSE_SHM = "row_response_shm"
MSG_COLUMN_REQUEST = "column_request"
MSG_COLUMN_RESPONSE = "column_response"
MSG_SUBTREE_RESULT = "subtree_result"
MSG_REVOKE_TREE = "revoke_tree"
# Runtime control plane (multiprocess backend only; the simulator's
# equivalent is the event queue simply draining).
MSG_SHUTDOWN = "shutdown"
MSG_WORKER_STATS = "worker_stats"
MSG_WORKER_ERROR = "worker_error"
# Socket-backend rendezvous (control frames, never protocol traffic).
MSG_WORKER_HELLO = "worker_hello"
MSG_WORKER_WELCOME = "worker_welcome"

#: Wire version of the socket handshake.  A master rejects a hello whose
#: version differs — both sides must run the same protocol revision to
#: guarantee bit-identical training.  v2 added histogram split mode: the
#: welcome ships the equi-depth threshold book.  v3 dropped the kernel
#: name from the pickled ``TreeConfig`` and ``WorkerStatsMsg``, which a v2
#: peer would fail to unpickle.  v4 took the per-bin summaries of v2/v3
#: off ``ColumnResultMsg``: a ``None`` in ``splits`` now always means "no
#: split", so a v3 worker's placeholders would train a different forest.
#: v5 took the three transport knobs off the welcome, whose strict JSON
#: decoding a v4 peer would fail.  v6 made the shutdown reply
#: (``WorkerStatsMsg``) carry the worker's counter records whole instead
#: of one field per counter.  v7 merged the wire's node statistics into
#: ``builder.NodeStats`` (``pure`` became ``is_pure``) and dropped the
#: ``expect_fetches(count=0)`` for a leaf child: a delegate never stores a
#: side no task will fetch, so a v6 master's zero-count frees would name
#: sides a v7 worker never kept.
SOCKET_PROTOCOL_VERSION = 7


@dataclass(frozen=True)
class ParentRef:
    """Where a child task fetches its row ids ``I_x`` from.

    ``task`` is the parent task id; ``side`` selects ``I_xl`` (0) or
    ``I_xr`` (1); ``worker`` is the parent task's delegate worker.  ``None``
    parent ref means the task is a tree root and every worker synthesizes
    the root row set locally (deterministically), so even root row ids never
    travel on the wire.
    """

    task: TaskId
    side: int
    worker: int


@dataclass(frozen=True)
class TreeContext:
    """Per-tree information shipped inside every plan (small, O(|C|)).

    Carrying the tree seed (inside ``config``) rather than any materialized
    randomness is what lets workers regenerate bootstrap samples and
    extra-tree draws locally.
    """

    tree_uid: int
    config: TreeConfig
    candidate_columns: tuple[int, ...]
    bootstrap: bool
    n_table_rows: int


@dataclass
class PlanEntry:
    """One entry of the master's plan deque ``B_plan``."""

    task: TaskId
    n_rows: int
    depth: int
    parent: ParentRef | None
    ctx: TreeContext
    is_subtree: bool

    @property
    def tree_uid(self) -> int:
        """Owning tree."""
        return self.task[0]

    @property
    def path(self) -> int:
        """Heap path of the node."""
        return self.task[1]


# ----------------------------------------------------------------------
# message payloads
# ----------------------------------------------------------------------
@dataclass
class ColumnPlanMsg:
    """Master -> worker: compute best splits of ``columns`` for a node."""

    task: TaskId
    columns: tuple[int, ...]
    parent: ParentRef | None
    ctx: TreeContext
    n_rows: int
    depth: int


@dataclass
class SubtreePlanMsg:
    """Master -> key worker: gather ``D_x`` and build the whole subtree.

    ``server_map`` tells the key worker which other machine serves which
    remote columns; columns the key worker holds itself are in
    ``local_columns`` and need no communication.
    """

    task: TaskId
    parent: ParentRef | None
    ctx: TreeContext
    n_rows: int
    depth: int
    local_columns: tuple[int, ...]
    server_map: dict[int, tuple[int, ...]]


@dataclass
class ColumnResultMsg:
    """Worker -> master: per-column best splits plus node label stats.

    ``splits`` is in plan-column order, ``None`` where a column offers no
    split — the same shape in both split modes (a hist-mode worker scores
    its own complete histogram).
    """

    task: TaskId
    worker: int
    splits: list[CandidateSplit | None]
    stats: NodeStats


@dataclass
class SplitConfirmMsg:
    """Master -> delegate worker: the overall best split; partition ``I_x``."""

    task: TaskId
    split: CandidateSplit


@dataclass
class SplitDoneMsg:
    """Delegate -> master: children's label stats after partitioning."""

    task: TaskId
    left_stats: NodeStats
    right_stats: NodeStats


@dataclass
class ExpectFetchesMsg:
    """Master -> delegate: child ``side`` resolved after ``count`` fetches.

    Sent once per non-leaf child, so ``count >= 1``: the delegate never
    stores a leaf child's side (it applies ``should_stop`` itself when it
    partitions).
    """

    task: TaskId
    side: int
    count: int


@dataclass
class RowRequestMsg:
    """Worker -> parent worker: send me ``I_x`` for one child side.

    ``tag`` identifies the requesting state machine on the requester
    (``("column" | "key" | "serve", task_id)``) so the response routes back
    to the right local task object.
    """

    parent_task: TaskId
    side: int
    requester: int
    tag: tuple[str, TaskId]


@dataclass
class RowResponseMsg:
    """Parent worker -> requester: the row ids."""

    tag: tuple[str, TaskId]
    row_ids: np.ndarray


@dataclass
class RowResponseShmMsg:
    """Parent worker -> requester: the row ids, parked in shared memory.

    The multiprocess backend's zero-copy variant of
    :class:`RowResponseMsg`: ``ref`` is a :class:`~repro.data.shm.
    ShmSlice` descriptor into the *sender's* arena.  The receiver copies
    the slice out on arrival; the sender frees the slot when the master
    confirms the child side resolved (``expect_fetches``), by which time
    causality guarantees every fetcher has consumed its copy.  Never sent
    on the simulator, and only for row sets of at least
    ``core.worker.SHM_THRESHOLD_BYTES`` — small sets stay inline.
    """

    tag: tuple[str, TaskId]
    ref: ShmSlice


@dataclass
class ColumnRequestMsg:
    """Key worker -> serving worker: fetch these columns of ``D_x``."""

    task: TaskId
    columns: tuple[int, ...]
    parent: ParentRef | None
    ctx: TreeContext
    key_worker: int


@dataclass
class ColumnResponseMsg:
    """Serving worker -> key worker: the requested column values."""

    task: TaskId
    server: int
    columns: tuple[int, ...]
    arrays: list[np.ndarray]


@dataclass
class SubtreeResultMsg:
    """Key worker -> master: the completed ``Delta_x`` (serialized)."""

    task: TaskId
    worker: int
    subtree: dict
    n_nodes: int


@dataclass
class TaskDeleteMsg:
    """Master -> worker: drop your task object for ``task``."""

    task: TaskId


@dataclass
class RevokeTreeMsg:
    """Master -> all workers: drop every state object of this tree.

    Used by fault recovery: after a worker crash the master restarts
    from scratch exactly the trees whose in-flight tasks or queued plans
    involved the dead worker (see DESIGN.md on this simplification of
    Appendix E's per-task revocation); unaffected trees keep running.
    """

    tree_uid: int


@dataclass
class RootRows:
    """Helper: deterministic root row set of a tree.

    Bootstrap samples are regenerated from the tree seed on any machine, so
    the master never ships root row ids (Section V applies to roots too).
    """

    ctx: TreeContext

    def materialize(self) -> np.ndarray:
        """The root ``I_x`` as an int64 array."""
        from .builder import bootstrap_row_ids

        if self.ctx.bootstrap:
            return bootstrap_row_ids(self.ctx.config.seed, self.ctx.n_table_rows)
        return np.arange(self.ctx.n_table_rows, dtype=np.int64)


@dataclass
class TaskCounters:
    """Run-level task statistics the master accumulates.

    ``extra["first_subtree_dispatch_us"]`` is when the first subtree-task
    was dispatched, in µs on the master host's clock: simulated µs on
    ``sim``, wall-clock µs since the master started on ``mp`` and
    ``socket``.
    """

    column_tasks: int = 0
    subtree_tasks: int = 0
    leaves_finalized: int = 0
    trees_completed: int = 0
    plans_dispatched: int = 0
    head_insertions: int = 0
    tail_insertions: int = 0
    revoked_trees: int = 0
    #: Worker crashes survived via replica reassignment + tree revocation.
    recovered_workers: int = 0
    bplan_peak: int = 0
    extra: dict[str, int] = field(default_factory=dict)


@dataclass
class TreeCompletedSync:
    """Master -> secondary master: checkpoint one completed tree.

    Appendix E: the master periodically synchronizes job metadata and tree
    construction progress to the secondary master; tree completion is the
    natural checkpoint granularity (a completed tree is immutable).
    """

    job_name: str
    tree_index: int
    tree: dict


@dataclass
class MasterFailoverMsg:
    """Secondary master -> workers: the master died; I am the master now.

    Workers drop every live task object (the new master re-plans all
    incomplete trees under fresh uids), redirect results to the new master
    and ignore any straggler messages from the old generation
    (``min_live_uid`` fences them off).
    """

    new_master_id: int
    min_live_uid: int


@dataclass
class ShutdownMsg:
    """Runtime driver -> worker process: training is done, exit cleanly.

    The worker replies with a :class:`WorkerStatsMsg` (its run-end
    invariant report) before its event loop returns.  Both process
    backends (``mp`` and ``socket``) send this; the simulator ends when
    its event queue drains.
    """

    reason: str = "done"


@dataclass
class WorkerStatsMsg:
    """Worker -> runtime driver: end-of-run invariant report.

    ``outstanding`` mirrors :meth:`WorkerActor.outstanding_state` and must
    be all zeros after a clean run, as must ``stats.mem_task_bytes``.
    ``stats`` is the worker's
    :class:`~repro.cluster.machine.MachineStats` record and ``fabric``
    its send fabric's :class:`~repro.runtime.process.FabricStats` (``None``
    on the simulator, which builds this report in-process), both shipped
    whole: the driver reduces them with
    :func:`~repro.cluster.metrics.cluster_report`.
    """

    worker: int
    outstanding: dict[str, int]
    stats: MachineStats
    fabric: FabricStats | None = None


@dataclass
class WorkerHelloMsg:
    """Socket worker -> master: rendezvous request (first frame sent).

    ``table_hash`` is :func:`repro.data.table.table_fingerprint` of the
    worker's local table copy — the master rejects a hello whose hash
    differs from its own, because exact distributed training is only
    meaningful when every machine trains on byte-identical data.
    ``host_id`` identifies the physical host (hostname plus machine id);
    workers that share the master's reported host id may exchange
    ``row_response_shm`` descriptors, everyone else falls back to inline
    row-id transfer (docs/PROTOCOL.md, "Rendezvous handshake").
    """

    worker_id: int
    protocol_version: int
    table_hash: str
    host_id: str
    pid: int = 0


@dataclass
class WorkerWelcomeMsg:
    """Master -> worker: the start-up record of one worker process.

    One record on both process backends: the ``socket`` rendezvous sends
    it as the reply to a hello, and ``mp`` passes it to each worker as a
    spawn arg.  ``ok=False`` carries a human-readable rejection in
    ``error`` and the worker exits without joining.  On acceptance it
    ships everything the worker needs to run its actor: the cluster size,
    its held columns, the host map of every machine (the shm-peer rule;
    on ``mp`` every id maps to one host), the run's shm prefix (``None``
    when the data plane is off) and the cost model.  ``threshold_book``
    is the run's equi-depth threshold book (``{max_bins: {column:
    thresholds}}``, see :mod:`repro.core.histogram`), computed once by
    the master so every machine bins against identical global thresholds;
    empty when every job trains exact.
    """

    ok: bool
    error: str = ""
    n_workers: int = 0
    held_columns: tuple[int, ...] = ()
    host_map: dict[int, str] = field(default_factory=dict)
    shm_prefix: str | None = None
    cost: object | None = None
    threshold_book: dict | None = None


@dataclass
class WorkerErrorMsg:
    """Worker process -> runtime driver: the worker hit an exception.

    The driver surfaces this as a structured
    :class:`~repro.runtime.base.WorkerDiedError` instead of waiting for a
    timeout; ``traceback`` carries the formatted remote stack.
    """

    worker: int
    error: str
    traceback: str = ""


#: Every message dataclass that can travel on a transport, for
#: transport-safety tests (pickle round-trips) and exhaustiveness checks.
MESSAGE_DATACLASSES: tuple[type, ...] = (
    ColumnPlanMsg,
    SubtreePlanMsg,
    ColumnResultMsg,
    SplitConfirmMsg,
    SplitDoneMsg,
    ExpectFetchesMsg,
    RowRequestMsg,
    RowResponseMsg,
    RowResponseShmMsg,
    ColumnRequestMsg,
    ColumnResponseMsg,
    SubtreeResultMsg,
    TaskDeleteMsg,
    RevokeTreeMsg,
    TreeCompletedSync,
    MasterFailoverMsg,
    ShutdownMsg,
    WorkerStatsMsg,
    WorkerErrorMsg,
    WorkerHelloMsg,
    WorkerWelcomeMsg,
)
