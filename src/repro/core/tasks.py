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

import numpy as np

from ..data.schema import ProblemKind
from ..data.shm import ShmSlice
from .config import TreeConfig
from .splits import CandidateSplit, label_codes

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
SOCKET_PROTOCOL_VERSION = 4


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
class NodeStatsPayload:
    """Sufficient label statistics of one node, as shipped in messages.

    Classification: ``counts`` is the class histogram.  Regression:
    ``(n, y_sum, y_sq_sum)``.  Both support the leaf checks (purity) and the
    per-node prediction of Appendix D.
    """

    n_rows: int
    counts: np.ndarray | None = None
    y_sum: float = 0.0
    y_sq_sum: float = 0.0
    #: Exact purity flag computed from the labels themselves (a float
    #: variance test could disagree with the serial builder's exact
    #: ``all(y == y[0])`` check and break the exactness invariant).
    pure: bool = False

    @classmethod
    def from_labels(
        cls, y: np.ndarray, problem: ProblemKind, n_classes: int
    ) -> "NodeStatsPayload":
        """Compute stats from a node's labels (floats or integer codes)."""
        pure = bool(y.size > 0 and np.all(y == y[0]))
        if problem is ProblemKind.CLASSIFICATION:
            counts = np.bincount(label_codes(y), minlength=n_classes)
            return cls(n_rows=int(y.size), counts=counts, pure=pure)
        return cls(
            n_rows=int(y.size),
            y_sum=float(y.sum()),
            y_sq_sum=float((y * y).sum()),
            pure=pure,
        )

    @property
    def is_classification(self) -> bool:
        """Whether these are classification stats."""
        return self.counts is not None

    @property
    def is_pure(self) -> bool:
        """All labels identical (leaf condition 1)."""
        return self.pure

    def prediction(self) -> np.ndarray | float:
        """PMF vector (classification) or mean (regression)."""
        if self.counts is not None:
            return self.counts / max(1, self.n_rows)
        return self.y_sum / self.n_rows if self.n_rows else 0.0

    def impurity(self, criterion) -> float:
        """Node impurity from these stats (for the gain check)."""
        from .impurity import classification_impurity, variance

        if self.counts is not None:
            return classification_impurity(
                self.counts.astype(np.float64), criterion
            )
        return variance(float(self.n_rows), self.y_sum, self.y_sq_sum)


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
    stats: NodeStatsPayload


@dataclass
class SplitConfirmMsg:
    """Master -> delegate worker: the overall best split; partition ``I_x``."""

    task: TaskId
    split: CandidateSplit


@dataclass
class SplitDoneMsg:
    """Delegate -> master: children's label stats after partitioning."""

    task: TaskId
    left_stats: NodeStatsPayload
    right_stats: NodeStatsPayload


@dataclass
class ExpectFetchesMsg:
    """Master -> delegate: how many fetches child ``side`` will receive.

    Count 0 means the child became a leaf and its stored row set can be
    freed immediately.
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
    on the simulator, and only for row sets at or above
    ``RuntimeOptions.shm_threshold_bytes`` — small sets stay inline.
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
    invariant report) before its event loop returns.  Only the
    multiprocess backend sends this; the simulator ends when its event
    queue drains.
    """

    reason: str = "done"


@dataclass
class WorkerStatsMsg:
    """Worker process -> runtime driver: end-of-run invariant report.

    ``outstanding`` mirrors :meth:`WorkerActor.outstanding_state` and
    ``mem_task_bytes`` the machine's live task allocation — both must be
    zero after a clean run, giving the multiprocess backend the same
    leak checks the simulator asserts in-process.
    """

    worker: int
    outstanding: dict[str, int]
    mem_task_bytes: int
    mem_task_peak: int = 0
    mem_base_bytes: int = 0
    messages_handled: int = 0
    messages_sent: int = 0
    ops_executed: float = 0.0
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    # -- transport data-plane counters (mp backend) --------------------
    #: Actual serialized bytes this worker put on its queues.
    bytes_pickled: int = 0
    #: Shared bytes this worker consumed without pickling: its attached
    #: table image plus every arena slice it copied out.
    shm_bytes_mapped: int = 0
    #: Queue puts that carried more than one coalesced message.
    coalesced_batches: int = 0
    # -- crash-recovery counters (mp backend fault recovery) -----------
    #: ``revoke_tree`` broadcasts this worker processed.
    revoked_trees_seen: int = 0
    #: ``row_response_shm`` descriptors dropped because the owning
    #: (crashed) worker's arena segment was already swept.
    stale_shm_drops: int = 0
    # -- training-kernel counters (see repro.core.kernel) ---------------
    #: Wall-clock seconds spent inside subtree builds.
    subtree_kernel_s: float = 0.0
    #: Slice of the above spent gathering ``y``/column values.
    subtree_gather_s: float = 0.0
    #: Tree nodes constructed by subtree-tasks on this worker.
    subtree_nodes_built: int = 0


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
    """Master -> socket worker: rendezvous reply.

    ``ok=False`` carries a human-readable rejection in ``error`` and the
    worker exits without joining.  On acceptance the welcome ships
    everything the worker needs to run its actor: the cluster size, its
    held columns, the host map of every peer (for the shm-peer rule),
    the run's shm prefix (``None`` when the data plane is disabled or
    the worker is on a different host than the master's table image),
    the transport knobs, and the cost model.  ``threshold_book`` is the
    run's equi-depth threshold book (``{max_bins: {column:
    thresholds}}``, see :mod:`repro.core.histogram`) when any submitted
    job trains with ``split_mode="hist"`` — computed once by the master
    so every machine bins against identical global thresholds; ``None``
    when all jobs are exact.
    """

    ok: bool
    error: str = ""
    n_workers: int = 0
    held_columns: tuple[int, ...] = ()
    host_map: dict[int, str] = field(default_factory=dict)
    shm_prefix: str | None = None
    shm_threshold_bytes: int = 8192
    coalesce_max_messages: int = 32
    poll_interval_seconds: float = 0.05
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
