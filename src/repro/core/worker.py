"""Worker actor: the workhorse of task computation (paper Section IV/V).

A worker machine holds the full target column ``Y`` plus its assigned
feature columns (whole columns — TreeServer's column partitioning).  It
plays four roles, often simultaneously:

* **column-task executor** — fetch ``I_x`` from the parent worker, compute
  the best split of each assigned column, report to the master;
* **delegate worker** — after the master confirms this worker's column won,
  partition ``I_x`` into ``I_xl`` / ``I_xr`` and serve them to child tasks
  directly (the master never relays row ids — Section V);
* **key worker** — for a subtree-task, gather ``D_x`` from column servers
  and build the whole ``Delta_x`` locally with the level kernel;
* **column server** — fetch ``I_x`` itself and ship the requested column
  values of ``D_x`` to a key worker.

In hist mode a held numeric column is binned once, at set-up, and is its
bucket codes from then on: every role above reads, ships and hands the
level kernel ``codes[I_x]``, and nothing bins again.

Task data readiness follows the T-thinker discipline: a task waits in the
task table until all its data has arrived, then moves to the compute queue
(its host's ``execute``: a core of a simulated machine, or the worker
process itself), so communication overlaps computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..cluster import Message
from ..data.schema import ColumnKind, ProblemKind
from ..data.shm import ShmArena, ShmSlice
from ..data.table import DataTable
from .builder import NodeStats, extra_tree_split_rng, should_stop
from .config import TreeKind
from .histogram import book_for_config, encode_bin_codes, hist_active
from .kernel import build_subtree, scan_columns
from .splits import label_codes, random_split_for_column, route_training_rows
from .tasks import (
    MasterFailoverMsg,
    MSG_COLUMN_REQUEST,
    MSG_COLUMN_RESPONSE,
    MSG_COLUMN_RESULT,
    MSG_ROW_REQUEST,
    MSG_ROW_RESPONSE,
    MSG_ROW_RESPONSE_SHM,
    MSG_SPLIT_DONE,
    MSG_SUBTREE_RESULT,
    ColumnPlanMsg,
    ColumnRequestMsg,
    ColumnResponseMsg,
    ColumnResultMsg,
    ExpectFetchesMsg,
    RevokeTreeMsg,
    RootRows,
    RowRequestMsg,
    RowResponseMsg,
    RowResponseShmMsg,
    SplitConfirmMsg,
    SplitDoneMsg,
    SubtreePlanMsg,
    SubtreeResultMsg,
    TaskDeleteMsg,
    TaskId,
)
from .tree import node_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.base import Host

#: Row-id sets of at least this many bytes (1 024 int64 ids) travel as
#: arena descriptors on the shm data plane; smaller ones stay inline.  A
#: constant, not an option: nothing runs with another value.
SHM_THRESHOLD_BYTES = 8192


class ProtocolError(RuntimeError):
    """A message arrived that the protocol forbids in the current state."""


@dataclass
class _ColumnTaskState:
    """A column-task waiting for / holding its row ids."""

    plan: ColumnPlanMsg
    row_ids: np.ndarray | None = None
    alloc_bytes: int = 0


@dataclass
class _KeyTaskState:
    """A subtree-task at its key worker, gathering ``D_x``."""

    plan: SubtreePlanMsg
    row_ids: np.ndarray | None = None
    pending_servers: set[int] = field(default_factory=set)
    column_data: dict[int, np.ndarray] = field(default_factory=dict)
    alloc_bytes: int = 0
    running: bool = False


@dataclass
class _ServeTaskState:
    """A column-serving obligation for someone else's subtree-task."""

    request: ColumnRequestMsg
    row_ids: np.ndarray | None = None


@dataclass
class _DelegateStore:
    """Row ids this worker holds as the delegate of a completed split.

    ``sides`` maps 0 / 1 to ``I_xl`` / ``I_xr``, and holds only the sides
    of non-leaf children: a leaf child's side is never stored, because no
    task will fetch it.  Each stored side is freed when the master reports
    its child task resolved, with the number of row fetches the side must
    have served (a sanity check on the protocol).  On the shm data plane,
    ``shm_refs`` caches the arena slice a side was parked in: written once
    on the first fetch, every further fetch of the same side re-sends the
    same descriptor, and the slot is freed together with the side.
    """

    sides: dict[int, np.ndarray]
    served: dict[int, int]
    alloc_bytes: dict[int, int]
    shm_refs: dict[int, ShmSlice] = field(default_factory=dict)


class WorkerActor:
    """One TreeServer worker; ``host`` is the machine it runs on, whose
    id is the worker id."""

    def __init__(
        self,
        host: Host,
        table: DataTable,
        held_columns: set[int],
        master_id: int = 0,
        arena: ShmArena | None = None,
        shm_peers: frozenset[int] = frozenset(),
        threshold_book: dict | None = None,
    ) -> None:
        self.host = host
        self.worker_id = host.machine_id
        self.table = table
        self.held_columns = set(held_columns)
        self.master_id = master_id
        #: Equi-depth threshold book for hist-mode jobs (``{max_bins:
        #: {column: thresholds}}``), computed once by the driver from the
        #: full table so every machine bins identically; ``None``/empty
        #: when every submitted job trains exact.
        self.threshold_book = threshold_book
        #: The bucket codes of every held numeric column, made once per
        #: ``max_bins`` of the book: ``{max_bins: {column: codes}}``.
        self.bin_codes = {
            mb: {
                c: encode_bin_codes(table.column(c), thresholds[c])
                for c in self.held_columns
                if table.column_spec(c).kind is ColumnKind.NUMERIC
            }
            for mb, thresholds in (threshold_book or {}).items()
        }
        #: Shared-memory row-id arena (process backends only).  When set,
        #: row-id sets of at least :data:`SHM_THRESHOLD_BYTES` travel as
        #: :class:`ShmSlice` descriptors instead of pickled arrays.
        self.arena = arena
        #: Which peers may receive :class:`ShmSlice` descriptors from this
        #: worker: those on our host in the start-up record's host map
        #: (every worker on ``mp``).  Row responses to anyone else fall
        #: back to inline transfer (docs/PROTOCOL.md, "Descriptor vs
        #: inline: the host rule").
        self.shm_peers = shm_peers
        self.cost = host.cost
        self._column_tasks: dict[TaskId, _ColumnTaskState] = {}
        self._key_tasks: dict[TaskId, _KeyTaskState] = {}
        self._serve_tasks: dict[TaskId, _ServeTaskState] = {}
        self._delegate: dict[TaskId, _DelegateStore] = {}
        self._revoked_trees: set[int] = set()
        #: Messages referencing trees below this uid belong to a dead
        #: master generation and are ignored (secondary-master failover).
        self._min_live_uid = 0
        # Resident memory: held columns, their codes + the replicated Y.
        base = sum(table.column(c).nbytes for c in self.held_columns)
        base += sum(c.nbytes for b in self.bin_codes.values() for c in b.values())
        self.host.set_base_memory(base + table.target.nbytes)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def column_values(self, column: int) -> np.ndarray:
        """Full values of a held column (enforces the partitioning)."""
        if column not in self.held_columns:
            raise ProtocolError(
                f"worker {self.worker_id} asked for column {column} "
                f"it does not hold"
            )
        return self.table.column(column)

    def held_column(self, column: int, config) -> np.ndarray:
        """A held column as ``config``'s split search reads it: its stored
        bucket codes in hist mode when numeric, its values otherwise."""
        codes = book_for_config(self.bin_codes, config) or {}
        return codes[column] if column in codes else self.column_values(column)

    def _send(self, dst: int, kind: str, payload, size: int) -> None:
        self.host.send(dst, kind, payload, size)

    def _is_revoked(self, task: TaskId) -> bool:
        return task[0] in self._revoked_trees or task[0] < self._min_live_uid

    def _stats_of(self, row_ids: np.ndarray) -> NodeStats:
        return NodeStats.of_labels(
            self.table.target[row_ids], self.table.problem, self.table.n_classes
        )

    def _request_rows(self, plan_parent, tag: tuple[str, TaskId]) -> None:
        """Ask the parent worker for ``I_x`` (local self-sends are free)."""
        request = RowRequestMsg(
            parent_task=plan_parent.task,
            side=plan_parent.side,
            requester=self.worker_id,
            tag=tag,
        )
        self._send(
            plan_parent.worker,
            MSG_ROW_REQUEST,
            request,
            self.cost.control_bytes,
        )

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        """Route one delivered message to its handler."""
        payload = message.payload
        if isinstance(payload, ColumnPlanMsg):
            self._on_column_plan(payload)
        elif isinstance(payload, SubtreePlanMsg):
            self._on_subtree_plan(payload)
        elif isinstance(payload, SplitConfirmMsg):
            self._on_split_confirm(payload)
        elif isinstance(payload, TaskDeleteMsg):
            self._on_task_delete(payload)
        elif isinstance(payload, ExpectFetchesMsg):
            self._on_expect_fetches(payload)
        elif isinstance(payload, RowRequestMsg):
            self._on_row_request(payload)
        elif isinstance(payload, RowResponseMsg):
            self._on_row_response(payload)
        elif isinstance(payload, RowResponseShmMsg):
            self._on_row_response_shm(payload)
        elif isinstance(payload, ColumnRequestMsg):
            self._on_column_request(payload)
        elif isinstance(payload, ColumnResponseMsg):
            self._on_column_response(payload)
        elif isinstance(payload, RevokeTreeMsg):
            self._on_revoke_tree(payload)
        elif isinstance(payload, MasterFailoverMsg):
            self._on_master_failover(payload)
        else:
            raise ProtocolError(
                f"worker {self.worker_id} got unknown payload "
                f"{type(payload).__name__}"
            )

    # ------------------------------------------------------------------
    # column-task role
    # ------------------------------------------------------------------
    def _on_column_plan(self, plan: ColumnPlanMsg) -> None:
        if self._is_revoked(plan.task):
            return
        state = _ColumnTaskState(plan=plan)
        self._column_tasks[plan.task] = state
        if plan.parent is None:
            self._column_rows_ready(plan.task, RootRows(plan.ctx).materialize())
        else:
            self._request_rows(plan.parent, ("column", plan.task))

    def _column_rows_ready(self, task: TaskId, row_ids: np.ndarray) -> None:
        state = self._column_tasks.get(task)
        if state is None:  # revoked while the rows were in flight
            return
        state.row_ids = row_ids
        state.alloc_bytes = int(row_ids.nbytes)
        self.host.alloc(state.alloc_bytes)
        n = int(row_ids.size)
        ops = self.cost.node_stats_ops(n)
        for _ in state.plan.columns:
            ops += self.cost.split_search_ops(n)
        self.host.execute(
            ops, lambda: self._compute_column_task(task), label="column_task"
        )

    def _compute_column_task(self, task: TaskId) -> None:
        state = self._column_tasks.get(task)
        if state is None or state.row_ids is None:
            return  # revoked while queued
        plan = state.plan
        ids = state.row_ids
        criterion = plan.ctx.config.resolved_criterion(
            self.table.problem is ProblemKind.CLASSIFICATION
        )
        # One gather and one cast to class codes serve every column's scan
        # and the node statistics.
        y = self.table.target[ids]
        if self.table.problem is ProblemKind.CLASSIFICATION:
            y = label_codes(y)
        config = plan.ctx.config
        values = [self.held_column(col, config)[ids] for col in plan.columns]
        specs = [self.table.column_spec(col) for col in plan.columns]
        if config.tree_kind is TreeKind.EXTRA:
            splits = [
                random_split_for_column(
                    col,
                    spec.kind,
                    v,
                    y,
                    criterion,
                    self.table.n_classes,
                    extra_tree_split_rng(config.seed, plan.task[1], col),
                    spec.n_categories,
                )
                for col, spec, v in zip(plan.columns, specs, values)
            ]
        else:
            # Each column lives whole on this worker, so its scan over
            # I_x is complete right here: the one-node call of the kernel's.
            scans = scan_columns(
                plan.columns,
                values,
                y,
                np.array([0, ids.size]),
                specs,
                criterion,
                self.table.n_classes,
                book_for_config(self.threshold_book, config),
            )
            splits = [scan.split_for(0) for scan in scans]
        result = ColumnResultMsg(
            task=task,
            worker=self.worker_id,
            splits=splits,
            stats=NodeStats.of_labels(
                y, self.table.problem, self.table.n_classes
            ),
        )
        size = self.cost.column_result_bytes(len(plan.columns))
        self._send(self.master_id, MSG_COLUMN_RESULT, result, size)
        # I_x is retained: if this worker becomes the delegate it will
        # partition it; otherwise a task_delete will free it.

    def _on_split_confirm(self, msg: SplitConfirmMsg) -> None:
        if self._is_revoked(msg.task):
            return
        state = self._column_tasks.get(msg.task)
        if state is None or state.row_ids is None:
            raise ProtocolError(
                f"split_confirm for unknown task {msg.task} at worker "
                f"{self.worker_id}"
            )
        n = int(state.row_ids.size)
        ops = self.cost.partition_ops(n) + 2 * self.cost.node_stats_ops(n)
        self.host.execute(
            ops, lambda: self._partition_rows(msg), label="partition"
        )

    def _partition_rows(self, msg: SplitConfirmMsg) -> None:
        state = self._column_tasks.get(msg.task)
        if state is None or state.row_ids is None:
            return  # revoked while queued
        ids = state.row_ids
        split = msg.split
        values = self.column_values(split.column)[ids]
        go_left = route_training_rows(values, split)
        sides = {0: ids[go_left], 1: ids[~go_left]}
        stats = {side: self._stats_of(rows) for side, rows in sides.items()}
        # Keep only the sides a child task will fetch: the master applies
        # the same leaf rule to the same stats and plans no task for a leaf.
        plan = state.plan
        kept = {
            side: rows
            for side, rows in sides.items()
            if not should_stop(stats[side], plan.depth + 1, plan.ctx.config)
        }
        if kept:
            store = _DelegateStore(
                sides=kept,
                served=dict.fromkeys(kept, 0),
                alloc_bytes={side: int(r.nbytes) for side, r in kept.items()},
            )
            self._delegate[msg.task] = store
            self.host.alloc(sum(store.alloc_bytes.values()))
        # The parent I_x itself is no longer needed.
        self.host.free(state.alloc_bytes)
        del self._column_tasks[msg.task]
        done = SplitDoneMsg(
            task=msg.task, left_stats=stats[0], right_stats=stats[1]
        )
        self._send(
            self.master_id, MSG_SPLIT_DONE, done, 2 * self.cost.control_bytes
        )

    def _on_task_delete(self, msg: TaskDeleteMsg) -> None:
        state = self._column_tasks.pop(msg.task, None)
        if state is not None and state.alloc_bytes:
            self.host.free(state.alloc_bytes)

    # ------------------------------------------------------------------
    # delegate (parent-worker) role
    # ------------------------------------------------------------------
    def _on_row_request(self, msg: RowRequestMsg) -> None:
        if self._is_revoked(msg.parent_task):
            return  # requester's tree was revoked too; it will not wait
        store = self._delegate.get(msg.parent_task)
        if store is None or msg.side not in store.sides:
            raise ProtocolError(
                f"row_request for {msg.parent_task} side {msg.side} but "
                f"worker {self.worker_id} holds no such rows"
            )
        row_ids = store.sides[msg.side]
        store.served[msg.side] += 1
        if (
            self.arena is not None
            and int(row_ids.nbytes) >= SHM_THRESHOLD_BYTES
            and msg.requester in self.shm_peers
        ):
            # Zero-copy wire path: park the side in the arena once (every
            # replica fetch of the same side reuses the slot) and ship
            # only the descriptor.
            ref = store.shm_refs.get(msg.side)
            if ref is None:
                ref = self.arena.write(row_ids)
                store.shm_refs[msg.side] = ref
            self._send(
                msg.requester,
                MSG_ROW_RESPONSE_SHM,
                RowResponseShmMsg(tag=msg.tag, ref=ref),
                self.cost.control_bytes,
            )
            return
        response = RowResponseMsg(tag=msg.tag, row_ids=row_ids)
        self._send(
            msg.requester,
            MSG_ROW_RESPONSE,
            response,
            self.cost.row_ids_bytes(int(row_ids.size)),
        )

    def _on_expect_fetches(self, msg: ExpectFetchesMsg) -> None:
        """Master reports a child side resolved: free the stored rows.

        By causality the child's workers fetched their rows before the
        child's results reached the master, so ``served`` must already equal
        ``count`` — asserted here as a protocol invariant.  (The paper frees
        incrementally as fetches are served; freeing at resolution is
        equivalent and simpler — see DESIGN.md.)
        """
        if self._is_revoked(msg.task):
            return
        store = self._delegate.get(msg.task)
        if store is None or msg.side not in store.sides:
            raise ProtocolError(
                f"expect_fetches for missing store {msg.task}/{msg.side}"
            )
        if store.served[msg.side] != msg.count:
            raise ProtocolError(
                f"task {msg.task} side {msg.side}: served "
                f"{store.served[msg.side]} fetches, master says {msg.count}"
            )
        self.host.free(store.alloc_bytes[msg.side])
        ref = store.shm_refs.pop(msg.side, None)
        if ref is not None:
            # All fetchers have consumed their copies by causality (their
            # results already reached the master); the slot can recycle.
            self.arena.free(ref)
        del store.sides[msg.side]
        if not store.sides:
            del self._delegate[msg.task]

    # ------------------------------------------------------------------
    # key-worker role (subtree-tasks)
    # ------------------------------------------------------------------
    def _on_subtree_plan(self, plan: SubtreePlanMsg) -> None:
        if self._is_revoked(plan.task):
            return
        state = _KeyTaskState(
            plan=plan, pending_servers=set(plan.server_map)
        )
        self._key_tasks[plan.task] = state
        for server, columns in plan.server_map.items():
            request = ColumnRequestMsg(
                task=plan.task,
                columns=columns,
                parent=plan.parent,
                ctx=plan.ctx,
                key_worker=self.worker_id,
            )
            self._send(
                server,
                MSG_COLUMN_REQUEST,
                request,
                self.cost.plan_bytes(len(columns)),
            )
        if plan.parent is None:
            self._key_rows_ready(plan.task, RootRows(plan.ctx).materialize())
        else:
            self._request_rows(plan.parent, ("key", plan.task))

    def _key_rows_ready(self, task: TaskId, row_ids: np.ndarray) -> None:
        state = self._key_tasks.get(task)
        if state is None:
            return
        state.row_ids = row_ids
        nbytes = int(row_ids.nbytes)
        state.alloc_bytes += nbytes
        self.host.alloc(nbytes)
        self._maybe_run_subtree(task)

    def _on_column_response(self, msg: ColumnResponseMsg) -> None:
        state = self._key_tasks.get(msg.task)
        if state is None:
            return  # revoked
        if msg.server not in state.pending_servers:
            raise ProtocolError(
                f"unexpected column_response from {msg.server} for {msg.task}"
            )
        state.pending_servers.discard(msg.server)
        nbytes = 0
        for col, arr in zip(msg.columns, msg.arrays):
            state.column_data[col] = arr
            nbytes += int(arr.nbytes)
        state.alloc_bytes += nbytes
        self.host.alloc(nbytes)
        self._maybe_run_subtree(msg.task)

    def _maybe_run_subtree(self, task: TaskId) -> None:
        state = self._key_tasks.get(task)
        if (
            state is None
            or state.running
            or state.row_ids is None
            or state.pending_servers
        ):
            return
        state.running = True
        plan = state.plan
        n = int(state.row_ids.size)
        n_candidates = len(plan.ctx.candidate_columns)
        ops = self.cost.subtree_build_ops(n, max(1, n_candidates))
        self.host.execute(
            ops, lambda: self._build_subtree(task), label="subtree_task"
        )

    def _build_subtree(self, task: TaskId) -> None:
        state = self._key_tasks.pop(task, None)
        if state is None or state.row_ids is None:
            return  # revoked while queued
        plan = state.plan
        ids = state.row_ids
        config = plan.ctx.config
        # D_x: the fetched candidate columns and the gathered local ones —
        # in hist mode a numeric column is its codes either way.
        columns = dict(state.column_data)
        for col in plan.local_columns:
            columns[col] = self.held_column(col, config)[ids]
        root = build_subtree(
            self.table.schema,
            columns,
            self.table.target[ids],
            config,
            np.arange(ids.size, dtype=np.int64),
            candidate_columns=plan.ctx.candidate_columns,
            root_path=plan.task[1],
            host_stats=self.host.stats,
            thresholds=book_for_config(self.threshold_book, config),
        )
        n_nodes = root.count_nodes()
        self.host.stats.subtree_nodes_built += n_nodes
        result = SubtreeResultMsg(
            task=task,
            worker=self.worker_id,
            subtree=node_to_dict(root),
            n_nodes=n_nodes,
        )
        self._send(
            self.master_id,
            MSG_SUBTREE_RESULT,
            result,
            self.cost.subtree_bytes(n_nodes),
        )
        self.host.free(state.alloc_bytes)

    # ------------------------------------------------------------------
    # column-server role
    # ------------------------------------------------------------------
    def _on_column_request(self, msg: ColumnRequestMsg) -> None:
        if self._is_revoked(msg.task):
            return
        state = _ServeTaskState(request=msg)
        self._serve_tasks[msg.task] = state
        if msg.parent is None:
            self._serve_rows_ready(msg.task, RootRows(msg.ctx).materialize())
        else:
            self._request_rows(msg.parent, ("serve", msg.task))

    def _serve_rows_ready(self, task: TaskId, row_ids: np.ndarray) -> None:
        state = self._serve_tasks.get(task)
        if state is None:
            return
        state.row_ids = row_ids
        msg = state.request
        ops = self.cost.gather_ops(int(row_ids.size), len(msg.columns))
        self.host.execute(
            ops, lambda: self._serve_columns(task), label="serve"
        )

    def _serve_columns(self, task: TaskId) -> None:
        state = self._serve_tasks.pop(task, None)
        if state is None or state.row_ids is None:
            return
        msg = state.request
        ids = state.row_ids
        # Hist mode: numeric columns ship as their stored int8/int16
        # bucket codes; categorical columns still ship raw values.
        arrays = [self.held_column(c, msg.ctx.config)[ids] for c in msg.columns]
        if hist_active(msg.ctx.config):
            size = self.cost.control_bytes + sum(a.nbytes for a in arrays)
        else:
            size = self.cost.column_data_bytes(int(ids.size), len(msg.columns))
        response = ColumnResponseMsg(
            task=task,
            server=self.worker_id,
            columns=msg.columns,
            arrays=arrays,
        )
        self._send(msg.key_worker, MSG_COLUMN_RESPONSE, response, size)

    # ------------------------------------------------------------------
    # shared row-response routing
    # ------------------------------------------------------------------
    def _on_row_response(self, msg: RowResponseMsg) -> None:
        self._route_rows(msg.tag, msg.row_ids)

    def _on_row_response_shm(self, msg: RowResponseShmMsg) -> None:
        """Materialize a shared-memory row-id descriptor, then route it."""
        if self.arena is None:
            raise ProtocolError(
                f"worker {self.worker_id} got an shm row response but has "
                f"no arena (transport misconfiguration)"
            )
        if self._is_revoked(msg.tag[1]):
            return
        try:
            row_ids = self.arena.read(msg.ref)
        except FileNotFoundError:
            # The owning worker died and the driver swept its arena before
            # the master's revoke_tree reached us.  A vanished segment
            # proves the sender is dead, so the tagged tree is being
            # revoked — drop the response; the revocation cleans up the
            # waiting task state.
            self.host.stats.stale_shm_drops += 1
            return
        self.host.stats.shm_bytes_mapped += row_ids.nbytes
        self._route_rows(msg.tag, row_ids)

    def _route_rows(self, tag: tuple[str, TaskId], row_ids: np.ndarray) -> None:
        role, task = tag
        if self._is_revoked(task):
            return
        if role == "column":
            self._column_rows_ready(task, row_ids)
        elif role == "key":
            self._key_rows_ready(task, row_ids)
        elif role == "serve":
            self._serve_rows_ready(task, row_ids)
        else:
            raise ProtocolError(f"unknown row-response role {role!r}")

    # ------------------------------------------------------------------
    # fault recovery
    # ------------------------------------------------------------------
    def _on_revoke_tree(self, msg: RevokeTreeMsg) -> None:
        """Drop all state of a revoked tree, releasing its memory."""
        uid = msg.tree_uid
        self.host.stats.revoked_trees_seen += 1
        self._revoked_trees.add(uid)
        for task in [t for t in self._column_tasks if t[0] == uid]:
            state = self._column_tasks.pop(task)
            if state.alloc_bytes:
                self.host.free(state.alloc_bytes)
        for task in [t for t in self._key_tasks if t[0] == uid]:
            state = self._key_tasks.pop(task)
            if state.alloc_bytes:
                self.host.free(state.alloc_bytes)
        for task in [t for t in self._serve_tasks if t[0] == uid]:
            self._serve_tasks.pop(task)
        for task in [t for t in self._delegate if t[0] == uid]:
            store = self._delegate.pop(task)
            self.host.free(sum(store.alloc_bytes[s] for s in store.sides))
            for ref in store.shm_refs.values():
                self.arena.free(ref)
            store.shm_refs.clear()

    def _on_master_failover(self, msg: MasterFailoverMsg) -> None:
        """The secondary master took over: drop everything, redirect."""
        self.master_id = msg.new_master_id
        self._min_live_uid = msg.min_live_uid
        for uid in {t[0] for t in self._column_tasks} | {
            t[0] for t in self._key_tasks
        } | {t[0] for t in self._serve_tasks} | {
            t[0] for t in self._delegate
        }:
            self._on_revoke_tree(RevokeTreeMsg(tree_uid=uid))

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def outstanding_state(self) -> dict[str, int]:
        """Counts of live task objects (should be all zero after a run)."""
        state = {
            "column_tasks": len(self._column_tasks),
            "key_tasks": len(self._key_tasks),
            "serve_tasks": len(self._serve_tasks),
            "delegate_stores": len(self._delegate),
        }
        if self.arena is not None:
            # Parked row-id slices not yet freed — folded into the same
            # end-of-run leak invariant the task objects are held to.
            state["arena_slices"] = self.arena.live_slices
        return state
