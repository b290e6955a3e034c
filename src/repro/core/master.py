"""Master actor: task management, tree assembly, fault recovery.

The master is dedicated to task management and never computes tasks itself
(paper Section IV) — in both split modes: a column task answers with
already-scored splits, so the master holds no numeric state about the data.
Its two real-system threads map onto its host as:

* ``theta_main`` — the *dispatch pump*: a self-rescheduling loop that pops
  plans from ``B_plan`` (head first), computes the greedy worker assignment
  against ``M_work``, and sends the plan messages.  The host paces the
  next turn (:meth:`~repro.runtime.base.Host.pace`): on the simulator, on
  the master's NIC serialization time plus the assignment compute cost, so
  ``B_plan`` genuinely queues up under load and the hybrid BFS/DFS insertion
  order matters — as in the real system.
* ``theta_recv`` — the message handlers: column results are arbitrated into
  the overall best split, the delegate is confirmed, children are created
  and enqueued, subtree results are grafted, and ``T_prog`` tracks tree
  completion.

Fault recovery restarts affected trees wholesale (a documented
simplification of Appendix E's per-task revocation; see DESIGN.md): on a
worker crash the master drops the dead machine from every column's holder
list (column replicas make this safe for ``k >= 2``), broadcasts a tree
revocation, and re-admits the affected trees under fresh uids.  A tree is
*affected* only if the dead worker was involved in one of its in-flight
tasks (as an assigned worker, delegate, key worker, column server, or the
parent-store holder of a task or queued plan) — trees the dead worker
never touched keep running undisturbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..cluster import Message
from ..data.schema import ProblemKind
from ..data.table import DataTable
from .config import SystemConfig, TreeKind
from .jobs import TrainingJob
from .load_balance import (
    LoadMatrix,
    TaskCharge,
    assign_column_task,
    assign_subtree_task,
)
from .scheduler import PlanDeque, ProgressTable, TreePool, TreeTicket
from .splits import CandidateSplit
from .tasks import (
    MSG_COLUMN_PLAN,
    MSG_EXPECT_FETCHES,
    MSG_REVOKE_TREE,
    MSG_SPLIT_CONFIRM,
    MSG_SUBTREE_PLAN,
    MSG_TASK_DELETE,
    ColumnPlanMsg,
    ColumnResultMsg,
    ExpectFetchesMsg,
    ParentRef,
    PlanEntry,
    RevokeTreeMsg,
    SplitConfirmMsg,
    SplitDoneMsg,
    SubtreePlanMsg,
    SubtreeResultMsg,
    TaskCounters,
    TaskDeleteMsg,
    TaskId,
    TreeContext,
)
from .tasks import TreeCompletedSync
from .builder import (
    extra_tree_column_order,
    sample_candidate_columns,
    should_stop,
    split_is_useful,
)
from .tree import DecisionTree, TreeNode, node_from_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.base import Host


@dataclass
class _TableInfo:
    """What the master needs to know about the training table."""

    n_rows: int
    n_columns: int
    problem: ProblemKind
    n_classes: int

    @classmethod
    def of(cls, table: DataTable) -> "_TableInfo":
        """The master's view of ``table``."""
        return cls(table.n_rows, table.n_columns, table.problem, table.n_classes)


@dataclass
class _TreeBuild:
    """Assembly state of one tree under construction."""

    uid: int
    ticket: TreeTicket
    job: TrainingJob
    ctx: TreeContext
    nodes: dict[int, TreeNode] = field(default_factory=dict)

    def attach(self, path: int, node: TreeNode) -> None:
        """Register a node and link it under its parent (heap numbering)."""
        self.nodes[path] = node
        if path > 1:
            parent = self.nodes[path >> 1]
            if path & 1:
                parent.right = node
            else:
                parent.left = node


@dataclass
class _MasterTaskState:
    """Entry of the master's task table ``T_task``."""

    entry: PlanEntry
    charge: TaskCharge
    is_subtree: bool
    # column-task fields:
    expected_workers: frozenset[int] = frozenset()
    results: dict[int, ColumnResultMsg] = field(default_factory=dict)
    delegate: int | None = None
    split: CandidateSplit | None = None
    fetch_count: int = 0  # row fetches from this task's parent store
    extra_try_index: int = 0
    # subtree-task fields:
    key_worker: int | None = None
    n_servers: int = 0
    servers: frozenset[int] = frozenset()


class MasterActor:
    """The TreeServer master, on the host of machine 0 (or of a promoted
    secondary master).

    Workers are machines ``1..system.n_workers``.
    """

    def __init__(
        self,
        host: Host,
        table_info: _TableInfo,
        jobs: list[TrainingJob],
        system: SystemConfig,
        holders: dict[int, list[int]],
        uid_offset: int = 0,
        secondary_id: int | None = None,
        completed: dict[str, dict[int, DecisionTree]] | None = None,
    ) -> None:
        self.host = host
        self.info = table_info
        self.system = system
        self.cost = host.cost
        self.holders = {c: list(ws) for c, ws in holders.items()}
        self.live_workers = sorted(
            {w for ws in holders.values() for w in ws}
        ) or list(range(1, system.n_workers + 1))
        self.jobs = jobs
        completed = completed or {}
        name_to_index = {job.name: j for j, job in enumerate(jobs)}
        already = frozenset(
            (name_to_index[name], index)
            for name, trees in completed.items()
            for index in trees
        )
        self.pool = TreePool(
            jobs=jobs, n_pool=system.n_pool, already_completed=already
        )
        self.bplan = PlanDeque(
            tau_dfs=system.tau_dfs, policy=system.scheduling_policy
        )
        self.progress = ProgressTable()
        self.matrix = LoadMatrix(n_workers=system.n_workers)
        self.ttask: dict[TaskId, _MasterTaskState] = {}
        self.builds: dict[int, _TreeBuild] = {}
        self.counters = TaskCounters()
        self.results: dict[str, list[DecisionTree | None]] = {
            job.name: [None] * job.n_trees for job in jobs
        }
        for name, trees in completed.items():
            for index, tree in trees.items():
                self.results[name][index] = tree
        self._next_uid = uid_offset + 1
        self._pump_busy = False
        self._revoked: set[int] = set()
        self.secondary_id = secondary_id

    # ------------------------------------------------------------------
    # startup / admission
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Admit the first pool of trees and begin dispatching."""
        self._admit_trees()
        self._pump()

    def _admit_trees(self) -> None:
        while True:
            ticket = self.pool.admit()
            if ticket is None:
                return
            self._start_tree(ticket)

    def _start_tree(self, ticket: TreeTicket) -> None:
        uid = self._next_uid
        self._next_uid += 1
        job = self.jobs[ticket.job_index]
        config = ticket.request.config
        ctx = TreeContext(
            tree_uid=uid,
            config=config,
            candidate_columns=sample_candidate_columns(
                config, self.info.n_columns
            ),
            bootstrap=job.bootstrap_rows,
            n_table_rows=self.info.n_rows,
        )
        self.builds[uid] = _TreeBuild(uid=uid, ticket=ticket, job=job, ctx=ctx)
        self.progress.start_tree(uid)
        n = self.info.n_rows
        entry = PlanEntry(
            task=(uid, 1),
            n_rows=n,
            depth=0,
            parent=None,
            ctx=ctx,
            is_subtree=n <= self.system.tau_subtree,
        )
        self.bplan.insert(entry)
        self.counters.bplan_peak = max(self.counters.bplan_peak, len(self.bplan))

    # ------------------------------------------------------------------
    # the dispatch pump (theta_main)
    # ------------------------------------------------------------------
    @property
    def halted(self) -> bool:
        """Whether this master's machine has crashed."""
        return self.host.halted

    def _pump(self) -> None:
        if self._pump_busy or self.halted:
            return
        entry = self.bplan.pop()
        if entry is None:
            return
        self._pump_busy = True
        n_messages = self._dispatch(entry)
        self.counters.plans_dispatched += 1
        dispatch_seconds = self.cost.compute_seconds(
            self.cost.master_dispatch_ops(
                len(entry.ctx.candidate_columns), len(self.live_workers)
            )
        )
        self.host.pace(dispatch_seconds, n_messages > 0, self._pump_unlock)

    def _pump_unlock(self) -> None:
        self._pump_busy = False
        if not self.halted:
            self._pump()

    def _send(self, dst: int, kind: str, payload, size: int) -> None:
        self.host.send(dst, kind, payload, size)

    def _dispatch(self, entry: PlanEntry) -> int:
        """Assign one plan to workers; returns number of messages sent."""
        if entry.tree_uid in self._revoked:
            return 0
        if entry.is_subtree:
            return self._dispatch_subtree(entry)
        return self._dispatch_column(entry)

    def _dispatch_subtree(self, entry: PlanEntry) -> int:
        self.counters.subtree_tasks += 1
        if "first_subtree_dispatch_us" not in self.counters.extra:
            # When the first CPU-bound subtree-task hits a worker — the
            # quantity the hybrid scheduling ablation measures.
            self.counters.extra["first_subtree_dispatch_us"] = int(
                self.host.now * 1e6
            )
        columns = entry.ctx.candidate_columns
        parent_worker = entry.parent.worker if entry.parent else None
        assignment = assign_subtree_task(
            self.matrix,
            self.live_workers,
            self.holders,
            columns,
            parent_worker,
            entry.n_rows,
            self.cost,
        )
        state = _MasterTaskState(
            entry=entry,
            charge=assignment.charge,
            is_subtree=True,
            key_worker=assignment.key_worker,
            n_servers=len(assignment.server_map),
            servers=frozenset(assignment.server_map),
        )
        self.ttask[entry.task] = state
        plan = SubtreePlanMsg(
            task=entry.task,
            parent=entry.parent,
            ctx=entry.ctx,
            n_rows=entry.n_rows,
            depth=entry.depth,
            local_columns=assignment.local_columns,
            server_map=assignment.server_map,
        )
        self._send(
            assignment.key_worker,
            MSG_SUBTREE_PLAN,
            plan,
            self.cost.plan_bytes(len(columns)),
        )
        return 1

    def _dispatch_column(self, entry: PlanEntry) -> int:
        self.counters.column_tasks += 1
        state = self.ttask.get(entry.task)
        if state is None:
            state = _MasterTaskState(
                entry=entry, charge=TaskCharge(), is_subtree=False
            )
            self.ttask[entry.task] = state
        if entry.ctx.config.tree_kind is TreeKind.EXTRA:
            order = extra_tree_column_order(
                entry.ctx.config.seed, entry.path, entry.ctx.candidate_columns
            )
            if state.extra_try_index >= len(order):
                # No column yields a valid random split: the node is a leaf.
                self._finalize_column_leaf(state)
                return 0
            columns: tuple[int, ...] = (order[state.extra_try_index],)
            state.extra_try_index += 1
        else:
            columns = entry.ctx.candidate_columns
        parent_worker = entry.parent.worker if entry.parent else None
        assignment = assign_column_task(
            self.matrix,
            self.holders,
            columns,
            parent_worker,
            entry.n_rows,
            self.cost,
        )
        # Accumulate the charge (extra-tree retries stack onto one sheet).
        state.charge.entries.extend(assignment.charge.entries)
        state.expected_workers = frozenset(assignment.worker_columns)
        state.results = {}
        n_messages = 0
        for worker, cols in assignment.worker_columns.items():
            plan = ColumnPlanMsg(
                task=entry.task,
                columns=cols,
                parent=entry.parent,
                ctx=entry.ctx,
                n_rows=entry.n_rows,
                depth=entry.depth,
            )
            self._send(
                worker, MSG_COLUMN_PLAN, plan, self.cost.plan_bytes(len(cols))
            )
            n_messages += 1
        state.fetch_count += len(assignment.worker_columns)
        return n_messages

    # ------------------------------------------------------------------
    # message dispatch (theta_recv)
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        """Route one delivered message."""
        if self.halted:
            return
        payload = message.payload
        if isinstance(payload, ColumnResultMsg):
            self._on_column_result(payload)
        elif isinstance(payload, SplitDoneMsg):
            self._on_split_done(payload)
        elif isinstance(payload, SubtreeResultMsg):
            self._on_subtree_result(payload)
        else:
            raise RuntimeError(
                f"master got unknown payload {type(payload).__name__}"
            )

    # -- column-task results -------------------------------------------
    def _on_column_result(self, msg: ColumnResultMsg) -> None:
        if msg.task[0] in self._revoked:
            return
        state = self.ttask.get(msg.task)
        if state is None:
            raise RuntimeError(f"column result for unknown task {msg.task}")
        state.results[msg.worker] = msg
        if frozenset(state.results) != state.expected_workers:
            return
        self._resolve_column_task(state)

    def _resolve_column_task(self, state: _MasterTaskState) -> None:
        entry = state.entry
        # All workers computed identical node stats; take any deterministically.
        first = state.results[min(state.results)]
        stats = first.stats
        build = self.builds[entry.tree_uid]
        node = build.nodes.get(entry.path)
        if node is None:  # root task: the node does not exist yet
            node = TreeNode(
                node_id=entry.path,
                depth=entry.depth,
                n_rows=stats.n_rows,
                prediction=stats.prediction(),
            )
            build.attach(entry.path, node)

        config = entry.ctx.config
        criterion = config.resolved_criterion(
            self.info.problem is ProblemKind.CLASSIFICATION
        )
        best: CandidateSplit | None = None
        best_worker: int | None = None
        for worker in sorted(state.results):
            for split in state.results[worker].splits:
                if split is None:
                    continue
                if best is None or split.sort_key() < best.sort_key():
                    best = split
                    best_worker = worker
        useful = (
            not should_stop(stats, entry.depth, config)
            and split_is_useful(best, stats.impurity(criterion), config)
        )
        if not useful and config.tree_kind is TreeKind.EXTRA:
            # Try the next column in the node's random order (or give up
            # and leaf the node inside _dispatch_column).
            for worker in state.results:
                self._send(
                    worker,
                    MSG_TASK_DELETE,
                    TaskDeleteMsg(state.entry.task),
                    self.cost.control_bytes,
                )
            retried = self._dispatch_column(entry)
            if retried:
                self.counters.extra["extra_retries"] = (
                    self.counters.extra.get("extra_retries", 0) + 1
                )
            return
        if not useful:
            self._finalize_column_leaf(state)
            return

        assert best is not None and best_worker is not None
        state.split = best
        state.delegate = best_worker
        self._send(
            best_worker,
            MSG_SPLIT_CONFIRM,
            SplitConfirmMsg(task=entry.task, split=best),
            self.cost.control_bytes,
        )
        for worker in state.expected_workers:
            if worker != best_worker:
                self._send(
                    worker,
                    MSG_TASK_DELETE,
                    TaskDeleteMsg(entry.task),
                    self.cost.control_bytes,
                )
        self._notify_parent_resolved(state)

    def _finalize_column_leaf(self, state: _MasterTaskState) -> None:
        """The node stays a leaf: no (useful) split exists."""
        entry = state.entry
        for worker in state.results:
            self._send(
                worker,
                MSG_TASK_DELETE,
                TaskDeleteMsg(entry.task),
                self.cost.control_bytes,
            )
        self.counters.leaves_finalized += 1
        self._notify_parent_resolved(state)
        self._complete_task(state, net_children=0)

    def _notify_parent_resolved(self, state: _MasterTaskState) -> None:
        """Tell this task's parent worker its stored side can be freed."""
        parent = state.entry.parent
        if parent is None:
            return
        self._send(
            parent.worker,
            MSG_EXPECT_FETCHES,
            ExpectFetchesMsg(
                task=parent.task, side=parent.side, count=state.fetch_count
            ),
            self.cost.control_bytes,
        )

    # -- split completion ------------------------------------------------
    def _on_split_done(self, msg: SplitDoneMsg) -> None:
        if msg.task[0] in self._revoked:
            return
        state = self.ttask.get(msg.task)
        if state is None or state.split is None or state.delegate is None:
            raise RuntimeError(f"split_done for unresolved task {msg.task}")
        entry = state.entry
        build = self.builds[entry.tree_uid]
        node = build.nodes[entry.path]
        node.split = state.split

        children = 0
        for side, child_stats in ((0, msg.left_stats), (1, msg.right_stats)):
            child_path = 2 * entry.path + side
            expected_n = state.split.n_left if side == 0 else state.split.n_right
            if child_stats.n_rows != expected_n:
                raise RuntimeError(
                    f"task {msg.task}: child {side} has {child_stats.n_rows} "
                    f"rows, split predicted {expected_n}"
                )
            child_node = TreeNode(
                node_id=child_path,
                depth=entry.depth + 1,
                n_rows=child_stats.n_rows,
                prediction=child_stats.prediction(),
            )
            build.attach(child_path, child_node)
            if should_stop(child_stats, entry.depth + 1, entry.ctx.config):
                # The delegate applied the same rule and kept no rows for
                # this side, so there is nothing to free.
                self.counters.leaves_finalized += 1
                continue
            children += 1
            child_entry = PlanEntry(
                task=(entry.tree_uid, child_path),
                n_rows=child_stats.n_rows,
                depth=entry.depth + 1,
                parent=ParentRef(
                    task=entry.task, side=side, worker=state.delegate
                ),
                ctx=entry.ctx,
                is_subtree=child_stats.n_rows <= self.system.tau_subtree,
            )
            self.bplan.insert(child_entry)
        self.counters.bplan_peak = max(self.counters.bplan_peak, len(self.bplan))
        self._complete_task(state, net_children=children)
        self._pump()

    # -- subtree results ---------------------------------------------------
    def _on_subtree_result(self, msg: SubtreeResultMsg) -> None:
        if msg.task[0] in self._revoked:
            return
        state = self.ttask.get(msg.task)
        if state is None:
            raise RuntimeError(f"subtree result for unknown task {msg.task}")
        entry = state.entry
        build = self.builds[entry.tree_uid]
        subtree_root = node_from_dict(msg.subtree)
        build.attach(entry.path, subtree_root)
        # Row fetches for a subtree task: the key worker plus each server.
        state.fetch_count = state.n_servers + 1
        self._notify_parent_resolved(state)
        self._complete_task(state, net_children=0)
        self._pump()

    # -- shared completion --------------------------------------------------
    def _complete_task(self, state: _MasterTaskState, net_children: int) -> None:
        entry = state.entry
        self.matrix.revert(state.charge)
        del self.ttask[entry.task]
        done = self.progress.add(entry.tree_uid, net_children - 1)
        if done:
            self._complete_tree(entry.tree_uid)
        self._pump()

    def _complete_tree(self, uid: int) -> None:
        build = self.builds.pop(uid)
        root = build.nodes.get(1)
        if root is None:
            raise RuntimeError(f"tree {uid} completed without a root")
        tree = DecisionTree(
            root=root,
            problem=self.info.problem,
            n_classes=self.info.n_classes,
            tree_id=build.ticket.tree_index,
        )
        self.results[build.job.name][build.ticket.tree_index] = tree
        self.counters.trees_completed += 1
        if self.secondary_id is not None:
            # Appendix E: the master periodically synchronizes job metadata
            # and tree construction progress to the secondary master; we
            # sync at every tree completion (the natural checkpoint).
            self._send(
                self.secondary_id,
                "tree_completed_sync",
                TreeCompletedSync(
                    job_name=build.job.name,
                    tree_index=build.ticket.tree_index,
                    tree=tree.to_dict(),
                ),
                self.cost.subtree_bytes(tree.n_nodes),
            )
        self.pool.tree_completed(build.ticket)
        self._admit_trees()
        self._pump()

    # ------------------------------------------------------------------
    # fault recovery
    # ------------------------------------------------------------------
    def on_worker_crashed(self, worker: int) -> None:
        """Handle a detected worker failure (see module docstring)."""
        if self.halted or worker not in self.live_workers:
            return
        self.live_workers.remove(worker)
        for col, holders in self.holders.items():
            if worker in holders:
                holders.remove(worker)
            if not holders:
                raise RuntimeError(
                    f"column {col} lost all replicas (k too small for the "
                    f"crash pattern)"
                )
        for uid in self._affected_tree_uids(worker):
            self._restart_tree(self.builds[uid])
        self.counters.recovered_workers += 1
        # Drop the dead row only after the revoked tasks' charges were
        # reverted, so the matrix balances back to zero.
        self.matrix.drop_worker(worker)

    def _task_involves(self, state: _MasterTaskState, worker: int) -> bool:
        """Whether an in-flight task touched ``worker`` in any role."""
        if worker in state.expected_workers or worker == state.delegate:
            return True
        if worker == state.key_worker or worker in state.servers:
            return True
        parent = state.entry.parent
        if parent is not None and parent.worker == worker:
            return True
        # Charge sheet: extra-tree retries accumulate charges from earlier
        # fan-outs whose workers may no longer appear in expected_workers;
        # reverting such a sheet after drop_worker would unbalance M_work.
        return any(w == worker for w, _, _ in state.charge.entries)

    def _affected_tree_uids(self, worker: int) -> list[int]:
        """Trees the dead worker was involved in — and only those.

        Involvement means a live ``T_task`` entry references the worker
        (assigned, delegate, key, server, parent-store holder, or charged),
        or a queued ``B_plan`` entry's parent row store (``I_xl``/``I_xr``)
        lives on it.  Every delegate store the dead worker held is reachable
        through one of these references, so trees outside this set lost no
        state and need not be revoked.
        """
        affected = {
            task[0]
            for task, state in self.ttask.items()
            if self._task_involves(state, worker)
        }
        for entry in self.bplan.entries():
            if entry.parent is not None and entry.parent.worker == worker:
                affected.add(entry.tree_uid)
        return sorted(affected)

    def _restart_tree(self, build: _TreeBuild) -> None:
        """Revoke a tree and re-admit it under a fresh uid."""
        uid = build.uid
        self._revoked.add(uid)
        self.counters.revoked_trees += 1
        self.bplan.remove_tree(uid)
        for task in [t for t in self.ttask if t[0] == uid]:
            state = self.ttask.pop(task)
            self.matrix.revert(state.charge)
        self.progress.drop(uid)
        del self.builds[uid]
        for w in self.live_workers:
            self._send(
                w,
                MSG_REVOKE_TREE,
                RevokeTreeMsg(tree_uid=uid),
                self.cost.control_bytes,
            )
        self.pool.tree_restarted()
        self._start_tree(build.ticket)
        self._pump()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def is_done(self) -> bool:
        """Whether every tree of every job has completed."""
        return self.pool.all_done()

    def trained_trees(self, job_name: str) -> list[DecisionTree]:
        """Trees of a completed job, in submission order."""
        trees = self.results[job_name]
        missing = [i for i, t in enumerate(trees) if t is None]
        if missing:
            raise RuntimeError(
                f"job {job_name!r} incomplete: trees {missing} missing"
            )
        return [t for t in trees if t is not None]
