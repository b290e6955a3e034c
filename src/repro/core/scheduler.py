"""Master-side scheduling structures: ``B_plan``, ``T_prog``, tree pool.

Three cooperating pieces of the paper's Section III:

* :class:`PlanDeque` — the hybrid BFS/DFS plan buffer.  New tasks with
  ``|D_x| <= tau_dfs`` are pushed at the *head* (depth-first: schedules
  CPU-bound subtree work early); larger tasks are appended at the *tail*
  (breadth-first: expands upper levels to generate parallelism).
* :class:`ProgressTable` — the paper's ``T_prog``: a per-tree pending-task
  counter.  A column-task that splits nets +1 (consumes one task, creates
  two); a subtree-task or leaf nets -1; zero means the tree is complete and
  can be flushed.
* :class:`TreePool` — admission control: at most ``n_pool`` trees under
  construction, with stage dependencies (boosting layers) gating
  eligibility.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .jobs import TrainingJob, TreeRequest
from .tasks import PlanEntry


class PlanDeque:
    """The plan buffer ``B_plan`` with the paper's head/tail insertion rule.

    ``policy`` selects the insertion rule: ``"hybrid"`` (the paper's —
    small nodes to the head, large to the tail), ``"fifo"`` (pure BFS) or
    ``"lifo"`` (pure DFS); the alternatives exist for the ablation bench.
    """

    def __init__(self, tau_dfs: int, policy: str = "hybrid") -> None:
        if policy not in ("hybrid", "fifo", "lifo"):
            raise ValueError(f"unknown policy {policy!r}")
        self._deque: deque[PlanEntry] = deque()
        self.tau_dfs = tau_dfs
        self.policy = policy
        self.head_insertions = 0
        self.tail_insertions = 0
        self.peak_size = 0

    def insert(self, entry: PlanEntry) -> None:
        """Insert by the configured rule (hybrid: small nodes to the head
        for DFS, large to the tail for BFS)."""
        if self.policy == "lifo" or (
            self.policy == "hybrid" and entry.n_rows <= self.tau_dfs
        ):
            self._deque.appendleft(entry)
            self.head_insertions += 1
        else:
            self._deque.append(entry)
            self.tail_insertions += 1
        self.peak_size = max(self.peak_size, len(self._deque))

    def push_head(self, entry: PlanEntry) -> None:
        """Force head insertion (fault recovery re-queues tasks ASAP)."""
        self._deque.appendleft(entry)
        self.peak_size = max(self.peak_size, len(self._deque))

    def pop(self) -> PlanEntry | None:
        """Fetch the next plan for assignment (from the head)."""
        if not self._deque:
            return None
        return self._deque.popleft()

    def entries(self) -> tuple[PlanEntry, ...]:
        """Snapshot of the queued plans, head first (fault-recovery scan)."""
        return tuple(self._deque)

    def remove_tree(self, tree_uid: int) -> int:
        """Drop every queued plan of a tree (fault recovery); returns count."""
        kept = [e for e in self._deque if e.tree_uid != tree_uid]
        removed = len(self._deque) - len(kept)
        self._deque = deque(kept)
        return removed

    def __len__(self) -> int:
        return len(self._deque)

    def __bool__(self) -> bool:
        return bool(self._deque)


class ProgressTable:
    """``T_prog``: pending-task counters per tree under construction."""

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}

    def start_tree(self, tree_uid: int, initial_tasks: int = 1) -> None:
        """Register a newly admitted tree."""
        if tree_uid in self._counts:
            raise ValueError(f"tree {tree_uid} already tracked")
        self._counts[tree_uid] = initial_tasks

    def add(self, tree_uid: int, delta: int) -> bool:
        """Apply a net task-count change; returns True when the tree is done."""
        if tree_uid not in self._counts:
            raise KeyError(f"tree {tree_uid} not tracked")
        self._counts[tree_uid] += delta
        remaining = self._counts[tree_uid]
        if remaining < 0:
            raise RuntimeError(f"tree {tree_uid} progress went negative")
        if remaining == 0:
            del self._counts[tree_uid]
            return True
        return False

    def drop(self, tree_uid: int) -> None:
        """Forget a tree (fault recovery revocation)."""
        self._counts.pop(tree_uid, None)

    def pending(self, tree_uid: int) -> int:
        """Outstanding task count of a tree (0 if untracked)."""
        return self._counts.get(tree_uid, 0)

    def active_trees(self) -> int:
        """Number of trees currently under construction."""
        return len(self._counts)


@dataclass
class TreeTicket:
    """One tree awaiting or undergoing training."""

    job_index: int
    stage_index: int
    tree_index: int  # index within the whole job (across stages)
    request: TreeRequest


@dataclass
class _StageState:
    remaining: int


@dataclass
class TreePool:
    """Admission control with inter-stage dependencies.

    ``eligible()`` yields tickets whose stage prerequisites are satisfied, in
    submission order; the master admits from it while fewer than ``n_pool``
    trees are active.
    """

    jobs: list[TrainingJob]
    n_pool: int
    #: Trees already trained in a previous master generation (secondary-
    #: master failover): ``(job_index, tree_index)`` pairs to skip.
    already_completed: frozenset[tuple[int, int]] = frozenset()
    _eligible: deque[TreeTicket] = field(default_factory=deque)
    _stage_state: dict[tuple[int, int], _StageState] = field(default_factory=dict)
    _active: int = 0
    _completed: int = 0
    _total: int = 0

    def __post_init__(self) -> None:
        for j, job in enumerate(self.jobs):
            self._total += job.n_trees
            for s, stage in enumerate(job.stages):
                self._stage_state[(j, s)] = _StageState(len(stage.trees))
        for j, job in enumerate(self.jobs):
            self._enqueue_stage(j, 0)

    @property
    def total_trees(self) -> int:
        """Total trees across all jobs."""
        return self._total

    @property
    def completed_trees(self) -> int:
        """Trees fully constructed so far."""
        return self._completed

    def all_done(self) -> bool:
        """Whether every tree of every job has been trained."""
        return self._completed == self._total

    def admit(self) -> TreeTicket | None:
        """Next eligible tree if the pool has capacity, else ``None``."""
        if self._active >= self.n_pool or not self._eligible:
            return None
        self._active += 1
        return self._eligible.popleft()

    def tree_completed(self, ticket: TreeTicket) -> None:
        """Mark a tree done; unlock the next stage when its last tree lands."""
        self._active -= 1
        self._completed += 1
        state = self._stage_state[(ticket.job_index, ticket.stage_index)]
        state.remaining -= 1
        if state.remaining < 0:
            raise RuntimeError("stage completed more trees than it has")
        if state.remaining == 0:
            self._unlock_next_stage(ticket.job_index, ticket.stage_index + 1)

    def tree_restarted(self) -> None:
        """A tree was revoked and re-queued; it stays active (no pool slot
        change) — called for bookkeeping symmetry in fault recovery."""

    def _unlock_next_stage(self, job_index: int, stage_index: int) -> None:
        if stage_index >= len(self.jobs[job_index].stages):
            return
        self._enqueue_stage(job_index, stage_index)

    def _enqueue_stage(self, job_index: int, stage_index: int) -> None:
        """Queue a stage's trees, skipping any already completed
        (secondary-master failover); cascades when a stage was fully done."""
        job = self.jobs[job_index]
        stage = job.stages[stage_index]
        tree_index = sum(len(job.stages[s].trees) for s in range(stage_index))
        state = self._stage_state[(job_index, stage_index)]
        for request in stage.trees:
            if (job_index, tree_index) in self.already_completed:
                self._completed += 1
                state.remaining -= 1
            else:
                self._eligible.append(
                    TreeTicket(job_index, stage_index, tree_index, request)
                )
            tree_index += 1
        if state.remaining == 0:
            self._unlock_next_stage(job_index, stage_index + 1)
