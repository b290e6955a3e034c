"""Worker assignment for tasks — the paper's Section VI cost model.

The master tracks a load matrix ``M_work`` with one row per worker and
three columns — estimated pending Computation, Sending and Receiving
workloads — and assigns each new plan greedily:

* **Subtree-task**: the key worker is the worker with minimum current
  computation load; its Comp is charged ``|I_x| * |C| * log|I_x|``.  Each
  remote column is then assigned to a holding worker chosen to minimize the
  maximum of the four updated transfer entries (the receiving worker's Recv
  of ``I_x``, the parent worker's Send of ``I_x`` — only on the worker's
  first column of this task — plus the server's Send and key worker's Recv
  of the column data).
* **Column-task**: when some live worker holds every candidate column, the
  whole task is one plan on the holder that minimizes
  ``max(Comp_j, Recv_j, Send_parent)`` after the updates, so Comp spreads
  tasks over workers that hold the same columns.  Otherwise each column
  goes to a holding worker chosen to minimize ``max(Recv_j, Send_parent)``
  after the updates.  Either way the chosen worker's Comp is charged the
  one-pass scan cost per column.

Workloads added on assignment are remembered per task and reverted when the
task's result arrives, exactly as the paper describes (``theta_recv``
deducts using the amounts memorized in the task object).  Communication
charges are skipped whenever the requested data is local.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.cost import CostModel

#: Column indices of the load matrix.
COMP, SEND, RECV = 0, 1, 2


@dataclass
class TaskCharge:
    """The workload amounts a task added to ``M_work`` (for later revert)."""

    entries: list[tuple[int, int, float]] = field(default_factory=list)

    def note(self, worker: int, kind: int, amount: float) -> None:
        """Record one addition."""
        self.entries.append((worker, kind, amount))


class LoadMatrix:
    """The mutable ``M_work`` matrix."""

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        # Indexed by worker machine id (ids start at 1; slot 0 unused when
        # the master is machine 0 — callers pass machine ids directly).
        self._values: dict[int, list[float]] = {}

    def ensure(self, worker: int) -> list[float]:
        """Row for a worker, created on first touch."""
        row = self._values.get(worker)
        if row is None:
            row = [0.0, 0.0, 0.0]
            self._values[worker] = row
        return row

    def get(self, worker: int, kind: int) -> float:
        """Current load value."""
        return self.ensure(worker)[kind]

    def add(self, worker: int, kind: int, amount: float, charge: TaskCharge) -> None:
        """Add load and record it on the task's charge sheet."""
        self.ensure(worker)[kind] += amount
        charge.note(worker, kind, amount)

    def revert(self, charge: TaskCharge) -> None:
        """Deduct a completed task's recorded additions."""
        for worker, kind, amount in charge.entries:
            self.ensure(worker)[kind] -= amount
        charge.entries.clear()

    def drop_worker(self, worker: int) -> None:
        """Forget a crashed worker's row."""
        self._values.pop(worker, None)

    def snapshot(self) -> dict[int, tuple[float, float, float]]:
        """Copy of the matrix (diagnostics / tests)."""
        return {w: (v[0], v[1], v[2]) for w, v in self._values.items()}

    def is_zero(self, tolerance: float = 1e-6) -> bool:
        """Whether all entries are (numerically) back to zero."""
        return all(
            abs(v) <= tolerance for row in self._values.values() for v in row
        )


@dataclass
class SubtreeAssignment:
    """Result of assigning a subtree-task plan."""

    key_worker: int
    local_columns: tuple[int, ...]
    server_map: dict[int, tuple[int, ...]]
    charge: TaskCharge


@dataclass
class ColumnAssignment:
    """Result of assigning a column-task plan."""

    worker_columns: dict[int, tuple[int, ...]]
    charge: TaskCharge


def assign_subtree_task(
    matrix: LoadMatrix,
    workers: list[int],
    holders: dict[int, list[int]],
    columns: tuple[int, ...],
    parent_worker: int | None,
    n_rows: int,
    cost: CostModel,
) -> SubtreeAssignment:
    """Greedy key-worker and column-server selection (Section VI).

    ``holders`` maps each column to the (live) workers holding a replica.
    """
    charge = TaskCharge()
    # Key worker: minimum current computation load, ties to lowest id.
    key = min(workers, key=lambda w: (matrix.get(w, COMP), w))
    matrix.add(key, COMP, cost.subtree_build_ops(n_rows, len(columns)), charge)

    ix_units = float(n_rows)
    # The key worker itself fetches I_x from the parent worker (for Y).
    if parent_worker is not None and parent_worker != key:
        matrix.add(key, RECV, ix_units, charge)
        matrix.add(parent_worker, SEND, ix_units, charge)

    local: list[int] = []
    server_map: dict[int, list[int]] = {}
    first_touch: set[int] = set()  # servers already charged for an I_x fetch
    for col in sorted(columns):
        candidates = holders.get(col)
        if not candidates:
            raise RuntimeError(f"no live holder for column {col}")
        if key in candidates:
            local.append(col)
            continue
        best_worker = None
        best_value = None
        for j in sorted(candidates):
            recv_j = matrix.get(j, RECV) + (
                ix_units if (j not in first_touch and parent_worker not in (None, j)) else 0.0
            )
            send_pa = (
                matrix.get(parent_worker, SEND)
                + (ix_units if (j not in first_touch and j != parent_worker) else 0.0)
                if parent_worker is not None
                else 0.0
            )
            send_j = matrix.get(j, SEND) + ix_units  # column data out
            recv_key = matrix.get(key, RECV) + ix_units  # column data in
            value = max(recv_j, send_pa, send_j, recv_key)
            if best_value is None or value < best_value:
                best_value = value
                best_worker = j
        assert best_worker is not None
        j = best_worker
        if j not in first_touch:
            first_touch.add(j)
            if parent_worker is not None and parent_worker != j:
                matrix.add(j, RECV, ix_units, charge)
                matrix.add(parent_worker, SEND, ix_units, charge)
        matrix.add(j, SEND, ix_units, charge)
        matrix.add(key, RECV, ix_units, charge)
        server_map.setdefault(j, []).append(col)

    return SubtreeAssignment(
        key_worker=key,
        local_columns=tuple(local),
        server_map={w: tuple(cols) for w, cols in server_map.items()},
        charge=charge,
    )


def assign_column_task(
    matrix: LoadMatrix,
    holders: dict[int, list[int]],
    columns: tuple[int, ...],
    parent_worker: int | None,
    n_rows: int,
    cost: CostModel,
) -> ColumnAssignment:
    """Greedy worker selection for a column-task (Section VI).

    If some live worker holds every column of the task, the task is one
    plan on the holder with the least updated
    ``max(Comp_j + |C| * scan, Recv_j + I_x, Send_parent + I_x)`` (the
    ``I_x`` terms only when the holder is not the parent worker), ties to
    the lowest id.  Otherwise each column goes, in order, to the holder
    with the least updated ``max(Recv_j, Send_parent)``.
    """
    charge = TaskCharge()
    ix_units = float(n_rows)
    scan_ops = cost.split_search_ops(n_rows)
    common = set(holders.get(columns[0], ())) if columns else set()
    for col in columns[1:]:
        common.intersection_update(holders.get(col, ()))
    if common:

        def updated_load(j: int) -> float:
            fresh = ix_units if parent_worker not in (None, j) else 0.0
            send_pa = (
                matrix.get(parent_worker, SEND) + fresh
                if parent_worker is not None
                else 0.0
            )
            return max(
                matrix.get(j, COMP) + len(columns) * scan_ops,
                matrix.get(j, RECV) + fresh,
                send_pa,
            )

        j = min(sorted(common), key=updated_load)
        if parent_worker is not None and parent_worker != j:
            matrix.add(j, RECV, ix_units, charge)
            matrix.add(parent_worker, SEND, ix_units, charge)
        for _ in columns:  # one Comp entry per column, as the loop below
            matrix.add(j, COMP, scan_ops, charge)
        return ColumnAssignment(
            worker_columns={j: tuple(sorted(columns))}, charge=charge
        )
    worker_columns: dict[int, list[int]] = {}
    first_touch: set[int] = set()
    for col in sorted(columns):
        candidates = holders.get(col)
        if not candidates:
            raise RuntimeError(f"no live holder for column {col}")
        best_worker = None
        best_value = None
        for j in sorted(candidates):
            fresh = j not in first_touch and parent_worker not in (None, j)
            recv_j = matrix.get(j, RECV) + (ix_units if fresh else 0.0)
            send_pa = (
                matrix.get(parent_worker, SEND) + (ix_units if fresh else 0.0)
                if parent_worker is not None
                else 0.0
            )
            value = max(recv_j, send_pa)
            if best_value is None or value < best_value:
                best_value = value
                best_worker = j
        assert best_worker is not None
        j = best_worker
        if j not in first_touch:
            first_touch.add(j)
            if parent_worker is not None and parent_worker != j:
                matrix.add(j, RECV, ix_units, charge)
                matrix.add(parent_worker, SEND, ix_units, charge)
        matrix.add(j, COMP, scan_ops, charge)
        worker_columns.setdefault(j, []).append(col)

    return ColumnAssignment(
        worker_columns={w: tuple(c) for w, c in worker_columns.items()},
        charge=charge,
    )


def assign_columns_to_workers(
    n_columns: int, worker_ids: list[int], replication: int
) -> dict[int, list[int]]:
    """Initial balanced column placement (paper Section III, ``k`` replicas).

    Returns ``column -> [workers]``.  Replicas land on distinct machines;
    when fewer machines than replicas exist, replication degrades
    gracefully.
    """
    n_workers = len(worker_ids)
    k = min(replication, n_workers)
    placement: dict[int, list[int]] = {}
    stride = max(1, n_workers // k)
    for col in range(n_columns):
        holders = []
        for r in range(k):
            holders.append(worker_ids[(col + r * stride) % n_workers])
        # Guarantee distinct machines even when stride wraps onto itself.
        seen: list[int] = []
        for w in holders:
            if w not in seen:
                seen.append(w)
        offset = 1
        while len(seen) < k:
            candidate = worker_ids[(col + offset) % n_workers]
            if candidate not in seen:
                seen.append(candidate)
            offset += 1
        placement[col] = seen
    return placement
