"""Tests for B_plan deque semantics, T_prog, the tree pool and M_work."""

import pytest

from repro import SystemConfig, TreeServer, train_tree, trees_equal
from repro.cluster import CostModel
from repro.core.config import TreeConfig
from repro.core.jobs import random_forest_job, staged_job
from repro.core.load_balance import (
    COMP,
    RECV,
    SEND,
    LoadMatrix,
    TaskCharge,
    assign_column_task,
    assign_columns_to_workers,
    assign_subtree_task,
)
from repro.core.scheduler import PlanDeque, ProgressTable, TreePool
from repro.core.tasks import PlanEntry, TreeContext
from repro.datasets import dataset_spec, generate


def make_entry(path: int, n_rows: int, uid: int = 1) -> PlanEntry:
    ctx = TreeContext(
        tree_uid=uid,
        config=TreeConfig(),
        candidate_columns=(0, 1),
        bootstrap=False,
        n_table_rows=1000,
    )
    return PlanEntry(
        task=(uid, path),
        n_rows=n_rows,
        depth=0,
        parent=None,
        ctx=ctx,
        is_subtree=False,
    )


class TestPlanDeque:
    def test_small_nodes_go_to_head(self):
        deque = PlanDeque(tau_dfs=100)
        deque.insert(make_entry(1, 500))  # tail
        deque.insert(make_entry(2, 50))  # head
        deque.insert(make_entry(3, 400))  # tail
        assert deque.pop().path == 2
        assert deque.pop().path == 1
        assert deque.pop().path == 3
        assert deque.pop() is None

    def test_head_insertion_is_lifo(self):
        """DFS behaviour: the most recently created small node runs first."""
        deque = PlanDeque(tau_dfs=100)
        deque.insert(make_entry(4, 10))
        deque.insert(make_entry(5, 10))
        assert deque.pop().path == 5
        assert deque.pop().path == 4

    def test_tail_insertion_is_fifo(self):
        """BFS behaviour: large nodes are expanded level by level."""
        deque = PlanDeque(tau_dfs=10)
        deque.insert(make_entry(2, 500))
        deque.insert(make_entry(3, 500))
        assert deque.pop().path == 2
        assert deque.pop().path == 3

    def test_boundary_value_goes_to_head(self):
        deque = PlanDeque(tau_dfs=100)
        deque.insert(make_entry(2, 100))
        assert deque.head_insertions == 1

    def test_counters_and_peak(self):
        deque = PlanDeque(tau_dfs=100)
        for i in range(5):
            deque.insert(make_entry(i + 2, 50))
        assert deque.head_insertions == 5
        assert deque.peak_size == 5

    def test_remove_tree(self):
        deque = PlanDeque(tau_dfs=100)
        deque.insert(make_entry(2, 50, uid=1))
        deque.insert(make_entry(2, 50, uid=2))
        deque.insert(make_entry(3, 50, uid=1))
        assert deque.remove_tree(1) == 2
        assert len(deque) == 1
        assert deque.pop().tree_uid == 2

    def test_push_head_overrides_rule(self):
        deque = PlanDeque(tau_dfs=10)
        deque.insert(make_entry(2, 500))
        deque.push_head(make_entry(9, 500))
        assert deque.pop().path == 9


class TestProgressTable:
    def test_column_task_split_nets_plus_one(self):
        prog = ProgressTable()
        prog.start_tree(1)
        assert not prog.add(1, +1)  # split into two children: net +1
        assert prog.pending(1) == 2

    def test_subtree_task_nets_minus_one(self):
        prog = ProgressTable()
        prog.start_tree(1)
        assert prog.add(1, -1)  # tree completed
        assert prog.active_trees() == 0

    def test_tree_completes_exactly_at_zero(self):
        prog = ProgressTable()
        prog.start_tree(7)
        assert not prog.add(7, +1)
        assert not prog.add(7, -1)
        assert prog.add(7, -1)

    def test_negative_raises(self):
        prog = ProgressTable()
        prog.start_tree(1)
        prog.add(1, -1)
        with pytest.raises(KeyError):
            prog.add(1, -1)

    def test_double_start_rejected(self):
        prog = ProgressTable()
        prog.start_tree(1)
        with pytest.raises(ValueError):
            prog.start_tree(1)

    def test_drop(self):
        prog = ProgressTable()
        prog.start_tree(1)
        prog.drop(1)
        assert prog.active_trees() == 0


class TestTreePool:
    def test_npool_caps_admission(self):
        job = random_forest_job("rf", n_trees=10, seed=0)
        pool = TreePool(jobs=[job], n_pool=3)
        tickets = []
        while True:
            t = pool.admit()
            if t is None:
                break
            tickets.append(t)
        assert len(tickets) == 3
        pool.tree_completed(tickets[0])
        assert pool.admit() is not None

    def test_stage_dependency_gates_eligibility(self):
        job = staged_job(
            "boost",
            [[TreeConfig(seed=1), TreeConfig(seed=2)], [TreeConfig(seed=3)]],
        )
        pool = TreePool(jobs=[job], n_pool=100)
        first = pool.admit()
        second = pool.admit()
        assert pool.admit() is None  # stage 1 locked
        pool.tree_completed(first)
        assert pool.admit() is None  # still locked: one stage-0 tree left
        pool.tree_completed(second)
        third = pool.admit()
        assert third is not None
        assert third.stage_index == 1

    def test_all_done(self):
        job = random_forest_job("rf", n_trees=2, seed=0)
        pool = TreePool(jobs=[job], n_pool=10)
        a, b = pool.admit(), pool.admit()
        assert not pool.all_done()
        pool.tree_completed(a)
        pool.tree_completed(b)
        assert pool.all_done()

    def test_tree_indices_unique_across_stages(self):
        job = staged_job(
            "j", [[TreeConfig(seed=i) for i in range(2)], [TreeConfig(seed=9)]]
        )
        pool = TreePool(jobs=[job], n_pool=10)
        seen = set()
        t1, t2 = pool.admit(), pool.admit()
        seen.update({t1.tree_index, t2.tree_index})
        pool.tree_completed(t1)
        pool.tree_completed(t2)
        t3 = pool.admit()
        seen.add(t3.tree_index)
        assert seen == {0, 1, 2}


class TestLoadMatrix:
    def test_add_and_revert_returns_to_zero(self):
        matrix = LoadMatrix(3)
        charge = TaskCharge()
        matrix.add(1, COMP, 100.0, charge)
        matrix.add(2, SEND, 50.0, charge)
        assert matrix.get(1, COMP) == 100.0
        matrix.revert(charge)
        assert matrix.is_zero()

    def test_subtree_assignment_picks_least_loaded_key(self):
        matrix = LoadMatrix(3)
        pre = TaskCharge()
        matrix.add(1, COMP, 1e9, pre)  # worker 1 is busy
        holders = {0: [1, 2], 1: [2, 3]}
        cost = CostModel()
        assignment = assign_subtree_task(
            matrix, [1, 2, 3], holders, (0, 1), None, 100, cost
        )
        assert assignment.key_worker in (2, 3)

    def test_subtree_local_columns_skip_comm(self):
        matrix = LoadMatrix(2)
        holders = {0: [1], 1: [1]}
        cost = CostModel()
        assignment = assign_subtree_task(
            matrix, [1], holders, (0, 1), None, 100, cost
        )
        assert assignment.key_worker == 1
        assert set(assignment.local_columns) == {0, 1}
        assert not assignment.server_map
        # Only the compute charge remains (no comm entries for local data).
        assert matrix.get(1, SEND) == 0.0
        assert matrix.get(1, RECV) == 0.0

    def test_column_assignment_reuses_fetcher_on_shared_holders(self):
        """When all replicas coincide, reusing one worker avoids charging the
        parent an extra I_x send — the paper's objective prefers that."""
        matrix = LoadMatrix(4)
        holders = {c: [1, 2] for c in range(4)}
        cost = CostModel()
        assignment = assign_column_task(matrix, holders, (0, 1, 2, 3), 3, 100, cost)
        assert set(assignment.worker_columns) == {1}

    def test_column_assignment_fans_out_on_disjoint_holders(self):
        """Real placements spread columns, so tasks fan out across workers."""
        matrix = LoadMatrix(4)
        holders = {0: [1], 1: [2], 2: [1, 2]}
        cost = CostModel()
        assignment = assign_column_task(matrix, holders, (0, 1, 2), 3, 100, cost)
        assert set(assignment.worker_columns) == {1, 2}

    def test_column_assignment_charges_parent_send(self):
        matrix = LoadMatrix(3)
        holders = {0: [1]}
        cost = CostModel()
        assign_column_task(matrix, holders, (0,), 2, 100, cost)
        assert matrix.get(2, SEND) == 100.0
        assert matrix.get(1, RECV) == 100.0

    def test_parent_local_fetch_not_charged(self):
        matrix = LoadMatrix(3)
        holders = {0: [2]}
        cost = CostModel()
        assign_column_task(matrix, holders, (0,), 2, 100, cost)
        assert matrix.get(2, SEND) == 0.0  # worker 2 fetches from itself
        assert matrix.get(2, RECV) == 0.0

    def test_no_holder_raises(self):
        matrix = LoadMatrix(2)
        with pytest.raises(RuntimeError, match="holder"):
            assign_column_task(matrix, {}, (0,), None, 10, CostModel())

    def test_drop_worker(self):
        matrix = LoadMatrix(2)
        charge = TaskCharge()
        matrix.add(1, COMP, 5.0, charge)
        matrix.drop_worker(1)
        assert matrix.get(1, COMP) == 0.0


class TestColumnTaskPlacement:
    """A column task whose columns one worker holds in full is one plan,
    placed by the least updated ``max(Comp, Recv, Send_parent)``."""

    def test_successive_tasks_on_full_replicas_alternate(self):
        matrix = LoadMatrix(2)
        holders = {0: [1, 2], 1: [1, 2]}
        cost = CostModel()
        first = assign_column_task(matrix, holders, (0, 1), None, 100, cost)
        assert set(first.worker_columns) == {1}
        # The child's parent is worker 1, so staying there skips the I_x
        # transfer; worker 1's pending scans still outweigh it.
        second = assign_column_task(matrix, holders, (0, 1), 1, 100, cost)
        assert set(second.worker_columns) == {2}

    def test_comp_decides_between_full_holders(self):
        matrix = LoadMatrix(3)
        busy = TaskCharge()
        matrix.add(1, COMP, 1e9, busy)
        holders = {0: [1, 2, 3], 1: [1, 2, 3]}
        assignment = assign_column_task(
            matrix, holders, (0, 1), None, 100, CostModel()
        )
        assert assignment.worker_columns == {2: (0, 1)}

    def test_one_common_holder_among_several_is_one_plan(self):
        matrix = LoadMatrix(3)
        holders = {0: [1, 2], 1: [2, 3], 2: [2]}
        assignment = assign_column_task(
            matrix, holders, (0, 1, 2), None, 100, CostModel()
        )
        assert assignment.worker_columns == {2: (0, 1, 2)}

    def test_charges_revert_to_zero(self):
        matrix = LoadMatrix(3)
        holders = {0: [1, 2], 1: [1, 2]}
        cost = CostModel()
        charges = [
            assign_column_task(matrix, holders, (0, 1), parent, 100, cost).charge
            for parent in (None, 1, 2, 3)
        ]
        assert not matrix.is_zero()
        assert matrix.get(3, SEND) == 100.0  # parent 3 holds no column
        for charge in charges:
            matrix.revert(charge)
        assert matrix.is_zero()


class TestColumnTaskBalance:
    """A column-only fit on two full-replica workers uses both of them."""

    def test_sim_workers_share_the_scans_and_trees_match_serial(self):
        table = generate(dataset_spec("higgs_boson", small=True))
        system = SystemConfig(
            n_workers=2,
            compers_per_worker=2,
            column_replication=2,
            tau_subtree=1,
            tau_dfs=1,
        )
        job = random_forest_job("rf", 2, TreeConfig(max_depth=6), seed=1)
        report = TreeServer(system).fit(table, [job])
        cpu = {
            m.machine_id: m.cpu_percent
            for m in report.cluster.machines
            if m.machine_id != 0
        }
        assert set(cpu) == {1, 2}
        assert min(cpu.values()) > 0
        assert max(cpu.values()) <= 1.5 * min(cpu.values())
        requests = [t for s in job.stages for t in s.trees]
        trees = report.trees("rf")
        assert len(trees) == len(requests)
        for i, (request, tree) in enumerate(zip(requests, trees)):
            assert trees_equal(train_tree(table, request.config, tree_id=i), tree)


class TestColumnPlacement:
    def test_every_column_gets_k_distinct_holders(self):
        placement = assign_columns_to_workers(20, [1, 2, 3, 4, 5], replication=2)
        for col, holders in placement.items():
            assert len(holders) == 2
            assert len(set(holders)) == 2

    def test_replication_capped_by_workers(self):
        placement = assign_columns_to_workers(5, [1, 2], replication=3)
        for holders in placement.values():
            assert len(holders) == 2

    def test_balanced_distribution(self):
        placement = assign_columns_to_workers(100, [1, 2, 3, 4], replication=2)
        loads = {w: 0 for w in [1, 2, 3, 4]}
        for holders in placement.values():
            for w in holders:
                loads[w] += 1
        assert max(loads.values()) - min(loads.values()) <= 2
