"""Focused tests of worker-side task flows and byte accounting."""

import numpy as np
import pytest

from repro.cluster import SimulatedCluster, network
from repro.core import (
    SystemConfig,
    TreeConfig,
    TreeServer,
    decision_tree_job,
    extra_trees_job,
    trees_equal,
    train_tree,
)
from repro.core.splits import CandidateSplit
from repro.core.tasks import (
    MSG_COLUMN_PLAN,
    MSG_EXPECT_FETCHES,
    MSG_SPLIT_CONFIRM,
    ColumnPlanMsg,
    SplitConfirmMsg,
    SplitDoneMsg,
    TreeContext,
)
from repro.core.worker import WorkerActor
from repro.data import ColumnKind
from repro.datasets import SyntheticSpec, generate


@pytest.fixture(scope="module")
def table():
    return generate(
        SyntheticSpec(
            name="wf", n_rows=600, n_numeric=4, n_categorical=2,
            n_classes=2, planted_depth=4, noise=0.1, seed=91,
        )
    )


class TestSubtreeDataFlows:
    def test_key_worker_with_all_columns_local(self, table):
        """One worker holds everything: subtree tasks need no column
        servers, only (local) row fetches."""
        system = SystemConfig(
            n_workers=1, compers_per_worker=2, tau_subtree=200, tau_dfs=400
        )
        report = TreeServer(system).fit(
            table, [decision_tree_job("dt", TreeConfig(max_depth=6))]
        )
        kinds = report.cluster.bytes_by_kind
        # With a single worker, no worker-to-worker bytes cross the wire.
        assert kinds.get("column_response", 0) == 0
        assert kinds.get("row_response", 0) == 0
        assert trees_equal(
            train_tree(table, TreeConfig(max_depth=6)), report.tree("dt")
        )

    def test_remote_columns_travel_once_per_subtree_task(self, table):
        """Column-response bytes reconcile with subtree-task volumes."""
        system = SystemConfig(
            n_workers=4,
            compers_per_worker=2,
            tau_subtree=200,
            tau_dfs=400,
            column_replication=1,
        )
        report = TreeServer(system).fit(
            table, [decision_tree_job("dt", TreeConfig(max_depth=6))]
        )
        kinds = report.cluster.bytes_by_kind
        if report.counters.subtree_tasks:
            assert kinds.get("column_response", 0) > 0

    def test_subtree_result_bytes_scale_with_nodes(self, table):
        system = SystemConfig(
            n_workers=3, compers_per_worker=2, tau_subtree=10**6, tau_dfs=10**6
        )
        report = TreeServer(system).fit(
            table, [decision_tree_job("dt", TreeConfig(max_depth=6))]
        )
        tree = report.tree("dt")
        expected = (
            report.cluster.bytes_by_kind["subtree_result"]
        )
        cost = TreeServer(system).cost
        assert expected == cost.subtree_bytes(tree.n_nodes)


class TestExtraTreeFlows:
    def test_single_column_plans(self, table):
        """Extra-tree column tasks carry exactly one column per try."""
        system = SystemConfig(
            n_workers=3, compers_per_worker=2, tau_subtree=0, tau_dfs=0
        )
        job = extra_trees_job("et", 1, seed=2)
        report = TreeServer(system).fit(table, [job])
        serial = train_tree(table, job.stages[0].trees[0].config)
        assert trees_equal(serial, report.trees("et")[0])

    def test_retries_counted(self, table):
        # A dataset with constant columns forces extra-tree retries.
        constant = generate(
            SyntheticSpec(
                name="const_cols", n_rows=200, n_numeric=3, n_categorical=0,
                n_classes=2, planted_depth=3, noise=0.1, seed=92,
            )
        )
        constant.columns[2][:] = 5.0  # degenerate column
        system = SystemConfig(
            n_workers=2, compers_per_worker=2, tau_subtree=0, tau_dfs=0
        )
        job = extra_trees_job("et", 2, seed=3)
        report = TreeServer(system).fit(constant, [job])
        for i, request in enumerate(job.stages[0].trees):
            assert trees_equal(
                train_tree(constant, request.config), report.trees("et")[i]
            )
        # Degenerate draws on the constant column must have caused retries.
        assert report.counters.extra.get("extra_retries", 0) >= 1

    def test_stopped_node_is_not_retried(self):
        """A node the leaf rule stops is a leaf whatever column is drawn:
        a depth-0 extra tree sends its root one column task and never
        retries it."""
        five_columns = generate(
            SyntheticSpec(
                name="five_cols", n_rows=300, n_numeric=5, n_categorical=0,
                n_classes=2, planted_depth=3, noise=0.1, seed=93,
            )
        )
        system = SystemConfig(
            n_workers=2, compers_per_worker=2, tau_subtree=0, tau_dfs=0
        )
        job = extra_trees_job("et", 1, TreeConfig(max_depth=0), seed=4)
        report = TreeServer(system).fit(five_columns, [job])
        assert report.counters.column_tasks == 1
        assert "extra_retries" not in report.counters.extra
        serial = train_tree(five_columns, job.stages[0].trees[0].config)
        assert trees_equal(serial, report.trees("et")[0])


class TestByteAccounting:
    def test_row_traffic_proportional_to_row_ids(self, table):
        """Row-response bytes = sum over served fetches of |I_x| * 8 plus
        fixed headers — spot-checked via the cost model lower bound."""
        system = SystemConfig(
            n_workers=4, compers_per_worker=2
        ).scaled_to(table.n_rows)
        report = TreeServer(system).fit(
            table, [decision_tree_job("dt", TreeConfig(max_depth=6))]
        )
        kinds = report.cluster.bytes_by_kind
        # Root fetches are free (synthesized locally); every other fetch
        # carries at least a header.
        if "row_response" in kinds:
            assert kinds["row_response"] >= 128

    def test_total_bytes_stable_across_runs(self, table):
        system = SystemConfig(n_workers=3, compers_per_worker=2).scaled_to(
            table.n_rows
        )
        job = decision_tree_job("dt", TreeConfig(max_depth=5))
        a = TreeServer(system).fit(table, [job])
        b = TreeServer(system).fit(table, [job])
        assert a.cluster.bytes_by_kind == b.cluster.bytes_by_kind


class _Inbox:
    """Stands in for the master: keeps every payload a worker sends it."""

    def __init__(self) -> None:
        self.payloads: list = []

    def handle_message(self, message) -> None:
        self.payloads.append(message.payload)


class TestDelegateStore:
    def test_leaf_side_is_never_stored(self, tiny_classification):
        """A delegate applies the master's leaf rule to both children of
        the split it partitions and stores only the side a child task
        will fetch: here ``age <= 30`` sends two rows that all say "No"
        left, a pure child the master plans no task for."""
        table = tiny_classification
        cluster = SimulatedCluster(n_workers=1, compers_per_worker=1)
        inbox = _Inbox()
        cluster.register(0, inbox)
        worker = WorkerActor(cluster.machines[1], table, held_columns={0})
        cluster.register(1, worker)
        ctx = TreeContext(1, TreeConfig(max_depth=5), (0,), False, 10)
        task = (1, 1)
        plan = ColumnPlanMsg(task, (0,), None, ctx, n_rows=10, depth=0)
        cluster.send(0, 1, MSG_COLUMN_PLAN, plan, 10)
        cluster.run()
        split = CandidateSplit(
            column=0, kind=ColumnKind.NUMERIC, score=0.0, n_left=2,
            n_right=8, threshold=30.0,
        )
        cluster.send(0, 1, MSG_SPLIT_CONFIRM, SplitConfirmMsg(task, split), 10)
        cluster.run()

        done = inbox.payloads[-1]
        assert isinstance(done, SplitDoneMsg)
        assert done.left_stats.is_pure and not done.right_stats.is_pure
        store = worker._delegate[task]
        assert list(store.sides) == [1]
        np.testing.assert_array_equal(
            store.sides[1], np.flatnonzero(table.column(0) > 30.0)
        )
        assert cluster.machines[1].stats.mem_task_bytes == store.sides[1].nbytes

    def test_expect_fetches_only_for_non_leaf_children(
        self, table, monkeypatch
    ):
        """Every ``expect_fetches`` frees a side some task fetched: none
        carries count 0, and there is one per non-leaf child, i.e. per
        task that is not a tree root."""
        counts: list[int] = []
        send = network.Network.send

        def census(self, src, dst, kind, payload, size_bytes):
            if kind == MSG_EXPECT_FETCHES:
                counts.append(payload.count)
            return send(self, src, dst, kind, payload, size_bytes)

        monkeypatch.setattr(network.Network, "send", census)
        system = SystemConfig(
            n_workers=3, compers_per_worker=2, tau_subtree=100, tau_dfs=200
        )
        job = decision_tree_job("dt", TreeConfig(max_depth=6))
        report = TreeServer(system).fit(table, [job])
        c = report.counters
        assert c.leaves_finalized > 0  # leaf children exist to be skipped
        assert counts and min(counts) >= 1
        assert len(counts) == c.column_tasks + c.subtree_tasks - 1


class TestRootLeafRule:
    @pytest.mark.parametrize(
        "config",
        [TreeConfig(max_depth=0), TreeConfig(max_depth=3, tau_leaf=600)],
        ids=["max_depth_0", "tau_leaf_covers_root"],
    )
    def test_root_column_task_obeys_every_leaf_condition(self, table, config):
        """The master leaf-checks a root column task with the serial
        builder's ``should_stop``, not purity alone: a root at ``max_depth``
        or with at most ``tau_leaf`` rows stays a leaf, as in ``train_tree``."""
        system = SystemConfig(
            n_workers=2, compers_per_worker=1, tau_subtree=1, tau_dfs=1
        )
        report = TreeServer(system).fit(table, [decision_tree_job("dt", config)])
        assert report.tree("dt").n_nodes == 1
        assert trees_equal(train_tree(table, config), report.tree("dt"))
