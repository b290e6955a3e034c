"""Unit-level tests of master internals and run-level consistency checks."""

import numpy as np
import pytest

from repro.core import (
    SystemConfig,
    TreeConfig,
    TreeServer,
    decision_tree_job,
    random_forest_job,
)
from repro.core.load_balance import TaskCharge
from repro.core.master import MasterActor, _MasterTaskState, _TableInfo, _TreeBuild
from repro.core.scheduler import TreeTicket
from repro.core.jobs import decision_tree_job as dt_job
from repro.core.tasks import MSG_REVOKE_TREE, ParentRef, PlanEntry, TreeContext
from repro.core.tree import TreeNode
from repro.data.schema import ProblemKind
from repro.datasets import SyntheticSpec, generate
from repro.runtime.process import ProcessHost


def make_build() -> _TreeBuild:
    job = dt_job("j")
    ticket = TreeTicket(0, 0, 0, job.stages[0].trees[0])
    ctx = TreeContext(1, TreeConfig(), (0,), False, 10)
    return _TreeBuild(uid=1, ticket=ticket, job=job, ctx=ctx)


class TestTreeBuildAttach:
    def test_root_attach(self):
        build = make_build()
        root = TreeNode(1, 0, 10, 0.5)
        build.attach(1, root)
        assert build.nodes[1] is root

    def test_children_linked_by_heap_path(self):
        build = make_build()
        root = TreeNode(1, 0, 10, 0.5)
        build.attach(1, root)
        left = TreeNode(2, 1, 6, 0.3)
        right = TreeNode(3, 1, 4, 0.8)
        build.attach(2, left)
        build.attach(3, right)
        assert root.left is left
        assert root.right is right

    def test_grandchildren(self):
        build = make_build()
        build.attach(1, TreeNode(1, 0, 10, 0.5))
        build.attach(2, TreeNode(2, 1, 6, 0.3))
        build.attach(3, TreeNode(3, 1, 4, 0.8))
        build.attach(5, TreeNode(5, 2, 3, 0.1))  # right child of node 2
        assert build.nodes[2].right is build.nodes[5]
        assert build.nodes[2].left is None


@pytest.fixture(scope="module")
def medium_table():
    return generate(
        SyntheticSpec(
            name="m", n_rows=900, n_numeric=5, n_categorical=2,
            n_classes=3, planted_depth=5, noise=0.1, seed=71,
        )
    )


class TestRunConsistency:
    def test_node_count_matches_task_accounting(self, medium_table):
        """Internal nodes above tau = column tasks that split; subtree tasks
        cover whole subtrees; totals must reconcile with the final tree."""
        system = SystemConfig(
            n_workers=4, compers_per_worker=2, tau_subtree=64, tau_dfs=256
        )
        report = TreeServer(system).fit(
            medium_table, [decision_tree_job("dt", TreeConfig(max_depth=8))]
        )
        tree = report.tree("dt")
        counters = report.counters
        internal_above_tau = sum(
            1
            for node in tree.nodes()
            if node.split is not None and node.n_rows > 64
        )
        # Every internal node above tau was split via a column task; some
        # column tasks also resolved to leaves (no useful split).
        assert counters.column_tasks >= internal_above_tau
        assert counters.column_tasks <= internal_above_tau + counters.leaves_finalized
        # Subtree tasks exist and are dominated by node count.
        assert 0 < counters.subtree_tasks <= tree.n_nodes

    def test_dispatches_equal_tasks(self, medium_table):
        system = SystemConfig(n_workers=4, compers_per_worker=2).scaled_to(
            medium_table.n_rows
        )
        report = TreeServer(system).fit(
            medium_table, [decision_tree_job("dt", TreeConfig(max_depth=6))]
        )
        counters = report.counters
        assert counters.plans_dispatched == (
            counters.column_tasks + counters.subtree_tasks
        )

    def test_bplan_insertions_match_dispatches(self, medium_table):
        system = SystemConfig(n_workers=4, compers_per_worker=2).scaled_to(
            medium_table.n_rows
        )
        report = TreeServer(system).fit(
            medium_table,
            [random_forest_job("rf", 4, TreeConfig(max_depth=6), seed=1)],
        )
        counters = report.counters
        assert (
            counters.head_insertions + counters.tail_insertions
            == counters.plans_dispatched
        )

    def test_trees_completed_counter(self, medium_table):
        system = SystemConfig(n_workers=3, compers_per_worker=2).scaled_to(
            medium_table.n_rows
        )
        report = TreeServer(system).fit(
            medium_table,
            [random_forest_job("rf", 5, TreeConfig(max_depth=5), seed=2)],
        )
        assert report.counters.trees_completed == 5

    def test_deterministic_across_runs_with_metrics(self, medium_table):
        system = SystemConfig(n_workers=4, compers_per_worker=2).scaled_to(
            medium_table.n_rows
        )
        job = decision_tree_job("dt", TreeConfig(max_depth=6))
        r1 = TreeServer(system).fit(medium_table, [job])
        r2 = TreeServer(system).fit(medium_table, [job])
        assert r1.cluster.events_processed == r2.cluster.events_processed
        assert r1.counters.plans_dispatched == r2.counters.plans_dispatched
        m1 = [m.bytes_sent for m in r1.cluster.machines]
        m2 = [m.bytes_sent for m in r2.cluster.machines]
        assert m1 == m2

    def test_per_kind_bytes_cover_total(self, medium_table):
        system = SystemConfig(n_workers=4, compers_per_worker=2).scaled_to(
            medium_table.n_rows
        )
        report = TreeServer(system).fit(
            medium_table, [decision_tree_job("dt", TreeConfig(max_depth=6))]
        )
        assert sum(report.cluster.bytes_by_kind.values()) == pytest.approx(
            report.cluster.total_bytes
        )

    def test_crash_revocation_scope_is_pinned(self, medium_table):
        """End-to-end: revoked_trees stays well below trees trained."""
        from repro.cluster.faults import CrashPlan

        system = SystemConfig(n_workers=5, compers_per_worker=2).scaled_to(
            medium_table.n_rows
        )
        report = TreeServer(system).fit(
            medium_table,
            [random_forest_job("rf", 6, TreeConfig(max_depth=5), seed=2)],
            crash_plans=[CrashPlan(machine_id=3, at_time=0.004)],
        )
        assert report.counters.recovered_workers == 1
        # The crash happens while the first pool of trees is in flight;
        # only those can be revoked, never the whole forest's history.
        assert 1 <= report.counters.revoked_trees <= 6

    def test_scheduling_policies_same_model(self, medium_table):
        from repro.core import trees_equal

        trees = {}
        for policy in ("hybrid", "fifo", "lifo"):
            system = SystemConfig(
                n_workers=4,
                compers_per_worker=2,
                tau_subtree=64,
                tau_dfs=256,
                scheduling_policy=policy,
            )
            report = TreeServer(system).fit(
                medium_table, [decision_tree_job("dt", TreeConfig(max_depth=6))]
            )
            trees[policy] = report.tree("dt")
        assert trees_equal(trees["hybrid"], trees["fifo"])
        assert trees_equal(trees["hybrid"], trees["lifo"])


# ----------------------------------------------------------------------
# crash-recovery revocation scope (the affected-trees-only guarantee)
# ----------------------------------------------------------------------
class RecordingTransport:
    """Transport stub that remembers every send."""

    def __init__(self) -> None:
        self.messages: list[tuple[int, int, str, object]] = []

    def send(self, src, dst, kind, payload, size_bytes) -> None:
        self.messages.append((src, dst, kind, payload))

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


def make_master(n_workers=3, n_columns=4, n_trees=2):
    """A live MasterActor on a process host, two trees admitted (uids 1, 2)."""
    system = SystemConfig(n_workers=n_workers, compers_per_worker=2)
    cost = TreeServer(system).cost
    transport = RecordingTransport()
    host = ProcessHost(0, cost, transport)
    info = _TableInfo(
        n_rows=4000,
        n_columns=n_columns,
        problem=ProblemKind.CLASSIFICATION,
        n_classes=2,
    )
    holders = {
        c: [(c % n_workers) + 1, ((c + 1) % n_workers) + 1]
        for c in range(n_columns)
    }
    jobs = [random_forest_job("rf", n_trees, TreeConfig(max_depth=6), seed=0)]
    master = MasterActor(host, info, jobs, system, holders)
    master.start()
    host.drain()
    return master, transport


def clear_in_flight(master) -> None:
    """Drop the real root tasks so tests can plant crafted task states."""
    master.ttask.clear()
    while master.bplan.pop() is not None:
        pass


def crafted_entry(master, uid, path=1, parent=None, n_rows=100):
    return PlanEntry(
        task=(uid, path),
        n_rows=n_rows,
        depth=0,
        parent=parent,
        ctx=master.builds[uid].ctx,
        is_subtree=False,
    )


def revoke_broadcasts(transport):
    return [
        (dst, payload.tree_uid)
        for (_, dst, kind, payload) in transport.messages
        if kind == MSG_REVOKE_TREE
    ]


class TestCrashRevocationScope:
    def test_revokes_only_the_tree_with_tasks_on_dead_worker(self):
        """ISSUE 4 headline pin: tree A's task sits on worker 1, tree B's
        on workers 2+3; crashing worker 1 revokes exactly one tree."""
        master, transport = make_master()
        uid_a, uid_b = sorted(master.builds)
        clear_in_flight(master)
        master.ttask[(uid_a, 1)] = _MasterTaskState(
            entry=crafted_entry(master, uid_a),
            charge=TaskCharge(),
            is_subtree=False,
            expected_workers=frozenset({1}),
        )
        master.ttask[(uid_b, 1)] = _MasterTaskState(
            entry=crafted_entry(master, uid_b),
            charge=TaskCharge(),
            is_subtree=False,
            expected_workers=frozenset({2, 3}),
        )
        transport.messages.clear()
        master.on_worker_crashed(1)
        assert master.counters.revoked_trees == 1
        assert master.counters.recovered_workers == 1
        assert uid_a not in master.builds
        assert uid_b in master.builds  # untouched tree keeps running
        assert (uid_b, 1) in master.ttask
        revokes = revoke_broadcasts(transport)
        assert {uid for _, uid in revokes} == {uid_a}
        assert {dst for dst, _ in revokes} == {2, 3}  # only live workers
        # Tree A was re-admitted under a fresh uid.
        assert any(uid > uid_b for uid in master.builds)
        assert 1 not in master.live_workers
        assert all(1 not in ws for ws in master.holders.values())

    def test_crash_with_no_involvement_revokes_nothing(self):
        master, transport = make_master()
        uid_a, uid_b = sorted(master.builds)
        clear_in_flight(master)
        master.ttask[(uid_b, 1)] = _MasterTaskState(
            entry=crafted_entry(master, uid_b),
            charge=TaskCharge(),
            is_subtree=False,
            expected_workers=frozenset({2, 3}),
        )
        transport.messages.clear()
        master.on_worker_crashed(1)
        assert master.counters.revoked_trees == 0
        assert master.counters.recovered_workers == 1
        assert revoke_broadcasts(transport) == []
        assert {uid_a, uid_b} <= set(master.builds)

    def test_queued_plan_with_dead_parent_delegate_revokes_its_tree(self):
        """A not-yet-dispatched child whose I_x store lived on the dead
        worker must revoke its tree even with no task state in flight."""
        master, transport = make_master()
        uid_a, uid_b = sorted(master.builds)
        clear_in_flight(master)
        master.bplan.insert(
            crafted_entry(
                master,
                uid_b,
                path=2,
                parent=ParentRef(task=(uid_b, 1), side=0, worker=1),
                n_rows=50,
            )
        )
        master.on_worker_crashed(1)
        assert master.counters.revoked_trees == 1
        assert uid_b not in master.builds
        assert uid_a in master.builds
        assert all(e.tree_uid != uid_b for e in master.bplan.entries())

    @pytest.mark.parametrize(
        "involvement",
        [
            dict(delegate=1),
            dict(is_subtree=True, key_worker=1),
            dict(is_subtree=True, key_worker=2, servers=frozenset({1, 3})),
            dict(charge=TaskCharge(entries=[(1, 0, 3.0)])),
        ],
        ids=["delegate", "key-worker", "column-server", "charge-sheet"],
    )
    def test_every_involvement_role_triggers_revocation(self, involvement):
        master, transport = make_master()
        uid_a, uid_b = sorted(master.builds)
        clear_in_flight(master)
        kwargs = dict(
            entry=crafted_entry(master, uid_a),
            charge=TaskCharge(),
            is_subtree=False,
            expected_workers=frozenset({2}),
        )
        kwargs.update(involvement)
        master.ttask[(uid_a, 1)] = _MasterTaskState(**kwargs)
        master.on_worker_crashed(1)
        assert master.counters.revoked_trees == 1
        assert uid_a not in master.builds
        assert uid_b in master.builds

    def test_parent_store_on_dead_worker_triggers_revocation(self):
        master, _ = make_master()
        uid_a, uid_b = sorted(master.builds)
        clear_in_flight(master)
        master.ttask[(uid_a, 2)] = _MasterTaskState(
            entry=crafted_entry(
                master,
                uid_a,
                path=2,
                parent=ParentRef(task=(uid_a, 1), side=0, worker=1),
            ),
            charge=TaskCharge(),
            is_subtree=False,
            expected_workers=frozenset({2, 3}),
        )
        master.on_worker_crashed(1)
        assert master.counters.revoked_trees == 1
        assert uid_a not in master.builds

    def test_column_losing_last_replica_is_a_hard_error(self):
        master, _ = make_master()
        master.holders[0] = [1]  # simulate k=1 on one column
        with pytest.raises(RuntimeError, match="lost all replicas"):
            master.on_worker_crashed(1)
