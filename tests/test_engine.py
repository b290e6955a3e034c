"""End-to-end tests of the distributed TreeServer engine.

The headline invariant (DESIGN.md #1): distributed training produces a tree
*identical* to the serial exact builder, for any machine count, any
``tau_subtree`` / ``tau_dfs`` setting, any scheduling interleaving, and all
tree kinds.  Plus protocol-level checks: clean state shutdown, zero leaked
task memory, the load matrix returning to zero, Section-V messages never
carrying row ids through the master, and fault recovery.
"""

import numpy as np
import pytest

from repro.core import (
    SystemConfig,
    TreeConfig,
    TreeServer,
    decision_tree_job,
    extra_trees_job,
    random_forest_job,
    staged_job,
    train_tree,
    trees_equal,
)
from repro.core.builder import bootstrap_row_ids
from repro.core.jobs import TrainingJob
from repro.datasets import SyntheticSpec, generate
from repro.runtime import FaultPlan, RuntimeOptions


def small_system(n_rows: int, workers: int = 4, compers: int = 2, **kw) -> SystemConfig:
    return SystemConfig(
        n_workers=workers, compers_per_worker=compers, **kw
    ).scaled_to(n_rows)


class TestExactness:
    @pytest.mark.parametrize("workers", [1, 2, 5, 9])
    def test_machine_count_invariance(self, small_mixed_classification, workers):
        table = small_mixed_classification
        cfg = TreeConfig(max_depth=7)
        serial = train_tree(table, cfg)
        report = TreeServer(small_system(table.n_rows, workers=workers)).fit(
            table, [decision_tree_job("dt", cfg)]
        )
        assert trees_equal(serial, report.tree("dt"))

    @pytest.mark.parametrize("tau_pair", [(8, 8), (32, 64), (64, 512), (4096, 8192)])
    def test_tau_invariance(self, small_mixed_classification, tau_pair):
        """Any subtree/dfs threshold split yields the same tree: pure
        column-tasks, pure subtree-tasks, and every hybrid in between."""
        table = small_mixed_classification
        cfg = TreeConfig(max_depth=7)
        serial = train_tree(table, cfg)
        system = SystemConfig(
            n_workers=4,
            compers_per_worker=2,
            tau_subtree=tau_pair[0],
            tau_dfs=tau_pair[1],
        )
        report = TreeServer(system).fit(table, [decision_tree_job("dt", cfg)])
        assert trees_equal(serial, report.tree("dt"))

    def test_whole_tree_as_single_subtree_task(self, small_mixed_classification):
        table = small_mixed_classification
        cfg = TreeConfig(max_depth=6)
        system = SystemConfig(
            n_workers=3, compers_per_worker=2, tau_subtree=10**6, tau_dfs=10**6
        )
        report = TreeServer(system).fit(table, [decision_tree_job("dt", cfg)])
        assert report.counters.subtree_tasks == 1
        assert report.counters.column_tasks == 0
        assert trees_equal(train_tree(table, cfg), report.tree("dt"))

    def test_pure_column_tasks(self, small_mixed_classification):
        table = small_mixed_classification
        cfg = TreeConfig(max_depth=5)
        system = SystemConfig(
            n_workers=4, compers_per_worker=2, tau_subtree=0, tau_dfs=0
        )
        report = TreeServer(system).fit(table, [decision_tree_job("dt", cfg)])
        assert report.counters.subtree_tasks == 0
        assert trees_equal(train_tree(table, cfg), report.tree("dt"))

    def test_regression_with_missing_values(self, small_regression):
        table = small_regression
        cfg = TreeConfig(max_depth=6)
        report = TreeServer(small_system(table.n_rows)).fit(
            table, [decision_tree_job("dt", cfg)]
        )
        assert trees_equal(train_tree(table, cfg), report.tree("dt"))

    def test_forest_trees_match_serial(self, small_mixed_classification):
        table = small_mixed_classification
        job = random_forest_job("rf", n_trees=4, config=TreeConfig(max_depth=5), seed=2)
        report = TreeServer(small_system(table.n_rows)).fit(table, [job])
        for i, request in enumerate(job.stages[0].trees):
            assert trees_equal(
                train_tree(table, request.config), report.trees("rf")[i]
            )

    def test_extra_trees_match_serial(self, small_mixed_classification):
        table = small_mixed_classification
        job = extra_trees_job("et", n_trees=3, seed=9)
        report = TreeServer(small_system(table.n_rows)).fit(table, [job])
        for i, request in enumerate(job.stages[0].trees):
            assert trees_equal(
                train_tree(table, request.config), report.trees("et")[i]
            )

    def test_bootstrap_forest_matches_serial(self, small_mixed_classification):
        table = small_mixed_classification
        job = random_forest_job(
            "rf", n_trees=3, config=TreeConfig(max_depth=5), seed=4,
            bootstrap_rows=True,
        )
        report = TreeServer(small_system(table.n_rows)).fit(table, [job])
        for i, request in enumerate(job.stages[0].trees):
            serial = train_tree(
                table,
                request.config,
                row_ids=bootstrap_row_ids(request.config.seed, table.n_rows),
            )
            assert trees_equal(serial, report.trees("rf")[i])

    def test_npool_one_equals_npool_many(self, small_mixed_classification):
        table = small_mixed_classification
        job = random_forest_job("rf", n_trees=4, config=TreeConfig(max_depth=5), seed=7)
        r1 = TreeServer(small_system(table.n_rows, n_pool=1)).fit(table, [job])
        r2 = TreeServer(small_system(table.n_rows, n_pool=200)).fit(table, [job])
        for t1, t2 in zip(r1.trees("rf"), r2.trees("rf")):
            assert trees_equal(t1, t2)

    def test_pure_root_single_leaf(self):
        table = generate(
            SyntheticSpec(
                name="const", n_rows=50, n_numeric=2, n_categorical=0,
                n_classes=2, planted_depth=0, noise=0.0, seed=1,
            )
        )
        assert np.all(table.target == table.target[0])
        system = SystemConfig(
            n_workers=2, compers_per_worker=1, tau_subtree=0, tau_dfs=0
        )
        report = TreeServer(system).fit(
            table, [decision_tree_job("dt", TreeConfig(max_depth=5))]
        )
        assert report.tree("dt").n_nodes == 1


class TestProtocolInvariants:
    def test_determinism_of_sim_time(self, small_mixed_classification):
        """The whole run is a pure function of its inputs."""
        table = small_mixed_classification
        job = random_forest_job("rf", n_trees=3, config=TreeConfig(max_depth=5), seed=1)
        r1 = TreeServer(small_system(table.n_rows)).fit(table, [job])
        r2 = TreeServer(small_system(table.n_rows)).fit(table, [job])
        assert r1.sim_seconds == r2.sim_seconds
        assert r1.cluster.total_bytes == r2.cluster.total_bytes

    def test_master_messages_carry_no_row_ids(self, small_mixed_classification):
        """Section V: plans stay O(|C|); row ids go worker-to-worker.

        We assert it through byte accounting: the master's total sent bytes
        must be far below the row-id traffic on the data plane.
        """
        table = small_mixed_classification
        cfg = TreeConfig(max_depth=7)
        report = TreeServer(small_system(table.n_rows)).fit(
            table, [decision_tree_job("dt", cfg)]
        )
        kinds = report.cluster.bytes_by_kind
        master_plane = sum(
            kinds.get(k, 0)
            for k in (
                "column_plan", "subtree_plan", "split_confirm",
                "task_delete", "expect_fetches",
            )
        )
        data_plane = kinds.get("row_response", 0) + kinds.get(
            "column_response", 0
        )
        assert data_plane > master_plane

    def test_counters_consistency(self, small_mixed_classification):
        table = small_mixed_classification
        cfg = TreeConfig(max_depth=7)
        report = TreeServer(small_system(table.n_rows)).fit(
            table, [decision_tree_job("dt", cfg)]
        )
        counters = report.counters
        assert counters.trees_completed == 1
        assert counters.plans_dispatched >= (
            counters.column_tasks + counters.subtree_tasks
        ) - counters.extra.get("extra_retries", 0)
        tree = report.tree("dt")
        leaves = sum(1 for n in tree.nodes() if n.is_leaf)
        internal = tree.n_nodes - leaves
        # Every internal node above tau was a column-task split.
        assert counters.column_tasks <= internal + counters.leaves_finalized

    def test_memory_returns_to_zero(self, small_mixed_classification):
        """fit() itself asserts this; run twice to cover forests too."""
        table = small_mixed_classification
        job = random_forest_job("rf", n_trees=3, config=TreeConfig(max_depth=6), seed=5)
        report = TreeServer(small_system(table.n_rows)).fit(table, [job])
        assert report.cluster.avg_peak_memory_bytes > 0

    def test_multiple_jobs_in_one_run(self, small_mixed_classification):
        table = small_mixed_classification
        jobs: list[TrainingJob] = [
            decision_tree_job("dt1", TreeConfig(max_depth=4)),
            decision_tree_job("dt2", TreeConfig(max_depth=6, seed=1)),
            random_forest_job("rf", n_trees=3, config=TreeConfig(max_depth=4), seed=2),
        ]
        report = TreeServer(small_system(table.n_rows)).fit(table, jobs)
        assert set(report.models) == {"dt1", "dt2", "rf"}
        assert len(report.trees("rf")) == 3
        assert trees_equal(
            train_tree(table, TreeConfig(max_depth=4)), report.tree("dt1")
        )

    def test_staged_job_dependencies(self, small_mixed_classification):
        table = small_mixed_classification
        job = staged_job(
            "boost",
            [
                [TreeConfig(max_depth=4, seed=1), TreeConfig(max_depth=4, seed=2)],
                [TreeConfig(max_depth=4, seed=3)],
            ],
        )
        report = TreeServer(small_system(table.n_rows)).fit(table, [job])
        assert len(report.trees("boost")) == 3

    def test_duplicate_job_names_rejected(self, small_mixed_classification):
        table = small_mixed_classification
        with pytest.raises(ValueError, match="unique"):
            TreeServer(small_system(table.n_rows)).fit(
                table,
                [decision_tree_job("x"), decision_tree_job("x")],
            )

    def test_no_jobs_rejected(self, small_mixed_classification):
        with pytest.raises(ValueError, match="no jobs"):
            TreeServer(small_system(100)).fit(small_mixed_classification, [])

    def test_replication_one_works(self, small_mixed_classification):
        table = small_mixed_classification
        cfg = TreeConfig(max_depth=5)
        system = SystemConfig(
            n_workers=4, compers_per_worker=2, column_replication=1
        ).scaled_to(table.n_rows)
        report = TreeServer(system).fit(table, [decision_tree_job("dt", cfg)])
        assert trees_equal(train_tree(table, cfg), report.tree("dt"))


class TestSchedulingBehaviour:
    def test_hybrid_uses_both_ends(self):
        table = generate(
            SyntheticSpec(
                name="sched", n_rows=3000, n_numeric=6, n_categorical=0,
                n_classes=2, planted_depth=8, noise=0.25, seed=3,
            )
        )
        system = SystemConfig(
            n_workers=4, compers_per_worker=2, tau_subtree=40, tau_dfs=400
        )
        report = TreeServer(system).fit(
            table, [decision_tree_job("dt", TreeConfig(max_depth=10))]
        )
        assert report.counters.head_insertions > 0
        assert report.counters.tail_insertions > 0
        assert report.counters.subtree_tasks > 0
        assert report.counters.column_tasks > 0

    def test_more_compers_is_not_slower(self, small_mixed_classification):
        table = small_mixed_classification
        job = random_forest_job("rf", n_trees=6, config=TreeConfig(max_depth=6), seed=1)
        slow = TreeServer(small_system(table.n_rows, compers=1)).fit(table, [job])
        fast = TreeServer(small_system(table.n_rows, compers=8)).fit(table, [job])
        assert fast.sim_seconds <= slow.sim_seconds * 1.01

    def test_npool_one_is_slower_than_many(self, small_mixed_classification):
        table = small_mixed_classification
        job = random_forest_job("rf", n_trees=8, config=TreeConfig(max_depth=6), seed=1)
        serial_pool = TreeServer(small_system(table.n_rows, n_pool=1)).fit(
            table, [job]
        )
        parallel_pool = TreeServer(
            small_system(table.n_rows, n_pool=200)
        ).fit(table, [job])
        assert parallel_pool.sim_seconds < serial_pool.sim_seconds


def crashing(system, *plans):
    """A sim server that injects ``plans`` and recovers from them."""
    options = RuntimeOptions(faults=plans, fault_policy="recover")
    return TreeServer(system, runtime_options=options)


class TestFaultTolerance:
    def test_worker_crash_recovers_with_replicas(self, small_mixed_classification):
        table = small_mixed_classification
        cfg = TreeConfig(max_depth=6)
        system = SystemConfig(
            n_workers=5, compers_per_worker=2, column_replication=2
        ).scaled_to(table.n_rows)
        report = crashing(system, FaultPlan("crash", 3, at=0.004)).fit(
            table, [decision_tree_job("dt", cfg)]
        )
        assert report.counters.revoked_trees >= 1
        # The model is still the exact one.
        assert trees_equal(train_tree(table, cfg), report.tree("dt"))

    def test_crash_before_start_is_survivable(self, small_mixed_classification):
        table = small_mixed_classification
        cfg = TreeConfig(max_depth=5)
        system = SystemConfig(
            n_workers=4, compers_per_worker=2, column_replication=2
        ).scaled_to(table.n_rows)
        report = crashing(system, FaultPlan("crash", 2, at=0.0)).fit(
            table, [decision_tree_job("dt", cfg)]
        )
        assert trees_equal(train_tree(table, cfg), report.tree("dt"))

    def test_crash_without_replica_raises(self, small_mixed_classification):
        table = small_mixed_classification
        system = SystemConfig(
            n_workers=4, compers_per_worker=2, column_replication=1
        ).scaled_to(table.n_rows)
        with pytest.raises(RuntimeError, match="replica"):
            crashing(system, FaultPlan("crash", 1, at=0.004)).fit(
                table, [decision_tree_job("dt", TreeConfig(max_depth=5))]
            )

    def test_master_crash_not_modelled(self, small_mixed_classification):
        table = small_mixed_classification
        with pytest.raises(ValueError, match="master"):
            crashing(
                small_system(table.n_rows), FaultPlan("crash", 0, at=1.0)
            ).fit(table, [decision_tree_job("dt")])

    def test_forest_survives_crash(self, small_mixed_classification):
        table = small_mixed_classification
        job = random_forest_job("rf", n_trees=4, config=TreeConfig(max_depth=5), seed=3)
        system = SystemConfig(
            n_workers=5, compers_per_worker=2, column_replication=2
        ).scaled_to(table.n_rows)
        report = crashing(system, FaultPlan("crash", 2, at=0.005)).fit(
            table, [job]
        )
        for i, request in enumerate(job.stages[0].trees):
            assert trees_equal(
                train_tree(table, request.config), report.trees("rf")[i]
            )


class TestMetrics:
    def test_report_fields_populated(self, small_mixed_classification):
        table = small_mixed_classification
        report = TreeServer(small_system(table.n_rows)).fit(
            table, [decision_tree_job("dt", TreeConfig(max_depth=6))]
        )
        assert report.sim_seconds > 0
        assert report.cluster.avg_worker_cpu_percent > 0
        assert report.cluster.total_bytes > 0
        assert len(report.cluster.machines) == 5  # 4 workers + master
        assert report.cluster.summary()

    def test_forest_helper(self, small_mixed_classification):
        table = small_mixed_classification
        job = random_forest_job("rf", n_trees=3, config=TreeConfig(max_depth=5), seed=1)
        report = TreeServer(small_system(table.n_rows)).fit(table, [job])
        forest = report.forest("rf")
        proba = forest.predict_proba(table)
        assert proba.shape == (table.n_rows, table.n_classes)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_single_tree_helper_rejects_forest(self, small_mixed_classification):
        table = small_mixed_classification
        job = random_forest_job("rf", n_trees=2, config=TreeConfig(max_depth=4), seed=1)
        report = TreeServer(small_system(table.n_rows)).fit(table, [job])
        with pytest.raises(ValueError, match="expected 1"):
            report.tree("rf")
