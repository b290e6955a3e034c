"""Integration stress tests: mixed workloads through the full stack."""

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
from repro.datasets import SyntheticSpec, generate
from repro.runtime import FaultPlan, RuntimeOptions


@pytest.fixture(scope="module")
def table():
    return generate(
        SyntheticSpec(
            name="stress", n_rows=700, n_numeric=5, n_categorical=3,
            n_classes=3, planted_depth=4, noise=0.12,
            missing_rate=0.04, seed=123,
        )
    )


class TestMixedWorkloads:
    def test_everything_in_one_run(self, table):
        """All job flavours submitted together; every model is exact."""
        system = SystemConfig(n_workers=5, compers_per_worker=3).scaled_to(
            table.n_rows
        )
        jobs = [
            decision_tree_job("dt", TreeConfig(max_depth=7)),
            random_forest_job("rf", 5, TreeConfig(max_depth=5), seed=1),
            extra_trees_job("et", 3, seed=2),
            staged_job(
                "staged",
                [[TreeConfig(max_depth=4, seed=5)],
                 [TreeConfig(max_depth=4, seed=6)]],
            ),
            random_forest_job(
                "boot", 3, TreeConfig(max_depth=5), seed=3,
                bootstrap_rows=True,
            ),
        ]
        report = TreeServer(system).fit(table, jobs)
        assert report.counters.trees_completed == 14  # 1+5+3+2+3

        assert trees_equal(
            train_tree(table, TreeConfig(max_depth=7)), report.tree("dt")
        )
        for i, request in enumerate(jobs[1].stages[0].trees):
            assert trees_equal(
                train_tree(table, request.config), report.trees("rf")[i]
            )
        for i, request in enumerate(jobs[2].stages[0].trees):
            assert trees_equal(
                train_tree(table, request.config), report.trees("et")[i]
            )
        for i, request in enumerate(jobs[4].stages[0].trees):
            serial = train_tree(
                table,
                request.config,
                row_ids=bootstrap_row_ids(request.config.seed, table.n_rows),
            )
            assert trees_equal(serial, report.trees("boot")[i])

    def test_mixed_workload_with_crash_and_secondary(self, table):
        system = SystemConfig(
            n_workers=5, compers_per_worker=2, column_replication=2
        ).scaled_to(table.n_rows)
        jobs = [
            decision_tree_job("dt", TreeConfig(max_depth=6)),
            random_forest_job("rf", 4, TreeConfig(max_depth=5), seed=9),
        ]
        clean = TreeServer(system).fit(table, jobs)
        options = RuntimeOptions(
            faults=(
                FaultPlan("crash", 2, at=clean.sim_seconds / 4),
                FaultPlan("crash", 0, at=clean.sim_seconds / 2),
            ),
            fault_policy="recover",
        )
        crashed = TreeServer(system, runtime_options=options).fit(
            table,
            [
                decision_tree_job("dt", TreeConfig(max_depth=6)),
                random_forest_job("rf", 4, TreeConfig(max_depth=5), seed=9),
            ],
            secondary_master=True,
        )
        assert trees_equal(clean.tree("dt"), crashed.tree("dt"))
        for a, b in zip(clean.trees("rf"), crashed.trees("rf")):
            assert trees_equal(a, b)

    def test_tiny_cluster_huge_pool(self, table):
        """1 worker, 1 comper, n_pool far above tree count: still exact."""
        system = SystemConfig(
            n_workers=1, compers_per_worker=1, n_pool=500
        ).scaled_to(table.n_rows)
        job = random_forest_job("rf", 6, TreeConfig(max_depth=5), seed=4)
        report = TreeServer(system).fit(table, [job])
        for i, request in enumerate(job.stages[0].trees):
            assert trees_equal(
                train_tree(table, request.config), report.trees("rf")[i]
            )

    def test_deep_unbounded_tree_through_engine(self, table):
        """max_depth=None (the cascade-forest setting) works distributed."""
        system = SystemConfig(n_workers=3, compers_per_worker=2).scaled_to(
            table.n_rows
        )
        cfg = TreeConfig(max_depth=None, tau_leaf=4)
        report = TreeServer(system).fit(table, [decision_tree_job("dt", cfg)])
        assert trees_equal(train_tree(table, cfg), report.tree("dt"))

    def test_single_row_table(self):
        tiny = generate(
            SyntheticSpec(
                name="one", n_rows=4, n_numeric=2, n_categorical=0,
                n_classes=2, planted_depth=1, seed=7,
            )
        )
        system = SystemConfig(n_workers=2, compers_per_worker=1)
        report = TreeServer(system).fit(
            tiny, [decision_tree_job("dt", TreeConfig(max_depth=3))]
        )
        assert trees_equal(
            train_tree(tiny, TreeConfig(max_depth=3)), report.tree("dt")
        )

    def test_many_small_jobs(self, table):
        """Model-selection style: 10 one-tree jobs pooled."""
        system = SystemConfig(n_workers=4, compers_per_worker=2).scaled_to(
            table.n_rows
        )
        jobs = [
            decision_tree_job(f"dt{d}", TreeConfig(max_depth=d, seed=d))
            for d in range(1, 11)
        ]
        report = TreeServer(system).fit(table, jobs)
        for d in range(1, 11):
            assert trees_equal(
                train_tree(table, TreeConfig(max_depth=d, seed=d)),
                report.tree(f"dt{d}"),
            )
