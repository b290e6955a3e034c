"""Tests for secondary-master failover (paper Appendix E)."""

import pytest

from repro.core import (
    SystemConfig,
    TreeConfig,
    TreeServer,
    decision_tree_job,
    random_forest_job,
    staged_job,
    trees_equal,
)
from repro.datasets import SyntheticSpec, generate
from repro.runtime import FaultPlan, RuntimeOptions


@pytest.fixture(scope="module")
def table():
    return generate(
        SyntheticSpec(
            name="sm", n_rows=500, n_numeric=4, n_categorical=1,
            n_classes=2, planted_depth=4, noise=0.1, seed=55,
        )
    )


def system_for(table) -> SystemConfig:
    return SystemConfig(n_workers=4, compers_per_worker=2).scaled_to(
        table.n_rows
    )


def crashing(system, *crashes):
    """A sim server that crashes each ``(machine, at)`` of ``crashes``
    and recovers from worker crashes."""
    options = RuntimeOptions(
        faults=tuple(FaultPlan("crash", m, at=t) for m, t in crashes),
        fault_policy="recover",
    )
    return TreeServer(system, runtime_options=options)


def forest_job(seed=9, n=6):
    return random_forest_job("rf", n, TreeConfig(max_depth=6), seed=seed)


class TestMasterFailover:
    def test_crash_midway_preserves_models(self, table):
        system = system_for(table)
        clean = TreeServer(system).fit(table, [forest_job()])
        crashed = crashing(system, (0, clean.sim_seconds / 2)).fit(
            table,
            [forest_job()],
            secondary_master=True,
        )
        assert all(
            trees_equal(a, b)
            for a, b in zip(clean.trees("rf"), crashed.trees("rf"))
        )
        # Failover costs time: re-planning the incomplete trees.
        assert crashed.sim_seconds > clean.sim_seconds

    def test_crash_at_start_retrains_everything(self, table):
        system = system_for(table)
        clean = TreeServer(system).fit(table, [forest_job(seed=3)])
        crashed = crashing(system, (0, 0.0)).fit(
            table,
            [forest_job(seed=3)],
            secondary_master=True,
        )
        assert all(
            trees_equal(a, b)
            for a, b in zip(clean.trees("rf"), crashed.trees("rf"))
        )

    def test_crash_near_end_reuses_synced_trees(self, table):
        """Trees checkpointed to the secondary are not retrained."""
        system = system_for(table)
        clean = TreeServer(system).fit(table, [forest_job(seed=5)])
        late = clean.sim_seconds * 0.95
        crashed = crashing(system, (0, late)).fit(
            table,
            [forest_job(seed=5)],
            secondary_master=True,
        )
        # The second generation only dispatched plans for the remainder.
        assert crashed.counters.trees_completed < 6
        assert len(crashed.trees("rf")) == 6
        assert all(
            trees_equal(a, b)
            for a, b in zip(clean.trees("rf"), crashed.trees("rf"))
        )

    def test_master_crash_without_secondary_rejected(self, table):
        with pytest.raises(ValueError, match="secondary"):
            crashing(system_for(table), (0, 0.001)).fit(
                table,
                [decision_tree_job("dt")],
            )

    def test_secondary_enabled_without_crash_is_harmless(self, table):
        system = system_for(table)
        clean = TreeServer(system).fit(table, [forest_job(seed=7)])
        with_standby = TreeServer(system).fit(
            table, [forest_job(seed=7)], secondary_master=True
        )
        assert all(
            trees_equal(a, b)
            for a, b in zip(clean.trees("rf"), with_standby.trees("rf"))
        )

    def test_staged_job_survives_failover(self, table):
        system = system_for(table)
        job = staged_job(
            "boost",
            [
                [TreeConfig(max_depth=4, seed=1), TreeConfig(max_depth=4, seed=2)],
                [TreeConfig(max_depth=4, seed=3)],
            ],
        )
        clean = TreeServer(system).fit(table, [job])
        crashed = crashing(system, (0, clean.sim_seconds / 3)).fit(
            table,
            [staged_job(
                "boost",
                [
                    [TreeConfig(max_depth=4, seed=1),
                     TreeConfig(max_depth=4, seed=2)],
                    [TreeConfig(max_depth=4, seed=3)],
                ],
            )],
            secondary_master=True,
        )
        assert len(crashed.trees("boost")) == 3
        assert all(
            trees_equal(a, b)
            for a, b in zip(clean.trees("boost"), crashed.trees("boost"))
        )

    def test_worker_then_master_crash(self, table):
        """Regression: the primary's crash handling mutates *its own*
        holder lists; the standby's snapshot must stay pristine so the
        failover master re-derives liveness itself.  A worker crash
        followed by a master crash exercises exactly that order."""
        system = SystemConfig(
            n_workers=5, compers_per_worker=2, column_replication=2
        ).scaled_to(table.n_rows)
        clean = TreeServer(system).fit(table, [forest_job(seed=13)])
        t = clean.sim_seconds
        crashed = crashing(system, (3, t / 4), (0, t)).fit(
            table,
            [forest_job(seed=13)],
            secondary_master=True,
        )
        # Note: report counters come from the promoted (post-failover)
        # master, so the pre-failover worker recovery is not visible in
        # them — the model parity is the guarantee under test.
        assert all(
            trees_equal(a, b)
            for a, b in zip(clean.trees("rf"), crashed.trees("rf"))
        )

    def test_hist_forest_survives_failover(self, table):
        """A hist-mode forest, master crashed midway, equals the serial
        hist forest.  Column tasks answer with scored ``CandidateSplit`` s
        in both split modes, so the promoted master arbitrates hist nodes
        with no threshold book — the standby is never handed one."""
        import inspect

        from repro.core.builder import train_tree
        from repro.core.master import MasterActor
        from repro.core.secondary import SecondaryMasterActor

        for actor in (SecondaryMasterActor, MasterActor):
            assert "threshold_book" not in inspect.signature(
                actor.__init__
            ).parameters

        system = system_for(table)
        config = TreeConfig(max_depth=6, split_mode="hist", max_bins=8)

        def job():
            return random_forest_job("rf", 6, config, seed=21)

        serial = [
            train_tree(table, req.config, tree_id=i)
            for i, req in enumerate(job().stages[0].trees)
        ]
        clean = TreeServer(system).fit(table, [job()])
        crashed = crashing(system, (0, clean.sim_seconds / 2)).fit(
            table,
            [job()],
            secondary_master=True,
        )
        # The promoted master resolved hist column tasks of its own.
        assert crashed.counters.column_tasks > 0
        assert crashed.sim_seconds > clean.sim_seconds
        for want, a, b in zip(serial, clean.trees("rf"), crashed.trees("rf")):
            assert trees_equal(want, a)
            assert trees_equal(want, b)

    def test_standby_holders_are_not_aliased(self, table):
        """Unit pin for the deep-copy: mutating the placement the standby
        was built from must not leak into its snapshot."""
        from repro.core.master import _TableInfo
        from repro.core.secondary import SecondaryMasterActor
        from repro.data.schema import ProblemKind

        class _StubHost:
            machine_id = 6

        placement = {0: [1, 2], 1: [2, 3]}
        standby = SecondaryMasterActor(
            _StubHost(),
            _TableInfo(100, 2, ProblemKind.CLASSIFICATION, 2),
            [forest_job(seed=1)],
            SystemConfig(n_workers=3),
            placement,
        )
        placement[0].remove(1)  # what a crash-handling primary does
        placement[1].clear()
        assert standby.holders == {0: [1, 2], 1: [2, 3]}
        assert standby.machine_id == 6

    def test_master_then_worker_crash(self, table):
        """A worker crash after failover routes to the promoted master."""
        system = SystemConfig(
            n_workers=5, compers_per_worker=2, column_replication=2
        ).scaled_to(table.n_rows)
        clean = TreeServer(system).fit(table, [forest_job(seed=11)])
        t = clean.sim_seconds
        crashed = crashing(system, (0, t / 4), (3, t * 2)).fit(
            table,
            [forest_job(seed=11)],
            secondary_master=True,
        )
        assert all(
            trees_equal(a, b)
            for a, b in zip(clean.trees("rf"), crashed.trees("rf"))
        )
