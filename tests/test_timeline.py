"""Tests for execution-timeline recording and the utilization curve."""

import pytest

from repro.cluster import Machine, SimulationEngine, utilization_curve


class TestTimelineRecording:
    def test_off_by_default(self):
        engine = SimulationEngine()
        machine = Machine(engine, 0, 1, 10.0)
        machine.execute(10, lambda: None)
        engine.run()
        assert machine.stats.timeline == []

    def test_entries_match_busy_time(self):
        engine = SimulationEngine()
        machine = Machine(engine, 0, 2, 10.0)
        machine.record_timeline = True
        machine.execute(10, lambda: None, label="a")
        machine.execute(20, lambda: None, label="b")
        machine.execute(10, lambda: None, label="c")
        engine.run()
        assert len(machine.stats.timeline) == 3
        total = sum(end - start for _, start, end in machine.stats.timeline)
        assert total == pytest.approx(machine.stats.busy_core_seconds)
        labels = [label for label, _, _ in machine.stats.timeline]
        assert set(labels) == {"a", "b", "c"}

    def test_queued_item_starts_after_running(self):
        engine = SimulationEngine()
        machine = Machine(engine, 0, 1, 10.0)
        machine.record_timeline = True
        machine.execute(10, lambda: None)
        machine.execute(10, lambda: None)
        engine.run()
        (first, second) = sorted(
            machine.stats.timeline, key=lambda t: t[1]
        )
        assert second[1] == pytest.approx(first[2])


class TestUtilizationCurve:
    def test_uniform_load(self):
        engine = SimulationEngine()
        machine = Machine(engine, 0, 1, 10.0)
        machine.record_timeline = True
        machine.execute(100, lambda: None)  # busy 0..10s
        engine.run()
        curve = utilization_curve([machine], elapsed=10.0, n_bins=5)
        assert all(v == pytest.approx(1.0) for v in curve)

    def test_ramp(self):
        engine = SimulationEngine()
        machine = Machine(engine, 0, 2, 10.0)
        machine.record_timeline = True
        # One core busy the whole time, a second joins at t=5.
        machine.execute(100, lambda: None)
        engine.schedule(5.0, lambda: machine.execute(50, lambda: None))
        engine.run()
        curve = utilization_curve([machine], elapsed=10.0, n_bins=2)
        assert curve[0] == pytest.approx(1.0)
        assert curve[1] == pytest.approx(2.0)

    def test_integral_equals_busy_seconds(self):
        engine = SimulationEngine()
        machines = [Machine(engine, i, 2, 10.0) for i in range(2)]
        for machine in machines:
            machine.record_timeline = True
        machines[0].execute(37, lambda: None)
        machines[1].execute(53, lambda: None)
        machines[1].execute(11, lambda: None)
        engine.run()
        elapsed = engine.now
        curve = utilization_curve(machines, elapsed, n_bins=50)
        integral = sum(curve) * (elapsed / 50)
        total_busy = sum(m.stats.busy_core_seconds for m in machines)
        assert integral == pytest.approx(total_busy, rel=1e-9)

    def test_degenerate_inputs(self):
        assert utilization_curve([], 0.0, 4) == [0.0] * 4


class TestEndToEndUtilization:
    def test_treeserver_run_produces_nonzero_curve(
        self, small_mixed_classification
    ):
        """Wire the flag through a real run and see compute happening."""
        from repro.core import SystemConfig, TreeConfig, decision_tree_job
        from repro.core.server import TreeServer
        from repro.cluster.topology import SimulatedCluster

        # Use the engine pieces directly so we can flip record_timeline.
        from repro.core.load_balance import assign_columns_to_workers
        from repro.core.master import MasterActor, _TableInfo
        from repro.core.worker import WorkerActor

        table = small_mixed_classification
        system = SystemConfig(n_workers=3, compers_per_worker=2).scaled_to(
            table.n_rows
        )
        cluster = SimulatedCluster(3, 2)
        for machine in cluster.machines:
            machine.record_timeline = True
        placement = assign_columns_to_workers(
            table.n_columns, cluster.worker_ids(), 2
        )
        for wid in cluster.worker_ids():
            held = {c for c, ws in placement.items() if wid in ws}
            cluster.register(
                wid, WorkerActor(cluster.machines[wid], table, held)
            )
        info = _TableInfo(table.n_rows, table.n_columns, table.problem,
                          table.n_classes)
        master = MasterActor(
            cluster.machines[0], info,
            [decision_tree_job("dt", TreeConfig(max_depth=6))],
            system, placement,
        )
        cluster.register(0, master)
        master.start()
        cluster.run()
        from repro.cluster import utilization_curve as curve_fn

        curve = curve_fn(cluster.machines, cluster.engine.now, 10)
        assert max(curve) > 0.0


class TestRunReportUtilization:
    def test_fit_with_record_timeline(self, small_mixed_classification):
        from repro.core import (
            SystemConfig,
            TreeConfig,
            TreeServer,
            random_forest_job,
        )

        table = small_mixed_classification
        system = SystemConfig(n_workers=3, compers_per_worker=2).scaled_to(
            table.n_rows
        )
        report = TreeServer(system).fit(
            table,
            [random_forest_job("rf", 3, TreeConfig(max_depth=5), seed=1)],
            record_timeline=True,
        )
        curve = report.utilization_curve(10)
        assert len(curve) == 10
        assert max(curve) > 0.0

    def test_fit_without_timeline_rejects_curve(
        self, small_mixed_classification
    ):
        from repro.core import SystemConfig, TreeConfig, TreeServer
        from repro.core.jobs import decision_tree_job

        table = small_mixed_classification
        system = SystemConfig(n_workers=2, compers_per_worker=1).scaled_to(
            table.n_rows
        )
        report = TreeServer(system).fit(
            table, [decision_tree_job("dt", TreeConfig(max_depth=4))]
        )
        with pytest.raises(ValueError, match="record_timeline"):
            report.utilization_curve()
