"""Tests for the discrete-event cluster substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CostModel,
    Machine,
    Network,
    SimulatedCluster,
    SimulationEngine,
    SimulationError,
)


class TestSimulationEngine:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(2.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(3.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_equal_times_fire_in_insertion_order(self):
        engine = SimulationEngine()
        order = []
        for tag in "abc":
            engine.schedule(1.0, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_callbacks_can_schedule(self):
        engine = SimulationEngine()
        seen = []

        def first():
            seen.append(engine.now)
            engine.schedule(0.5, lambda: seen.append(engine.now))

        engine.schedule(1.0, first)
        engine.run()
        assert seen == [1.0, 1.5]

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_schedule_into_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule(5.0, lambda: engine.schedule_at(1.0, lambda: None))
        with pytest.raises(SimulationError):
            engine.run()

    def test_cancellation(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run()
        assert not fired

    def test_event_budget_guard(self):
        engine = SimulationEngine()

        def loop():
            engine.schedule(1.0, loop)

        engine.schedule(0.0, loop)
        with pytest.raises(SimulationError, match="budget"):
            engine.run(max_events=100)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=100), max_size=30))
    def test_causality_property(self, delays):
        """Observed firing times are sorted regardless of insertion order."""
        engine = SimulationEngine()
        fired = []
        for d in delays:
            engine.schedule(d, lambda: fired.append(engine.now))
        engine.run()
        assert fired == sorted(fired)


class TestNetwork:
    def _make(self, n=3, bw=100.0, lat=0.0):
        engine = SimulationEngine()
        net = Network(engine, n, bandwidth_bytes_per_second=bw, latency_seconds=lat)
        inbox = []
        net.on_deliver(lambda m: inbox.append(m))
        return engine, net, inbox

    def test_delivery_and_serialization_time(self):
        engine, net, inbox = self._make(bw=100.0, lat=0.5)
        t = net.send(0, 1, "k", "hello", size_bytes=200)
        assert t == pytest.approx(200 / 100.0 + 0.5)
        engine.run()
        assert len(inbox) == 1
        assert inbox[0].payload == "hello"

    def test_sender_fifo_backlog(self):
        engine, net, inbox = self._make(bw=100.0, lat=0.0)
        t1 = net.send(0, 1, "k", 1, size_bytes=100)
        t2 = net.send(0, 2, "k", 2, size_bytes=100)
        assert t1 == pytest.approx(1.0)
        assert t2 == pytest.approx(2.0)  # serialized after the first
        engine.run()
        assert [m.payload for m in inbox] == [1, 2]

    def test_local_send_is_free(self):
        engine, net, inbox = self._make(bw=1.0, lat=10.0)
        t = net.send(1, 1, "k", "x", size_bytes=10**9)
        assert t == 0.0
        assert net.stats[1].bytes_sent == 0
        engine.run()
        assert len(inbox) == 1

    def test_byte_accounting(self):
        engine, net, _ = self._make()
        net.send(0, 1, "a", None, 100)
        net.send(0, 2, "b", None, 50)
        assert net.stats[0].bytes_sent == 150
        assert net.stats[1].bytes_received == 100
        assert net.stats[0].bytes_by_kind == {"a": 100, "b": 50}

    def test_dead_destination_drops(self):
        engine, net, inbox = self._make()
        net.mark_dead(1)
        net.send(0, 1, "k", None, 10)
        engine.run()
        assert not inbox
        assert net.messages_dropped == 1

    def test_dead_source_raises(self):
        from repro.cluster import DeadMachineError

        engine, net, _ = self._make()
        net.mark_dead(0)
        with pytest.raises(DeadMachineError):
            net.send(0, 1, "k", None, 10)

    def test_message_conservation(self):
        """sent == delivered + dropped (no loss, no duplication)."""
        engine, net, inbox = self._make(n=4)
        rng = np.random.default_rng(0)
        sent = 0
        for _ in range(50):
            src, dst = rng.integers(0, 4, size=2)
            if src != dst:
                net.send(int(src), int(dst), "k", None, int(rng.integers(1, 100)))
                sent += 1
        engine.run()
        assert len(inbox) + net.messages_dropped == sent


class TestMachine:
    def test_single_core_serializes(self):
        engine = SimulationEngine()
        machine = Machine(engine, 0, n_cores=1, ops_per_second=10.0)
        done = []
        machine.execute(10, lambda: done.append(engine.now))
        machine.execute(10, lambda: done.append(engine.now))
        engine.run()
        assert done == [1.0, 2.0]

    def test_multi_core_parallel(self):
        engine = SimulationEngine()
        machine = Machine(engine, 0, n_cores=2, ops_per_second=10.0)
        done = []
        machine.execute(10, lambda: done.append(engine.now))
        machine.execute(10, lambda: done.append(engine.now))
        machine.execute(10, lambda: done.append(engine.now))
        engine.run()
        assert done == [1.0, 1.0, 2.0]

    def test_busy_time_and_utilization(self):
        engine = SimulationEngine()
        machine = Machine(engine, 0, n_cores=2, ops_per_second=10.0)
        machine.execute(20, lambda: None)
        engine.run()
        assert machine.stats.busy_core_seconds == pytest.approx(2.0)
        assert machine.stats.utilization(2.0) == pytest.approx(0.5)

    def test_memory_accounting(self):
        engine = SimulationEngine()
        machine = Machine(engine, 0, 1, 10.0)
        machine.alloc(100)
        machine.alloc(50)
        assert machine.stats.mem_task_peak == 150
        machine.free(100)
        assert machine.stats.mem_task_bytes == 50
        with pytest.raises(RuntimeError):
            machine.free(51)

    def test_halt_discards_queue(self):
        engine = SimulationEngine()
        machine = Machine(engine, 0, 1, 10.0)
        done = []
        machine.execute(10, lambda: done.append("a"))
        machine.execute(10, lambda: done.append("b"))
        machine.halt()
        engine.run()
        assert done == []  # in-flight callback suppressed too

    def test_ops_by_label(self):
        engine = SimulationEngine()
        machine = Machine(engine, 0, 1, 10.0)
        machine.execute(5, lambda: None, label="x")
        machine.execute(7, lambda: None, label="x")
        engine.run()
        assert machine.stats.ops_by_label["x"] == 12


class TestCostModel:
    def test_split_ops_monotone(self):
        cost = CostModel()
        assert cost.split_search_ops(100) < cost.split_search_ops(10_000)

    def test_subtree_ops_scale_with_columns(self):
        cost = CostModel()
        assert cost.subtree_build_ops(100, 10) == pytest.approx(
            10 * cost.subtree_build_ops(100, 1)
        )

    def test_byte_sizes_include_overhead(self):
        cost = CostModel()
        assert cost.row_ids_bytes(0) == cost.control_bytes
        assert cost.row_ids_bytes(10) == cost.control_bytes + 80
        assert cost.column_data_bytes(10, 3) == cost.control_bytes + 240

    def test_conversions(self):
        cost = CostModel(ops_per_second=100.0, bandwidth_bytes_per_second=50.0)
        assert cost.compute_seconds(200) == pytest.approx(2.0)
        assert cost.transfer_seconds(100) == pytest.approx(2.0)


class TestSimulatedCluster:
    def test_actor_dispatch(self):
        cluster = SimulatedCluster(n_workers=2, compers_per_worker=1)
        seen = []

        class Echo:
            def handle_message(self, message):
                seen.append((message.dst, message.payload))

        cluster.register(1, Echo())
        cluster.register(2, Echo())
        cluster.send(0, 1, "k", "a", 10)
        cluster.send(0, 2, "k", "b", 10)
        report = cluster.run()
        assert sorted(seen) == [(1, "a"), (2, "b")]
        assert report.elapsed_seconds > 0

    def test_unregistered_actor_raises(self):
        cluster = SimulatedCluster(n_workers=1, compers_per_worker=1)
        cluster.send(0, 1, "k", None, 1)
        with pytest.raises(RuntimeError, match="no actor"):
            cluster.run()

    def test_master_has_one_core(self):
        cluster = SimulatedCluster(n_workers=3, compers_per_worker=8)
        assert cluster.machines[0].n_cores == 1
        assert all(m.n_cores == 8 for m in cluster.machines[1:])
