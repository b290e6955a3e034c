"""Substrate conformance: one contract per seam, every substrate.

The :class:`~repro.runtime.base.Transport` protocol makes exactly three
promises the TreeServer event loops rely on:

* **per-sender FIFO per destination** — the extra-trees retry path
  (``task_delete`` immediately followed by a fresh ``column_plan`` to
  the same worker) breaks if a later send can overtake an earlier one;
* **flush-on-idle delivery** — sends may be coalesced, but everything
  buffered must be on its way once the sender goes idle (an explicit
  ``flush``, or the implicit one in ``recv_master``), never held until
  some unrelated later event;
* **idempotent close** — teardown paths run ``close`` from both success
  and failure branches, sometimes twice.

These run over both substrates, under every backend name: the simulated
network (through ``SimulatedCluster.send``, the path the simulator's
hosts send on) for ``sim``, and ``SocketTransport`` (framed TCP,
loopback self-launch) for ``mp`` and ``socket``, which are one transport.

The :class:`~repro.runtime.base.Host` protocol — what an actor needs
from its machine — is pinned the same way, over a simulated
:class:`~repro.cluster.machine.Machine` and a
:class:`~repro.runtime.process.ProcessHost`, and so is the run report
the process backends build from their hosts' counter records.  A new
backend earns its seat by passing this file.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import queue as queue_module
import time

import pytest

from repro import SystemConfig, TreeConfig, TreeServer, random_forest_job
from repro.cluster.machine import Machine, MachineStats
from repro.cluster.network import Message
from repro.cluster.topology import SimulatedCluster
from repro.core.load_balance import assign_columns_to_workers
from repro.datasets import dataset_spec, generate
from repro.runtime import Host, RuntimeOptions
from repro.runtime.process import FabricStats, ProcessHost

#: Kind tag of the probe messages; never a real protocol kind.
PROBE = "conformance_probe"


def _cost():
    return TreeServer(SystemConfig(n_workers=2, compers_per_worker=1)).cost


class _Harness:
    """Uniform view of one substrate for the transport contract.

    ``send`` puts one probe on the wire, ``flush`` pushes buffered sends
    out, ``delivered(count)`` returns the payloads observed at the
    destination in arrival order, and ``close`` releases the substrate.
    """

    def __init__(self, send, flush, delivered, close):
        self.send = send
        self.flush = flush
        self.delivered = delivered
        self.close = close


def _sim_harness() -> _Harness:
    cluster = SimulatedCluster(n_workers=2, compers_per_worker=1, cost=_cost())
    received: list[Message] = []

    class _Recorder:
        def handle_message(self, message: Message) -> None:
            received.append(message)

    cluster.register(1, _Recorder())

    def delivered(count: int) -> list:
        cluster.run()  # drain the event queue
        return [m.payload for m in received]

    return _Harness(
        send=lambda payload: cluster.send(0, 1, PROBE, payload, 8),
        flush=lambda: None,  # the simulated NIC holds nothing back
        delivered=delivered,
        close=lambda: None,  # the event queue owns all state
    )


def _queue_harness(transport) -> _Harness:
    """mp / socket: probes addressed to the master land in recv_master.

    ``recv_master`` flushes the fabric before blocking — the flush-on-idle
    rule — so no explicit ``flush`` call is needed for delivery.
    """

    def delivered(count: int) -> list:
        got = []
        deadline = time.monotonic() + 15.0
        while len(got) < count and time.monotonic() < deadline:
            try:
                message = transport.recv_master(0.1)
            except queue_module.Empty:
                continue
            assert message.kind == PROBE
            got.append(message.payload)
        return got

    return _Harness(
        send=lambda payload: transport.send(0, 0, PROBE, payload, 8),
        flush=transport.flush,
        delivered=delivered,
        close=transport.close,
    )


def _real_transport():
    from repro.runtime.socket import SocketTransport

    table = generate(dataset_spec("covtype", small=True))
    placement = assign_columns_to_workers(table.n_columns, [1], 1)
    options = RuntimeOptions(message_timeout_seconds=15.0, use_shm=False)
    return SocketTransport(1, table, placement, _cost(), options)


def _make_harness(backend: str) -> _Harness:
    if backend == "sim":
        return _sim_harness()
    return _queue_harness(_real_transport())


@pytest.fixture(params=["sim", "mp", "socket"])
def harness(request):
    h = _make_harness(request.param)
    try:
        yield h
    finally:
        h.close()
        assert multiprocessing.active_children() == []


class TestTransportContract:
    def test_per_sender_fifo(self, harness):
        """64 probes from one sender arrive in send order — more than the
        coalescing cap, so order must survive batch boundaries too."""
        count = 64
        for i in range(count):
            harness.send(i)
        harness.flush()
        assert harness.delivered(count) == list(range(count))

    def test_flush_on_idle_delivers_buffered_sends(self, harness):
        """No explicit flush: going idle (the receive path) suffices."""
        for i in range(3):
            harness.send(("idle", i))
        assert harness.delivered(3) == [("idle", i) for i in range(3)]

    def test_close_is_idempotent(self, harness):
        harness.send("pre-close")
        harness.flush()
        harness.close()
        harness.close()  # second close must be a no-op, not an error


# ----------------------------------------------------------------------
# the Host contract
# ----------------------------------------------------------------------
class _NullTransport:
    """Where a lone process host's sends go; these tests send nothing."""

    def send(self, src, dst, kind, payload, size_bytes) -> None:
        raise AssertionError("the host contract tests send nothing")

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


def _sim_host() -> tuple[Machine, SimulatedCluster]:
    cluster = SimulatedCluster(n_workers=2, compers_per_worker=1, cost=_cost())
    return cluster.machines[1], cluster


@pytest.fixture(params=["sim", "process"])
def host_and_run(request):
    """Machine 1 as a host, and how its owner runs what the host queued:
    the simulation engine, or the process host's run-to-completion drain."""
    if request.param == "sim":
        host, cluster = _sim_host()
        return host, cluster.engine.run
    host = ProcessHost(1, _cost(), _NullTransport())
    return host, host.drain


class TestHostContract:
    def test_execute_runs_fn_once_and_counts_ops(self, host_and_run):
        host, run = host_and_run
        assert isinstance(host, Host)
        calls = []
        host.execute(5.0, lambda: calls.append("ran"), label="probe")
        if isinstance(host, Machine):
            assert calls == []  # simulated compute takes simulated time
        run()
        assert calls == ["ran"]
        assert host.stats.ops_executed == 5.0
        assert host.stats.items_executed == 1
        assert host.stats.ops_by_label == {"probe": 5.0}
        assert host.stats.busy_core_seconds == pytest.approx(
            5.0 / host.cost.ops_per_second
        )

    def test_memory_accounting(self, host_and_run):
        host, _ = host_and_run
        host.set_base_memory(1000)
        host.alloc(100)
        host.alloc(50)
        host.free(120)
        host.alloc(10)
        assert host.stats.mem_base_bytes == 1000
        assert host.stats.mem_task_bytes == 40
        assert host.stats.mem_task_peak == 150
        with pytest.raises(ValueError):
            host.alloc(-1)
        with pytest.raises(RuntimeError, match="machine 1 freed more"):
            host.free(41)

    def test_paced_callbacks_run_in_fifo_order(self, host_and_run):
        host, run = host_and_run
        order = []
        for i in range(8):
            host.pace(0.001, i % 2 == 0, lambda i=i: order.append(i))
        run()
        assert order == list(range(8))

    def test_deep_self_rescheduling_chain_does_not_recurse(self, host_and_run):
        """The dispatch pump re-queues itself once per plan; 10 000 turns
        must run as a loop, not as nested calls."""
        host, run = host_and_run
        remaining = [10_000]

        def turn() -> None:
            remaining[0] -= 1
            if remaining[0]:
                host.pace(0.0, False, turn)

        host.pace(0.0, False, turn)
        run()
        assert remaining[0] == 0

    def test_halted_sim_host_drops_execute(self):
        host, cluster = _sim_host()
        host.halt()
        calls = []
        host.execute(1.0, lambda: calls.append("ran"))
        cluster.engine.run()
        assert host.halted
        assert calls == []


# ----------------------------------------------------------------------
# the run report
# ----------------------------------------------------------------------
#: Send-fabric counters the driver's record adds to the workers'; of the
#: rest, the driver keeps only the ones the test reads off the report —
#: it never computes, holds task memory, maps shared memory or builds a
#: subtree.
_DRIVER_SENDS = ("messages_sent", "bytes_pickled", "coalesced_batches")


@pytest.mark.parametrize("backend", ["mp", "socket"])
def test_every_record_counter_reaches_the_report(backend):
    """Each numeric field of a worker's records appears in its
    ``per_worker`` entry and sums into ``transport``, which adds the
    driver's own record: adding a counter is one field and its
    increment."""
    table = generate(dataset_spec("covtype", small=True))
    system = SystemConfig(n_workers=2, compers_per_worker=1).scaled_to(
        table.n_rows
    )
    report = TreeServer(
        system,
        backend=backend,
        runtime_options=RuntimeOptions(message_timeout_seconds=30.0),
    ).fit(table, [random_forest_job("rf", 2, TreeConfig(max_depth=6))])
    cluster = report.cluster
    transport = cluster.transport
    per_worker = transport["per_worker"]
    assert sorted(per_worker) == [1, 2]
    names = [
        f.name
        for record in (MachineStats, FabricStats)
        for f in dataclasses.fields(record)
        if f.default_factory is dataclasses.MISSING
    ]
    driver = {
        "n_cores": 1,
        "messages_handled": cluster.events_processed,
        "bytes_sent": cluster.machines[0].bytes_sent,
    }
    for name in names:
        worker_sum = sum(entry[name] for entry in per_worker.values())
        if name in _DRIVER_SENDS:
            assert transport[name] >= worker_sum, name
        else:
            assert transport[name] == pytest.approx(
                worker_sum + driver.get(name, 0)
            ), name
    for wid, entry in per_worker.items():
        for name in (
            "messages_handled", "messages_sent", "items_executed",
            "busy_core_seconds", "bytes_pickled", "mem_base_bytes",
        ):
            assert entry[name] > 0, (wid, name)
        assert entry["mem_task_bytes"] == 0
    assert transport["messages_sent"] > sum(
        entry["messages_sent"] for entry in per_worker.values()
    )
    assert transport["subtree_nodes_built"] > 0
    assert sum(cluster.bytes_by_kind.values()) == cluster.total_bytes
