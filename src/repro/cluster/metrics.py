"""Run-level metrics in the units the paper reports.

Table VI reports, per configuration: running time (seconds), average CPU
rate (e.g. ``837%`` meaning ~8.4 cores busy on a 12-thread machine) and
average sending throughput (Mbps, saturating near 941 Mbps on 1 GigE).
Table III additionally reports peak memory per machine (GB) averaged over
machines.  :func:`cluster_report` derives all of these from the machines'
:class:`~repro.cluster.machine.MachineStats` records, the same reduction on
every backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.process import FabricStats
    from .machine import Machine, MachineStats


@dataclass
class MachineReport:
    """Per-machine summary of one run."""

    machine_id: int
    cpu_percent: float
    bytes_sent: int
    bytes_received: int
    send_mbps: float
    peak_memory_bytes: int
    items_executed: int


@dataclass
class ClusterReport:
    """Whole-cluster summary of one run (paper-style units)."""

    elapsed_seconds: float
    machines: list[MachineReport] = field(default_factory=list)
    avg_worker_cpu_percent: float = 0.0
    max_worker_cpu_percent: float = 0.0
    avg_worker_send_mbps: float = 0.0
    max_worker_send_mbps: float = 0.0
    master_send_mbps: float = 0.0
    total_bytes: int = 0
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    avg_peak_memory_bytes: float = 0.0
    events_processed: int = 0
    #: Real data-plane accounting (the process backends, ``mp`` and
    #: ``socket``): every numeric counter of the machines' records summed
    #: over the run, and per worker under ``per_worker``.  Empty on the
    #: simulator, where no bytes physically move.
    transport: dict = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"t={self.elapsed_seconds:.2f}s cpu={self.avg_worker_cpu_percent:.0f}% "
            f"send={self.avg_worker_send_mbps:.0f}Mbps "
            f"mem={self.avg_peak_memory_bytes / 1e6:.1f}MB"
        )


def utilization_curve(
    machines: list[Machine], elapsed: float, n_bins: int = 20
) -> list[float]:
    """Average busy cores per time bin across all machines.

    Requires the machines to have run with ``record_timeline = True``.
    This is the quantity behind the paper's motivating claim — PLANET-style
    systems leave CPUs underutilized early in tree construction, while
    TreeServer's early subtree-tasks ramp utilization up quickly.
    """
    if elapsed <= 0 or n_bins < 1:
        return [0.0] * max(1, n_bins)
    width = elapsed / n_bins
    busy = [0.0] * n_bins
    for machine in machines:
        for _, start, end in machine.stats.timeline:
            first = int(start / width)
            last = min(n_bins - 1, int(end / width))
            for b in range(first, last + 1):
                lo = max(start, b * width)
                hi = min(end, (b + 1) * width)
                if hi > lo:
                    busy[b] += (hi - lo) / width
    return busy


def _counters(*records) -> dict[str, int | float]:
    """The numeric fields of ``records`` (dataclass instances), by name."""
    return {
        f.name: getattr(record, f.name)
        for record in records
        for f in fields(record)
        if isinstance(getattr(record, f.name), (int, float))
    }


def cluster_report(
    elapsed: float,
    machines: dict[int, MachineStats],
    events_processed: int = 0,
    fabrics: dict[int, FabricStats] | None = None,
    master_id: int = 0,
) -> ClusterReport:
    """Reduce one run's per-machine records to its report.

    ``machines`` maps every machine id to its record.  ``fabrics`` —
    the process backends' per-machine send-fabric records, keyed alike —
    turns on the ``transport`` section: each machine's numeric counters
    (record and fabric together) are summed over all machines, and the
    workers' are kept under ``per_worker``.  ``machines[master_id]`` is
    excluded from the worker averages — the paper's master is dedicated
    to task management and its CPU rate is not part of the reported
    utilization.
    """
    report = ClusterReport(
        elapsed_seconds=elapsed, events_processed=events_processed
    )
    for mid in sorted(machines):
        stats = machines[mid]
        report.machines.append(
            MachineReport(
                machine_id=mid,
                cpu_percent=stats.utilization(elapsed) * stats.n_cores * 100,
                bytes_sent=stats.bytes_sent,
                bytes_received=stats.bytes_received,
                send_mbps=(
                    (stats.bytes_sent * 8 / elapsed / 1e6)
                    if elapsed > 0
                    else 0.0
                ),
                peak_memory_bytes=stats.mem_base_bytes + stats.mem_task_peak,
                items_executed=stats.items_executed,
            )
        )
        for kind, nbytes in stats.bytes_by_kind.items():
            report.bytes_by_kind[kind] = (
                report.bytes_by_kind.get(kind, 0) + nbytes
            )
    workers = [m for m in report.machines if m.machine_id != master_id]
    if workers:
        report.avg_worker_cpu_percent = sum(w.cpu_percent for w in workers) / len(
            workers
        )
        report.max_worker_cpu_percent = max(w.cpu_percent for w in workers)
        report.avg_worker_send_mbps = sum(w.send_mbps for w in workers) / len(
            workers
        )
        report.max_worker_send_mbps = max(w.send_mbps for w in workers)
        report.avg_peak_memory_bytes = sum(
            w.peak_memory_bytes for w in workers
        ) / len(workers)
    master = next(
        (m for m in report.machines if m.machine_id == master_id), None
    )
    if master is not None:
        report.master_send_mbps = master.send_mbps
    report.total_bytes = sum(m.bytes_sent for m in report.machines)
    if fabrics is not None:
        per_machine = {
            mid: _counters(machines[mid], fabrics[mid])
            for mid in sorted(machines)
        }
        report.transport = {
            key: sum(c[key] for c in per_machine.values())
            for key in per_machine[master_id]
        }
        report.transport["per_worker"] = {
            mid: c for mid, c in per_machine.items() if mid != master_id
        }
    return report
