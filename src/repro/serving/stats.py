"""Serving counters: one record per layer, one reduction to a report.

Each serving event is counted once, in the record of the layer where it
happens: :class:`ServingStats` (the server), :class:`FleetStats` with one
:class:`WorkerStats` per worker seat (the fleet) and
:class:`GatewayStats` (the HTTP gateway).  :func:`serving_report` is the
one reduction of those records to the :class:`ServingReport` that
``to_dict()``, the gateway's ``/stats`` body and ``summary()`` read.
Roll-ups are derived there, never counted: ``rejected``, the gateway's
``throttled`` and ``throttled_queue_full`` (the server's
``rejected_queue_full``), and the fleet's ``respawns``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .fleet import ServingFleet

# Each latency window is bounded: it is memory that grows with traffic,
# and its percentiles describe only the recent past it keeps.
#: Server request latencies (512 KiB): one to two seconds of 16-row
#: requests at 400-700 k rows/s, hundreds of samples above the p99.
SERVER_WINDOW = 65_536
#: Gateway predict latencies and queue waits (32 KiB each): HTTP
#: predicts come tens, not tens of thousands, a second — minutes of them.
GATEWAY_WINDOW = 4_096
#: Fleet batch service times, whose p99 is the hedge delay: recent enough
#: to follow a load change, with ten samples above the p99.
FLEET_WINDOW = 1_024


class LatencyWindow(deque):
    """The most recent ``maxlen`` durations (seconds), read in milliseconds:
    the one bounded window behind the server, gateway and fleet counters."""

    def __init__(self, maxlen: int) -> None:
        super().__init__((), maxlen)

    def percentile_ms(self, q: float) -> float:
        """Percentile ``q`` of the window in milliseconds (0 when empty)."""
        return float(np.percentile(self, q) * 1e3) if self else 0.0

    def max_ms(self) -> float:
        """Largest duration of the window in milliseconds (0 when empty)."""
        return float(max(self) * 1e3) if self else 0.0


@dataclass
class ServingStats:
    """The server's counters, kept by ``submit`` and the dispatcher."""

    n_requests: int = 0
    n_rows: int = 0
    n_batches: int = 0
    #: Submits shed because the bounded queue was full (backpressure).
    rejected_queue_full: int = 0
    #: Submits refused because the server was stopping or stopped.
    rejected_shutdown: int = 0
    kernel_seconds: float = 0.0
    first_enqueue: float | None = None
    last_complete: float | None = None
    latencies: LatencyWindow = field(
        default_factory=partial(LatencyWindow, SERVER_WINDOW)
    )


@dataclass
class GatewayStats:
    """The gateway's counters, kept on its event loop."""

    http_requests: int = 0
    http_errors: int = 0
    #: Predicts that got past admission control.
    admitted: int = 0
    #: Predicts refused by admission control (429).
    throttled_quota: int = 0
    swaps: int = 0
    rollbacks: int = 0
    #: End-to-end predict latencies through the gateway (seconds).
    latencies: LatencyWindow = field(
        default_factory=partial(LatencyWindow, GATEWAY_WINDOW)
    )
    #: Seconds admitted predicts were parked by admission control.
    queue_waits: LatencyWindow = field(
        default_factory=partial(LatencyWindow, GATEWAY_WINDOW)
    )


@dataclass
class WorkerStats:
    """One fleet worker seat's counters, across its respawns.  ``rows``
    and ``batches`` count the shards whose result this seat delivered
    first; ``shm_bytes_mapped`` is the live incarnation's mapping."""

    worker_id: int
    respawns: int = 0
    rows: int = 0
    batches: int = 0
    model_attaches: int = 0
    shm_bytes_mapped: int = 0


@dataclass
class FleetStats:
    """The fleet's counters, kept under its lock."""

    workers: list[WorkerStats]
    #: Shard copies re-sent to another worker by the hedge.
    hedges: int = 0
    #: Shards whose first result came from a hedge copy.
    hedge_wins: int = 0


@dataclass
class ServingReport:
    """Point-in-time summary of a server's counters (metrics-style)."""

    n_requests: int
    n_rows: int
    n_batches: int
    #: All rejected submits; the roll-up of the two causes after it.
    rejected: int
    rejected_queue_full: int
    rejected_shutdown: int
    avg_batch_rows: float
    rows_per_second: float
    p50_latency_ms: float
    p99_latency_ms: float
    max_latency_ms: float
    kernel_seconds: float
    #: The fleet section in fleet mode; ``None`` in-process.
    fleet: dict | None = None
    #: The gateway section when the report is the gateway's ``/stats``
    #: body (``Gateway.report()``); ``None`` otherwise.
    gateway: dict | None = None

    def summary(self) -> str:
        """One-line human-readable digest."""
        line = (
            f"req={self.n_requests} rows={self.n_rows} "
            f"batches={self.n_batches} (avg {self.avg_batch_rows:.1f} rows) "
            f"{self.rows_per_second:.0f} rows/s "
            f"p50={self.p50_latency_ms:.2f}ms p99={self.p99_latency_ms:.2f}ms "
            f"rejected={self.rejected}"
        )
        if self.rejected:
            line += (
                f" (queue_full={self.rejected_queue_full}"
                f" shutdown={self.rejected_shutdown})"
            )
        if self.fleet is not None:
            line += (
                f" workers={self.fleet['n_workers']}"
                f" respawns={self.fleet['respawns']}"
            )
        return line

    def to_dict(self) -> dict:
        """Plain-dict form for JSON emission (absent sections left out)."""
        return {
            key: value
            for key, value in asdict(self).items()
            if value is not None
        }


def serving_report(
    server: ServingStats,
    fleet: ServingFleet | None = None,
    gateway: GatewayStats | None = None,
) -> ServingReport:
    """Reduce the server's record — and the fleet's and the gateway's,
    when given — to one :class:`ServingReport`."""
    s = server
    if s.first_enqueue is not None and s.last_complete is not None:
        elapsed = max(s.last_complete - s.first_enqueue, 1e-9)
        rows_per_second = s.n_rows / elapsed
    else:
        rows_per_second = 0.0
    report = ServingReport(
        n_requests=s.n_requests,
        n_rows=s.n_rows,
        n_batches=s.n_batches,
        rejected=s.rejected_queue_full + s.rejected_shutdown,
        rejected_queue_full=s.rejected_queue_full,
        rejected_shutdown=s.rejected_shutdown,
        avg_batch_rows=(s.n_rows / s.n_batches) if s.n_batches else 0.0,
        rows_per_second=rows_per_second,
        p50_latency_ms=s.latencies.percentile_ms(50),
        p99_latency_ms=s.latencies.percentile_ms(99),
        max_latency_ms=s.latencies.max_ms(),
        kernel_seconds=s.kernel_seconds,
    )
    if fleet is not None:
        f, model = fleet.snapshot()
        report.fleet = {
            "n_workers": fleet.n_workers,
            "respawns": sum(w["respawns"] for w in f["workers"]),
            "hedges": f["hedges"],
            "hedge_wins": f["hedge_wins"],
            "model_key": model.key if model else None,
            "model_nbytes": model.nbytes if model else 0,
            "model_quantized": model.quantized if model else False,
            "workers": f["workers"],
        }
    if gateway is not None:
        g = gateway
        report.gateway = {
            "http_requests": g.http_requests,
            "http_errors": g.http_errors,
            "admitted": g.admitted,
            "throttled": g.throttled_quota + s.rejected_queue_full,
            "throttled_quota": g.throttled_quota,
            "throttled_queue_full": s.rejected_queue_full,
            "swaps": g.swaps,
            "rollbacks": g.rollbacks,
            "queue_wait_ms_p50": g.queue_waits.percentile_ms(50),
            "queue_wait_ms_p99": g.queue_waits.percentile_ms(99),
            "gateway_p50_latency_ms": g.latencies.percentile_ms(50),
            "gateway_p99_latency_ms": g.latencies.percentile_ms(99),
        }
    return report
