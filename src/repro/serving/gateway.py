"""Asyncio HTTP/JSON gateway: the deployable front door of the serving stack.

Everything below ``serving/`` so far is a *library* — a caller must hold a
:class:`~repro.serving.server.PredictionServer` in-process.  The gateway
turns it into a *service*: a stdlib-only ``asyncio.start_server`` HTTP
endpoint (``repro serve --http``) fronting one or more server replicas,
with the three behaviours a multi-tenant deployment needs:

* **admission control** (:mod:`~repro.serving.admission`) — per-client
  token-bucket quotas keyed by the ``X-Client`` header (or the request's
  ``client`` field), a bounded async waiting room for backpressure, and
  ``429 + Retry-After`` derived from queue depth — never a hang, never a
  blind bounce;
* **request hedging** — with >= 2 replicas, a micro-batch that straggles
  past a p99-derived hedge delay is re-issued to a second replica and the
  first result wins; the loser is cancelled through its tracked
  ``asyncio.Task`` (the Runbook-executor idiom: every in-flight request
  is registered in a task table so shutdown and hedging can cancel by
  handle, not by hope);
* **operability endpoints** — ``POST /models/swap`` / ``POST
  /models/rollback`` ride the content-hash registry for zero-downtime
  model changes, ``GET /healthz`` answers liveness probes, and ``GET
  /stats`` serves the merged :class:`ServingReport` JSON extended with
  gateway counters (admitted, throttled, hedges fired/won, queue-wait
  percentiles).

The HTTP surface is deliberately minimal — request line, headers,
``Content-Length`` bodies, keep-alive — because its clients are curl,
load balancers and SDK loops, not browsers.  No new dependencies.

Endpoints::

    POST /predict          {"rows": [[...], ...], "proba": false}
    POST /models/swap      {"model_dir": "path/to/saved/model"}
    POST /models/rollback  {}
    GET  /healthz
    GET  /stats
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .admission import AdmissionController, QuotaConfig, ThrottledError
from .compiler import FlatForest
from .registry import ModelRegistry, default_registry, load_compiled_local
from .server import (
    LatencyWindow,
    PredictionServer,
    QueueFullError,
    ServingReport,
)
from .shm_model import flat_fingerprint

#: Hard ceiling on request-line/header line length (bytes).
_MAX_LINE = 16 * 1024
#: Maximum number of header lines per request.
_MAX_HEADERS = 100


class GatewayError(RuntimeError):
    """Structured gateway failure (startup/shutdown misuse)."""


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway knobs: bind address, quotas, hedging, limits."""

    host: str = "127.0.0.1"
    port: int = 0
    quota: QuotaConfig = field(default_factory=QuotaConfig)
    #: Master switch for hedged dispatch (needs >= 2 replicas to matter).
    hedge: bool = True
    #: Fixed hedge delay in ms; ``None`` derives it from observed p99.
    hedge_after_ms: float | None = None
    #: Adaptive mode: delay = ``hedge_p99_factor`` x observed p99, clamped
    #: to ``[hedge_min_ms, hedge_max_ms]``; before ``hedge_min_samples``
    #: observations it uses ``hedge_initial_ms``.
    hedge_initial_ms: float = 50.0
    hedge_min_ms: float = 1.0
    hedge_max_ms: float = 1000.0
    hedge_p99_factor: float = 1.0
    hedge_min_samples: int = 20
    #: Reject request bodies larger than this (413).
    max_body_bytes: int = 64 * 1024 * 1024
    #: Upper bound on one replica predict (submit + result).
    request_timeout_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.hedge_after_ms is not None and self.hedge_after_ms < 0:
            raise ValueError("hedge_after_ms must be >= 0")
        if self.hedge_min_ms < 0 or self.hedge_max_ms < self.hedge_min_ms:
            raise ValueError("need 0 <= hedge_min_ms <= hedge_max_ms")
        if self.hedge_p99_factor <= 0:
            raise ValueError("hedge_p99_factor must be > 0")
        if self.hedge_min_samples < 1:
            raise ValueError("hedge_min_samples must be >= 1")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.request_timeout_seconds <= 0:
            raise ValueError("request_timeout_seconds must be > 0")


@dataclass
class GatewayStats:
    """Gateway-level counters exposed under ``/stats``'s ``gateway`` key."""

    http_requests: int = 0
    http_errors: int = 0
    admitted: int = 0
    throttled: int = 0
    #: Throttles split by cause (``throttled`` is their roll-up).
    throttled_quota: int = 0
    throttled_queue_full: int = 0
    hedges_fired: int = 0
    hedge_wins: int = 0
    swaps: int = 0
    rollbacks: int = 0
    #: Recent end-to-end predict latencies through the gateway (seconds);
    #: feeds the p99-derived hedge delay.
    latencies: LatencyWindow = field(
        default_factory=lambda: LatencyWindow(maxlen=4096)
    )


def combine_reports(reports: list[ServingReport]) -> ServingReport:
    """Merge per-replica reports into one fleet-wide ``ServingReport``.

    Counters add; rates add (replicas serve concurrently); latency
    percentiles take the worst replica (a conservative roll-up — exact
    cross-replica percentiles would need the raw samples).
    """
    if not reports:
        raise ValueError("need at least one report to combine")
    n_batches = sum(r.n_batches for r in reports)
    n_rows = sum(r.n_rows for r in reports)
    return ServingReport(
        n_requests=sum(r.n_requests for r in reports),
        n_rows=n_rows,
        n_batches=n_batches,
        rejected=sum(r.rejected for r in reports),
        avg_batch_rows=(n_rows / n_batches) if n_batches else 0.0,
        rows_per_second=sum(r.rows_per_second for r in reports),
        p50_latency_ms=max(r.p50_latency_ms for r in reports),
        p99_latency_ms=max(r.p99_latency_ms for r in reports),
        max_latency_ms=max(r.max_latency_ms for r in reports),
        kernel_seconds=sum(r.kernel_seconds for r in reports),
        rejected_queue_full=sum(r.rejected_queue_full for r in reports),
        rejected_shutdown=sum(r.rejected_shutdown for r in reports),
        fleet=next((r.fleet for r in reports if r.fleet is not None), None),
    )


class _HttpReply(Exception):
    """Short-circuit a handler with a specific status/payload."""

    def __init__(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        self.status = status
        self.payload = payload
        self.headers = headers or {}
        super().__init__(f"HTTP {status}")


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class Gateway:
    """Asyncio HTTP gateway over one or more ``PredictionServer`` replicas.

    The gateway owns replica lifecycle: :meth:`start` starts every replica
    (fleet replicas fork their workers and publish the model) and binds
    the listening socket; :meth:`stop` cancels tracked in-flight tasks,
    closes the socket and stops the replicas.  Use
    :class:`GatewayThread` to run it from synchronous code.
    """

    def __init__(
        self,
        replicas: list[PredictionServer],
        config: GatewayConfig | None = None,
        registry: ModelRegistry | None = None,
    ) -> None:
        if not replicas:
            raise ValueError("a gateway needs at least one replica")
        problems = {r.predictor.problem for r in replicas}
        if len(problems) > 1:
            raise ValueError("replicas must serve the same problem kind")
        self.replicas = list(replicas)
        self.config = config or GatewayConfig()
        self.stats = GatewayStats()
        self.admission = AdmissionController(self.config.quota)
        self._registry = default_registry() if registry is None else registry
        self._server: asyncio.base_events.Server | None = None
        self._started_monotonic: float | None = None
        #: Tracked in-flight replica dispatches, keyed by a sequence id —
        #: the cancellation ledger (snippet-1 idiom): hedging cancels the
        #: losing entry, shutdown cancels them all.
        self._inflight: dict[int, asyncio.Task] = {}
        self._next_task_id = 0
        self._rr = 0  # round-robin replica cursor
        # Replica waits block a thread (PredictionFuture is threading-
        # based); a dedicated executor keeps them off the loop's default
        # pool so hedges can't be starved by our own waiting requests.
        self._executor: ThreadPoolExecutor | None = None
        #: Model history for rollback: (content key, compiled arrays).
        self._models: list[tuple[str, FlatForest]] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """Bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            raise GatewayError("gateway is not running (call start())")
        return self._server.sockets[0].getsockname()[1]

    @property
    def running(self) -> bool:
        """Whether the listening socket is open."""
        return self._server is not None

    @property
    def model_key(self) -> str:
        """Content hash of the currently served model."""
        if not self._models:
            self._models.append(self._fingerprint_current())
        return self._models[-1][0]

    def _fingerprint_current(self) -> tuple[str, FlatForest]:
        flat = self.replicas[0].predictor.forest
        return flat_fingerprint(flat), flat

    async def start(self) -> "Gateway":
        """Start every replica and open the listening socket."""
        if self._server is not None:
            return self
        self._executor = ThreadPoolExecutor(
            max_workers=max(8, 4 * len(self.replicas)),
            thread_name_prefix="repro-gateway",
        )
        for replica in self.replicas:
            replica.start()
        if not self._models:
            self._models.append(self._fingerprint_current())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started_monotonic = time.monotonic()
        return self

    async def stop(self) -> None:
        """Close the socket, cancel tracked tasks, stop the replicas."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        # Cancel the whole in-flight ledger; each dispatch task is
        # tracked, so none can leak past shutdown.
        pending = list(self._inflight.values())
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._inflight.clear()
        for replica in self.replicas:
            await asyncio.to_thread(replica.stop)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------------
    # replica dispatch + hedging
    # ------------------------------------------------------------------
    def _next_replica(self) -> int:
        index = self._rr % len(self.replicas)
        self._rr += 1
        return index

    def _blocking_predict(
        self,
        index: int,
        matrix: np.ndarray,
        proba: bool,
        cancelled: threading.Event,
    ) -> np.ndarray:
        """One replica attempt on an executor thread.

        Polls the replica future in short slices so a cancelled attempt
        (hedge lost, shutdown) releases its executor slot within one
        slice — the replica still finishes the abandoned micro-batch,
        but no thread sits on it.
        """
        replica = self.replicas[index]
        future = replica.submit(matrix, proba=proba)
        deadline = time.monotonic() + self.config.request_timeout_seconds
        while True:
            try:
                return future.result(timeout=0.05)
            except TimeoutError:
                if cancelled.is_set():
                    raise
                if time.monotonic() >= deadline:
                    raise

    def _spawn(self, index: int, matrix: np.ndarray, proba: bool):
        """Dispatch one replica attempt as a tracked ``asyncio.Task``."""
        loop = asyncio.get_running_loop()
        cancelled = threading.Event()

        async def attempt() -> np.ndarray:
            return await loop.run_in_executor(
                self._executor,
                self._blocking_predict,
                index,
                matrix,
                proba,
                cancelled,
            )

        task_id = self._next_task_id
        self._next_task_id += 1
        task = loop.create_task(attempt(), name=f"predict-{task_id}-r{index}")
        self._inflight[task_id] = task

        def _finalize(done_task: asyncio.Task) -> None:
            if done_task.cancelled():
                cancelled.set()
            self._inflight.pop(task_id, None)

        task.add_done_callback(_finalize)
        return task

    def hedge_delay_seconds(self) -> float:
        """Current hedge delay: fixed, or p99-derived with clamping."""
        cfg = self.config
        if cfg.hedge_after_ms is not None:
            return cfg.hedge_after_ms / 1e3
        if len(self.stats.latencies) < cfg.hedge_min_samples:
            return cfg.hedge_initial_ms / 1e3
        p99_ms = self.stats.latencies.percentile_ms(99)
        return (
            min(max(p99_ms * cfg.hedge_p99_factor, cfg.hedge_min_ms),
                cfg.hedge_max_ms)
            / 1e3
        )

    async def _predict(
        self, matrix: np.ndarray, proba: bool
    ) -> tuple[np.ndarray, int, bool]:
        """Serve one request, hedging stragglers across replicas.

        Returns ``(result, winning replica index, hedge won)``.
        """
        primary_index = self._next_replica()
        primary = self._spawn(primary_index, matrix, proba)
        attempts: dict[asyncio.Task, int] = {primary: primary_index}
        hedge = None
        if self.config.hedge and len(self.replicas) > 1:
            done, _ = await asyncio.wait(
                {primary}, timeout=self.hedge_delay_seconds()
            )
            if not done:
                # The neighbour replica, without consuming the primary
                # rotation — hedges must not skew which replica the next
                # request primaries on.
                hedge_index = (primary_index + 1) % len(self.replicas)
                hedge = self._spawn(hedge_index, matrix, proba)
                attempts[hedge] = hedge_index
                self.stats.hedges_fired += 1
        pending = set(attempts)
        first_error: BaseException | None = None
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                error = task.exception()
                if error is None:
                    # Winner: cancel the straggler through its tracked
                    # task — its thread-side result, if any, is dropped.
                    for loser in pending:
                        loser.cancel()
                    if hedge is not None and task is hedge:
                        self.stats.hedge_wins += 1
                    return task.result(), attempts[task], task is hedge
                if first_error is None:
                    first_error = error
        assert first_error is not None
        raise first_error

    # ------------------------------------------------------------------
    # endpoint handlers
    # ------------------------------------------------------------------
    async def _handle_predict(self, headers: dict, body: dict) -> dict:
        rows = body.get("rows")
        if rows is None:
            raise _HttpReply(400, {"error": "missing 'rows'"})
        try:
            matrix = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        except (TypeError, ValueError):
            raise _HttpReply(
                400, {"error": "'rows' must be numeric row vectors"}
            ) from None
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise _HttpReply(400, {"error": "need at least one row"})
        expected = self.replicas[0].predictor.n_columns
        if matrix.shape[1] < expected:
            raise _HttpReply(
                400,
                {
                    "error": "too few columns",
                    "expected_columns": expected,
                    "received_columns": int(matrix.shape[1]),
                },
            )
        proba = bool(body.get("proba", False))
        client = str(
            headers.get("x-client") or body.get("client") or "default"
        )
        try:
            queue_wait = await self.admission.admit(client)
        except ThrottledError as error:
            self.stats.throttled += 1
            self.stats.throttled_quota += 1
            raise _HttpReply(
                429,
                {
                    "error": "throttled",
                    "reason": error.reason,
                    "client": client,
                    "retry_after_seconds": error.retry_after,
                },
                headers={
                    "Retry-After": str(max(1, math.ceil(error.retry_after)))
                },
            ) from None
        self.stats.admitted += 1
        started = time.monotonic()
        try:
            result, replica_index, hedged = await self._predict(matrix, proba)
        except QueueFullError as error:
            # The replica's bounded queue pushed back: translate depth
            # into a drain-time hint (one micro-batch flushes at least
            # every max_delay window).
            self.stats.throttled += 1
            self.stats.throttled_queue_full += 1
            delay = self.replicas[0].config.max_delay_seconds
            retry_after = max(0.05, error.queue_depth * delay)
            raise _HttpReply(
                429,
                {
                    "error": "queue full",
                    "queue_depth": error.queue_depth,
                    "capacity": error.capacity,
                    "retry_after_seconds": retry_after,
                },
                headers={"Retry-After": str(max(1, math.ceil(retry_after)))},
            ) from None
        self.stats.latencies.append(time.monotonic() - started)
        return {
            "predictions": result.tolist(),
            "n_rows": int(matrix.shape[0]),
            "proba": proba,
            "replica": replica_index,
            "hedged": hedged,
            "queue_wait_ms": queue_wait * 1e3,
        }

    async def _handle_swap(self, body: dict) -> dict:
        model_dir = body.get("model_dir")
        if not model_dir or not isinstance(model_dir, str):
            raise _HttpReply(400, {"error": "missing 'model_dir'"})
        try:
            entry, cache_hit = await asyncio.to_thread(
                load_compiled_local, model_dir, self._registry
            )
        except (OSError, ValueError, KeyError) as error:
            raise _HttpReply(
                400, {"error": f"cannot load model: {error}"}
            ) from None
        previous_key = self.model_key
        if entry.key == previous_key:
            return {
                "model_key": entry.key,
                "previous_key": previous_key,
                "swapped": False,
                "cache_hit": cache_hit,
            }
        try:
            await self._swap_all(entry.compiled)
        except ValueError as error:
            raise _HttpReply(400, {"error": str(error)}) from None
        self._models.append((entry.key, entry.compiled))
        self.stats.swaps += 1
        return {
            "model_key": entry.key,
            "previous_key": previous_key,
            "swapped": True,
            "cache_hit": cache_hit,
            "replicas": len(self.replicas),
        }

    async def _handle_rollback(self) -> dict:
        if len(self._models) < 2:
            raise _HttpReply(
                409, {"error": "nothing to roll back", "model_key":
                      self.model_key}
            )
        rolled_from_key, _ = self._models.pop()
        target_key, target_flat = self._models[-1]
        await self._swap_all(target_flat)
        self.stats.rollbacks += 1
        return {
            "model_key": target_key,
            "rolled_back_from": rolled_from_key,
            "replicas": len(self.replicas),
        }

    async def _swap_all(self, flat: FlatForest) -> None:
        """Hot-swap every replica (fleet publishes ride the content hash)."""
        for replica in self.replicas:
            await asyncio.to_thread(replica.swap_model, flat)

    def _handle_healthz(self) -> dict:
        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        return {
            "status": "ok",
            "replicas": len(self.replicas),
            "model_key": self.model_key,
            "uptime_seconds": uptime,
            "waiting": self.admission.waiting,
            "inflight": len(self._inflight),
        }

    def stats_payload(self) -> dict:
        """The ``/stats`` body: merged ServingReport + gateway counters."""
        merged = combine_reports([r.report() for r in self.replicas])
        merged.gateway = self.gateway_counters()
        payload = merged.to_dict()
        payload["replicas"] = [r.report().to_dict() for r in self.replicas]
        return payload

    def gateway_counters(self) -> dict:
        """The ``gateway`` section of ``/stats`` (all plain JSON types)."""
        s = self.stats
        return {
            "replicas": len(self.replicas),
            "http_requests": s.http_requests,
            "http_errors": s.http_errors,
            "admitted": s.admitted,
            "throttled": s.throttled,
            "throttled_quota": s.throttled_quota,
            "throttled_queue_full": s.throttled_queue_full,
            "hedges_fired": s.hedges_fired,
            "hedge_wins": s.hedge_wins,
            "swaps": s.swaps,
            "rollbacks": s.rollbacks,
            "hedge_delay_ms": self.hedge_delay_seconds() * 1e3,
            "queue_wait_ms_p50":
                self.admission.stats.queue_waits.percentile_ms(50),
            "queue_wait_ms_p99":
                self.admission.stats.queue_waits.percentile_ms(99),
            "gateway_p50_latency_ms": s.latencies.percentile_ms(50),
            "gateway_p99_latency_ms": s.latencies.percentile_ms(99),
        }

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, headers: dict, body: dict
    ) -> dict:
        if path == "/predict":
            if method != "POST":
                raise _HttpReply(405, {"error": "POST only"})
            return await self._handle_predict(headers, body)
        if path == "/models/swap":
            if method != "POST":
                raise _HttpReply(405, {"error": "POST only"})
            return await self._handle_swap(body)
        if path == "/models/rollback":
            if method != "POST":
                raise _HttpReply(405, {"error": "POST only"})
            return await self._handle_rollback()
        if path == "/healthz":
            if method != "GET":
                raise _HttpReply(405, {"error": "GET only"})
            return self._handle_healthz()
        if path == "/stats":
            if method != "GET":
                raise _HttpReply(405, {"error": "GET only"})
            return self.stats_payload()
        raise _HttpReply(404, {"error": f"no such endpoint: {path}"})

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request; ``None`` on clean EOF."""
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as eof:
            if not eof.partial:
                return None
            raise _HttpReply(400, {"error": "truncated request"}) from None
        except asyncio.LimitOverrunError:
            raise _HttpReply(400, {"error": "request line too long"}) from None
        if len(line) > _MAX_LINE:
            raise _HttpReply(400, {"error": "request line too long"})
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpReply(400, {"error": "malformed request line"})
        method, target, _version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            try:
                raw = await reader.readuntil(b"\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                raise _HttpReply(
                    400, {"error": "truncated headers"}
                ) from None
            text = raw.decode("latin-1").strip()
            if not text:
                break
            name, sep, value = text.partition(":")
            if not sep:
                raise _HttpReply(400, {"error": "malformed header"})
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpReply(400, {"error": "too many headers"})
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpReply(400, {"error": "bad Content-Length"}) from None
        if length < 0:
            raise _HttpReply(400, {"error": "bad Content-Length"})
        if length > self.config.max_body_bytes:
            raise _HttpReply(413, {"error": "request body too large"})
        body_bytes = b""
        if length:
            try:
                body_bytes = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _HttpReply(400, {"error": "truncated body"}) from None
        body: dict = {}
        if body_bytes:
            try:
                body = json.loads(body_bytes)
            except json.JSONDecodeError:
                raise _HttpReply(400, {"error": "body is not JSON"}) from None
            if not isinstance(body, dict):
                raise _HttpReply(
                    400, {"error": "body must be a JSON object"}
                )
        # Strip any query string; endpoints take JSON bodies only.
        path = target.split("?", 1)[0]
        return method.upper(), path, headers, body

    @staticmethod
    def _encode_response(
        status: int, payload: dict, extra_headers: dict, keep_alive: bool
    ) -> bytes:
        body = json.dumps(payload).encode()
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines += [f"{name}: {value}" for name, value in extra_headers.items()]
        return ("\r\n".join(lines) + "\r\n\r\n").encode() + body

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                status, payload, extra = 200, None, {}
                keep_alive = True
                try:
                    request = await self._read_request(reader)
                    if request is None:
                        break
                    method, path, headers, body = request
                    self.stats.http_requests += 1
                    keep_alive = (
                        headers.get("connection", "keep-alive").lower()
                        != "close"
                    )
                    payload = await self._dispatch(
                        method, path, headers, body
                    )
                except _HttpReply as reply:
                    status, payload = reply.status, reply.payload
                    extra = reply.headers
                    if status >= 500:
                        self.stats.http_errors += 1
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # noqa: BLE001 - boundary
                    self.stats.http_errors += 1
                    status = 500
                    payload = {
                        "error": f"{type(error).__name__}: {error}"
                    }
                    keep_alive = False
                writer.write(
                    self._encode_response(status, payload, extra, keep_alive)
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


class GatewayThread:
    """Run a :class:`Gateway` on a dedicated event-loop thread.

    The synchronous face of the gateway for the CLI and tests::

        runner = GatewayThread(gateway).start()   # blocks until bound
        ... HTTP traffic against runner.port ...
        runner.stop()                             # drains and joins

    Startup errors (port in use, replica failure) re-raise in
    :meth:`start` on the calling thread.
    """

    def __init__(self, gateway: Gateway) -> None:
        self.gateway = gateway
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop_requested = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_event: asyncio.Event | None = None

    @property
    def port(self) -> int:
        """Bound port of the running gateway."""
        return self.gateway.port

    def start(self) -> "GatewayThread":
        """Start the loop thread; returns once the socket is bound."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-gateway-loop",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait(timeout=60.0)
        if self._startup_error is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
            raise self._startup_error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        try:
            await self.gateway.start()
        except BaseException as error:  # noqa: BLE001 - re-raised in start()
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        if self._stop_requested.is_set():  # stop() raced startup
            self._shutdown_event.set()
        await self._shutdown_event.wait()
        await self.gateway.stop()

    def stop(self) -> None:
        """Request shutdown and join the loop thread."""
        thread = self._thread
        if thread is None:
            return
        self._stop_requested.set()
        loop, event = self._loop, self._shutdown_event
        if loop is not None and event is not None:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        thread.join(timeout=60.0)
        self._thread = None
