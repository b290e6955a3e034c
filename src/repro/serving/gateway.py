"""Asyncio HTTP/JSON gateway: the deployable front door of the serving stack.

Everything below ``serving/`` so far is a *library* — a caller must hold a
:class:`~repro.serving.server.PredictionServer` in-process.  The gateway
turns it into a *service*: a stdlib-only ``asyncio.start_server`` HTTP
endpoint (``repro serve --http``) fronting one server — in-process, or a
multi-process fleet, which hedges its own stragglers — with the two
behaviours a multi-tenant deployment needs:

* **admission control** (:mod:`~repro.serving.admission`) — per-client
  token-bucket quotas keyed by the ``X-Client`` header (or the request's
  ``client`` field), a bounded async waiting room for backpressure, and
  ``429 + Retry-After`` derived from queue depth — never a hang, never a
  blind bounce;
* **operability endpoints** — ``POST /models/swap`` / ``POST
  /models/rollback`` ride the content-hash registry for zero-downtime
  model changes, ``GET /healthz`` answers liveness probes, and ``GET
  /stats`` serves the server's :class:`ServingReport` JSON extended with
  gateway counters (admitted, throttled, queue-wait percentiles).

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

from ..core.flat import FlatForest
from .admission import AdmissionController, QuotaConfig, ThrottledError
from .registry import ModelRegistry, default_registry, load_compiled_local
from .server import PredictionServer, QueueFullError, ServerStoppedError
from .shm_model import flat_fingerprint
from .stats import GatewayStats, ServingReport

#: Hard ceiling on request-line/header line length (bytes).
_MAX_LINE = 16 * 1024
#: Maximum number of header lines per request.
_MAX_HEADERS = 100
#: Threads that block on server futures; each predict holds one.
_EXECUTOR_THREADS = 8


class GatewayError(RuntimeError):
    """Structured gateway failure (startup/shutdown misuse)."""


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway knobs: bind address, quotas, limits."""

    host: str = "127.0.0.1"
    port: int = 0
    quota: QuotaConfig = field(default_factory=QuotaConfig)
    #: Reject request bodies larger than this (413).
    max_body_bytes: int = 64 * 1024 * 1024
    #: Upper bound on one predict (submit + result).
    request_timeout_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.request_timeout_seconds <= 0:
            raise ValueError("request_timeout_seconds must be > 0")


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
    """Asyncio HTTP gateway over one ``PredictionServer``.

    The gateway owns the server's lifecycle: :meth:`start` starts it (a
    fleet server forks its workers and publishes the model) and binds the
    listening socket; :meth:`stop` closes the socket, then stops the
    server, which serves every request already admitted.  Use
    :class:`GatewayThread` to run it from synchronous code.
    """

    def __init__(
        self,
        server: PredictionServer,
        config: GatewayConfig | None = None,
        registry: ModelRegistry | None = None,
    ) -> None:
        self.server = server
        self.config = config or GatewayConfig()
        self.stats = GatewayStats()
        self.admission = AdmissionController(self.config.quota)
        self._registry = default_registry() if registry is None else registry
        self._listener: asyncio.base_events.Server | None = None
        self._started_monotonic: float | None = None
        # Predicts block a thread (PredictionFuture is threading-based); a
        # dedicated executor keeps them off the loop's default pool.
        self._executor: ThreadPoolExecutor | None = None
        #: Model history for rollback: (content key, compiled arrays).
        flat = server.predictor.forest
        self._models: list[tuple[str, FlatForest]] = [
            (flat_fingerprint(flat), flat)
        ]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """Bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._listener is None:
            raise GatewayError("gateway is not running (call start())")
        return self._listener.sockets[0].getsockname()[1]

    @property
    def model_key(self) -> str:
        """Content hash of the currently served model."""
        return self._models[-1][0]

    async def start(self) -> "Gateway":
        """Start the server and open the listening socket."""
        if self._listener is not None:
            return self
        self._executor = ThreadPoolExecutor(
            max_workers=_EXECUTOR_THREADS, thread_name_prefix="repro-gateway"
        )
        self.server.start()
        self._listener = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started_monotonic = time.monotonic()
        return self

    async def stop(self) -> None:
        """Close the socket, then drain: the server serves everything
        already admitted and each waiting predict gets its result."""
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
        await asyncio.to_thread(self.server.stop)
        executor, self._executor = self._executor, None
        if executor is not None:
            await asyncio.to_thread(executor.shutdown)

    def _blocking_predict(self, matrix: np.ndarray, proba: bool) -> np.ndarray:
        """One predict on an executor thread: submit, wait, bounded."""
        future = self.server.submit(matrix, proba=proba)
        return future.result(timeout=self.config.request_timeout_seconds)

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
        expected = self.server.predictor.n_columns
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
        self.stats.queue_waits.append(queue_wait)
        started = time.monotonic()
        try:
            result = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._blocking_predict, matrix, proba
            )
        except ServerStoppedError:
            raise _HttpReply(503, {"error": "server is stopping"}) from None
        except QueueFullError as error:
            # The server's bounded queue pushed back (and counted it):
            # translate depth into a drain-time hint (one micro-batch
            # flushes at least every max_delay window).
            delay = self.server.config.max_delay_seconds
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
        try:
            # Keyed like the history's first entry and the fleet's
            # publish (the installed arrays' hash), so identical content
            # is a no-op.
            key = await asyncio.to_thread(
                self.server.swap_model, entry.compiled
            )
        except ValueError as error:
            raise _HttpReply(400, {"error": str(error)}) from None
        swapped = key != previous_key
        if swapped:
            self._models.append((key, entry.compiled))
            self.stats.swaps += 1
        return {
            "model_key": key,
            "previous_key": previous_key,
            "swapped": swapped,
            "cache_hit": cache_hit,
        }

    async def _handle_rollback(self) -> dict:
        if len(self._models) < 2:
            raise _HttpReply(
                409, {"error": "nothing to roll back", "model_key":
                      self.model_key}
            )
        rolled_from_key, _ = self._models.pop()
        target_key, target_flat = self._models[-1]
        await asyncio.to_thread(self.server.swap_model, target_flat)
        self.stats.rollbacks += 1
        return {"model_key": target_key, "rolled_back_from": rolled_from_key}

    def _handle_healthz(self) -> dict:
        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        return {
            "status": "ok",
            "model_key": self.model_key,
            "uptime_seconds": uptime,
            "waiting": self.admission.waiting,
        }

    def report(self) -> ServingReport:
        """The ``/stats`` body: the server's report with the gateway
        section."""
        return self.server.report(self.stats)

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
            return self.report().to_dict()
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
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # noqa: BLE001 - boundary
                    status = 500
                    payload = {
                        "error": f"{type(error).__name__}: {error}"
                    }
                if status >= 500:
                    self.stats.http_errors += 1
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

    Startup errors (port in use, server failure) re-raise in
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
