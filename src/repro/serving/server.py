"""In-process prediction server with bounded queueing and micro-batching.

The serving front door.  Callers submit small requests (one or a few rows);
a dispatcher thread coalesces them into micro-batches so the vectorized
kernel amortizes its per-call overhead, flushing a batch when either

* the accumulated rows reach ``max_batch_size``, or
* the **oldest** queued request has waited ``max_delay_seconds``

— the classic throughput/latency trade dial.  The request queue is bounded;
when it is full, :meth:`PredictionServer.submit` fails fast with
:class:`QueueFullError` instead of buffering unboundedly (load shedding).
Rejections are counted *structurally* — queue-full backpressure separately
from submits that arrive after shutdown began — so a saturated server and
a mis-sequenced client look different in the shutdown summary.

**What is paid per request, and what per micro-batch.**  The dispatcher
follows the paper's Section IV rule for a coordinating thread (quoted in
``core/master.py``): it manages work and does nothing per item on the
critical path that it can do per batch.

* Per request: one small object (the :class:`PredictionFuture`, which
  *is* the queue entry — it owns no lock, event or condition) and one
  ``deque.append`` inside one critical section that also holds the
  capacity check, so the bound is exact under racing producers.
* Per micro-batch: one wake-up of the dispatcher (``submit`` notifies only
  when the queue goes empty -> non-empty, which is the only state the
  dispatcher ever sleeps in), one lock hold that takes the whole backlog
  up to ``max_batch_size`` rows, one ``concatenate``, one kernel call, one
  ``extend`` of the latency window, and one ``notify_all`` on the
  server-wide ``served`` condition.

No wake-up can be lost: the dispatcher stores a future's block and then its
``_done`` flag *before* it takes the ``served`` lock to notify, and a
waiter tests ``_done`` while holding that lock — so either the waiter sees
the flag, or it is already inside ``wait()`` when the notify is sent.
``result()`` on a future that is already done touches no lock at all (in a
closed loop that is all but the first wait of every batch).  A
``notify_all`` wakes every thread blocked in ``result()``, whichever batch
it waits for; that is bounded by the caller's thread count (the gateway
blocks at most 8 executor threads), and each re-tests its own flag.

A micro-batch holds requests of one column count only (a width change ends
the batch), and a request narrower than the model needs is refused at
``submit`` — so a malformed request can only ever fail itself.

With ``n_workers=N`` the kernel call is delegated to a
:class:`~repro.serving.fleet.ServingFleet`: N OS processes attach the
compiled model from one shared-memory segment and each serves a
contiguous shard of every micro-batch.  The front door (submit / futures
/ micro-batching) is identical; exact-mode results are bit-identical to
the in-process path.  ``swap_model`` hot-swaps the served model in both
modes.

The server counts its events in one
:class:`~repro.serving.stats.ServingStats` record, and ``report()``
reduces it (with the fleet's record in fleet mode) through
:func:`~repro.serving.stats.serving_report`, in the same spirit as
``cluster/metrics.py``: a :class:`ServingReport` with paper-style units
(rows/sec, p50/p99 milliseconds) and a one-line ``summary()``.  Unlike the
cluster simulator these are *wall-clock* numbers — serving runs for real.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.flat import BatchPredictor, FlatForest
from ..core.tree import DecisionTree
from ..data.schema import ProblemKind
from ..ensemble.forest import ForestModel
from .registry import ModelRegistry, default_registry
from .shm_model import flat_fingerprint
from .stats import GatewayStats, ServingReport, ServingStats, serving_report

if TYPE_CHECKING:
    from .fleet import ServingFleet


class QueueFullError(RuntimeError):
    """Raised by ``submit`` when the bounded request queue is full.

    Carries the structural facts a client needs to compute a backoff
    hint — ``queue_depth`` (requests admitted but unserved at rejection
    time) and ``capacity`` (the configured bound) — so callers like the
    HTTP gateway derive ``Retry-After`` from state, not message parsing.
    """

    def __init__(self, queue_depth: int, capacity: int) -> None:
        self.queue_depth = queue_depth
        self.capacity = capacity
        super().__init__(
            f"queue full ({queue_depth}/{capacity} requests)"
        )


class ServerStoppedError(RuntimeError):
    """Raised by ``submit`` when the server is not accepting requests
    (not started yet, or stopping); the gateway answers it with 503."""


@dataclass(frozen=True)
class ServerConfig:
    """Micro-batching knobs.

    ``max_delay_seconds`` bounds the queueing delay any request absorbs for
    the benefit of batching; ``max_batch_size`` bounds the rows per kernel
    call; ``queue_capacity`` bounds admitted-but-unserved requests.
    """

    max_batch_size: int = 256
    max_delay_seconds: float = 0.002
    queue_capacity: int = 1024
    max_depth: int | None = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_delay_seconds < 0:
            raise ValueError("max_delay_seconds must be >= 0")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")


class PredictionFuture:
    """Handle returned by ``submit``; resolves to this request's block.

    Also the queue entry: it carries the request's rows to the dispatcher.
    It owns no synchronisation object — ``_served`` is the server's one
    condition, shared by every future of that server.
    """

    __slots__ = (
        "n_rows", "_rows", "_proba", "_enqueued",
        "_served", "_done", "_value", "_error",
    )

    def __init__(
        self, rows: np.ndarray, proba: bool, served: threading.Condition
    ) -> None:
        self.n_rows = len(rows)
        self._rows = rows
        self._proba = proba
        self._enqueued = time.monotonic()
        self._served = served
        self._done = False
        self._value: np.ndarray | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """Whether the result (or an error) is available."""
        return self._done

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block for the prediction block of this request's rows."""
        if not self._done:
            with self._served:
                if not self._served.wait_for(lambda: self._done, timeout):
                    raise TimeoutError("prediction not ready")
        if self._error is not None:
            raise self._error
        return self._value


class PredictionServer:
    """Micro-batching front end over one compiled model.

    Accepts a :class:`BatchPredictor`, a compiled :class:`FlatForest`, or a
    node-based model (``ForestModel`` / ``DecisionTree``) which is then
    compiled through the registry.  Use as a context manager::

        with PredictionServer(model) as server:
            labels = server.predict([row])

    ``n_workers=N`` (N >= 1) serves every micro-batch through a
    :class:`~repro.serving.fleet.ServingFleet` of N OS processes mapping
    the model from shared memory; ``None`` (default) serves in-process.
    ``quantize=True`` serves the compact float32/int16 compiled form
    (see ``core.flat.QUANTIZE_ATOL`` for the accuracy contract).
    """

    def __init__(
        self,
        model: BatchPredictor | FlatForest | ForestModel | DecisionTree,
        config: ServerConfig | None = None,
        registry: ModelRegistry | None = None,
        n_workers: int | None = None,
        quantize: bool = False,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1 (or None for in-process)")
        self.config = config or ServerConfig()
        self.n_workers = n_workers
        self.quantize = quantize
        self._registry = default_registry() if registry is None else registry
        if isinstance(model, BatchPredictor) and not (
            quantize and not model.forest.quantized
        ):
            # Preserve the caller's instance (tests and callers may
            # subclass the predictor to instrument the kernel call).
            self.predictor = model
        else:
            self.predictor = BatchPredictor(self._resolve_flat(model))
        self._fleet: ServingFleet | None = None
        if n_workers is not None:
            # Imported here: an in-process server never loads the fleet.
            from .fleet import ServingFleet

            self._fleet = ServingFleet(n_workers, registry=self._registry)
        self.stats = ServingStats()
        #: Admitted requests the dispatcher has not taken yet, oldest first.
        self._pending: deque[PredictionFuture] = deque()
        #: Guards ``_pending`` and ``_accepting``; the dispatcher sleeps on
        #: it, and only while ``_pending`` is empty.
        self._arrived = threading.Condition(threading.Lock())
        #: What every unresolved ``PredictionFuture.result`` sleeps on.
        self._served = threading.Condition(threading.Lock())
        self._accepting = False
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()  # start/stop only

    def _resolve_flat(self, model) -> FlatForest:
        """Compile/unwrap any accepted model form into a FlatForest."""
        if isinstance(model, BatchPredictor):
            model = model.forest
        if isinstance(model, FlatForest):
            return model.quantized_copy() if self.quantize else model
        entry, _ = self._registry.get_or_compile(model, quantize=self.quantize)
        return entry.compiled

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PredictionServer":
        """Start the dispatcher thread — and the fleet, in fleet mode.

        Idempotent.  Fleet mode launches the worker processes and
        publishes the compiled model to shared memory before the first
        request is admitted.
        """
        with self._lock:
            if self._thread is None:
                if self._fleet is not None:
                    self._fleet.start()
                    self._fleet.publish(self.predictor.forest)
                self._accepting = True
                self._thread = threading.Thread(
                    target=self._run, name="repro-serving", daemon=True
                )
                self._thread.start()
        return self

    def stop(self) -> None:
        """Drain the queue, serve everything admitted, stop the thread.

        Fleet mode then reaps the worker processes and unlinks every
        published model segment.
        """
        with self._lock:
            thread = self._thread
            if thread is None:
                return
            with self._arrived:
                self._accepting = False
                self._arrived.notify()
            thread.join()
            self._thread = None
            if self._fleet is not None:
                self._fleet.close()

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """Whether the dispatcher thread is alive."""
        return self._thread is not None

    # ------------------------------------------------------------------
    # request side
    # ------------------------------------------------------------------
    def submit(
        self, rows, proba: bool = False
    ) -> PredictionFuture:
        """Enqueue one request (one or more feature rows); returns a future.

        ``rows`` is a row vector, a list of row vectors, or an
        ``(n, n_columns)`` array — numeric values as floats, categorical
        values as integer codes (``-1`` / NaN for missing).  Raises
        :class:`QueueFullError` when the bounded queue is full, and
        ``ValueError`` for a request the model cannot serve (no rows, or
        fewer columns than it splits on) — before it can share a batch.
        """
        matrix = np.asarray(rows, dtype=np.float64)  # no copy if it is one
        if matrix.ndim < 2:
            matrix = np.atleast_2d(matrix)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValueError("a request needs at least one row")
        predictor = self.predictor
        if matrix.shape[1] < predictor.n_columns:
            raise ValueError(
                f"a request needs at least {predictor.n_columns} columns "
                f"(the model splits on column {predictor.n_columns - 1}), "
                f"got {matrix.shape[1]}"
            )
        if proba and predictor.problem is not ProblemKind.CLASSIFICATION:
            raise ValueError("proba requests need a classification model")
        future = PredictionFuture(matrix, proba, self._served)
        pending = self._pending
        with self._arrived:
            if not self._accepting:
                self.stats.rejected_shutdown += 1
                raise ServerStoppedError("server is not running (call start())")
            depth = len(pending)
            if depth >= self.config.queue_capacity:
                self.stats.rejected_queue_full += 1
                raise QueueFullError(depth, self.config.queue_capacity)
            pending.append(future)
            if not depth:
                self._arrived.notify()
        return future

    def predict(self, rows, timeout: float | None = 30.0) -> np.ndarray:
        """Submit one request and block for its labels/values."""
        return self.submit(rows).result(timeout)

    def predict_proba(self, rows, timeout: float | None = 30.0) -> np.ndarray:
        """Submit one request and block for its class PMFs."""
        return self.submit(rows, proba=True).result(timeout)

    # ------------------------------------------------------------------
    # model management
    # ------------------------------------------------------------------
    def swap_model(
        self,
        model: BatchPredictor | FlatForest | ForestModel | DecisionTree,
    ) -> str:
        """Hot-swap the served model without dropping a request; returns
        the content key (:func:`flat_fingerprint`) of the installed model.

        The replacement compiles (honouring the server's ``quantize``
        flag) and becomes visible atomically: in-flight micro-batches
        finish on whichever model they started with.  Fleet mode
        publishes the new image to shared memory under that key —
        workers re-attach on their next shard, and the retired segment
        is unlinked once its last in-flight shard drains.  Swapping
        identical content is a no-op (same hash, same key), so rollback
        is just swapping the previous model back in.
        """
        flat = self._resolve_flat(model)
        if flat.problem is not self.predictor.problem:
            raise ValueError(
                "hot swap cannot change the problem kind "
                f"({self.predictor.problem.value} -> {flat.problem.value})"
            )
        self.predictor = BatchPredictor(flat)
        if self._fleet is not None and self._fleet.running:
            return self._fleet.publish(flat)
        return flat_fingerprint(flat)

    @property
    def model_key(self) -> str | None:
        """Content hash of the fleet-published model (``None`` in-process)."""
        return self._fleet.model_key if self._fleet is not None else None

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def report(self, gateway: GatewayStats | None = None) -> ServingReport:
        """Current counters as a :class:`ServingReport`; ``gateway`` (the
        fronting gateway's record) adds the ``gateway`` section."""
        return serving_report(self.stats, self._fleet, gateway)

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._serve(batch)

    def _next_batch(self) -> list[PredictionFuture] | None:
        """Block for the next micro-batch; ``None`` once stopped and drained.

        FIFO.  Takes everything already queued in one lock hold, then waits
        for more only while the batch is short of ``max_batch_size`` rows
        and the oldest request is younger than ``max_delay_seconds``; a
        past deadline (or ``stop``) still sweeps in what is queued.  A
        request of another width stays queued and heads the next batch.
        """
        limit = self.config.max_batch_size
        pending = self._pending
        arrived = self._arrived
        with arrived:
            while not pending:
                if not self._accepting:
                    return None
                arrived.wait()
            first = pending[0]
            width = first._rows.shape[1]
            deadline = first._enqueued + self.config.max_delay_seconds
            batch: list[PredictionFuture] = []
            n_rows = 0
            while True:
                while pending and n_rows < limit:
                    if pending[0]._rows.shape[1] != width:
                        return batch
                    request = pending.popleft()
                    batch.append(request)
                    n_rows += request.n_rows
                if n_rows >= limit or not self._accepting:
                    return batch
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return batch
                arrived.wait(remaining)

    def _serve(self, batch: list[PredictionFuture]) -> None:
        stats = self.stats
        if stats.first_enqueue is None:
            stats.first_enqueue = batch[0]._enqueued
        predictor = self.predictor  # one model per batch, whatever swaps
        classification = predictor.problem is ProblemKind.CLASSIFICATION
        try:
            matrix = (
                batch[0]._rows
                if len(batch) == 1
                else np.concatenate([r._rows for r in batch], axis=0)
            )
            started = time.monotonic()
            # Fleet and in-process paths run the same row-wise math:
            # classification always computes the proba matrix (so one
            # micro-batch can mix proba and label requests) and argmaxes
            # locally; regression computes values.  The fleet shards are
            # contiguous row ranges, so exact-mode output is
            # bit-identical either way.
            if self._fleet is not None:
                raw = self._fleet.predict_batch(
                    matrix, proba=classification,
                    max_depth=self.config.max_depth,
                )
                proba = raw if classification else None
                labels = np.argmax(raw, axis=1) if classification else raw
            elif classification:
                proba = predictor.predict_proba_matrix(
                    matrix, self.config.max_depth
                )
                labels = np.argmax(proba, axis=1)
            else:
                proba = None
                labels = predictor.predict_matrix(
                    matrix, self.config.max_depth
                )
            done = time.monotonic()
        except BaseException as error:  # noqa: BLE001 - forwarded to callers
            for request in batch:
                request._error = error
                request._done = True
        else:
            stats.kernel_seconds += done - started
            stats.latencies.extend([done - r._enqueued for r in batch])
            stats.n_requests += len(batch)
            stats.n_rows += len(matrix)
            stats.n_batches += 1
            stats.last_complete = done
            # Counters first, block second, flag last: ``result()`` reads
            # ``_done`` without a lock, and whoever sees it set must find
            # the block in place and the batch already counted.
            offset = 0
            for request in batch:
                end = offset + request.n_rows
                request._value = (
                    proba[offset:end] if request._proba else labels[offset:end]
                )
                request._done = True
                offset = end
        with self._served:
            self._served.notify_all()
