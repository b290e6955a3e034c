"""Multi-process serving fleet: shard micro-batches, map models via shm.

One :class:`~repro.serving.server.PredictionServer` dispatcher thread can
coalesce requests faster than one Python process can traverse trees, so
the fleet puts N OS worker processes behind it.  Three rules shape the
design, all inherited from the training runtime and the compact-layout
papers:

* **models are mapped, never copied** — a published model is one
  :class:`~repro.serving.shm_model.SharedCompiledModel` segment; each
  worker attaches read-only views (one ``mmap``), so publishing to 16
  workers costs the same memory as publishing to 1.  The per-worker
  ``shm_bytes_mapped`` counter pins this: it equals the model image
  size, not ``n_workers`` multiples of it.
* **micro-batches shard, rows move, models stay** — each batch matrix is
  cut into contiguous per-worker shards; only the shard rows and a tiny
  handle cross the task queues.  Workers re-attach when the handle's
  content hash changes (hot swap), and a retired model's segment is
  unlinked once its last in-flight shard resolves.
* **worker death is survivable** — a dead worker is respawned and its
  in-flight shards are re-dispatched; results are deduplicated by
  ``(batch, shard)`` so a retried shard can never be double-counted.  A
  shard that keeps dying takes the structured
  :class:`~repro.runtime.base.WorkerDiedError` path, exactly like the
  training runtime's fail-fast policy.  Tests kill a worker with the
  training runtime's :class:`~repro.runtime.base.FaultPlan`, crash kind
  after n messages only: ``REPRO_FAULT=crash:worker:n`` makes that worker
  (1-based id) die while serving its n-th shard, *before* the result is
  sent.  The fleet reads the variable when it starts, and only a worker's
  first incarnation gets the plans — respawns serve normally, so injected
  faults converge instead of looping the retry budget dry.
* **a straggler is hedged, not waited for** — with two or more workers, a
  batch not done after the hedge delay (the p99 of recent batch service
  times) re-sends each unanswered shard, same handle, to the next worker;
  the first result wins and the ``(batch, shard)`` dedup drops the other.
  Shards are idempotent, so this needs no claim or cancel state.

The fleet is an internal engine: most callers reach it through
``PredictionServer(model, n_workers=...)`` / ``repro serve --workers N``,
which keeps the micro-batching front door unchanged and swaps only the
kernel call.  Exact-mode fleet output is bit-identical to the
single-process server — shards are contiguous row ranges and every
per-row operation is row-local.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from queue import Empty

import numpy as np

from ..core.flat import BatchPredictor, FlatForest
from ..core.tree import DecisionTree
from ..data.shm import new_run_prefix
from ..ensemble.forest import ForestModel
from ..runtime.base import (
    FAULT_ENV,
    FaultPlan,
    WorkerDiedError,
    message_faults,
)
from ..runtime.process import CRASH_EXITCODE, resolve_start_method
from .registry import ModelRegistry, default_registry
from .shm_model import SharedCompiledModel, flat_fingerprint
from .stats import FLEET_WINDOW, FleetStats, LatencyWindow, WorkerStats


#: How long the collector waits for a result before checking liveness.
_POLL_SECONDS = 0.05
#: Hedge delay until ``_HEDGE_REFRESH_BATCHES`` batches have been served;
#: after that it is the p99 of recent batch service seconds, clamped to
#: ``[_HEDGE_MIN_SECONDS, _HEDGE_MAX_SECONDS]`` and re-derived every
#: ``_HEDGE_REFRESH_BATCHES`` batches.
_HEDGE_FIRST_SECONDS = 0.05
_HEDGE_MIN_SECONDS = 0.001
_HEDGE_MAX_SECONDS = 1.0
_HEDGE_REFRESH_BATCHES = 20


class FleetError(RuntimeError):
    """Base class of structured serving-fleet failures."""


class FleetClosedError(FleetError):
    """The fleet was closed while the request was in flight."""


class FleetWorkerError(FleetError):
    """A worker's kernel raised; carries the remote traceback."""

    def __init__(self, worker_id: int, remote_traceback: str) -> None:
        self.worker_id = worker_id
        self.remote_traceback = remote_traceback
        super().__init__(
            f"fleet worker {worker_id} failed serving a shard:\n"
            f"{remote_traceback}"
        )


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _fleet_worker_main(
    worker_id: int, task_queue, result_queue, faults: tuple = ()
) -> None:
    """Entry point of one serving worker process.

    Pulls ``("predict", ...)`` tasks until a ``("stop",)`` sentinel.
    Keeps exactly one model attached: a task whose handle hashes
    differently detaches the old mapping and attaches the new one (hot
    swap).  The model counters travel with every result, so the parent's
    view is as fresh as the last completed shard.  ``faults`` (``crash``
    plans) kill this worker mid-serve when one fires here.
    """
    import signal

    # The parent coordinates shutdown; a Ctrl-C must not kill workers
    # mid-batch (mirrors the training runtime's signal discipline), and a
    # SIGTERM handler inherited from the parent must not turn
    # ``terminate()`` into a traceback.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        pass

    attached = None
    attached_key: str | None = None
    counters = {"shm_bytes_mapped": 0, "model_attaches": 0}
    served = 0
    try:
        while True:
            task = task_queue.get()
            if task[0] == "stop":
                return
            _, batch_id, shard_id, handle, rows, proba, max_depth = task
            try:
                if handle.key != attached_key:
                    if attached is not None:
                        attached.close()
                        attached = None
                        attached_key = None
                    attached = handle.attach()
                    attached_key = handle.key
                    counters["model_attaches"] += 1
                    counters["shm_bytes_mapped"] = attached.nbytes
                if proba:
                    payload = attached.predictor.predict_proba_matrix(
                        rows, max_depth
                    )
                else:
                    payload = attached.predictor.predict_matrix(
                        rows, max_depth
                    )
            except BaseException:  # noqa: BLE001 - shipped to the parent
                result_queue.put(
                    (
                        "error",
                        batch_id,
                        shard_id,
                        worker_id,
                        traceback.format_exc(),
                        dict(counters),
                    )
                )
                continue
            served += 1
            if any(plan.fires(worker_id, served) for plan in faults):
                # Die mid-serve, result unsent: the shard is genuinely
                # lost and must come back via respawn + re-dispatch.
                os._exit(CRASH_EXITCODE)
            result_queue.put(
                (
                    "done",
                    batch_id,
                    shard_id,
                    worker_id,
                    payload,
                    dict(counters),
                )
            )
    finally:
        if attached is not None:
            attached.close()


# ----------------------------------------------------------------------
# parent-side bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _ShardTask:
    """One dispatched shard: everything needed to (re-)send and track it."""

    batch_id: int
    shard_id: int
    handle: SharedCompiledModel
    rows: np.ndarray
    proba: bool
    max_depth: int | None
    worker_index: int
    retries: int = 0

    def message(self) -> tuple:
        return (
            "predict",
            self.batch_id,
            self.shard_id,
            self.handle,
            self.rows,
            self.proba,
            self.max_depth,
        )


@dataclass
class _Batch:
    """One in-flight micro-batch: shard results gather here."""

    batch_id: int
    n_shards: int
    results: dict[int, np.ndarray] = field(default_factory=dict)
    error: BaseException | None = None
    event: threading.Event = field(default_factory=threading.Event)


class _WorkerSlot:
    """Parent-side state of one worker seat (survives respawns)."""

    def __init__(self, stats: WorkerStats, task_queue) -> None:
        self.worker_id = stats.worker_id
        self.stats = stats
        self.task_queue = task_queue
        self.process = None
        #: Dispatched-but-unresolved shards, keyed ``(batch, shard)``.
        self.outstanding: dict[tuple[int, int], _ShardTask] = {}
        #: Model attaches the live incarnation has reported so far.
        self.attaches = 0


class ServingFleet:
    """N worker processes serving shards of micro-batches from shm models.

    Use as a context manager, publish a model, then feed it batches::

        with ServingFleet(n_workers=4) as fleet:
            fleet.publish(forest)                  # content-hash keyed
            proba = fleet.predict_batch(matrix, proba=True)

    ``publish`` of content already live is a no-op; publishing different
    content hot-swaps every worker on its next shard.  ``close`` (or the
    context exit) reaps workers and unlinks every model segment.  With two
    or more workers a straggling batch is hedged (see the module notes).
    """

    def __init__(
        self,
        n_workers: int,
        registry: ModelRegistry | None = None,
        start_method: str | None = None,
        max_shard_retries: int = 2,
    ) -> None:
        if n_workers < 1:
            raise ValueError("a serving fleet needs at least 1 worker")
        if max_shard_retries < 0:
            raise ValueError("max_shard_retries must be >= 0")
        self.n_workers = n_workers
        self.registry = default_registry() if registry is None else registry
        self.start_method = start_method
        self.max_shard_retries = max_shard_retries
        self._prefix = new_run_prefix()
        self._ctx = None
        self._result_queue = None
        self._slots: list[_WorkerSlot] = []
        self._collector: threading.Thread | None = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._batches: dict[int, _Batch] = {}
        self._next_batch_id = 0
        self._publish_seq = 0
        self._current: SharedCompiledModel | None = None
        self._retired: dict[str, SharedCompiledModel] = {}
        #: In-flight shard count per model key (retire gate).
        self._key_outstanding: dict[str, int] = {}
        self._faults: tuple[FaultPlan, ...] = ()
        #: Seconds from dispatch to the last shard of recent batches.
        self._service_seconds = LatencyWindow(FLEET_WINDOW)
        self._hedge_delay = _HEDGE_FIRST_SECONDS
        self.stats = FleetStats(
            [WorkerStats(worker_id) for worker_id in range(1, n_workers + 1)]
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingFleet":
        """Launch the worker processes and the collector thread."""
        if self._collector is not None:
            return self
        import multiprocessing

        faults = message_faults(FaultPlan.from_env())
        for plan in faults:
            if plan.kind != "crash":
                raise ValueError(
                    f"the serving fleet injects crash faults only, got "
                    f"{plan.kind!r} from {FAULT_ENV}"
                )
        self._faults = faults
        method = resolve_start_method(self.start_method)
        self._ctx = multiprocessing.get_context(method)
        self._result_queue = self._ctx.Queue()
        self._stopping.clear()
        self._slots = [
            _WorkerSlot(seat, self._ctx.Queue()) for seat in self.stats.workers
        ]
        for slot in self._slots:
            self._spawn(slot)
        self._collector = threading.Thread(
            target=self._collect, name="repro-fleet-collector", daemon=True
        )
        self._collector.start()
        return self

    def _spawn(self, slot: _WorkerSlot) -> None:
        slot.process = self._ctx.Process(
            target=_fleet_worker_main,
            args=(
                slot.worker_id,
                slot.task_queue,
                self._result_queue,
                self._faults if slot.process is None else (),
            ),
            name=f"repro-fleet-worker-{slot.worker_id}",
            daemon=True,
        )
        slot.process.start()

    def close(self) -> None:
        """Stop workers, fail in-flight batches, unlink every segment."""
        if self._collector is None:
            self._unlink_models()
            return
        self._stopping.set()
        for slot in self._slots:
            try:
                slot.task_queue.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - queue gone
                pass
        self._collector.join(timeout=10.0)
        self._collector = None
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5.0)
        with self._lock:
            for batch in self._batches.values():
                batch.error = FleetClosedError("fleet closed mid-request")
                batch.event.set()
            self._batches.clear()
        for slot in self._slots:
            slot.task_queue.close()
            slot.task_queue.cancel_join_thread()
        self._result_queue.close()
        self._result_queue.cancel_join_thread()
        self._slots = []
        self._unlink_models()

    def _unlink_models(self) -> None:
        with self._lock:
            handles = list(self._retired.values())
            self._retired.clear()
            if self._current is not None:
                handles.append(self._current)
                self._current = None
            self._key_outstanding.clear()
        for handle in handles:
            handle.unlink()

    def __enter__(self) -> "ServingFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def running(self) -> bool:
        """Whether the fleet has live workers behind it."""
        return self._collector is not None

    # ------------------------------------------------------------------
    # model publication (hot swap)
    # ------------------------------------------------------------------
    def publish(
        self,
        model: ForestModel | DecisionTree | FlatForest | BatchPredictor,
        quantize: bool = False,
    ) -> str:
        """Publish a model to the fleet; returns its content-hash key.

        Node-based models compile through the registry (so repeated
        publishes of the same content hit the cache); already-compiled
        forests hash their arrays directly.  Publishing the key that is
        already live is a no-op — the content hash *is* the identity, so
        rollback is just publishing the previous model again.  Workers
        re-attach lazily, on their next shard whose handle carries the
        new key; the old segment is unlinked once its last in-flight
        shard resolves.
        """
        if isinstance(model, BatchPredictor):
            model = model.forest
        if isinstance(model, FlatForest):
            flat = model.quantized_copy() if quantize else model
            key = flat_fingerprint(flat)
        else:
            entry, _ = self.registry.get_or_compile(model, quantize=quantize)
            flat, key = entry.compiled, entry.key
        with self._lock:
            if self._current is not None and self._current.key == key:
                return key
            # A retired-but-still-draining model coming back (rollback
            # mid-drain): promote the live handle instead of re-creating.
            handle = self._retired.pop(key, None)
            if handle is None:
                self._publish_seq += 1
                handle = SharedCompiledModel.create(
                    flat, key, prefix=f"{self._prefix}-m{self._publish_seq}"
                )
            old = self._current
            self._current = handle
            unlink_now = None
            if old is not None:
                if self._key_outstanding.get(old.key, 0) > 0:
                    self._retired[old.key] = old
                else:
                    unlink_now = old
        if unlink_now is not None:
            unlink_now.unlink()
        return key

    @property
    def model_key(self) -> str | None:
        """Content hash of the currently published model, if any."""
        current = self._current
        return current.key if current is not None else None

    def snapshot(self) -> tuple[dict, SharedCompiledModel | None]:
        """A consistent copy of the fleet's counters (``asdict`` of its
        :class:`FleetStats`) and the published model image, read under
        the lock the collector and respawns write them under."""
        with self._lock:
            return asdict(self.stats), self._current

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def predict_batch(
        self,
        matrix: np.ndarray,
        proba: bool,
        max_depth: int | None = None,
        timeout: float | None = 60.0,
    ) -> np.ndarray:
        """Serve one micro-batch across the fleet; blocks for the result.

        The matrix is cut into up to ``n_workers`` contiguous row shards
        (one per worker); the reassembled output is ordered exactly like
        the input rows, so exact-mode results are bit-identical to a
        single-process kernel call over the whole matrix.  With two or
        more workers, shards still unanswered after the hedge delay are
        re-sent to the next worker (:meth:`_hedge`).
        """
        if self._collector is None:
            raise FleetError("fleet is not running (call start())")
        current = self._current
        if current is None:
            raise FleetError("no model published (call publish())")
        n_rows = len(matrix)
        if n_rows == 0:
            raise ValueError("a batch needs at least one row")
        n_shards = min(self.n_workers, n_rows)
        bounds = np.linspace(0, n_rows, n_shards + 1, dtype=np.int64)
        with self._lock:
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            batch = _Batch(batch_id=batch_id, n_shards=n_shards)
            self._batches[batch_id] = batch
            tasks = []
            for shard_id in range(n_shards):
                rows = matrix[bounds[shard_id] : bounds[shard_id + 1]]
                task = _ShardTask(
                    batch_id=batch_id,
                    shard_id=shard_id,
                    handle=current,
                    rows=rows,
                    proba=proba,
                    max_depth=max_depth,
                    worker_index=shard_id,
                )
                slot = self._slots[task.worker_index]
                slot.outstanding[(batch_id, shard_id)] = task
                self._key_outstanding[current.key] = (
                    self._key_outstanding.get(current.key, 0) + 1
                )
                tasks.append(task)
        started = time.monotonic()
        for task in tasks:
            self._slots[task.worker_index].task_queue.put(task.message())
        if self.n_workers > 1 and not batch.event.wait(self._hedge_delay):
            self._hedge(batch, tasks)
        left = None if timeout is None else started + timeout - time.monotonic()
        if not batch.event.wait(left):
            with self._lock:
                self._batches.pop(batch_id, None)
            raise TimeoutError(
                f"fleet batch of {n_rows} rows not served in {timeout}s"
            )
        with self._lock:
            self._batches.pop(batch_id, None)
            if batch.error is None:
                self._service_seconds.append(time.monotonic() - started)
        if batch.error is not None:
            raise batch.error
        if self.n_workers > 1 and batch_id % _HEDGE_REFRESH_BATCHES == 0:
            self._hedge_delay = self.hedge_delay_seconds()
        return np.concatenate(
            [batch.results[shard] for shard in range(n_shards)]
        )

    def _hedge(self, batch: _Batch, tasks: list[_ShardTask]) -> None:
        """Re-send every shard of ``batch`` without a result to the next
        worker: the same task and model handle, registered like any
        dispatch, so the first result wins and the other is dropped."""
        copies = []
        with self._lock:
            if batch.error is not None:
                return
            for task in tasks:
                if task.shard_id in batch.results:
                    continue
                slot = self._slots[(task.worker_index + 1) % self.n_workers]
                slot.outstanding[(task.batch_id, task.shard_id)] = task
                key = task.handle.key
                self._key_outstanding[key] = (
                    self._key_outstanding.get(key, 0) + 1
                )
                copies.append((slot, task))
            self.stats.hedges += len(copies)
        for slot, task in copies:
            slot.task_queue.put(task.message())

    def hedge_delay_seconds(self) -> float:
        """The hedge delay the recent batch service times give: their p99,
        clamped to [1 ms, 1 s]; 50 ms until 20 batches have been seen."""
        with self._lock:
            window = self._service_seconds
            if len(window) < _HEDGE_REFRESH_BATCHES:
                return _HEDGE_FIRST_SECONDS
            p99 = window.percentile_ms(99) / 1e3
        return min(max(p99, _HEDGE_MIN_SECONDS), _HEDGE_MAX_SECONDS)

    # ------------------------------------------------------------------
    # collector: results, liveness, respawn
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        while True:
            try:
                result = self._result_queue.get(timeout=_POLL_SECONDS)
            except Empty:
                result = None
            except (OSError, ValueError):  # pragma: no cover - queue gone
                return
            if result is not None:
                self._handle_result(result)
                continue
            if self._stopping.is_set():
                return
            self._check_liveness()

    def _handle_result(self, result: tuple) -> None:
        kind, batch_id, shard_id, worker_id, payload, counters = result
        retired_handle = None
        with self._lock:
            slot = self._slots[worker_id - 1]
            seat = slot.stats
            seat.model_attaches += counters["model_attaches"] - slot.attaches
            slot.attaches = counters["model_attaches"]
            seat.shm_bytes_mapped = counters["shm_bytes_mapped"]
            task = slot.outstanding.pop((batch_id, shard_id), None)
            if task is None:
                # A shard served twice by one seat (respawn re-dispatch
                # raced a live result): drop the duplicate.
                return
            key = task.handle.key
            left = self._key_outstanding.get(key, 0) - 1
            if left <= 0:
                self._key_outstanding.pop(key, None)
                retired_handle = self._retired.pop(key, None)
            else:
                self._key_outstanding[key] = left
            # First result wins; a hedge or retry copy arriving later, or
            # a batch already answered or abandoned, is dropped — the
            # (batch, shard) dedup is what makes re-sending safe.
            batch = self._batches.get(batch_id)
            if (
                batch is not None
                and batch.error is None
                and shard_id not in batch.results
            ):
                if kind == "error":
                    batch.error = FleetWorkerError(worker_id, payload)
                    batch.event.set()
                else:
                    batch.results[shard_id] = payload
                    seat.rows += len(payload)
                    seat.batches += 1
                    if slot is not self._slots[task.worker_index]:
                        self.stats.hedge_wins += 1
                    if len(batch.results) == batch.n_shards:
                        batch.event.set()
        if retired_handle is not None:
            retired_handle.unlink()

    def _check_liveness(self) -> None:
        for slot in self._slots:
            process = slot.process
            if process is None or process.is_alive():
                continue
            if self._stopping.is_set():  # pragma: no cover - close race
                return
            self._respawn(slot, process.exitcode)

    def _respawn(self, slot: _WorkerSlot, exitcode: int | None) -> None:
        """Replace a dead worker and re-dispatch its in-flight shards."""
        with self._lock:
            slot.stats.respawns += 1
            slot.stats.shm_bytes_mapped = 0
            slot.attaches = 0
            retry, abandoned = [], []
            for task in slot.outstanding.values():
                task.retries += 1
                if task.retries > self.max_shard_retries:
                    abandoned.append(task)
                else:
                    retry.append(task)
            for task in abandoned:
                shard = (task.batch_id, task.shard_id)
                del slot.outstanding[shard]
                key = task.handle.key
                left = self._key_outstanding.get(key, 0) - 1
                if left <= 0:
                    self._key_outstanding.pop(key, None)
                else:
                    self._key_outstanding[key] = left
                # Giving up on one copy fails the batch only if the shard
                # has no result and no other copy (a hedge) is in flight.
                batch = self._batches.get(task.batch_id)
                if (
                    batch is not None
                    and batch.error is None
                    and task.shard_id not in batch.results
                    and not any(shard in s.outstanding for s in self._slots)
                ):
                    batch.error = WorkerDiedError(
                        slot.worker_id,
                        exitcode,
                        detail=(
                            f"serving shard {task.shard_id} of batch "
                            f"{task.batch_id} died "
                            f"{task.retries} time(s); giving up"
                        ),
                    )
                    batch.event.set()
        self._spawn(slot)
        # Re-dispatch after the replacement is live.  The queue may still
        # hold copies of these tasks (death between queue and take): the
        # respawned worker will then serve a shard twice, and the second
        # result is dropped by the (batch, shard) dedup above.
        for task in retry:
            slot.task_queue.put(task.message())
