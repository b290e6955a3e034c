"""Tests for the HTTP/JSON serving gateway: admission, drain, swap.

Three layers are pinned here:

* the admission primitives (token bucket + bounded async waiting room)
  in isolation, on a private event loop;
* the gateway's HTTP surface end to end over real sockets — predict
  parity bit-for-bit with the in-process server, 429 + ``Retry-After``
  under saturation (never a hang), 503 from a stopping server, hot
  swap/rollback riding the content-hash registry;
* the ``/stats`` JSON schema (key set + types, including the gateway
  counters) so external consumers and ``BENCH_serving.json`` cannot
  drift silently, each roll-up in it equal to its parts, and each
  latency window's bound.
"""

import _thread
import asyncio
import io
import json
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import TreeConfig, train_tree
from repro.core.persistence import save_model_local
from repro.data import ProblemKind, write_csv
from repro.data.shm import list_segments
from repro.datasets import SyntheticSpec, generate
from repro.ensemble import ForestModel
from repro.serving import (
    AdmissionController,
    BatchPredictor,
    Gateway,
    GatewayConfig,
    GatewayThread,
    PredictionServer,
    QuotaConfig,
    ServerConfig,
    ServingFleet,
    ThrottledError,
    TokenBucket,
    compile_forest,
)
from repro.runtime.base import FAULT_ENV
from repro.serving.server import QueueFullError
from repro.serving.stats import FLEET_WINDOW, GATEWAY_WINDOW, SERVER_WINDOW

REPO_ROOT = Path(__file__).parents[1]


def make_table(seed, problem=ProblemKind.CLASSIFICATION, rows=200):
    return generate(
        SyntheticSpec(
            name="t",
            n_rows=rows,
            n_numeric=3,
            n_categorical=2,
            n_classes=3,
            problem=problem,
            planted_depth=4,
            noise=0.1,
            seed=seed,
        )
    )


def make_forest(table, n_trees=2, max_depth=5, seed=0):
    return ForestModel(
        [
            train_tree(table, TreeConfig(max_depth=max_depth, seed=seed + i))
            for i in range(n_trees)
        ]
    )


def _matrix_of(table):
    return np.column_stack(
        [np.asarray(col, dtype=np.float64) for col in table.columns]
    )


def http_call(port, method, path, body=None, headers=None, timeout=30.0):
    """One HTTP request against a local gateway; returns (status, json)."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        headers=headers or {},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), response
    except urllib.error.HTTPError as error:
        payload = json.loads(error.read())
        return error.code, payload, error


class GatedPredictor(BatchPredictor):
    """A predictor that blocks until released — builds real queue depth."""

    def __init__(self, flat, gate):
        super().__init__(flat)
        self._gate = gate

    def predict_proba_matrix(self, matrix, max_depth=None):
        self._gate.wait(timeout=30.0)
        return super().predict_proba_matrix(matrix, max_depth)

    def predict_matrix(self, matrix, max_depth=None):
        self._gate.wait(timeout=30.0)
        return super().predict_matrix(matrix, max_depth)


# ----------------------------------------------------------------------
# admission primitives
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=1000.0, burst=3)
        assert [bucket.try_take() for _ in range(3)] == [True] * 3
        # Drained: the next token is ~1ms away.
        took = bucket.try_take()
        if not took:
            assert 0.0 < bucket.eta_seconds() <= 0.0015
            time.sleep(0.005)
            assert bucket.try_take()

    def test_eta_counts_deficit(self):
        bucket = TokenBucket(rate=10.0, burst=1)
        assert bucket.try_take()
        eta = bucket.eta_seconds(tokens=2.0)
        assert 0.1 < eta <= 0.2 + 0.05


class TestQuotaConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": 0.0},
            {"rate": -1.0},
            {"burst": 0},
            {"max_waiters": -1},
            {"max_wait_seconds": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuotaConfig(**kwargs)


class TestAdmissionController:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_disabled_quota_admits_everything(self):
        controller = AdmissionController(QuotaConfig(rate=None))

        async def drive():
            return [await controller.admit("anyone") for _ in range(50)]

        assert self._run(drive()) == [0.0] * 50  # none throttled or parked

    def test_burst_admits_then_parks(self):
        controller = AdmissionController(
            QuotaConfig(rate=50.0, burst=2, max_waiters=8,
                        max_wait_seconds=2.0)
        )

        async def drive():
            waits = [await controller.admit("a") for _ in range(4)]
            return waits

        waits = self._run(drive())  # all four admitted, none throttled
        assert waits[0] == 0.0 and waits[1] == 0.0  # burst
        assert waits[2] > 0.0 and waits[3] > 0.0  # parked, not bounced

    def test_waiting_room_bound_throttles_with_retry_after(self):
        controller = AdmissionController(
            QuotaConfig(rate=1.0, burst=1, max_waiters=2,
                        max_wait_seconds=60.0)
        )

        async def drive():
            assert await controller.admit("a") == 0.0  # burst token
            parked = [
                asyncio.ensure_future(controller.admit("a"))
                for _ in range(2)
            ]
            await asyncio.sleep(0.05)  # let both enter the waiting room
            with pytest.raises(ThrottledError) as excinfo:
                await controller.admit("a")
            for task in parked:
                task.cancel()
            outcomes = await asyncio.gather(*parked, return_exceptions=True)
            return excinfo.value, outcomes

        error, outcomes = self._run(drive())
        assert error.retry_after > 0.0
        assert "waiting room full" in error.reason
        # Only the third request was throttled: the parked two waited
        # until they were cancelled.
        assert all(
            isinstance(outcome, asyncio.CancelledError)
            for outcome in outcomes
        )

    def test_projected_wait_bound_throttles(self):
        controller = AdmissionController(
            QuotaConfig(rate=1.0, burst=1, max_waiters=64,
                        max_wait_seconds=0.05)
        )

        async def drive():
            assert await controller.admit("a") == 0.0
            with pytest.raises(ThrottledError) as excinfo:
                await controller.admit("a")  # next token ~1s away
            return excinfo.value

        error = self._run(drive())
        assert "projected wait too long" in error.reason
        assert error.retry_after > 0.05

    def test_clients_do_not_share_buckets(self):
        controller = AdmissionController(
            QuotaConfig(rate=1.0, burst=1, max_waiters=4,
                        max_wait_seconds=0.01)
        )

        async def drive():
            assert await controller.admit("tenant-a") == 0.0
            # tenant-a is out of tokens; tenant-b is untouched.
            with pytest.raises(ThrottledError):
                await controller.admit("tenant-a")
            assert await controller.admit("tenant-b") == 0.0

        self._run(drive())


# ----------------------------------------------------------------------
# QueueFullError carries structured state (no message parsing)
# ----------------------------------------------------------------------
class TestQueueFullErrorState:
    def test_attributes_and_message(self):
        error = QueueFullError(3, 8)
        assert error.queue_depth == 3
        assert error.capacity == 8
        assert "3/8" in str(error)

    def test_submit_attaches_live_depth(self):
        table = make_table(1)
        forest = make_forest(table)
        gate = threading.Event()
        predictor = GatedPredictor(compile_forest(forest), gate)
        config = ServerConfig(queue_capacity=2, max_delay_seconds=0.0)
        row = _matrix_of(table)[:1]
        with PredictionServer(predictor, config) as server:
            futures = [server.submit(row)]  # dispatcher takes it, blocks
            time.sleep(0.05)
            futures += [server.submit(row), server.submit(row)]  # fills queue
            with pytest.raises(QueueFullError) as excinfo:
                while True:  # depth 2 is racy by one; saturate for sure
                    futures.append(server.submit(row))
            gate.set()
            for future in futures:
                future.result(timeout=30.0)
        error = excinfo.value
        assert error.capacity == 2
        assert 1 <= error.queue_depth <= error.capacity


# ----------------------------------------------------------------------
# the gateway over real sockets
# ----------------------------------------------------------------------
@pytest.fixture
def classification_setup():
    table = make_table(2)
    forest = make_forest(table, n_trees=3)
    return table, forest, _matrix_of(table)


def run_gateway(server, **config_kwargs):
    gateway = Gateway(server, GatewayConfig(port=0, **config_kwargs))
    runner = GatewayThread(gateway).start()
    return gateway, runner


class TestGatewayHttp:
    def test_predict_parity_labels_and_proba(self, classification_setup):
        table, forest, mat = classification_setup
        with PredictionServer(forest) as reference:
            ref_labels = reference.predict(mat)
            ref_proba = reference.predict_proba(mat)
        gateway, runner = run_gateway(PredictionServer(forest))
        try:
            status, payload, _ = http_call(
                runner.port, "POST", "/predict", {"rows": mat.tolist()}
            )
            assert status == 200
            assert payload["n_rows"] == len(mat)
            assert np.array_equal(
                np.asarray(payload["predictions"]), ref_labels
            )
            status, payload, _ = http_call(
                runner.port, "POST", "/predict",
                {"rows": mat.tolist(), "proba": True},
            )
            assert status == 200
            # JSON floats round-trip exactly (repr is shortest-exact).
            assert np.array_equal(
                np.asarray(payload["predictions"]), ref_proba
            )
        finally:
            runner.stop()

    def test_predict_parity_regression(self):
        table = make_table(3, problem=ProblemKind.REGRESSION)
        forest = make_forest(table)
        mat = _matrix_of(table)
        with PredictionServer(forest) as reference:
            ref = reference.predict(mat)
        gateway, runner = run_gateway(PredictionServer(forest))
        try:
            status, payload, _ = http_call(
                runner.port, "POST", "/predict", {"rows": mat.tolist()}
            )
            assert status == 200
            assert np.array_equal(np.asarray(payload["predictions"]), ref)
        finally:
            runner.stop()

    def test_predict_through_fleet_replica(self, classification_setup):
        """E2E: the HTTP path through a real multi-process fleet."""
        table, forest, mat = classification_setup
        with PredictionServer(forest) as reference:
            ref = reference.predict(mat)
        before = set(list_segments())
        gateway, runner = run_gateway(PredictionServer(forest, n_workers=2))
        try:
            status, payload, _ = http_call(
                runner.port, "POST", "/predict", {"rows": mat.tolist()}
            )
            assert status == 200
            assert np.array_equal(np.asarray(payload["predictions"]), ref)
            status, stats, _ = http_call(runner.port, "GET", "/stats")
            assert stats["fleet"]["n_workers"] == 2
        finally:
            runner.stop()
        assert set(list_segments()) == before  # fleet segments unlinked

    def test_malformed_requests(self, classification_setup):
        _table, forest, mat = classification_setup
        gateway, runner = run_gateway(PredictionServer(forest))
        try:
            port = runner.port
            status, payload, _ = http_call(port, "POST", "/predict", {})
            assert status == 400 and "rows" in payload["error"]
            status, payload, _ = http_call(
                port, "POST", "/predict", {"rows": [["not", "numbers"]]}
            )
            assert status == 400
            status, payload, _ = http_call(port, "GET", "/no-such")
            assert status == 404
            status, payload, _ = http_call(port, "GET", "/predict")
            assert status == 405
            status, payload, _ = http_call(port, "POST", "/healthz", {})
            assert status == 405
            # Raw non-JSON body.
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/predict",
                data=b"not json",
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400
            # The gateway survived all of it.
            status, payload, _ = http_call(port, "GET", "/healthz")
            assert status == 200 and payload["status"] == "ok"
        finally:
            runner.stop()

    def test_odd_width_bodies_cannot_wedge_a_replica(
        self, classification_setup
    ):
        """Too few columns is the client's error (400, both widths named);
        a wider body sharing a delay window with a normal one is served
        in a batch of its own.  (Before: the replica's dispatcher died on
        the mix and every later request timed out.)"""
        table, forest, mat = classification_setup
        labels = forest.predict(table)
        replica = PredictionServer(
            forest, ServerConfig(max_delay_seconds=0.05)
        )
        gateway, runner = run_gateway(replica)
        try:
            port = runner.port
            bodies = [mat[:2], np.hstack([mat[2:4], np.zeros((2, 3))])]
            replies = [None, None]

            def post(i):
                replies[i] = http_call(
                    port, "POST", "/predict", {"rows": bodies[i].tolist()}
                )

            threads = [
                threading.Thread(target=post, args=(i,)) for i in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
            for i, (status, payload, _) in enumerate(replies):
                assert status == 200
                assert payload["predictions"] == (
                    labels[2 * i : 2 * i + 2].tolist()
                )
            needed = replica.predictor.n_columns
            status, payload, _ = http_call(
                port, "POST", "/predict",
                {"rows": mat[:2, : needed - 1].tolist()},
            )
            assert status == 400
            assert payload["expected_columns"] == needed
            assert payload["received_columns"] == needed - 1
            status, payload, _ = http_call(
                port, "POST", "/predict", {"rows": mat[4:6].tolist()}
            )
            assert status == 200
            assert payload["predictions"] == labels[4:6].tolist()
            assert replica._thread.is_alive()
            assert gateway.stats.http_errors == 0
        finally:
            runner.stop()

    def test_healthz_shape(self, classification_setup):
        _table, forest, _mat = classification_setup
        gateway, runner = run_gateway(PredictionServer(forest))
        try:
            status, payload, _ = http_call(runner.port, "GET", "/healthz")
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["model_key"] == gateway.model_key
            assert payload["uptime_seconds"] >= 0.0
        finally:
            runner.stop()

    def test_saturating_client_throttled_never_hangs(
        self, classification_setup
    ):
        """A client far over quota gets 429 + Retry-After, not a hang."""
        _table, forest, mat = classification_setup
        gateway, runner = run_gateway(
            PredictionServer(forest),
            quota=QuotaConfig(
                rate=2.0, burst=2, max_waiters=2, max_wait_seconds=0.05
            ),
        )
        try:
            port = runner.port
            row = mat[:1].tolist()
            statuses, retry_afters = [], []
            for _ in range(30):
                status, payload, response = http_call(
                    port, "POST", "/predict", {"rows": row},
                    headers={"X-Client": "greedy"},
                )
                statuses.append(status)
                if status == 429:
                    header = response.headers.get("Retry-After")
                    assert header is not None
                    retry_afters.append(int(header))
                    assert payload["retry_after_seconds"] > 0.0
            assert statuses.count(200) >= 2  # the burst got through
            assert statuses.count(429) > 0  # the flood was throttled
            assert all(value >= 1 for value in retry_afters)
            assert set(statuses) <= {200, 429}  # never a 5xx, never a hang
            # A different client is unaffected by the greedy one.
            status, _payload, _ = http_call(
                port, "POST", "/predict", {"rows": row},
                headers={"X-Client": "polite"},
            )
            assert status == 200
            status, stats, _ = http_call(port, "GET", "/stats")
            gw = stats["gateway"]
            assert gw["throttled"] == gw["throttled_quota"] > 0
            assert gw["admitted"] >= 3
        finally:
            runner.stop()

    def test_replica_queue_full_maps_to_429_with_depth(self):
        table = make_table(4)
        forest = make_forest(table)
        gate = threading.Event()
        predictor = GatedPredictor(compile_forest(forest), gate)
        server = PredictionServer(
            predictor, ServerConfig(queue_capacity=1, max_delay_seconds=0.0)
        )
        gateway, runner = run_gateway(server)
        try:
            row = _matrix_of(table)[:1]
            # Build real queue depth: one request blocked in the kernel,
            # one parked in the bounded queue.
            blocked = server.submit(row)
            time.sleep(0.05)
            queued = server.submit(row)
            status, payload, response = http_call(
                runner.port, "POST", "/predict", {"rows": row.tolist()}
            )
            assert status == 429
            assert payload["error"] == "queue full"
            assert payload["capacity"] == 1
            assert payload["queue_depth"] >= 1
            assert int(response.headers["Retry-After"]) >= 1
            gate.set()
            blocked.result(timeout=30.0)
            queued.result(timeout=30.0)
            status, stats, _ = http_call(runner.port, "GET", "/stats")
            assert stats["gateway"]["throttled_queue_full"] == 1
        finally:
            gate.set()
            runner.stop()

    def test_stopping_server_answers_503_and_closes(
        self, classification_setup
    ):
        """A request that reaches a server which stopped accepting is
        refused with 503 + ``Connection: close``, not a generic 500."""
        _table, forest, mat = classification_setup
        gateway, runner = run_gateway(PredictionServer(forest))
        try:
            gateway.server.stop()
            status, payload, response = http_call(
                runner.port, "POST", "/predict", {"rows": mat[:2].tolist()}
            )
            assert status == 503
            assert payload["error"] == "server is stopping"
            assert response.headers["Connection"] == "close"
            assert gateway.stats.http_errors == 1
        finally:
            runner.stop()

    def test_swap_and_rollback_endpoints(self, tmp_path, classification_setup):
        table, forest_a, mat = classification_setup
        forest_b = make_forest(table, n_trees=4, seed=77)
        dir_a, dir_b = tmp_path / "model-a", tmp_path / "model-b"
        save_model_local(dir_a, "model", forest_a.trees)
        save_model_local(dir_b, "model", forest_b.trees)
        with PredictionServer(forest_a) as ref:
            ref_a = ref.predict(mat)
        with PredictionServer(forest_b) as ref:
            ref_b = ref.predict(mat)

        gateway, runner = run_gateway(PredictionServer(forest_a))
        try:
            port = runner.port
            initial_key = gateway.model_key

            # The initial model's own directory is the content already
            # served: no swap, the same key, and nothing to roll back.
            status, payload, _ = http_call(
                port, "POST", "/models/swap", {"model_dir": str(dir_a)}
            )
            assert status == 200 and payload["swapped"] is False
            assert payload["model_key"] == initial_key
            status, _payload, _ = http_call(
                port, "POST", "/models/rollback", {}
            )
            assert status == 409

            status, payload, _ = http_call(
                port, "POST", "/models/swap", {"model_dir": str(dir_b)}
            )
            assert status == 200 and payload["swapped"] is True
            key_b = payload["model_key"]
            assert key_b != initial_key
            status, payload, _ = http_call(
                port, "POST", "/predict", {"rows": mat.tolist()}
            )
            assert np.array_equal(np.asarray(payload["predictions"]), ref_b)

            # Swapping identical content is a no-op (content hash = id).
            status, payload, _ = http_call(
                port, "POST", "/models/swap", {"model_dir": str(dir_b)}
            )
            assert status == 200 and payload["swapped"] is False

            status, payload, _ = http_call(
                port, "POST", "/models/rollback", {}
            )
            assert status == 200
            assert payload["rolled_back_from"] == key_b
            status, payload, _ = http_call(
                port, "POST", "/predict", {"rows": mat.tolist()}
            )
            assert np.array_equal(np.asarray(payload["predictions"]), ref_a)

            # History exhausted: rollback past the initial model is 409.
            status, payload, _ = http_call(
                port, "POST", "/models/rollback", {}
            )
            assert status == 409

            status, payload, _ = http_call(
                port, "POST", "/models/swap", {"model_dir": "/no/such/dir"}
            )
            assert status == 400

            status, stats, _ = http_call(port, "GET", "/stats")
            assert stats["gateway"]["swaps"] == 1
            assert stats["gateway"]["rollbacks"] == 1
        finally:
            runner.stop()

    def test_swap_rejects_problem_kind_change(self, tmp_path):
        table = make_table(5)
        forest = make_forest(table)
        regression = make_forest(make_table(6, problem=ProblemKind.REGRESSION))
        reg_dir = tmp_path / "reg-model"
        save_model_local(reg_dir, "model", regression.trees)
        gateway, runner = run_gateway(PredictionServer(forest))
        try:
            status, payload, _ = http_call(
                runner.port, "POST", "/models/swap",
                {"model_dir": str(reg_dir)},
            )
            assert status == 400 and "problem kind" in payload["error"]
        finally:
            runner.stop()

    def test_gateway_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(max_body_bytes=0)
        with pytest.raises(ValueError):
            GatewayConfig(request_timeout_seconds=0.0)


class TestHedgeDelay:
    """The hedge delay is the fleet's (the gateway fronts one server and
    hedges nothing): the p99 of recent batch service seconds, clamped to
    [1 ms, 1 s], and 50 ms until 20 batches have been seen."""

    def test_adaptive_uses_initial_before_samples(self):
        fleet = ServingFleet(n_workers=2)
        assert fleet.hedge_delay_seconds() == pytest.approx(0.050)
        fleet._service_seconds.extend([0.010] * 19)
        assert fleet.hedge_delay_seconds() == pytest.approx(0.050)

    def test_adaptive_tracks_p99_with_clamps(self):
        fleet = ServingFleet(n_workers=2)
        window = fleet._service_seconds
        window.extend([0.010] * 20)  # p99 = 10 ms
        assert fleet.hedge_delay_seconds() == pytest.approx(0.010)
        window.extend([10.0] * 50)  # p99 explodes
        assert fleet.hedge_delay_seconds() == pytest.approx(1.0)  # clamp
        window.clear()
        window.extend([0.0001] * 50)  # sub-clamp p99
        assert fleet.hedge_delay_seconds() == pytest.approx(0.001)


# ----------------------------------------------------------------------
# /stats schema pin: key set + types, gateway counters included
# ----------------------------------------------------------------------
#: The pinned ServingReport.to_dict() schema.  ``int`` counters stay int
#: through JSON; everything in milliseconds/seconds/rates is float (or
#: int-zero before traffic, hence the (int, float) unions below).
SERVING_REPORT_SCHEMA = {
    "n_requests": int,
    "n_rows": int,
    "n_batches": int,
    "rejected": int,
    "rejected_queue_full": int,
    "rejected_shutdown": int,
    "avg_batch_rows": (int, float),
    "rows_per_second": (int, float),
    "p50_latency_ms": (int, float),
    "p99_latency_ms": (int, float),
    "max_latency_ms": (int, float),
    "kernel_seconds": (int, float),
}

GATEWAY_COUNTERS_SCHEMA = {
    "http_requests": int,
    "http_errors": int,
    "admitted": int,
    "throttled": int,
    "throttled_quota": int,
    "throttled_queue_full": int,
    "swaps": int,
    "rollbacks": int,
    "queue_wait_ms_p50": (int, float),
    "queue_wait_ms_p99": (int, float),
    "gateway_p50_latency_ms": (int, float),
    "gateway_p99_latency_ms": (int, float),
}

FLEET_SCHEMA = {
    "n_workers": int,
    "respawns": int,
    "hedges": int,
    "hedge_wins": int,
    "model_key": str,
    "model_nbytes": int,
    "model_quantized": bool,
    "workers": list,
}


def _assert_schema(payload, schema, context):
    assert set(payload) == set(schema), (
        f"{context}: keys drifted — "
        f"extra={set(payload) - set(schema)} "
        f"missing={set(schema) - set(payload)}"
    )
    for key, kind in schema.items():
        assert isinstance(payload[key], kind), (
            f"{context}[{key}] is {type(payload[key]).__name__}, "
            f"expected {kind}"
        )


class TestStatsSchema:
    def test_plain_report_schema(self, classification_setup):
        _table, forest, mat = classification_setup
        with PredictionServer(forest) as server:
            server.predict(mat)
            payload = json.loads(json.dumps(server.report().to_dict()))
        _assert_schema(payload, SERVING_REPORT_SCHEMA, "ServingReport")

    def test_fleet_report_schema(self, classification_setup):
        _table, forest, mat = classification_setup
        with PredictionServer(forest, n_workers=1) as server:
            server.predict(mat)
            payload = json.loads(json.dumps(server.report().to_dict()))
        schema = dict(SERVING_REPORT_SCHEMA, fleet=dict)
        _assert_schema(payload, schema, "ServingReport+fleet")
        _assert_schema(payload["fleet"], FLEET_SCHEMA, "fleet")

    def test_http_stats_schema_with_gateway_counters(
        self, classification_setup
    ):
        _table, forest, mat = classification_setup
        gateway, runner = run_gateway(PredictionServer(forest))
        try:
            status, _payload, _ = http_call(
                runner.port, "POST", "/predict", {"rows": mat[:4].tolist()}
            )
            assert status == 200
            status, payload, _ = http_call(runner.port, "GET", "/stats")
            assert status == 200
        finally:
            runner.stop()
        schema = dict(SERVING_REPORT_SCHEMA, gateway=dict)
        _assert_schema(payload, schema, "/stats")
        _assert_schema(
            payload["gateway"], GATEWAY_COUNTERS_SCHEMA, "/stats.gateway"
        )


class TestRollups:
    """Each roll-up in ``/stats`` is derived from the counts it sums, so
    it equals its parts whatever the traffic."""

    def test_throttles_and_admits_add_up(self):
        table = make_table(4)
        gate = threading.Event()
        server = PredictionServer(
            GatedPredictor(compile_forest(make_forest(table)), gate),
            ServerConfig(queue_capacity=1, max_delay_seconds=0.0),
        )
        gateway, runner = run_gateway(
            server, quota=QuotaConfig(rate=0.5, burst=3, max_waiters=0)
        )
        row = _matrix_of(table)[:1]
        body = {"rows": row.tolist()}
        try:
            # One request blocked in the kernel and one in the queue: the
            # burst's three admits are refused as queue full, and the
            # next three find no token and no waiting room.
            blocked = server.submit(row)
            time.sleep(0.05)
            queued = server.submit(row)
            errors = [
                http_call(
                    runner.port, "POST", "/predict", body,
                    headers={"X-Client": "a"},
                )[1]["error"]
                for _ in range(6)
            ]
            gate.set()
            blocked.result(timeout=30.0)
            queued.result(timeout=30.0)
            status, _payload, _ = http_call(
                runner.port, "POST", "/predict", body,
                headers={"X-Client": "b"},
            )
            assert status == 200
            _status, stats, _ = http_call(runner.port, "GET", "/stats")
        finally:
            gate.set()
            runner.stop()
        assert errors == ["queue full"] * 3 + ["throttled"] * 3
        gw = stats["gateway"]
        assert gw["throttled_quota"] == 3
        assert gw["throttled_queue_full"] == stats["rejected_queue_full"] == 3
        assert gw["throttled"] == (
            gw["throttled_quota"] + gw["throttled_queue_full"]
        )
        assert gw["admitted"] == 3 + 1  # the queue-full three, then "b"

    def test_parked_predicts_reach_the_queue_wait_window(self):
        table = make_table(4)
        gateway, runner = run_gateway(
            PredictionServer(compile_forest(make_forest(table))),
            quota=QuotaConfig(rate=20.0, burst=1, max_waiters=4,
                              max_wait_seconds=2.0),
        )
        body = {"rows": _matrix_of(table)[:1].tolist()}
        try:
            # The burst token admits the first at once; the next two
            # park for a refill (~50 ms each) and are then admitted.
            waits = []
            for _ in range(3):
                status, payload, _ = http_call(
                    runner.port, "POST", "/predict", body,
                    headers={"X-Client": "a"},
                )
                assert status == 200
                waits.append(payload["queue_wait_ms"])
            _status, stats, _ = http_call(runner.port, "GET", "/stats")
        finally:
            runner.stop()
        assert waits[0] == 0.0 and waits[1] > 0.0 and waits[2] > 0.0
        gw = stats["gateway"]
        assert gw["admitted"] == 3 and gw["throttled"] == 0
        assert gw["queue_wait_ms_p50"] >= 0.0
        assert gw["queue_wait_ms_p99"] > 0.0
        assert gw["queue_wait_ms_p99"] <= max(waits) + 1e-9

    def test_fleet_respawns_are_the_sum_over_workers(
        self, monkeypatch, classification_setup
    ):
        monkeypatch.setenv(FAULT_ENV, "crash:2:1")
        _table, forest, mat = classification_setup
        gateway, runner = run_gateway(PredictionServer(forest, n_workers=2))
        try:
            for _ in range(3):
                status, _payload, _ = http_call(
                    runner.port, "POST", "/predict", {"rows": mat.tolist()}
                )
                assert status == 200
            # A hedge may answer the dead worker's shard before the
            # collector's liveness poll respawns it: wait for the respawn.
            deadline = time.monotonic() + 30.0
            while True:
                _status, stats, _ = http_call(runner.port, "GET", "/stats")
                if stats["fleet"]["respawns"] or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
        finally:
            runner.stop()
        fleet = stats["fleet"]
        assert fleet["respawns"] == 1
        assert fleet["respawns"] == sum(
            worker["respawns"] for worker in fleet["workers"]
        )


class TestWindowBounds:
    def test_each_window_keeps_its_bound(self, classification_setup):
        _table, forest, _mat = classification_setup
        server = PredictionServer(forest)
        gateway = Gateway(server)
        fleet = ServingFleet(n_workers=1)
        for window, bound in (
            (server.stats.latencies, SERVER_WINDOW),
            (gateway.stats.latencies, GATEWAY_WINDOW),
            (gateway.stats.queue_waits, GATEWAY_WINDOW),
            (fleet._service_seconds, FLEET_WINDOW),
        ):
            window.extend(float(i) for i in range(bound + 10))
            assert len(window) == bound
            assert window[0] == 10.0  # the oldest ten went


# ----------------------------------------------------------------------
# CLI: repro serve --http end to end (real process, SIGINT shutdown)
# ----------------------------------------------------------------------
class TestCliGateway:
    @pytest.fixture
    def trained(self, tmp_path):
        table = make_table(9)
        csv_path = tmp_path / "data.csv"
        write_csv(table, csv_path)
        model_dir = tmp_path / "model"
        code = main(
            [
                "train", "--csv", str(csv_path), "--target", "label",
                "--model-dir", str(model_dir), "--forest", "2",
                "--max-depth", "5", "--workers", "2", "--compers", "2",
            ],
            out=io.StringIO(),
        )
        assert code == 0
        return table, model_dir

    def test_serve_without_csv_or_http_is_an_error(self, trained):
        _table, model_dir = trained
        code = main(
            ["serve", "--model-dir", str(model_dir)], out=io.StringIO()
        )
        assert code == 2

    def _read_port(self, process, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([process.stdout], [], [], 1.0)
            if not ready:
                if process.poll() is not None:
                    break
                continue
            line = process.stdout.readline()
            if "listening on" in line:
                return int(line.split("http://")[1].split()[0].split(":")[1])
        raise AssertionError("gateway never reported its port")

    def test_http_serve_predict_and_shutdown(self, trained):
        """In-process + SIGINT, and a 2-worker fleet + SIGTERM: both
        drain and exit 0 with the summary and no traceback."""
        table, model_dir = trained
        mat = _matrix_of(table)
        env = dict(
            os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
        )
        from repro.serving import load_compiled_local

        entry, _hit = load_compiled_local(model_dir)
        with PredictionServer(entry.predictor) as reference:
            expected = reference.predict(mat[:16])
        for extra, stop_signal in (
            ([], signal.SIGINT),
            (["--workers", "2"], signal.SIGTERM),
        ):
            process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve", "--http",
                    "--port", "0", "--model-dir", str(model_dir),
                    "--client-rate", "1000", *extra,
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            try:
                port = self._read_port(process)
                status, payload, _ = http_call(port, "GET", "/healthz")
                assert status == 200 and payload["status"] == "ok"
                status, payload, _ = http_call(
                    port, "POST", "/predict", {"rows": mat[:16].tolist()},
                    headers={"X-Client": "cli-test"},
                )
                assert status == 200
                assert np.array_equal(
                    np.asarray(payload["predictions"]), expected
                )
                status, stats, _ = http_call(port, "GET", "/stats")
                assert stats["gateway"]["admitted"] >= 1
            finally:
                process.send_signal(stop_signal)
                try:
                    output = process.communicate(timeout=60.0)[0]
                except subprocess.TimeoutExpired:  # pragma: no cover
                    process.kill()
                    raise
            assert process.returncode == 0, output
            assert "gateway: requests=" in output
            assert "Traceback" not in output

    def test_interrupt_drains_the_fleet_before_the_reap(
        self, trained, monkeypatch
    ):
        """Ctrl-C on ``serve --http --workers 1``: the gateway, and the
        fleet behind it, is stopped before graceful_sigint's last-resort
        reap runs, so the reap finds no live fleet worker to terminate."""
        import repro.runtime.signals as signals

        _table, model_dir = trained
        baseline = {child.pid for child in multiprocessing.active_children()}
        live_at_reap = []
        real_reap = signals.reap_children

        def spy(*args, **kwargs):
            live_at_reap.append(
                {child.pid for child in multiprocessing.active_children()}
                - baseline
            )
            return real_reap(*args, **kwargs)

        monkeypatch.setattr(signals, "reap_children", spy)

        class InterruptOnceListening(io.StringIO):
            def write(self, text):
                if "listening on" in text:
                    threading.Timer(0.2, _thread.interrupt_main).start()
                return super().write(text)

        out = InterruptOnceListening()
        previous_sigterm = signal.getsignal(signal.SIGTERM)
        try:
            code = main(
                [
                    "serve", "--http", "--port", "0",
                    "--model-dir", str(model_dir), "--workers", "1",
                ],
                out=out,
            )
        finally:
            signal.signal(signal.SIGTERM, previous_sigterm)
        assert code == 0
        assert "gateway: requests=" in out.getvalue()
        assert live_at_reap == [set()]
