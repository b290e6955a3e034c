"""Serving throughput: flat-array kernel vs node-based descent (wall-clock).

Measures real prediction speed on a 100k-row batch through three engines:

* **per-row descent** — ``DecisionTree.predict_row`` in a Python loop, the
  textbook implementation (timed on a subsample, reported as rows/sec);
* **node batch** — the training-side ``_fill`` recursion, which batches
  rows per node but still walks Python tree objects;
* **flat kernel** — the serving compiler + the forest-wide
  level-synchronous NumPy kernel, the engine the registry/server/CLI
  deploy; also timed per call at 16 / 1 024 / 4 096 rows and on the whole
  matrix (``flat_kernel_by_batch_rows``), because the server calls it on
  micro-batches, not on 100k rows.

It also replays the batch through the micro-batching
:class:`~repro.serving.server.PredictionServer` in small client requests
and reports p50/p99 request latency — first in-process, then through the
multi-process serving fleet at 1, 2 and 4 workers (``fleet`` section:
rows/sec and p99 per worker count), then over real sockets through the
asyncio HTTP/JSON gateway (``gateway`` section: HTTP rows/sec and p99 vs
in-process).
Besides the rendered table under ``benchmarks/results/``, it writes
machine-readable numbers to ``BENCH_serving.json`` at the repo root.

The asserted contracts: the flat kernel is >= 10x per-row descent; fleet
and HTTP predictions are bit-identical to in-process; and — hardware-aware — the fleet must *scale* only when this host actually has
the cores for it, while on a starved host (1 core) a 1-worker fleet must
stay within a bounded IPC overhead of the in-process server.
"""

import json
import os
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

from repro.core import TreeConfig, train_tree
from repro.datasets import SyntheticSpec, generate
from repro.ensemble import ForestModel
from repro.serving import (
    BatchPredictor,
    Gateway,
    GatewayConfig,
    GatewayThread,
    PredictionServer,
    ServerConfig,
    compile_forest,
)

from conftest import save_result

N_ROWS = 100_000
N_TRAIN = 10_000
N_PER_ROW = 5_000  # per-row descent is timed on a subsample and scaled
N_TREES = 3
MAX_DEPTH = 8
REQUEST_ROWS = 16  # client request size replayed through the server
#: ``predict_matrix`` call sizes of the sweep: one client request, one
#: micro-batch, one large HTTP body, and (None) the whole matrix.
KERNEL_BATCH_ROWS = (16, 1024, 4096, None)
KERNEL_SWEEP_REPEATS = 15

FLEET_WORKER_COUNTS = (1, 2, 4)
#: A 1-worker fleet pays one IPC hop per micro-batch; on a starved host
#: it must still deliver at least this fraction of the in-process
#: server's throughput (the "bounded overhead" contract).  Half of the
#: ratio measured with the level-synchronous kernel (0.49-0.54 on the
#: 2-core reference host, recorded as ``fleet.1.in_process_ratio``).  It
#: was 0.86-0.90 there before that kernel, and reads 0.39-0.41 now that
#: the server keeps its books per micro-batch: the fleet did not get
#: slower either time (152-197 k -> 385-406 k -> 535-543 k rows/s), the
#: in-process denominator grew, so the same IPC hop is a larger share of
#: a cheaper batch.
FLEET_MIN_1WORKER_RATIO = 0.25
#: With cores to spare, 4 workers must actually beat 1 worker.
FLEET_MIN_SCALING = 1.2

GATEWAY_ROWS = 20_000  # HTTP replay subset (JSON encode/decode dominates)
GATEWAY_REQUEST_ROWS = 64
GATEWAY_CLIENTS = 4
#: The HTTP+JSON path pays serialization on every row; it must still
#: deliver at least this fraction of the in-process server's throughput.
#: Half of the measured ratio (0.027-0.028; ``gateway.in_process_ratio``).
#: It was 0.09-0.11 with the old kernel and 0.05 before the server kept
#: its books per micro-batch: HTTP throughput did not fall either time
#: (20 k -> 31-45 k rows/s), the in-process denominator grew 4x and then
#: another ~1.8x.
GATEWAY_MIN_HTTP_RATIO = 0.0125

REPO_ROOT = Path(__file__).parents[1]


def _http_predict(port, rows):
    """One JSON predict over the wire; returns (predictions, seconds)."""
    body = json.dumps({"rows": rows}).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/predict", data=body, method="POST"
    )
    start = time.perf_counter()
    with urllib.request.urlopen(request, timeout=120) as response:
        payload = json.loads(response.read())
    return payload["predictions"], time.perf_counter() - start


def _cores() -> int:
    """Usable cores for this process (affinity-aware, cgroup-friendly)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_serving_throughput(run_once):
    spec = SyntheticSpec(
        name="serving",
        n_rows=N_ROWS,
        n_numeric=5,
        n_categorical=3,
        n_classes=3,
        planted_depth=5,
        noise=0.1,
        missing_rate=0.02,
        seed=7,
    )
    table = generate(spec)
    train = table.take(np.arange(N_TRAIN, dtype=np.int64))
    forest = ForestModel(
        [
            train_tree(train, TreeConfig(max_depth=MAX_DEPTH, seed=i), tree_id=i)
            for i in range(N_TREES)
        ]
    )
    predictor = BatchPredictor(compile_forest(forest))

    def experiment():
        # Flat kernel over the full batch.
        flat_preds, flat_seconds = _timed(lambda: predictor.predict(table))
        flat_rps = table.n_rows / flat_seconds

        # Node-based batch recursion (_fill) over the full batch.
        node_preds, node_seconds = _timed(lambda: forest.predict(table))
        node_rps = table.n_rows / node_seconds
        np.testing.assert_array_equal(flat_preds, node_preds)

        # Per-row Python descent, timed on a subsample.
        sample = table.take(np.arange(N_PER_ROW, dtype=np.int64))
        rows = [
            [col[i] for col in sample.columns] for i in range(sample.n_rows)
        ]

        def per_row():
            out = np.empty((sample.n_rows, forest.n_classes))
            for i, row in enumerate(rows):
                acc = np.zeros(forest.n_classes)
                for tree in forest.trees:
                    acc += tree.predict_row(row)
                out[i] = acc / forest.n_trees
            return np.argmax(out, axis=1)

        row_preds, row_seconds = _timed(per_row)
        row_rps = sample.n_rows / row_seconds
        np.testing.assert_array_equal(row_preds, flat_preds[:N_PER_ROW])

        matrix = np.column_stack(
            [np.asarray(col, dtype=np.float64) for col in table.columns]
        )

        # The kernel as the server calls it: median seconds per call of
        # predict_matrix at each batch size.
        kernel_by_rows = {}
        for batch_rows in KERNEL_BATCH_ROWS:
            batch = matrix if batch_rows is None else matrix[:batch_rows]
            seconds = float(
                np.median(
                    [
                        _timed(lambda: predictor.predict_matrix(batch))[1]
                        for _ in range(KERNEL_SWEEP_REPEATS)
                    ]
                )
            )
            kernel_by_rows["full" if batch_rows is None else str(batch_rows)] = {
                "ms_per_call": seconds * 1e3,
                "rows_per_second": len(batch) / seconds,
            }

        # Micro-batching server replay in small client requests.
        config = ServerConfig(
            max_batch_size=1024,
            max_delay_seconds=0.002,
            queue_capacity=8192,
        )
        max_in_flight = 64  # closed loop: bound queueing delay, not load

        def replay(server):
            # Warm up before timing: fleet mode forks workers and
            # attaches the shm model on the first shard; that one-off
            # setup must not be billed to steady-state throughput.
            server.predict(matrix[:REQUEST_ROWS], timeout=60.0)
            server.stats.first_enqueue = None
            futures = []
            drained = 0
            for start in range(0, len(matrix), REQUEST_ROWS):
                if len(futures) - drained >= max_in_flight:
                    futures[drained].result(timeout=60.0)
                    drained += 1
                futures.append(
                    server.submit(matrix[start : start + REQUEST_ROWS])
                )
            blocks = [f.result(timeout=60.0) for f in futures]
            return np.concatenate(blocks), server.report()

        with PredictionServer(predictor, config) as server:
            served, report = replay(server)
        np.testing.assert_array_equal(served, flat_preds)

        # The same replay through the multi-process fleet, per worker
        # count.  Exact mode: every prediction must stay bit-identical.
        fleet = {}
        in_process_rps = report.to_dict()["rows_per_second"]
        for n_workers in FLEET_WORKER_COUNTS:
            with PredictionServer(
                predictor, config, n_workers=n_workers
            ) as fleet_server:
                fleet_served, fleet_report = replay(fleet_server)
            np.testing.assert_array_equal(fleet_served, flat_preds)
            stats = fleet_report.to_dict()
            fleet[str(n_workers)] = {
                "rows_per_second": stats["rows_per_second"],
                "in_process_ratio": stats["rows_per_second"] / in_process_rps,
                "p50_latency_ms": stats["p50_latency_ms"],
                "p99_latency_ms": stats["p99_latency_ms"],
                "rejected": stats["rejected"],
                "respawns": stats["fleet"]["respawns"],
                "shm_bytes_mapped": max(
                    w["shm_bytes_mapped"] for w in stats["fleet"]["workers"]
                ),
            }

        # HTTP/JSON gateway replay: the same rows over real sockets,
        # several concurrent clients, exact parity required.
        flat = predictor.forest
        http_matrix = matrix[:GATEWAY_ROWS]
        chunks = [
            http_matrix[start : start + GATEWAY_REQUEST_ROWS].tolist()
            for start in range(0, len(http_matrix), GATEWAY_REQUEST_ROWS)
        ]
        gateway = Gateway(
            PredictionServer(BatchPredictor(flat), config),
            GatewayConfig(port=0),
        )
        runner = GatewayThread(gateway).start()
        try:
            _http_predict(runner.port, chunks[0])  # warm up (keep-alive off)
            results = [None] * len(chunks)
            latencies = [None] * len(chunks)

            def client(slot):
                for index in range(slot, len(chunks), GATEWAY_CLIENTS):
                    results[index], latencies[index] = _http_predict(
                        runner.port, chunks[index]
                    )

            threads = [
                threading.Thread(target=client, args=(slot,))
                for slot in range(GATEWAY_CLIENTS)
            ]
            http_started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            http_seconds = time.perf_counter() - http_started
        finally:
            runner.stop()
        http_preds = np.concatenate(
            [np.asarray(block) for block in results]
        )
        np.testing.assert_array_equal(http_preds, flat_preds[:GATEWAY_ROWS])
        http_rps = len(http_matrix) / http_seconds
        http_latencies_ms = np.asarray(latencies) * 1e3

        return {
            "n_rows": table.n_rows,
            "n_trees": N_TREES,
            "max_depth": MAX_DEPTH,
            "cores": _cores(),
            "per_row_rows_per_second": row_rps,
            "node_batch_rows_per_second": node_rps,
            "flat_kernel_rows_per_second": flat_rps,
            "flat_kernel_by_batch_rows": kernel_by_rows,
            "flat_vs_per_row_speedup": flat_rps / row_rps,
            "flat_vs_node_batch_speedup": node_rps and flat_rps / node_rps,
            "server": report.to_dict(),
            "fleet": fleet,
            "gateway": {
                "rows": len(http_matrix),
                "request_rows": GATEWAY_REQUEST_ROWS,
                "clients": GATEWAY_CLIENTS,
                "http_rows_per_second": http_rps,
                "http_p50_ms": float(np.percentile(http_latencies_ms, 50)),
                "http_p99_ms": float(np.percentile(http_latencies_ms, 99)),
                "in_process_ratio": http_rps / in_process_rps,
            },
        }

    result = run_once(experiment)

    lines = [
        f"Serving throughput ({result['n_rows']:,} rows, "
        f"{N_TREES} trees, depth {MAX_DEPTH})",
        f"{'engine':24s}{'rows/sec':>14s}{'speedup':>10s}",
        f"{'per-row descent':24s}"
        f"{result['per_row_rows_per_second']:>14,.0f}{'1.0x':>10s}",
        f"{'node batch (_fill)':24s}"
        f"{result['node_batch_rows_per_second']:>14,.0f}"
        f"{result['node_batch_rows_per_second'] / result['per_row_rows_per_second']:>9.1f}x",
        f"{'flat kernel':24s}"
        f"{result['flat_kernel_rows_per_second']:>14,.0f}"
        f"{result['flat_vs_per_row_speedup']:>9.1f}x",
        "",
        "flat kernel per call: "
        + ", ".join(
            f"{rows} rows {entry['ms_per_call']:.2f} ms "
            f"({entry['rows_per_second']:,.0f} rows/s)"
            for rows, entry in result["flat_kernel_by_batch_rows"].items()
        ),
        "",
        f"server: {result['server']['n_requests']} requests of "
        f"{REQUEST_ROWS} rows -> {result['server']['n_batches']} batches "
        f"(avg {result['server']['avg_batch_rows']:.0f} rows), "
        f"{result['server']['rows_per_second']:,.0f} rows/s, "
        f"p50 {result['server']['p50_latency_ms']:.2f} ms, "
        f"p99 {result['server']['p99_latency_ms']:.2f} ms",
        "",
        f"fleet ({result['cores']} cores): "
        f"{'workers':>8s}{'rows/sec':>14s}{'p99 ms':>10s}",
    ]
    for n_workers in FLEET_WORKER_COUNTS:
        entry = result["fleet"][str(n_workers)]
        lines.append(
            f"{'':15s}{n_workers:>8d}"
            f"{entry['rows_per_second']:>14,.0f}"
            f"{entry['p99_latency_ms']:>10.2f}"
        )
    gw = result["gateway"]
    lines += [
        "",
        f"gateway (HTTP/JSON, {gw['clients']} clients, "
        f"{gw['request_rows']}-row requests): "
        f"{gw['http_rows_per_second']:,.0f} rows/s "
        f"({gw['in_process_ratio']:.2f}x in-process), "
        f"p50 {gw['http_p50_ms']:.2f} ms, p99 {gw['http_p99_ms']:.2f} ms",
    ]
    save_result("serving_throughput", "\n".join(lines))
    (REPO_ROOT / "BENCH_serving.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )

    assert result["flat_vs_per_row_speedup"] >= 10.0
    assert result["server"]["rejected"] == 0
    for entry in result["fleet"].values():
        assert entry["rejected"] == 0
        assert entry["respawns"] == 0
        assert entry["shm_bytes_mapped"] > 0

    # Gateway contract: the HTTP path serves exact predictions at a
    # bounded serialization overhead.
    assert (
        result["gateway"]["in_process_ratio"] >= GATEWAY_MIN_HTTP_RATIO
    )

    # Hardware-aware contracts: scaling only where the cores exist.
    in_process_rps = result["server"]["rows_per_second"]
    one_worker_rps = result["fleet"]["1"]["rows_per_second"]
    if result["cores"] >= 4:
        assert (
            result["fleet"]["4"]["rows_per_second"]
            >= one_worker_rps * FLEET_MIN_SCALING
        )
    else:
        # Starved host: sharding cannot speed anything up, so the
        # contract is bounded IPC overhead, not scaling.
        assert one_worker_rps >= in_process_rps * FLEET_MIN_1WORKER_RATIO
