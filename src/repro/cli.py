"""Command-line interface: train, evaluate and apply tree models on CSVs.

A small operational surface over the library, in the spirit of the released
TreeServer's demo workflow:

* ``train`` — load a CSV, train a decision tree / random forest /
  extra-trees model on the simulated TreeServer deployment, report run
  metrics, and save the model as JSON files.
* ``predict`` — apply a saved model to a CSV and write predictions
  (through the model registry's compiled flat-array kernel).
* ``serve`` — replay a CSV through the micro-batching
  :class:`~repro.serving.server.PredictionServer` and report latency and
  throughput counters; with ``--http``, run the asyncio HTTP/JSON
  gateway (admission control, hot swap/rollback) instead.
* ``worker`` — dial into a ``train --backend socket --listen`` master and
  serve as one remote worker for the duration of the run.
* ``evaluate`` — score a saved model against a labelled CSV.
* ``datasets`` — list the built-in Table-I-shaped synthetic datasets and
  optionally materialize one as a CSV.

Usage::

    python -m repro.cli train --csv data.csv --target label \
        --model-dir model/ --forest 20 --workers 8
    python -m repro.cli predict --csv new.csv --model-dir model/ --out preds.csv
    python -m repro.cli serve --csv new.csv --model-dir model/ --out preds.csv \
        --batch-size 256 --max-delay-ms 2
    python -m repro.cli evaluate --csv held_out.csv --target label --model-dir model/
    python -m repro.cli datasets --materialize higgs_boson --out higgs.csv
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core.config import (
    SPLIT_MODES,
    SystemConfig,
    TreeConfig,
    TreeKind,
)
from .core.jobs import decision_tree_job, extra_trees_job, random_forest_job
from .core.persistence import load_model_local, save_model_local
from .core.server import TreeServer
from .data.io import read_csv, write_csv
from .data.schema import ProblemKind
from .data.table import DataTable
from .datasets.registry import dataset_names, dataset_spec
from .datasets.synthetic import generate
from .evaluation.metrics import accuracy, rmse
from .runtime import (
    FAULT_POLICIES,
    RuntimeOptions,
    WorkerDiedError,
    graceful_sigint,
    reap_children,
)
from .serving.registry import load_compiled_local
from .serving.server import PredictionServer, QueueFullError, ServerConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TreeServer reproduction: train tree models on CSV data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model from a CSV file")
    train.add_argument("--csv", required=True, help="input CSV path")
    train.add_argument("--target", required=True, help="target column name")
    train.add_argument("--model-dir", required=True, help="output directory")
    train.add_argument("--max-depth", type=int, default=10)
    train.add_argument("--tau-leaf", type=int, default=1)
    train.add_argument(
        "--forest", type=int, default=0, metavar="N",
        help="train a random forest with N trees (default: one tree)",
    )
    train.add_argument(
        "--extra-trees", action="store_true",
        help="use completely-random trees instead of exact splits",
    )
    train.add_argument("--workers", type=int, default=8)
    train.add_argument("--compers", type=int, default=4)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--backend", choices=("sim", "mp", "socket"), default="sim",
        help="execution substrate: sim (discrete-event simulator, default), "
        "mp (real worker processes; same model, wall-clock time), or "
        "socket (TCP transport; loopback subprocesses by default, "
        "--listen for true multi-host runs)",
    )
    train.add_argument(
        "--mp-timeout", type=float, default=30.0, metavar="SECONDS",
        help="mp/socket backends: max silence between protocol messages "
        "before the run is declared wedged",
    )
    train.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="socket backend: listen on this address and wait for "
        "'repro worker --connect' clients instead of self-launching "
        "loopback workers",
    )
    train.add_argument(
        "--hosts", default=None, metavar="ID,ID,...",
        help="socket backend with --listen: comma-separated roster of "
        "expected worker host ids; a dialing worker whose host id is "
        "not on the roster is rejected at rendezvous",
    )
    train.add_argument(
        "--shm", action=argparse.BooleanOptionalAction, default=True,
        help="mp backend: shared-memory data plane — column table in shm "
        "segments, large row-id sets shipped as descriptors "
        "(default: on; --no-shm pickles everything through the queues)",
    )
    train.add_argument(
        "--fault-policy", choices=FAULT_POLICIES, default="fail_fast",
        help="worker-crash handling on every backend: fail_fast "
        "(structured error; default) or recover (reassign the dead "
        "worker's columns to surviving replicas and retrain affected "
        "trees)",
    )
    train.add_argument(
        "--max-worker-failures", type=int, default=1, metavar="N",
        help="fault-policy recover: give up after N worker crashes "
        "(default: 1)",
    )
    train.add_argument(
        "--split-mode", choices=SPLIT_MODES, default="exact",
        help="numeric split search: exact (every distinct value, "
        "default) or hist (equi-depth histogram summaries, O(bins) "
        "scoring and far smaller messages; columns with <= max_bins "
        "distinct values stay exact)",
    )
    train.add_argument(
        "--max-bins", type=int, default=32, metavar="B",
        help="hist split mode: maximum histogram bins per numeric "
        "column (default: 32; must be >= 2)",
    )

    predict = sub.add_parser("predict", help="apply a saved model to a CSV")
    predict.add_argument("--csv", required=True)
    predict.add_argument("--model-dir", required=True)
    predict.add_argument("--out", required=True, help="output CSV path")
    predict.add_argument(
        "--target", default=None,
        help="target column to ignore if present in the CSV",
    )
    predict.add_argument(
        "--max-depth", type=int, default=None,
        help="truncate prediction at this depth (Appendix D)",
    )

    serve = sub.add_parser(
        "serve",
        help="replay a CSV through the micro-batching prediction server, "
        "or run the HTTP/JSON gateway (--http)",
    )
    serve.add_argument(
        "--csv", default=None,
        help="rows to serve (CSV replay mode; not used with --http)",
    )
    serve.add_argument("--model-dir", required=True)
    serve.add_argument(
        "--out", default=None,
        help="output CSV path (CSV replay mode; not used with --http)",
    )
    serve.add_argument(
        "--target", default=None,
        help="target column to ignore if present in the CSV",
    )
    serve.add_argument(
        "--batch-size", type=int, default=256,
        help="flush a micro-batch at this many rows",
    )
    serve.add_argument(
        "--max-delay-ms", type=float, default=2.0,
        help="flush when the oldest queued request is this old",
    )
    serve.add_argument("--queue-capacity", type=int, default=4096)
    serve.add_argument(
        "--request-rows", type=int, default=1,
        help="rows per simulated client request",
    )
    serve.add_argument(
        "--max-depth", type=int, default=None,
        help="truncate prediction at this depth (Appendix D)",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="serve through a fleet of this many OS worker processes "
        "mapping the compiled model from shared memory; with >= 2 a "
        "straggling shard is hedged on another worker (default: "
        "in-process)",
    )
    serve.add_argument(
        "--quantize", action="store_true",
        help="serve the compact float32/int16 compiled form "
        "(see docs/SERVING.md for the accuracy contract)",
    )
    serve.add_argument(
        "--http", action="store_true",
        help="run the asyncio HTTP/JSON gateway instead of replaying a "
        "CSV: POST /predict, /models/swap, /models/rollback, "
        "GET /healthz, /stats (Ctrl-C to stop)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="gateway bind address (default: loopback)",
    )
    serve.add_argument(
        "--port", type=int, default=8080,
        help="gateway port (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--client-rate", type=float, default=None, metavar="RPS",
        help="per-client token-bucket quota, requests/second keyed by "
        "the X-Client header (default: unlimited)",
    )
    serve.add_argument(
        "--client-burst", type=int, default=32,
        help="token-bucket burst headroom per client",
    )
    serve.add_argument(
        "--max-waiters", type=int, default=64,
        help="bounded waiting-room seats before 429 + Retry-After",
    )

    worker = sub.add_parser(
        "worker",
        help="join a socket-backend training run as a remote worker",
    )
    worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="master address (the train side's --listen)",
    )
    worker.add_argument(
        "--worker-id", required=True, type=int, metavar="N",
        help="this worker's id, 1..n_workers (each id joins exactly once)",
    )
    worker.add_argument("--csv", required=True, help="training CSV path")
    worker.add_argument("--target", required=True, help="target column name")
    worker.add_argument(
        "--host-id", default=None, metavar="ID",
        help="override the auto-detected host identity (hostname/machine-id); "
        "workers sharing a host id exchange shared-memory descriptors",
    )

    evaluate = sub.add_parser("evaluate", help="score a saved model")
    evaluate.add_argument("--csv", required=True)
    evaluate.add_argument("--target", required=True)
    evaluate.add_argument("--model-dir", required=True)

    datasets = sub.add_parser(
        "datasets", help="list / materialize built-in synthetic datasets"
    )
    datasets.add_argument(
        "--materialize", default=None, metavar="NAME",
        help="write this dataset as CSV",
    )
    datasets.add_argument("--out", default=None, help="CSV output path")
    datasets.add_argument(
        "--small", action="store_true", help="use the small variant"
    )
    return parser


def _cmd_train(args: argparse.Namespace, out) -> int:
    if args.max_bins < 2:
        print("--max-bins must be >= 2", file=sys.stderr)
        return 2
    table = read_csv(args.csv, target=args.target)
    config = TreeConfig(
        max_depth=args.max_depth,
        tau_leaf=args.tau_leaf,
        tree_kind=TreeKind.EXTRA if args.extra_trees else TreeKind.DECISION,
        seed=args.seed,
        split_mode=args.split_mode,
        max_bins=args.max_bins,
    )
    if args.forest > 0:
        if args.extra_trees:
            job = extra_trees_job("model", args.forest, config, seed=args.seed)
        else:
            job = random_forest_job("model", args.forest, config, seed=args.seed)
    else:
        job = decision_tree_job("model", config)
    system = SystemConfig(
        n_workers=args.workers, compers_per_worker=args.compers
    ).scaled_to(table.n_rows)
    if args.listen is not None and args.backend != "socket":
        print("--listen requires --backend socket", file=sys.stderr)
        return 2
    hosts = None
    if args.hosts is not None:
        if args.listen is None:
            print("--hosts requires --listen", file=sys.stderr)
            return 2
        hosts = tuple(
            part.strip() for part in args.hosts.split(",") if part.strip()
        )
    options = RuntimeOptions(
        message_timeout_seconds=args.mp_timeout,
        use_shm=args.shm,
        fault_policy=args.fault_policy,
        max_worker_failures=args.max_worker_failures,
        listen=args.listen,
        expected_hosts=hosts,
    )
    server = TreeServer(
        system, backend=args.backend, runtime_options=options
    )
    try:
        with graceful_sigint():
            report = server.fit(table, [job])
    except WorkerDiedError as error:
        policy = options.fault_policy
        exitcode = (
            error.exitcode if error.exitcode is not None else "unknown"
        )
        hint = (
            "raise --max-worker-failures, add workers, or increase "
            "column replication"
            if policy == "recover"
            else "rerun with --fault-policy recover to retrain on survivors"
        )
        print(
            f"error: worker {error.worker_id} died (exitcode={exitcode}, "
            f"fault-policy={policy}); {hint}",
            file=sys.stderr,
        )
        return 1
    trees = report.trees("model")
    save_model_local(args.model_dir, "model", trees)
    if report.backend in ("mp", "socket"):
        timing = (
            f"in {report.wall_seconds:.3f} wall-clock seconds on "
            f"{args.workers} worker processes"
        )
    else:
        timing = (
            f"in {report.sim_seconds:.3f} simulated seconds "
            f"(CPU {report.cluster.avg_worker_cpu_percent:.0f}%, "
            f"send {report.cluster.avg_worker_send_mbps:.0f} Mbps)"
        )
    print(
        f"trained {len(trees)} tree(s) on {table.n_rows} rows "
        f"({table.n_columns} columns) {timing}",
        file=out,
    )
    if report.backend in ("mp", "socket"):
        transport = report.cluster.transport
        print(
            f"data plane: shm={'on' if transport['shm'] else 'off'} "
            f"start={transport['start_method']} "
            f"messages={transport['messages_sent']} "
            f"pickled={transport['bytes_pickled'] / 1e6:.2f}MB "
            f"shm-mapped={transport['shm_bytes_mapped'] / 1e6:.2f}MB "
            f"coalesced-batches={transport['coalesced_batches']}",
            file=out,
        )
        print(
            f"training kernel: build={transport['subtree_kernel_s']:.3f}s "
            f"gather={transport['subtree_gather_s']:.3f}s "
            f"nodes={transport['subtree_nodes_built']}",
            file=out,
        )
        if transport["recovered_workers"]:
            print(
                f"fault recovery: policy={transport['fault_policy']} "
                f"recovered-workers={transport['recovered_workers']} "
                f"revoked-trees={transport['revoked_trees']} "
                f"stale-shm-drops={transport['stale_shm_drops']}",
                file=out,
            )
    print(f"model saved to {args.model_dir}", file=out)
    return 0


def _cmd_worker(args: argparse.Namespace, out) -> int:
    from .runtime.socket import HandshakeError, connect_worker

    table = read_csv(args.csv, target=args.target)
    print(
        f"worker {args.worker_id}: dialing {args.connect} "
        f"({table.n_rows} rows, {table.n_columns} columns)",
        file=out,
    )
    try:
        with graceful_sigint():
            code = connect_worker(
                args.connect, args.worker_id, table, host_id=args.host_id
            )
    except HandshakeError as error:
        print(f"error: rendezvous failed: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: cannot reach {args.connect}: {error}", file=sys.stderr)
        return 1
    if code == 0:
        print(f"worker {args.worker_id}: run complete", file=out)
    else:
        print(
            f"worker {args.worker_id}: exited with code {code}",
            file=sys.stderr,
        )
    return code


def _read_feature_csv(
    path: str, target: str | None, problem: ProblemKind
) -> DataTable:
    """Read a prediction-input CSV, tolerating a missing target column."""
    try:
        return read_csv(path, target=target or "", problem=problem)
    except ValueError:
        # No target column in the CSV: append a dummy one.
        import csv as csv_module
        import io

        with open(path, newline="") as handle:
            rows = list(csv_module.reader(handle))
        dummy = "0" if problem is ProblemKind.CLASSIFICATION else "0.0"
        buffer = io.StringIO()
        writer = csv_module.writer(buffer)
        writer.writerow(rows[0] + ["__target__"])
        for row in rows[1:]:
            if row:
                writer.writerow(row + [dummy])
        buffer.seek(0)
        return read_csv(buffer, target="__target__", problem=problem)


def _write_predictions(path: str, predictions) -> None:
    with open(path, "w") as handle:
        handle.write("prediction\n")
        for value in predictions:
            handle.write(f"{value}\n")


def _cmd_predict(args: argparse.Namespace, out) -> int:
    entry, cache_hit = load_compiled_local(args.model_dir)
    table = _read_feature_csv(args.csv, args.target, entry.predictor.problem)
    predictions = entry.predictor.predict(table, max_depth=args.max_depth)
    _write_predictions(args.out, predictions)
    print(
        f"wrote {len(predictions)} predictions to {args.out} "
        f"[{entry.n_trees} tree(s), {entry.compiled.total_nodes()} nodes, "
        f"{'cache hit' if cache_hit else 'compiled'}]",
        file=out,
    )
    return 0


def _cmd_serve_http(args: argparse.Namespace, out) -> int:
    """Run the asyncio HTTP/JSON gateway until interrupted."""
    import signal as signal_module
    import time as time_module

    from .serving.admission import QuotaConfig
    from .serving.gateway import Gateway, GatewayConfig, GatewayThread

    entry, _ = load_compiled_local(args.model_dir)
    config = ServerConfig(
        max_batch_size=args.batch_size,
        max_delay_seconds=args.max_delay_ms / 1e3,
        queue_capacity=args.queue_capacity,
        max_depth=args.max_depth,
    )
    server = PredictionServer(
        entry.predictor, config, n_workers=args.workers, quantize=args.quantize
    )
    gateway = Gateway(
        server,
        GatewayConfig(
            host=args.host,
            port=args.port,
            quota=QuotaConfig(
                rate=args.client_rate,
                burst=args.client_burst,
                max_waiters=args.max_waiters,
            ),
        ),
    )
    runner = GatewayThread(gateway).start()
    print(
        f"gateway listening on http://{args.host}:{runner.port} "
        f"(workers={args.workers or 'in-process'} "
        f"model={gateway.model_key[:12]})",
        file=out, flush=True,
    )
    # A supervisor's SIGTERM should drain exactly like Ctrl-C: convert it
    # so fleet workers are drained and reaped, not orphaned.
    def _sigterm(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    try:
        signal_module.signal(signal_module.SIGTERM, _sigterm)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    try:
        with graceful_sigint():
            try:
                while True:
                    time_module.sleep(0.5)
            finally:
                # Drain before graceful_sigint's reap, so the reap only
                # sweeps what the drain left, never a live fleet worker.
                runner.stop()
    except KeyboardInterrupt:
        pass
    counters = gateway.report().gateway
    print(
        f"gateway: requests={counters['http_requests']} "
        f"admitted={counters['admitted']} throttled={counters['throttled']} "
        f"swaps={counters['swaps']} rollbacks={counters['rollbacks']}",
        file=out,
    )
    return 0


def _cmd_serve(args: argparse.Namespace, out) -> int:
    if args.http:
        return _cmd_serve_http(args, out)
    if args.csv is None or args.out is None:
        print("serve needs --csv and --out (or --http)", file=sys.stderr)
        return 2
    entry, _ = load_compiled_local(args.model_dir)
    table = _read_feature_csv(args.csv, args.target, entry.predictor.problem)
    config = ServerConfig(
        max_batch_size=args.batch_size,
        max_delay_seconds=args.max_delay_ms / 1e3,
        queue_capacity=args.queue_capacity,
        max_depth=args.max_depth,
    )
    chunk = max(1, args.request_rows)
    matrix = np.column_stack(
        [np.asarray(col, dtype=np.float64) for col in table.columns]
    ) if table.n_columns else np.zeros((table.n_rows, 0))
    predictions: list[np.ndarray] = []
    backpressure_waits = 0
    with graceful_sigint(), PredictionServer(
        entry.predictor,
        config,
        n_workers=args.workers,
        quantize=args.quantize,
    ) as server:
        futures = []
        drained = 0  # backpressure cursor: oldest future not yet waited on
        for start in range(0, table.n_rows, chunk):
            rows = matrix[start : start + chunk]
            while True:
                try:
                    futures.append(server.submit(rows))
                    break
                except QueueFullError:
                    # Bounded queue is full: absorb it as backpressure by
                    # waiting for the oldest in-flight request to finish.
                    backpressure_waits += 1
                    futures[drained].result(timeout=60.0)
                    drained += 1
        for future in futures:
            predictions.append(future.result(timeout=60.0))
        report = server.report()
    flat = np.concatenate(predictions) if predictions else np.empty(0)
    _write_predictions(args.out, flat)
    print(f"wrote {len(flat)} predictions to {args.out}", file=out)
    print(report.summary(), file=out)
    print(
        f"rejections: queue_full={report.rejected_queue_full} "
        f"shutdown={report.rejected_shutdown} "
        f"backpressure_waits={backpressure_waits}",
        file=out,
    )
    if report.fleet is not None:
        for worker in report.fleet["workers"]:
            print(
                f"worker {worker['worker_id']}: rows={worker['rows']} "
                f"batches={worker['batches']} "
                f"shm_bytes_mapped={worker['shm_bytes_mapped']} "
                f"respawns={worker['respawns']}",
                file=out,
            )
    return 0


def _cmd_evaluate(args: argparse.Namespace, out) -> int:
    model = load_model_local(args.model_dir)
    table = read_csv(args.csv, target=args.target)
    predictions = model.predict(table)
    if table.problem is ProblemKind.CLASSIFICATION:
        value = accuracy(table.target, predictions)
        print(f"accuracy: {value:.4f}", file=out)
    else:
        value = rmse(table.target, np.asarray(predictions, dtype=float))
        print(f"rmse: {value:.4f}", file=out)
    return 0


def _cmd_datasets(args: argparse.Namespace, out) -> int:
    if args.materialize is None:
        for name in dataset_names():
            spec = dataset_spec(name)
            print(
                f"{name:12s} rows={spec.n_rows:<7d} numeric={spec.n_numeric:<4d}"
                f"categorical={spec.n_categorical:<4d} "
                f"problem={spec.problem.value}",
                file=out,
            )
        return 0
    if args.out is None:
        print("--materialize requires --out", file=sys.stderr)
        return 2
    spec = dataset_spec(args.materialize, small=args.small)
    table = generate(spec)
    write_csv(table, args.out)
    print(f"wrote {table.n_rows} rows to {args.out}", file=out)
    return 0


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return _cmd_train(args, out)
        if args.command == "worker":
            return _cmd_worker(args, out)
        if args.command == "predict":
            return _cmd_predict(args, out)
        if args.command == "serve":
            return _cmd_serve(args, out)
        if args.command == "evaluate":
            return _cmd_evaluate(args, out)
        if args.command == "datasets":
            return _cmd_datasets(args, out)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: normal for CLIs.
        return 0
    except KeyboardInterrupt:
        # Ctrl-C: make sure no worker process outlives the run, then exit
        # with the conventional 128 + SIGINT code.
        reaped = reap_children()
        suffix = f" (reaped {reaped} worker process(es))" if reaped else ""
        print(f"interrupted{suffix}", file=sys.stderr)
        return 130
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
