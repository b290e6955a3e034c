"""The two serving workloads: the micro-batching server in-process, and
the HTTP/JSON gateway as its own process.

Both serve a forest of 8 trees trained on the first 10 k rows of table
``S100``; ``--seed`` orders the 100 k rows served and the requests.
Every served prediction is compared with
``BatchPredictor.predict_matrix`` on the same rows.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import TreeConfig, train_tree
from repro.core.persistence import save_model_local
from repro.datasets import SyntheticSpec, generate
from repro.ensemble import ForestModel
from repro.serving import (
    BatchPredictor,
    PredictionServer,
    ServerConfig,
    compile_forest,
)

from harness import (
    RESULTS_DIR,
    SRC_DIR,
    Budget,
    Outcome,
    check_hygiene,
    repeat_for,
    shm_segments,
    shuffled,
    timed,
    typical,
)
from loadgen import Exchange, drive_http, encode_request, replay
from trace import Tracer

S100 = SyntheticSpec(
    name="S100",
    n_rows=100_000,
    n_numeric=5,
    n_categorical=3,
    n_classes=3,
    planted_depth=5,
    noise=0.1,
    missing_rate=0.02,
    seed=7,  # fixes the rows; --seed orders them (harness.shuffled)
)
N_TRAIN = 10_000
N_TREES = 8
MAX_DEPTH = 8
#: One set-up trains the forest (~1.3 s), so three per run.
SETUP_REPEATS = 3
PROBE_REPEATS = 3

# serve_inproc
INPROC_CONFIG = ServerConfig(
    max_batch_size=1024, max_delay_seconds=0.002, queue_capacity=8192
)
INPROC_REQUEST_ROWS = 16
IN_FLIGHT = 64
REQUEST_TIMEOUT = 10.0

# serve_http.  A body of 4 096 rows is a micro-batch of its own, and at
# that size reading and decoding it and encoding the reply cost the
# gateway more CPU than the kernel call does (measured: 0.58 of its CPU
# per request, against 0.31 for 64-row bodies, where nothing the HTTP
# and JSON layers do could show end to end).
HTTP_REQUEST_ROWS = 4096
HTTP_BODIES = 24
HTTP_BATCH_SIZE = 1024
HTTP_CONNECTIONS = 2
#: About 0.3 and 0.6 of the ~50 requests/s the closed loop reaches.
OPEN_LOOP_RATE = 15.0
SECOND_RATE = 30.0
WINDOW_SECONDS = 1.0
GATEWAY_START_TIMEOUT = 30.0


@dataclass
class Model:
    """The served forest, its inputs, and what it must answer."""

    matrix: np.ndarray
    forest: ForestModel
    predictor: BatchPredictor


def build_model(seed: int, tracer: Tracer) -> Model:
    """The model and the rows to serve.

    The forest is trained on the table's first rows as generated, so
    every seed serves the same model; the seed orders the rows served.
    (A forest retrained per seed changed the kernel's cost per row by up
    to 40 % between seeds.)
    """
    with tracer.span("datasets.generate"):
        base = generate(S100)
        table = shuffled(base, seed)
    train = base.take(np.arange(N_TRAIN, dtype=np.int64))
    with tracer.span("train_forest"):
        forest = ForestModel(
            [
                train_tree(
                    train, TreeConfig(max_depth=MAX_DEPTH, seed=i), tree_id=i
                )
                for i in range(N_TREES)
            ]
        )
    with tracer.span("serving.compiler.compile_forest"):
        predictor = BatchPredictor(compile_forest(forest))
    matrix = np.column_stack(
        [np.asarray(col, dtype=np.float64) for col in table.columns]
    )
    return Model(matrix, forest, predictor)


def _set_up(out: Outcome, set_up):
    """Set up ``SETUP_REPEATS`` times; returns the last ``(model, server)``.

    ``set_up`` returns a model and something with ``stop()``; all but the
    last are stopped again, so one server or gateway is up at a time.
    """
    server = None
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
                server = None
            (model, server), seconds = timed(set_up)
            setups.append(seconds)
    except BaseException:
        if server is not None:
            server.stop()
        raise
    out.end_to_end["setup_s"] = out.median("setup_s", setups)
    return model, server


def _probe_kernel(pl: dict, model: Model, tracer: Tracer) -> None:
    """serving.compiler / serving.batch: the flat kernel called directly."""
    compiles = []
    for _ in range(PROBE_REPEATS):
        with tracer.span("serving.compiler.compile_forest"):
            compiles.append(timed(lambda: compile_forest(model.forest))[1])
    pl["serving.compiler.compile_s"] = statistics.median(compiles)
    matrix, predictor = model.matrix, model.predictor

    def full() -> None:
        with tracer.span("serving.batch.predict_matrix"):
            predictor.predict_matrix(matrix)

    def sliced() -> None:
        with tracer.span("serving.batch.predict_matrix_1024"):
            for start in range(0, len(matrix), 1024):
                predictor.predict_matrix(matrix[start : start + 1024])

    for name, fn in (("full", full), ("1024", sliced)):
        seconds = statistics.median(
            timed(fn)[1] for _ in range(PROBE_REPEATS)
        )
        pl[f"serving.batch.rows_per_s_{name}"] = len(matrix) / seconds


# ----------------------------------------------------------------------
# serve_inproc
# ----------------------------------------------------------------------
class _Replayer:
    """Replays S100 through one server in seeded request order, checks
    every reply, and keeps per-pass numbers."""

    def __init__(self, out: Outcome, model: Model, seed: int) -> None:
        self.out = out
        n = len(model.matrix) // INPROC_REQUEST_ROWS
        order = np.random.default_rng(seed).permutation(n)
        blocks = model.matrix[: n * INPROC_REQUEST_ROWS].reshape(
            n, INPROC_REQUEST_ROWS, -1
        )
        self.requests = [blocks[i] for i in order]
        self.expected = model.predictor.predict_matrix(model.matrix)[
            : n * INPROC_REQUEST_ROWS
        ].reshape(n, INPROC_REQUEST_ROWS)[order]
        self.n_rows = n * INPROC_REQUEST_ROWS

    def one_pass(self, server):
        """(wall, submitted, answered) of one checked pass, or None."""
        n = len(self.requests)
        self.out.attempted += n
        try:
            (blocks, submitted, answered), wall = timed(
                lambda: replay(server, self.requests, IN_FLIGHT, REQUEST_TIMEOUT)
            )
        except Exception as error:  # noqa: BLE001 - a failed pass is a result
            self.out.fail(
                f"replay raised {type(error).__name__}: {error}", count=n
            )
            return None
        wrong = int((np.stack(blocks) != self.expected).any(axis=1).sum())
        if wrong:
            self.out.fail(f"{wrong} requests answered wrongly", count=wrong)
            return None
        return wall, submitted, answered


def run_inproc(seed: int, budget: Budget, tracer: Tracer) -> Outcome:
    """Closed loop against an in-process ``PredictionServer``."""
    out = Outcome()
    segments_before = shm_segments()

    def set_up():
        model = build_model(seed, tracer)
        started = PredictionServer(model.predictor, INPROC_CONFIG).start()
        try:
            started.predict(
                model.matrix[:INPROC_REQUEST_ROWS], timeout=REQUEST_TIMEOUT
            )
        except BaseException:
            started.stop()
            raise
        return model, started

    model, server = _set_up(out, set_up)
    try:
        replayer = _Replayer(out, model, seed)

        #: per-pass (rows/s, p50 latency in ms), keyed by traced or not
        passes: dict[bool, list] = {False: [], True: []}
        #: per traced pass: the server's own counters over that pass
        server_side: list[dict] = []

        def one(index: int) -> None:
            traced = tracer.enabled and index % 2 == 1
            before = server.report() if traced else None
            result = replayer.one_pass(server)
            if result is None or index < 0:  # -1 is the discarded warm-up
                return
            wall, submitted, answered = result
            latency = answered - submitted
            passes[traced].append(
                (replayer.n_rows / wall, 1e3 * float(np.median(latency)))
            )
            if traced:
                after = server.report()
                batches = after.n_batches - before.n_batches
                kernel = after.kernel_seconds - before.kernel_seconds
                server_side.append(
                    {
                        "kernel_s": kernel,
                        "kernel_share": kernel / wall,
                        "n_batches": batches,
                        "avg_batch_rows": replayer.n_rows / batches,
                    }
                )
                start = float(submitted[0])
                parent = tracer.add("replay_pass", start, start + wall)
                for i in range(len(latency)):
                    tracer.add(
                        "server.submit->result",
                        float(submitted[i]), float(answered[i]),
                        parent, lane=i % IN_FLIGHT,
                    )

        one(-1)
        repeat_for(budget, one)
        if not passes[False]:
            raise RuntimeError("serve_inproc: no timed pass succeeded")
        e2e = out.end_to_end
        e2e["rows_per_s"] = out.typical(
            "rows_per_s", [r for r, _ in passes[False]], "higher"
        )
        e2e["p50_ms"] = out.typical(
            "p50_ms", [p for _, p in passes[False]], "lower"
        )

        if tracer.enabled:
            if not passes[True]:
                raise RuntimeError("serve_inproc: no traced pass succeeded")
            pl = out.per_layer
            traced_rows_per_s = typical(
                [r for r, _ in passes[True]], "higher"
            )
            pl["trace.overhead_share"] = (
                e2e["rows_per_s"] / traced_rows_per_s - 1.0
            )
            for key in server_side[0]:
                pl[f"serving.server.{key}"] = statistics.median(
                    s[key] for s in server_side
                )
            report = server.report()
            pl["serving.server.rejected"] = report.rejected
            pl["serving.server.p99_ms"] = report.p99_latency_ms
            _probe_kernel(pl, model, tracer)
            _probe_fleet(pl, replayer, model, e2e["rows_per_s"])
            pl["loadgen.sent"] = out.attempted
            pl["loadgen.succeeded"] = out.attempted - out.failed
            pl["loadgen.failed"] = out.failed
    finally:
        server.stop()
    check_hygiene(out, segments_before)
    return out


def _probe_fleet(pl, replayer, model, inproc_rows_per_s) -> None:
    """serving.fleet: the same replay through one worker process."""
    with PredictionServer(
        model.predictor, INPROC_CONFIG, n_workers=1
    ) as fleet:
        fleet.predict(
            model.matrix[:INPROC_REQUEST_ROWS], timeout=REQUEST_TIMEOUT
        )
        walls = []
        for _ in range(PROBE_REPEATS):
            result = replayer.one_pass(fleet)
            if result is not None:
                walls.append(result[0])
        stats = fleet.report().to_dict()["fleet"]
    if not walls:
        raise RuntimeError("serve_inproc: no fleet pass succeeded")
    rows_per_s = replayer.n_rows / statistics.median(walls)
    pl["serving.fleet.rows_per_s"] = rows_per_s
    pl["serving.fleet.vs_inproc_ratio"] = rows_per_s / inproc_rows_per_s
    pl["serving.fleet.respawns"] = stats["respawns"]
    pl["serving.shm_model.bytes_mapped"] = max(
        w["shm_bytes_mapped"] for w in stats["workers"]
    )


# ----------------------------------------------------------------------
# serve_http
# ----------------------------------------------------------------------
class GatewayProcess:
    """``python -m repro.cli serve --http`` as a child process."""

    def __init__(self, model_dir) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--http",
                "--port", "0", "--batch-size", str(HTTP_BATCH_SIZE),
                "--model-dir", str(model_dir),
            ],
            env=env,
            stdout=subprocess.PIPE,
        )
        self.port = 0

    def wait_listening(self) -> int:
        """Block until the gateway prints its bound port."""
        deadline = time.monotonic() + GATEWAY_START_TIMEOUT
        stdout = self.process.stdout
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([stdout], [], [], left)[0]:
                raise RuntimeError("gateway did not start in time")
            line = stdout.readline().decode()
            if not line:
                raise RuntimeError(
                    f"gateway exited with {self.process.wait(timeout=10)}"
                )
            listening = re.search(r"listening on http://\S+:(\d+)", line)
            if listening:
                self.port = int(listening.group(1))
                return self.port

    def cpu_seconds(self) -> float:
        """User + system CPU time the gateway process has used so far."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()  # past the "(command)"
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM (the CLI drains on it), then SIGKILL; always reaps."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()
        self.process.stdout.close()

    def port_closed(self) -> bool:
        try:
            socket.create_connection(("127.0.0.1", self.port), 1.0).close()
        except OSError:
            return True
        return False


def _http_json(port: int, method: str, path: str, body: bytes | None = None):
    """One synchronous request: ``(status, decoded JSON)``."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=REQUEST_TIMEOUT
    )
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@dataclass
class _Phase:
    """One load phase, checked: latencies are seconds from due time.

    A phase is cut into windows of about ``WINDOW_SECONDS``, which are
    its repeats: a request belongs to the window it was due in (latency)
    and to the one it was answered in (rate).  ``cpu_s`` and ``kernel_s``
    are what the gateway process spent during the phase: its CPU time,
    and the seconds its replica reports inside ``predict_matrix``.
    """

    sent: int
    latencies: np.ndarray
    late: np.ndarray
    #: per window of the phase: median latency, and rows answered a second
    p50s_ms: list[float]
    rates: list[float]
    exchanges: list[Exchange]
    cpu_s: float
    kernel_s: float


def run_http(seed: int, budget: Budget, tracer: Tracer) -> Outcome:
    """Open loop then closed loop against the gateway process."""
    out = Outcome()
    seconds = budget.seconds
    segments_before = shm_segments()
    model_dir = RESULTS_DIR / "model_serve_http"

    def set_up():
        model = build_model(seed, tracer)
        shutil.rmtree(model_dir, ignore_errors=True)
        save_model_local(model_dir, "model", model.forest.trees)
        started = GatewayProcess(model_dir)
        try:
            port = started.wait_listening()
            first = json.dumps({"rows": model.matrix[:16].tolist()}).encode()
            status, _ = _http_json(port, "POST", "/predict", first)
            if status != 200:
                raise RuntimeError(f"first request answered {status}")
        except BaseException:
            started.stop()
            raise
        return model, started

    model, gateway = _set_up(out, set_up)
    try:
        port = gateway.port

        # Pre-encoded bodies, cycled in seeded order; the replies they
        # must get.
        chunks = [
            model.matrix[i * HTTP_REQUEST_ROWS : (i + 1) * HTTP_REQUEST_ROWS]
            for i in np.random.default_rng(seed).permutation(HTTP_BODIES)
        ]
        bodies = [json.dumps({"rows": c.tolist()}).encode() for c in chunks]
        payloads = [encode_request("/predict", b) for b in bodies]
        expected = [model.predictor.predict_matrix(c).tolist() for c in chunks]
        cursor = 0

        def phase(name, rate, duration, traced=False) -> _Phase:
            nonlocal cursor
            cpu_before = gateway.cpu_seconds()
            _, stats_before = _http_json(port, "GET", "/stats")
            exchanges = drive_http(
                port, payloads, cursor, rate, duration,
                connections=HTTP_CONNECTIONS, timeout=REQUEST_TIMEOUT,
            )
            _, stats_after = _http_json(port, "GET", "/stats")
            cpu_after = gateway.cpu_seconds()
            cursor += len(exchanges)
            out.attempted += len(exchanges)
            good, refused, wrong = [], 0, 0
            for x in exchanges:
                if x.status != 200:
                    refused += 1
                elif json.loads(x.body)["predictions"] != expected[x.index]:
                    wrong += 1
                else:
                    good.append(x)
            if refused:
                out.fail(f"{name}: {refused} requests not answered 200", refused)
            if wrong:
                out.fail(f"{name}: {wrong} wrong predictions", wrong)
            if not good:
                raise RuntimeError(f"serve_http {name}: no request succeeded")
            begin = min(x.due for x in exchanges)
            if traced:
                end = max(x.done for x in exchanges)
                parent = tracer.add(name, begin, end)
                for x in exchanges:
                    tracer.add("http.request", x.sent, x.done, parent, x.lane)
            n_windows = max(2, round(duration / WINDOW_SECONDS))
            window = duration / n_windows
            latencies = [[] for _ in range(n_windows)]
            answered = [0] * n_windows
            for x in good:
                due_in = min(int((x.due - begin) / window), n_windows - 1)
                latencies[due_in].append(x.done - x.due)
                if x.done < begin + duration:  # the last few overhang
                    answered[int((x.done - begin) / window)] += 1
            return _Phase(
                sent=len(exchanges),
                latencies=np.array([x.done - x.due for x in good]),
                late=np.array([x.sent - x.due for x in exchanges]),
                p50s_ms=[1e3 * statistics.median(w) for w in latencies if w],
                rates=[n * HTTP_REQUEST_ROWS / window for n in answered],
                exchanges=good,
                cpu_s=cpu_after - cpu_before,
                kernel_s=stats_after["kernel_seconds"]
                - stats_before["kernel_seconds"],
            )

        if not tracer.enabled:
            each = seconds / 2
            open_loop = phase("open_loop", OPEN_LOOP_RATE, each)
            closed = phase("closed_loop", None, each)
            phases = [open_loop, closed]
        else:
            # The open loop runs once without and once with per-request
            # spans (their medians give the tracing overhead), then at a
            # second rate, then the closed loop.
            each = seconds / 4
            open_loop = phase("open_loop", OPEN_LOOP_RATE, each)
            traced_loop = phase("open_loop_traced", OPEN_LOOP_RATE, each, True)
            _, stats_first_rate = _http_json(port, "GET", "/stats")
            second = phase("open_loop_second_rate", SECOND_RATE, each, True)
            closed = phase("closed_loop", None, each, True)
            phases = [open_loop, traced_loop, second, closed]

        e2e = out.end_to_end
        e2e["p50_ms"] = out.typical("p50_ms", open_loop.p50s_ms, "lower")
        e2e["rows_per_s"] = out.typical("rows_per_s", closed.rates, "higher")

        if tracer.enabled:
            pl = out.per_layer
            pl["trace.overhead_share"] = (
                typical(traced_loop.p50s_ms) / e2e["p50_ms"] - 1.0
            )
            _, stats = _http_json(port, "GET", "/stats")
            _gateway_layers(
                pl, [open_loop, traced_loop], second, stats_first_rate, stats
            )
            late = np.concatenate([p.late for p in phases[:-1]])
            pl["loadgen.sent"] = sum(p.sent for p in phases)
            pl["loadgen.succeeded"] = sum(len(p.exchanges) for p in phases)
            pl["loadgen.failed"] = pl["loadgen.sent"] - pl["loadgen.succeeded"]
            pl["loadgen.late_p99_ms"] = 1e3 * float(np.percentile(late, 99))
            _probe_json(pl, bodies, open_loop.exchanges, tracer)
            _probe_direct(pl, model, chunks, tracer)
            _probe_kernel(pl, model, tracer)
    finally:
        gateway.stop()
        if not gateway.port_closed():
            out.problems.append("gateway port still open after stop")
        shutil.rmtree(model_dir, ignore_errors=True)
    check_hygiene(out, segments_before)
    return out


def _gateway_layers(pl, first_rate, second, stats_first_rate, stats) -> None:
    """serving.gateway / serving.admission, from the gateway process's
    CPU time and ``GET /stats``.

    ``first_rate`` are the two open-loop phases at ``OPEN_LOOP_RATE``.
    There requests do not overlap, so the replica's kernel seconds hold
    no wait for the interpreter lock and can be set against the
    process's CPU time: what is left is reading and decoding bodies,
    encoding replies, asyncio and the executor hop.
    """
    requests = sum(len(p.exchanges) for p in first_rate)
    cpu_s = sum(p.cpu_s for p in first_rate)
    kernel_s = sum(p.kernel_s for p in first_rate)
    pl["serving.gateway.cpu_ms_per_req"] = 1e3 * cpu_s / requests
    pl["serving.gateway.kernel_ms_per_req"] = 1e3 * kernel_s / requests
    pl["serving.gateway.http_share"] = 1.0 - kernel_s / cpu_s

    # Plain medians over all requests on both sides of the difference.
    latencies = np.concatenate([p.latencies for p in first_rate])
    internal = stats_first_rate["gateway"]["gateway_p50_latency_ms"]
    pl["serving.gateway.internal_p50_ms"] = internal
    pl["serving.gateway.http_self_ms"] = (
        1e3 * float(np.median(latencies)) - internal
    )
    # The highest percentile with ten samples beyond it, at ~100 samples.
    pl["serving.gateway.p90_ms"] = 1e3 * float(np.percentile(latencies, 90))
    pl["serving.gateway.p90_samples"] = len(latencies)
    pl["serving.gateway.p50_ms_second_rate"] = 1e3 * float(
        np.median(second.latencies)
    )
    counters = stats["gateway"]
    for name in ("admitted", "throttled", "http_errors"):
        pl[f"serving.gateway.{name}"] = counters[name]
    pl["serving.admission.queue_wait_p99_ms"] = counters["queue_wait_ms_p99"]


def _probe_json(pl, bodies, exchanges, tracer) -> None:
    """What the gateway pays per request to decode a body and encode a
    reply, timed on the same bytes in this process."""

    def decode() -> None:
        with tracer.span("serving.gateway.json_decode"):
            for body in bodies:
                np.asarray(json.loads(body)["rows"], dtype=np.float64)

    replies = [json.loads(x.body) for x in exchanges[: len(bodies)]]

    def encode() -> None:
        with tracer.span("serving.gateway.json_encode"):
            for reply in replies:
                json.dumps(reply).encode()

    for name, fn, count in (
        ("decode", decode, len(bodies)), ("encode", encode, len(replies)),
    ):
        seconds = statistics.median(
            timed(fn)[1] for _ in range(PROBE_REPEATS)
        )
        pl[f"serving.gateway.json_{name}_ms_per_req"] = 1e3 * seconds / count


def _probe_direct(pl, model, chunks, tracer) -> None:
    """The same requests, one at a time, through an in-process server
    configured as the gateway's replica."""
    config = ServerConfig(max_batch_size=HTTP_BATCH_SIZE, queue_capacity=4096)
    latencies = []
    with PredictionServer(model.predictor, config) as server:
        server.predict(chunks[0], timeout=REQUEST_TIMEOUT)
        for chunk in chunks:
            with tracer.span("server.predict"):
                latencies.append(
                    timed(
                        lambda: server.predict(chunk, timeout=REQUEST_TIMEOUT)
                    )[1]
                )
    pl["serving.gateway.direct_p50_ms"] = 1e3 * statistics.median(latencies)
