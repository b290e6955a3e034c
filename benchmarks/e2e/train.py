"""The four training workloads: one table, four task mixes and backends.

Every workload trains a random forest on table ``T24``, its rows in
``--seed``-chosen order, with 2 workers, through the public
``TreeServer.fit``.  The end-to-end number is the wall of one fit
(``harness.typical`` of the timed fits), spawn / rendezvous / shutdown
included, because users pay them on every run.  Each fit's forest is
compared with a serial ``train_tree`` reference built once.

The layer numbers of the traced run come from outside the program: the
counters ``fit`` already returns, and spans around probe calls into one
layer's public functions on the same table.
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable

from repro import (
    SystemConfig,
    TreeConfig,
    TreeServer,
    decision_tree_job,
    random_forest_job,
    train_tree,
    trees_equal,
)
from repro.core.histogram import (
    build_threshold_book,
    column_histogram,
    encode_bin_codes,
    score_histogram,
)
from repro.core.splits import best_split_for_column
from repro.data.schema import ColumnKind
from repro.datasets import SyntheticSpec, generate
from repro.runtime import RuntimeOptions

from harness import (
    Budget,
    Outcome,
    check_hygiene,
    repeat_for,
    shm_segments,
    shuffled,
    timed,
    typical,
)
from trace import Tracer

T24 = SyntheticSpec(
    name="T24",
    n_rows=24_000,
    n_numeric=12,
    n_categorical=4,
    n_classes=5,
    planted_depth=6,
    noise=0.1,
    missing_rate=0.02,
    seed=3,  # fixes the rows; --seed orders them (harness.shuffled)
)
#: Generating the table is ~0.04 s, so many set-ups per run are cheap.
SETUP_REPEATS = 25
PROBE_REPEATS = 3

_TWO_WORKERS = SystemConfig(
    n_workers=2, compers_per_worker=2, column_replication=2
)


def _subtree_heavy(n_rows: int) -> SystemConfig:
    # Root = column task, both children = fat CPU-bound subtree tasks.
    return replace(_TWO_WORKERS, tau_subtree=n_rows // 2, tau_dfs=n_rows // 2)


def _column_only(n_rows: int) -> SystemConfig:
    # tau = 1: every node is a column task with inline row-id sets.
    return replace(_TWO_WORKERS, tau_subtree=1, tau_dfs=1)


def _paper_scaled(n_rows: int) -> SystemConfig:
    return _TWO_WORKERS.scaled_to(n_rows)


@dataclass(frozen=True)
class TrainWorkload:
    """One training workload: forest shape, task mix and backend."""

    name: str
    n_trees: int
    tree: TreeConfig
    system: Callable[[int], SystemConfig]
    backend: str
    use_shm: bool


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            "train_subtree_mp", 8, TreeConfig(max_depth=10),
            _subtree_heavy, "mp", True,
        ),
        TrainWorkload(
            "train_column_socket", 4, TreeConfig(max_depth=8),
            _column_only, "socket", False,
        ),
        TrainWorkload(
            "train_hist_socket", 4,
            TreeConfig(max_depth=10, split_mode="hist", max_bins=32),
            _paper_scaled, "socket", False,
        ),
        TrainWorkload(
            "train_mixed_sim", 4, TreeConfig(max_depth=10),
            _paper_scaled, "sim", True,
        ),
    )
}


def run(
    workload: TrainWorkload, seed: int, budget: Budget, tracer: Tracer
) -> Outcome:
    """Measure one training workload within ``budget``."""
    out = Outcome()
    segments_before = shm_segments()
    options = RuntimeOptions(
        message_timeout_seconds=120.0, use_shm=workload.use_shm
    )

    def make_server() -> TreeServer:
        return TreeServer(
            workload.system(T24.n_rows),
            backend=workload.backend,
            runtime_options=options,
        )

    def set_up():
        with tracer.span("datasets.generate"):
            table = shuffled(generate(T24), seed)
        jobs = [
            random_forest_job("rf", workload.n_trees, workload.tree, seed=1)
        ]
        return table, jobs, make_server()

    # Only the last set-up is kept, so that peak memory is one table's.
    setups = []
    for _ in range(SETUP_REPEATS):
        (table, jobs, server), seconds = timed(set_up)
        setups.append(seconds)
    out.end_to_end["setup_s"] = out.median("setup_s", setups)

    # The plain single-worker baseline, and the exactness reference.
    requests = [t for job in jobs for s in job.stages for t in s.trees]
    reference = []
    for i, request in enumerate(requests):
        with tracer.span("core.builder.train_tree"):
            reference.append(train_tree(table, request.config, tree_id=i))

    #: (wall, report) of every correct timed fit, keyed by traced or not.
    fits: dict[bool, list] = {False: [], True: []}

    def fit(index: int) -> None:
        # In a traced run every other fit runs without its span, so the
        # two halves give the tracing overhead within one run.
        traced = tracer.enabled and index % 2 == 1
        out.attempted += 1
        try:
            with tracer.span("TreeServer.fit") if traced else nullcontext():
                report, wall = timed(lambda: server.fit(table, jobs))
        except Exception as error:  # noqa: BLE001 - a failed fit is a result
            out.fail(f"fit raised {type(error).__name__}: {error}")
            return
        trees = report.trees("rf")
        if len(trees) != len(reference) or not all(
            trees_equal(a, b) for a, b in zip(reference, trees)
        ):
            out.fail("forest differs from the serial reference")
        elif index >= 0:  # index -1 is the discarded warm-up
            fits[traced].append((wall, report))

    fit(-1)
    repeat_for(budget, fit)
    if not fits[False]:
        raise RuntimeError(f"{workload.name}: no timed fit succeeded")

    out.end_to_end["train_wall_s"] = out.typical(
        "train_wall_s", [w for w, _ in fits[False]], "lower"
    )

    if tracer.enabled:
        _layers(out, workload, tracer, table, jobs, make_server, fits)
    check_hygiene(out, segments_before)
    return out


def _layers(out, workload, tracer, table, jobs, make_server, fits) -> None:
    """Per-layer numbers of the traced run (see README, 'Per-layer')."""
    pl = out.per_layer
    if not fits[True]:
        raise RuntimeError(f"{workload.name}: no traced fit succeeded")
    traced_wall = typical([w for w, _ in fits[True]])
    pl["trace.overhead_share"] = (
        traced_wall / out.end_to_end["train_wall_s"] - 1.0
    )
    both = fits[False] + fits[True]
    last = both[-1][1]

    serial_s = sum(tracer.durations("core.builder.train_tree"))
    pl["core.builder.serial_s"] = serial_s
    pl["runtime.speedup_vs_serial"] = serial_s / traced_wall

    for name in (
        "column_tasks", "subtree_tasks", "plans_dispatched", "bplan_peak"
    ):
        pl[f"core.master.{name}"] = getattr(last.counters, name)

    # core.kernel and the transport counters: only the process backends
    # return them (summed over workers).  Keys are indexed strictly, so a
    # counter renamed in src/ fails the run instead of reading 0; the
    # simulator's report has no transport section and reports none.
    if workload.backend != "sim":
        transport = last.cluster.transport

        def transport_median(key: str) -> float:
            return statistics.median(r.cluster.transport[key] for _, r in both)

        subtree_s = transport_median("subtree_kernel_s")
        nodes = transport["subtree_nodes_built"]
        pl["core.kernel.subtree_s"] = subtree_s
        pl["core.kernel.gather_s"] = transport_median("subtree_gather_s")
        pl["core.kernel.nodes_built"] = nodes
        if nodes:
            pl["core.kernel.nodes_per_s"] = nodes / subtree_s
        for name in (
            "messages_sent", "bytes_pickled", "coalesced_batches",
            "shm_bytes_mapped",
        ):
            pl[f"runtime.transport.{name}"] = transport[name]
        pl["runtime.transport.bytes_per_message"] = (
            transport["bytes_pickled"] / transport["messages_sent"]
        )

    # runtime: what a fit costs before any real work — a one-split tree.
    startup_job = [decision_tree_job("startup", TreeConfig(max_depth=1))]
    startup = []
    for _ in range(PROBE_REPEATS):
        with tracer.span("runtime.startup_fit"):
            startup.append(
                timed(lambda: make_server().fit(table, startup_job))[1]
            )
    startup_s = statistics.median(startup)
    pl["runtime.startup_s"] = startup_s

    # The fit span's self time as seen from outside: wall minus start-up
    # minus the busiest worker's kernel time (none on the simulator).
    def busiest_worker(report) -> float:
        if workload.backend == "sim":
            return 0.0
        return max(
            w["subtree_kernel_s"] + w["subtree_gather_s"]
            for w in report.cluster.transport["per_worker"].values()
        )

    pl["runtime.residual_s"] = (
        statistics.median(w - busiest_worker(r) for w, r in fits[True])
        - startup_s
    )

    if workload.backend == "sim":
        pl["cluster.events_processed"] = last.cluster.events_processed
        pl["cluster.events_per_s"] = (
            last.cluster.events_processed / traced_wall
        )
        pl["cluster.sim_seconds"] = last.sim_seconds

    _probe_splits(pl, workload, tracer, table, jobs)


def _probe_splits(pl, workload, tracer, table, jobs) -> None:
    """One root column-task round, called from outside: every column
    scanned over all rows (exact), and the hist path's book + summaries.
    """
    y = table.target
    criterion = workload.tree.resolved_criterion(True)
    columns = range(table.n_columns)

    def root_scan() -> None:
        for c in columns:
            spec = table.column_spec(c)
            with tracer.span("core.splits.best_split_for_column"):
                best_split_for_column(
                    c, spec.kind, table.column(c), y, criterion,
                    table.n_classes, spec.n_categories,
                )

    scan_s = statistics.median(
        timed(root_scan)[1] for _ in range(PROBE_REPEATS)
    )
    pl["core.splits.root_scan_s"] = scan_s
    pl["core.splits.root_scan_rows_per_s"] = (
        table.n_rows * table.n_columns / scan_s
    )

    if workload.tree.split_mode != "hist":
        return
    books = []
    for _ in range(PROBE_REPEATS):
        with tracer.span("core.histogram.build_threshold_book"):
            book, seconds = timed(lambda: build_threshold_book(table, jobs))
        books.append(seconds)
    pl["core.histogram.book_build_s"] = statistics.median(books)
    thresholds = book[workload.tree.max_bins]

    def root_hist() -> None:
        for c in columns:
            if table.column_spec(c).kind is not ColumnKind.NUMERIC:
                continue
            t = thresholds[c]
            with tracer.span("core.histogram.root_column"):
                codes = encode_bin_codes(table.column(c), t)
                hist = column_histogram(
                    c, codes, y, len(t) + 1, criterion, table.n_classes
                )
                score_histogram(hist, t, criterion)

    pl["core.histogram.root_hist_s"] = statistics.median(
        timed(root_hist)[1] for _ in range(PROBE_REPEATS)
    )
