"""Transport safety: every protocol message survives pickling bit-for-bit.

The multiprocess runtime ships the typed messages of ``repro.core.tasks``
through ``multiprocessing`` queues, which pickle them.  This suite pins
that property independently of any runtime: every message dataclass (and
every dataclass that rides inside one — parent refs, tree contexts, node
stats, candidate splits) round-trips ``pickle -> unpickle`` into a deeply
equal object, numpy payloads included.

An exhaustiveness check keeps the list honest: adding a new ``*Msg``
dataclass to ``tasks.py`` without registering it in
``MESSAGE_DATACLASSES`` (and giving it a factory here) fails the suite.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from repro.cluster.machine import MachineStats
from repro.core import tasks
from repro.core.builder import NodeStats
from repro.core.config import TreeConfig, TreeKind
from repro.core.histogram import best_binned_numeric_split
from repro.core.splits import CandidateSplit
from repro.core.tasks import MESSAGE_DATACLASSES
from repro.data.schema import ColumnKind, ProblemKind
from repro.data.shm import ShmSlice
from repro.runtime.process import FabricStats


def deep_equal(a, b) -> bool:
    """Structural equality that treats numpy arrays by value and dtype."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        equal_nan = np.issubdtype(a.dtype, np.floating)
        return bool(np.array_equal(a, b, equal_nan=equal_nan))
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return all(
            deep_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, dict):
        return set(a) == set(b) and all(deep_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            deep_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


# ----------------------------------------------------------------------
# instance factories (one representative, payload-rich value per class)
# ----------------------------------------------------------------------
CTX = tasks.TreeContext(
    tree_uid=7,
    config=TreeConfig(max_depth=5, tree_kind=TreeKind.EXTRA, seed=13),
    candidate_columns=(0, 2, 5),
    bootstrap=True,
    n_table_rows=1000,
)
PARENT = tasks.ParentRef(task=(7, 2), side=1, worker=3)
SPLIT_NUM = CandidateSplit(
    column=2,
    kind=ColumnKind.NUMERIC,
    score=0.125,
    n_left=40,
    n_right=60,
    threshold=1.5,
    n_missing=3,
    missing_to_left=False,
)
SPLIT_CAT = CandidateSplit(
    column=5,
    kind=ColumnKind.CATEGORICAL,
    score=0.25,
    n_left=10,
    n_right=90,
    left_categories=frozenset({1, 4}),
    right_categories=frozenset({0, 2, 3}),
)
#: What a hist-mode column task answers with: the worker's own scoring of
#: its complete node-local histogram — a plain ``CandidateSplit``.
SPLIT_HIST = best_binned_numeric_split(
    0,
    np.array([0, 0, 1, 2, -1, 2, 1, 0]),
    np.array([-0.5, 0.75]),
    np.array([0, 0, 1, 1, 1, 1, 0, 0]),
    TreeConfig().resolved_criterion(True),
    3,
)
STATS_CLS = NodeStats.of_labels(
    np.array([0, 1, 1, 2, 2, 2]), ProblemKind.CLASSIFICATION, 3
)
STATS_REG = NodeStats.of_labels(
    np.array([0.5, 1.25, -2.0]), ProblemKind.REGRESSION, 0
)

MESSAGE_FACTORIES: dict[type, object] = {
    tasks.ColumnPlanMsg: tasks.ColumnPlanMsg(
        task=(7, 2), columns=(0, 2), parent=PARENT, ctx=CTX, n_rows=100,
        depth=1,
    ),
    tasks.SubtreePlanMsg: tasks.SubtreePlanMsg(
        task=(7, 3), parent=PARENT, ctx=CTX, n_rows=50, depth=1,
        local_columns=(0,), server_map={2: (2,), 4: (5,)},
    ),
    tasks.ColumnResultMsg: tasks.ColumnResultMsg(
        task=(7, 2), worker=3, splits=[SPLIT_HIST, None, SPLIT_CAT],
        stats=STATS_CLS,
    ),
    tasks.SplitConfirmMsg: tasks.SplitConfirmMsg(task=(7, 2), split=SPLIT_CAT),
    tasks.SplitDoneMsg: tasks.SplitDoneMsg(
        task=(7, 2), left_stats=STATS_CLS, right_stats=STATS_REG
    ),
    tasks.ExpectFetchesMsg: tasks.ExpectFetchesMsg(task=(7, 2), side=0, count=2),
    tasks.RowRequestMsg: tasks.RowRequestMsg(
        parent_task=(7, 1), side=1, requester=4, tag=("column", (7, 3))
    ),
    tasks.RowResponseMsg: tasks.RowResponseMsg(
        tag=("key", (7, 3)),
        row_ids=np.array([5, 9, 11, 200_000_000_000], dtype=np.int64),
    ),
    tasks.RowResponseShmMsg: tasks.RowResponseShmMsg(
        tag=("column", (7, 3)),
        ref=ShmSlice(
            segment="repro-shm-cafe01-w2-s0", offset=4096, count=700
        ),
    ),
    tasks.ColumnRequestMsg: tasks.ColumnRequestMsg(
        task=(7, 3), columns=(2, 5), parent=None, ctx=CTX, key_worker=1
    ),
    tasks.ColumnResponseMsg: tasks.ColumnResponseMsg(
        task=(7, 3),
        server=2,
        columns=(2, 5),
        arrays=[
            np.array([0.5, np.nan, -1.75]),
            np.array([3, -1, 0], dtype=np.int32),
        ],
    ),
    tasks.SubtreeResultMsg: tasks.SubtreeResultMsg(
        task=(7, 3),
        worker=1,
        subtree={"node_id": 3, "depth": 1, "n_rows": 50, "children": []},
        n_nodes=5,
    ),
    tasks.TaskDeleteMsg: tasks.TaskDeleteMsg(task=(7, 2)),
    tasks.RevokeTreeMsg: tasks.RevokeTreeMsg(tree_uid=7),
    tasks.TreeCompletedSync: tasks.TreeCompletedSync(
        job_name="rf", tree_index=4, tree={"root": {"node_id": 1}}
    ),
    tasks.MasterFailoverMsg: tasks.MasterFailoverMsg(
        new_master_id=9, min_live_uid=12
    ),
    tasks.ShutdownMsg: tasks.ShutdownMsg(reason="done"),
    tasks.WorkerStatsMsg: tasks.WorkerStatsMsg(
        worker=3,
        outstanding={"column_tasks": 0, "delegate_stores": 0},
        stats=MachineStats(
            mem_task_peak=4096,
            mem_base_bytes=1 << 20,
            messages_handled=17,
            messages_sent=21,
            ops_executed=1e6,
            bytes_by_kind={"column_result": 2048},
            shm_bytes_mapped=3 << 20,
        ),
        fabric=FabricStats(bytes_pickled=1 << 16, coalesced_batches=9),
    ),
    tasks.WorkerErrorMsg: tasks.WorkerErrorMsg(
        worker=2, error="ValueError: boom", traceback="Traceback ..."
    ),
    tasks.WorkerHelloMsg: tasks.WorkerHelloMsg(
        worker_id=2,
        protocol_version=tasks.SOCKET_PROTOCOL_VERSION,
        table_hash="deadbeef" * 8,
        host_id="host-a/0123abcd",
        pid=4711,
    ),
    tasks.WorkerWelcomeMsg: tasks.WorkerWelcomeMsg(
        ok=True,
        n_workers=3,
        held_columns=(0, 2),
        host_map={0: "host-a/0123abcd", 1: "host-a/0123abcd", 2: "host-b/ffee"},
        shm_prefix="repro-shm-cafe01",
        cost=None,
    ),
}

#: Dataclasses that travel *inside* messages, pinned with the same rigor.
SUPPORT_FACTORIES: dict[type, object] = {
    tasks.ParentRef: PARENT,
    tasks.TreeContext: CTX,
    NodeStats: STATS_CLS,
    CandidateSplit: SPLIT_NUM,
    tasks.RootRows: tasks.RootRows(ctx=CTX),
    tasks.PlanEntry: tasks.PlanEntry(
        task=(7, 2), n_rows=100, depth=1, parent=PARENT, ctx=CTX,
        is_subtree=False,
    ),
    tasks.TaskCounters: tasks.TaskCounters(
        column_tasks=3, extra={"extra_retries": 2}
    ),
    ShmSlice: ShmSlice(
        segment="repro-shm-cafe01-w1-s3", offset=0, count=1, dtype="int64"
    ),
}

ALL_FACTORIES = {**MESSAGE_FACTORIES, **SUPPORT_FACTORIES}


def test_registry_is_exhaustive():
    """Every ``*Msg``-shaped dataclass in tasks.py is registered and covered."""
    declared = set(MESSAGE_DATACLASSES)
    in_module = {
        obj
        for _, obj in inspect.getmembers(tasks, inspect.isclass)
        if dataclasses.is_dataclass(obj)
        and obj.__module__ == tasks.__name__
        and (obj.__name__.endswith("Msg") or obj.__name__.endswith("Sync"))
    }
    assert in_module == declared, (
        "MESSAGE_DATACLASSES out of sync with tasks.py: "
        f"missing={sorted(c.__name__ for c in in_module - declared)} "
        f"stale={sorted(c.__name__ for c in declared - in_module)}"
    )
    assert declared == set(MESSAGE_FACTORIES), (
        "round-trip factories out of sync with MESSAGE_DATACLASSES: "
        f"uncovered={sorted(c.__name__ for c in declared - set(MESSAGE_FACTORIES))}"
    )


@pytest.mark.parametrize(
    "cls", sorted(ALL_FACTORIES, key=lambda c: c.__name__),
    ids=lambda c: c.__name__,
)
def test_pickle_round_trip(cls):
    original = ALL_FACTORIES[cls]
    clone = pickle.loads(pickle.dumps(original))
    assert type(clone) is cls
    assert deep_equal(original, clone), f"{cls.__name__} did not round-trip"


def test_column_result_has_one_wire_shape():
    """A column task answers with ``CandidateSplit`` s in both split modes:
    four fields, no per-bin summary field, and nothing of numpy in a
    hist-mode answer — the message's only array is the node's class-count
    vector in ``stats``, as in exact mode."""
    names = [f.name for f in dataclasses.fields(tasks.ColumnResultMsg)]
    assert names == ["task", "worker", "splits", "stats"]
    msg = MESSAGE_FACTORIES[tasks.ColumnResultMsg]
    assert type(SPLIT_HIST) is CandidateSplit and msg.splits[0] is SPLIT_HIST
    assert (SPLIT_HIST.threshold, SPLIT_HIST.n_missing) == (-0.5, 1)
    assert b"numpy" not in pickle.dumps(msg.splits)
    assert b"numpy" in pickle.dumps(msg.stats)  # the check is not vacuous


def test_deep_equal_detects_numpy_differences():
    """The comparison helper itself must not be vacuous."""
    a = tasks.RowResponseMsg(tag=("c", (1, 1)), row_ids=np.array([1, 2]))
    b = tasks.RowResponseMsg(tag=("c", (1, 1)), row_ids=np.array([1, 3]))
    c = tasks.RowResponseMsg(
        tag=("c", (1, 1)), row_ids=np.array([1, 2], dtype=np.int32)
    )
    assert not deep_equal(a, b)
    assert not deep_equal(a, c)  # same values, different dtype
    assert deep_equal(a, pickle.loads(pickle.dumps(a)))


def test_root_rows_materialize_after_round_trip():
    """A pickled RootRows regenerates the identical deterministic row set."""
    original = tasks.RootRows(ctx=CTX)
    clone = pickle.loads(pickle.dumps(original))
    np.testing.assert_array_equal(
        original.materialize(), clone.materialize()
    )
