"""Level-synchronous (breadth-first) subtree training kernel.

:func:`build_subtree` is the one subtree builder: a subtree-task's key
worker calls it on ``D_x`` (paper Fig. 3(b)) and
:func:`~repro.core.builder.train_tree` calls it on the whole table.  It
processes the whole frontier of a subtree at once (the breadth-first
scheme of the RF-training literature, see PAPERS.md) and keeps only the
bookkeeping: the frontier, one gather of ``y`` and of each candidate
column per *level* into node-contiguous segments, per-node label
statistics (one ``bincount`` for a classification level), the
cross-column ``(score, column)`` arbitration, routing, the per-node
draws of extra-trees, and the :class:`~repro.core.splits.CountScratch`
its scans reuse.

The split search is :func:`scan_columns`, the one place that maps
(column kind, target kind, split mode) to an Appendix-B scan.  The
kernel calls it once per level, a column task once on its one node
(``starts = [0, |I_x|]``), and
:func:`~repro.core.splits.best_split_for_column` once on one column and
one node — one implementation, one set of bits:

* case 1, numeric: :func:`~repro.core.splits.numeric_classification_scan`
  and :func:`~repro.core.splits.numeric_regression_scan`, one call per
  column, or in hist mode one :func:`~repro.core.histogram.binned_scan`
  over every coded column at once, codes which the caller made once and
  which the kernel also routes on
  (:func:`~repro.core.histogram.route_bin_codes`): hist mode reads no raw
  numeric value and bins nothing;
* case 3, categorical attribute and target: one
  :func:`~repro.core.splits.categorical_classification_scan` over every
  such column at once, one count table per number of categories;
* case 2, categorical attribute and numeric target, still runs per node
  (:func:`~repro.core.splits.best_categorical_regression_split`) on the
  node's slice of the level gather, which is exactly the arrays a column
  task sees: its float sums and its order by category mean are not yet
  computed level-wide.

Why each scan gives a segment the bits of a one-node scan is stated next
to it (:mod:`repro.core.splits`, :mod:`repro.core.histogram`).  Here,
node ids are the heap paths of the per-node recursion and every per-node
RNG draw keys off ``(seed, path)`` / ``(seed, path, column)``, so
extra-trees reproduce the per-node draws in any traversal order; across
columns the strictly smaller ``(score, column)`` key wins, i.e. ties go
to the lower column index.  The parity sweep in ``tests/test_builder.py``
pins the kernel against the per-node recursion kept as the oracle in
``tests/reference_builder.py``.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..data.schema import ColumnKind, ColumnSpec, ProblemKind, TableSchema
from .builder import (
    NodeStats,
    extra_tree_column_order,
    extra_tree_split_rng,
    path_depth,
    sample_candidate_columns,
    should_stop,
    split_is_useful,
)
from .config import TreeConfig, TreeKind
from .histogram import binned_scan, route_bin_codes
from .impurity import Impurity
from .splits import (
    CandidateSplit,
    CountScratch,
    best_categorical_regression_split,
    categorical_classification_scan,
    numeric_classification_scan,
    numeric_regression_scan,
    random_split_for_column,
    route_training_rows,
)
from .tree import TreeNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.machine import MachineStats


class _ObjectEntry:
    """Per-segment split objects of one column (case 2, run per node)."""

    __slots__ = ("column", "splits")

    def __init__(self, column: int, splits: list[CandidateSplit | None]):
        self.column = column
        self.splits = splits

    def key_for(self, segment: int) -> tuple[float, int] | None:
        split = self.splits[segment]
        return None if split is None else split.sort_key()

    def split_for(self, segment: int) -> CandidateSplit | None:
        return self.splits[segment]


def scan_columns(
    columns: Sequence[int],
    values: Sequence[np.ndarray],
    y: np.ndarray,
    starts: np.ndarray,
    specs: Sequence[ColumnSpec],
    criterion: Impurity,
    n_classes: int,
    thresholds: dict[int, np.ndarray] | None = None,
    scratch: CountScratch | None = None,
) -> list:
    """The best split of each column at each node: the one map from
    (column kind, target kind, split mode) to an Appendix-B scan.

    Node ``i`` is rows ``starts[i]:starts[i + 1]`` of ``y`` (``int64``
    class codes under a classification criterion, targets otherwise) and
    of ``values[k]``, what column ``columns[k]`` (``specs[k]``) is scanned
    on: its bucket codes against ``thresholds[column]`` when
    ``thresholds`` is given and it is numeric, its values otherwise.
    Returns one entry per column, in order, whose ``key_for(i)`` /
    ``split_for(i)`` give node ``i``'s ``(score, column)`` key and split,
    ``None`` for none.  ``scratch`` holds the numeric and binned
    classification scans' class counts.
    """
    entries: list = [None] * len(columns)
    coded: dict[int, np.ndarray] = {}  # position -> its thresholds
    tabled: dict[int, int] = {}  # position -> its category count
    for k, (col, spec, v) in enumerate(zip(columns, specs, values)):
        if spec.kind is ColumnKind.NUMERIC and thresholds is not None:
            coded[k] = thresholds[col]
        elif spec.kind is ColumnKind.NUMERIC and criterion.is_classification:
            entries[k] = numeric_classification_scan(
                col, v, y, starts, criterion, n_classes, scratch
            )
        elif spec.kind is ColumnKind.NUMERIC:
            entries[k] = numeric_regression_scan(col, v, y, starts)
        elif criterion.is_classification:
            tabled[k] = spec.n_categories
        else:
            # Categorical regression stays per node: its category sums
            # are float ``bincount(weights=)`` accumulations in row order
            # and its candidate order a sort by category mean, neither of
            # which survives pooling a level.
            entries[k] = _ObjectEntry(
                col,
                [
                    best_categorical_regression_split(
                        col, v[lo:hi], y[lo:hi], spec.n_categories
                    )
                    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist())
                ],
            )
    # Columns of one family are scanned together, as one stack each.
    for scan, group in (
        (lambda *args: binned_scan(*args, scratch), coded),
        (categorical_classification_scan, tabled),
    ):
        if group:
            found = scan(
                [columns[k] for k in group],
                [values[k] for k in group],
                y,
                starts,
                list(group.values()),
                criterion,
                n_classes,
            )
            for k, entry in zip(group, found):
                entries[k] = entry
    return entries


def build_subtree(
    schema: TableSchema,
    columns: Mapping[int, np.ndarray] | Sequence[np.ndarray],
    y: np.ndarray,
    config: TreeConfig,
    row_ids: np.ndarray,
    *,
    candidate_columns: tuple[int, ...] | None = None,
    root_path: int = 1,
    host_stats: MachineStats | None = None,
    thresholds: dict[int, np.ndarray] | None = None,
) -> TreeNode:
    """Build the subtree ``Delta_x`` rooted at heap path ``root_path``.

    Exactly the computation a subtree-task performs on its key worker,
    one whole frontier per iteration, on the rows ``row_ids`` of ``y``
    and of ``columns``, which maps each candidate column to the array its
    scan reads (:func:`scan_columns`): its bucket codes when
    ``thresholds`` (hist mode: each numeric column's global equi-depth
    candidate cuts) is given and the column is numeric, which routing
    then reads too, its values otherwise.  ``host_stats``, a host's
    record when given, accumulates the build's wall seconds
    (``subtree_kernel_s``) and the slice of them spent fancy-indexing
    ``y`` and the columns (``subtree_gather_s``).
    """
    start = time.perf_counter()
    if candidate_columns is None:
        candidate_columns = sample_candidate_columns(config, schema.n_columns)
    is_clf = schema.problem is ProblemKind.CLASSIFICATION
    criterion = config.resolved_criterion(is_clf)
    n_classes = schema.n_classes
    is_extra = config.tree_kind is TreeKind.EXTRA
    specs = [schema.columns[col] for col in candidate_columns]
    gather_s = 0.0
    scratch = CountScratch()  # reused by every numeric scan of the subtree

    root_holder: list[TreeNode] = []

    def attach_node(node: TreeNode, attach) -> None:
        if attach is None:
            root_holder.append(node)
        else:
            parent, side = attach
            setattr(parent, side, node)

    # Frontier entries: (row ids, heap path, attach) — one whole level.
    frontier: list = [(np.asarray(row_ids, dtype=np.int64), root_path, None)]
    while frontier:
        m = len(frontier)
        sizes = np.fromiter(
            (entry[0].size for entry in frontier), dtype=np.int64, count=m
        )
        starts = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        level_rows = np.concatenate([entry[0] for entry in frontier])
        seg_all = np.repeat(np.arange(m, dtype=np.int64), sizes)

        tick = time.perf_counter()
        y_lvl = y[level_rows]
        gather_s += time.perf_counter() - tick

        # -- per-node label statistics, one pass for the level ----------
        if is_clf:
            y_codes_lvl = y_lvl.astype(np.int64)
            counts = np.bincount(
                seg_all * n_classes + y_codes_lvl,
                minlength=m * n_classes,
            ).reshape(m, n_classes)
            maxes = counts.max(axis=1)
            stats_list = [
                NodeStats(int(n), bool(n > 0 and top == n), counts=row)
                for n, top, row in zip(sizes, maxes, counts)
            ]
        else:
            stats_list = [
                NodeStats.of_labels(y_lvl[s0:s1], schema.problem, n_classes)
                for s0, s1 in zip(starts[:-1], starts[1:])
            ]

        nodes: list[TreeNode] = []
        stopped = np.zeros(m, dtype=bool)
        for i, (ids, path, attach) in enumerate(frontier):
            stats = stats_list[i]
            node = TreeNode(
                node_id=path,
                depth=path_depth(path),
                n_rows=stats.n_rows,
                prediction=stats.prediction(),
            )
            attach_node(node, attach)
            nodes.append(node)
            stopped[i] = should_stop(stats, node.depth, config)

        act_idx = np.nonzero(~stopped)[0]
        if act_idx.size == 0:
            frontier = []
            continue
        a = int(act_idx.size)
        act_sizes = sizes[act_idx]
        act_starts = np.zeros(a + 1, dtype=np.int64)
        np.cumsum(act_sizes, out=act_starts[1:])
        keep = ~stopped[seg_all]
        act_rows = level_rows[keep]
        y_act = y_lvl[keep]

        # -- best split per active node ---------------------------------
        next_frontier: list = []
        if is_extra:
            # Extra-trees draw one random column per node; the draws are
            # keyed by (seed, path, column) so the scalar helpers run
            # per node on the level-gathered slices unchanged.
            for j in range(a):
                i = int(act_idx[j])
                _, path, _ = frontier[i]
                s0, s1 = int(act_starts[j]), int(act_starts[j + 1])
                ids_seg = act_rows[s0:s1]
                y_seg = y_act[s0:s1]
                split = None
                split_values = None
                for col in extra_tree_column_order(
                    config.seed, path, candidate_columns
                ):
                    spec = schema.columns[col]
                    tick = time.perf_counter()
                    vals = columns[col][ids_seg]
                    gather_s += time.perf_counter() - tick
                    cand = random_split_for_column(
                        col,
                        spec.kind,
                        vals,
                        y_seg,
                        criterion,
                        n_classes,
                        extra_tree_split_rng(config.seed, path, col),
                        spec.n_categories,
                    )
                    if cand is not None:
                        split, split_values = cand, vals
                        break
                if not split_is_useful(split, 0.0, config):
                    continue
                node = nodes[i]
                node.split = split
                go_left = route_training_rows(split_values, split)
                next_frontier.append(
                    (ids_seg[go_left], 2 * path, (node, "left"))
                )
                next_frontier.append(
                    (ids_seg[~go_left], 2 * path + 1, (node, "right"))
                )
            frontier = next_frontier
            continue

        # What a scan reads as labels: class codes (cast once per level)
        # under a classification criterion, the targets otherwise.
        y_scan = y_act
        if criterion.is_classification:
            y_scan = y_codes_lvl[keep] if is_clf else y_act.astype(np.int64)
        tick = time.perf_counter()
        level = {col: columns[col][act_rows] for col in candidate_columns}
        gather_s += time.perf_counter() - tick
        entries = scan_columns(
            candidate_columns,
            list(level.values()),
            y_scan,
            act_starts,
            specs,
            criterion,
            n_classes,
            thresholds,
            scratch,
        )

        for j in range(a):
            i = int(act_idx[j])
            _, path, _ = frontier[i]
            best_entry = None
            best_key = None
            for entry in entries:  # candidate_columns order
                key = entry.key_for(j)
                if key is None:
                    continue
                if best_key is None or key < best_key:
                    best_key, best_entry = key, entry
            split = None if best_entry is None else best_entry.split_for(j)
            if not split_is_useful(
                split, stats_list[i].impurity(criterion), config
            ):
                continue
            node = nodes[i]
            node.split = split
            s0, s1 = int(act_starts[j]), int(act_starts[j + 1])
            v = level[split.column][s0:s1]
            if split.kind is ColumnKind.NUMERIC and thresholds is not None:
                go_left = route_bin_codes(v, thresholds[split.column], split)
            else:
                go_left = route_training_rows(v, split)
            ids_seg = act_rows[s0:s1]
            next_frontier.append((ids_seg[go_left], 2 * path, (node, "left")))
            next_frontier.append(
                (ids_seg[~go_left], 2 * path + 1, (node, "right"))
            )
        frontier = next_frontier

    if host_stats is not None:
        host_stats.subtree_gather_s += gather_s
        host_stats.subtree_kernel_s += time.perf_counter() - start
    return root_holder[0]
