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

The split search is one function per Appendix-B case, called once per
column per level, whose one-segment call is the per-node scan a column
task runs — one implementation, one set of bits:

* case 1, numeric: :func:`~repro.core.splits.numeric_classification_scan`
  and :func:`~repro.core.splits.numeric_regression_scan`, or in hist mode
  one :func:`~repro.core.histogram.binned_scan` per level over every
  candidate column's bucket codes at once (a column task's call is the
  one-node case), codes which the caller made once and which the kernel
  also routes on (:func:`~repro.core.histogram.route_bin_codes`): hist
  mode reads no raw numeric value and bins nothing;
* case 3, categorical attribute and target:
  :func:`~repro.core.splits.categorical_classification_scan`;
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
from typing import TYPE_CHECKING

import numpy as np

from ..data.schema import ColumnKind, ProblemKind
from ..data.table import DataTable
from .builder import (
    NodeStats,
    extra_tree_column_order,
    extra_tree_split_rng,
    parent_impurity_of,
    path_depth,
    sample_candidate_columns,
    should_stop,
    split_is_useful,
)
from .config import TreeConfig, TreeKind
from .histogram import binned_scan, route_bin_codes
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


def build_subtree(
    table: DataTable,
    config: TreeConfig,
    row_ids: np.ndarray,
    candidate_columns: tuple[int, ...] | None = None,
    root_path: int = 1,
    host_stats: MachineStats | None = None,
    binned: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
) -> TreeNode:
    """Build the subtree ``Delta_x`` rooted at heap path ``root_path``.

    Exactly the computation a subtree-task performs on its key worker,
    one whole frontier per iteration.  ``binned`` (hist mode) maps every
    numeric column to its ``(thresholds, codes)``: the global equi-depth
    candidate cuts and the bucket code of each of ``table``'s rows, which
    the numeric split search and routing read instead of the column's
    values; ``host_stats``, a host's record when given, accumulates the build's
    wall seconds (``subtree_kernel_s``) and the slice of them spent
    fancy-indexing ``y`` / column values out of the table
    (``subtree_gather_s``).
    """
    start = time.perf_counter()
    if candidate_columns is None:
        candidate_columns = sample_candidate_columns(config, table.n_columns)
    is_clf = table.problem is ProblemKind.CLASSIFICATION
    criterion = config.resolved_criterion(is_clf)
    n_classes = table.n_classes
    is_extra = config.tree_kind is TreeKind.EXTRA
    target = table.target
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
        y_lvl = target[level_rows]
        gather_s += time.perf_counter() - tick

        # -- per-node label statistics, one pass for the level ----------
        stats_list: list[NodeStats] = []
        if is_clf:
            y_codes_lvl = y_lvl.astype(np.int64)
            counts = np.bincount(
                seg_all * n_classes + y_codes_lvl,
                minlength=m * n_classes,
            ).reshape(m, n_classes)
            maxes = counts.max(axis=1)
            for i in range(m):
                n = int(sizes[i])
                row = counts[i]
                stats_list.append(
                    NodeStats(
                        n,
                        (row / max(n, 1)).astype(np.float64),
                        bool(n > 0 and maxes[i] == n),
                        counts=row,
                    )
                )
        else:
            for i in range(m):
                n = int(sizes[i])
                y_seg = y_lvl[starts[i] : starts[i + 1]]
                mean = float(y_seg.mean()) if n else 0.0
                pure = bool(n > 0 and np.all(y_seg == y_seg[0]))
                stats_list.append(NodeStats(n, mean, pure))

        nodes: list[TreeNode] = []
        stopped = np.zeros(m, dtype=bool)
        for i, (ids, path, attach) in enumerate(frontier):
            stats = stats_list[i]
            node = TreeNode(
                node_id=path,
                depth=path_depth(path),
                n_rows=stats.n_rows,
                prediction=stats.prediction,
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
                    spec = table.column_spec(col)
                    tick = time.perf_counter()
                    vals = table.column(col)[ids_seg]
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

        column_cache: dict[int, np.ndarray] = {}
        entries: list = []
        coded: dict[int, int] = {}  # hist-mode column -> its entry's index
        # What a scan reads as labels: class codes (cast once per level)
        # under a classification criterion, the targets otherwise.
        y_scan = y_act
        if criterion.is_classification:
            y_scan = y_codes_lvl[keep] if is_clf else y_act.astype(np.int64)
        for col in candidate_columns:
            spec = table.column_spec(col)
            is_coded = spec.kind is ColumnKind.NUMERIC and binned is not None
            tick = time.perf_counter()
            v = (binned[col][1] if is_coded else table.column(col))[act_rows]
            gather_s += time.perf_counter() - tick
            column_cache[col] = v
            if is_coded:
                coded[col] = len(entries)
                entries.append(None)  # scanned with the level's others
            elif spec.kind is ColumnKind.NUMERIC and criterion.is_classification:
                entries.append(
                    numeric_classification_scan(
                        col, v, y_scan, act_starts, criterion, n_classes,
                        scratch,
                    )
                )
            elif spec.kind is ColumnKind.NUMERIC:
                entries.append(
                    numeric_regression_scan(col, v, y_act, act_starts)
                )
            elif criterion.is_classification:
                entries.append(
                    categorical_classification_scan(
                        col, v, y_scan, act_starts, spec.n_categories,
                        criterion, n_classes,
                    )
                )
            else:
                # Categorical regression stays per node: its category
                # sums are float ``bincount(weights=)`` accumulations in
                # row order and its candidate order a sort by category
                # mean, neither of which survives pooling a level.
                splits = [
                    best_categorical_regression_split(
                        col,
                        v[act_starts[j] : act_starts[j + 1]],
                        y_act[act_starts[j] : act_starts[j + 1]],
                        spec.n_categories,
                    )
                    for j in range(a)
                ]
                entries.append(_ObjectEntry(col, splits))
        if coded:
            scans = binned_scan(
                tuple(coded),
                [column_cache[col] for col in coded],
                y_scan,
                act_starts,
                [binned[col][0] for col in coded],
                criterion,
                n_classes,
                scratch,
            )
            for index, scan in zip(coded.values(), scans):
                entries[index] = scan

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
            s0, s1 = int(act_starts[j]), int(act_starts[j + 1])
            stats = stats_list[i]
            parent_imp = parent_impurity_of(
                y_act[s0:s1], criterion, n_classes, counts=stats.counts
            )
            if not split_is_useful(split, parent_imp, config):
                continue
            node = nodes[i]
            node.split = split
            v = column_cache[split.column][s0:s1]
            if split.kind is ColumnKind.NUMERIC and binned is not None:
                go_left = route_bin_codes(v, binned[split.column][0], split)
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
