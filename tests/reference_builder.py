"""The scalar subtree recursion as it stood before PR 18, frozen as an oracle.

One node per iteration: fancy-index ``y`` and every candidate column per
*node*, search each column with the per-column split functions, route,
push the children.  This was ``repro.core.builder.build_subtree`` +
``find_best_split`` — the reference the level kernel
(:func:`repro.core.kernel.build_subtree`) was introduced against, and
3.5-5.4x slower than it on every measured shape.
``tests/test_builder.py`` holds the kernel to this recursion's outputs,
bit for bit; ``benchmarks/bench_micro_kernels.py`` times the two.

Frozen: do not optimise, do not vectorise, do not route through
``repro.core.kernel``.  The two functions are verbatim but for the name
``reference_build_subtree`` (it was ``build_subtree``, which now names
the kernel) and for reading a node's prediction and impurity off
``NodeStats``, the one node record, where they called the helpers it
replaced.  The node statistics, leaf rules, RNG keys and per-column
scans they call are the production ones — ``best_split_for_column``, one node at a time,
which for a categorical column under a classification criterion is the
one-segment call of the kernel's level scan; the numeric scan
(``reference_numeric_split``) and that categorical scan
(``reference_categorical_classification_split``) have their own oracles
in ``tests/reference_scan.py``.  The one exception is the hist-mode
numeric scan: it is that file's frozen ``reference_binned_split``, not the
production ``best_binned_numeric_split`` (PR 24), so the hist recursion
does not compare production with itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.builder import (
    NodeStats,
    extra_tree_column_order,
    extra_tree_split_rng,
    path_depth,
    sample_candidate_columns,
    should_stop,
    split_is_useful,
)
from repro.core.config import TreeConfig, TreeKind
from repro.core.histogram import bin_indices, column_thresholds, hist_active
from repro.core.splits import (
    CandidateSplit,
    best_split_for_column,
    random_split_for_column,
    route_training_rows,
)
from repro.core.tree import DecisionTree, TreeNode
from repro.data.schema import ColumnKind, ProblemKind
from repro.data.table import DataTable

from .reference_scan import reference_binned_split

#: Empty threshold set: a degenerate hist-mode column offers no candidates.
_NO_THRESHOLDS = np.empty(0)


def find_best_split(
    table: DataTable,
    row_ids: np.ndarray,
    candidate_columns: tuple[int, ...],
    config: TreeConfig,
    path: int,
    thresholds: dict[int, np.ndarray] | None = None,
) -> CandidateSplit | None:
    """Best split across the candidate attributes for one node.

    Decision trees compare the exact per-column bests and break ties toward
    the lower column index.  Extra-trees draw one random column and one
    random condition per node (paper Appendix F), retrying over the
    remaining columns when the draw is degenerate.

    ``thresholds`` switches numeric columns to histogram prefix-cut search
    (``split_mode="hist"``): per-column equi-depth thresholds, computed
    once over the full table, restrict the candidate cuts; statistics stay
    node-local.  Categorical columns are searched exactly either way.
    """
    y = table.target[row_ids]
    criterion = config.resolved_criterion(
        table.problem is ProblemKind.CLASSIFICATION
    )
    n_classes = table.n_classes

    if config.tree_kind is TreeKind.EXTRA:
        for col in extra_tree_column_order(config.seed, path, candidate_columns):
            spec = table.column_spec(col)
            split = random_split_for_column(
                col,
                spec.kind,
                table.column(col)[row_ids],
                y,
                criterion,
                n_classes,
                extra_tree_split_rng(config.seed, path, col),
                spec.n_categories,
            )
            if split is not None:
                return split
        return None

    best: CandidateSplit | None = None
    for col in candidate_columns:
        spec = table.column_spec(col)
        if thresholds is not None and spec.kind is ColumnKind.NUMERIC:
            t = thresholds.get(col, _NO_THRESHOLDS)
            split = reference_binned_split(
                col,
                bin_indices(table.column(col)[row_ids], t),
                t,
                y,
                criterion,
                n_classes,
            )
        else:
            split = best_split_for_column(
                col,
                spec.kind,
                table.column(col)[row_ids],
                y,
                criterion,
                n_classes,
                spec.n_categories,
            )
        if split is None:
            continue
        if best is None or split.sort_key() < best.sort_key():
            best = split
    return best


def reference_build_subtree(
    table: DataTable,
    config: TreeConfig,
    row_ids: np.ndarray,
    candidate_columns: tuple[int, ...] | None = None,
    root_path: int = 1,
    thresholds: dict[int, np.ndarray] | None = None,
) -> TreeNode:
    """Build the subtree ``Delta_x`` rooted at heap path ``root_path``.

    Iterative (explicit stack) so unbounded-depth trees are safe.  This is
    exactly the computation a subtree-task performs on its key worker.
    ``thresholds`` (hist mode) restricts numeric split search to the
    global equi-depth candidate cuts — see :func:`find_best_split`.
    """
    if candidate_columns is None:
        candidate_columns = sample_candidate_columns(config, table.n_columns)
    criterion = config.resolved_criterion(
        table.problem is ProblemKind.CLASSIFICATION
    )

    root_holder: list[TreeNode] = []
    # Stack entries: (row_ids, path, attach) where attach places the built
    # node into its parent (or the root holder).
    stack: list[tuple[np.ndarray, int, tuple[TreeNode, str] | None]] = [
        (np.asarray(row_ids, dtype=np.int64), root_path, None)
    ]
    while stack:
        ids, path, attach = stack.pop()
        y = table.target[ids]
        stats = NodeStats.of_labels(y, table.problem, table.n_classes)
        node = TreeNode(
            node_id=path,
            depth=path_depth(path),
            n_rows=stats.n_rows,
            prediction=stats.prediction(),
        )
        if attach is None:
            root_holder.append(node)
        else:
            parent, side = attach
            setattr(parent, side, node)

        if should_stop(stats, node.depth, config):
            continue
        split = find_best_split(
            table, ids, candidate_columns, config, path, thresholds
        )
        if not split_is_useful(split, stats.impurity(criterion), config):
            continue
        assert split is not None
        node.split = split
        go_left = route_training_rows(table.column(split.column)[ids], split)
        stack.append((ids[go_left], 2 * path, (node, "left")))
        stack.append((ids[~go_left], 2 * path + 1, (node, "right")))
    return root_holder[0]



def reference_train_tree(
    table: DataTable,
    config: TreeConfig,
    tree_id: int = 0,
    row_ids: np.ndarray | None = None,
) -> DecisionTree:
    """``repro.core.builder.train_tree`` on the recursion above: same row
    default, same full-table hist thresholds, same wrapping."""
    if row_ids is None:
        row_ids = np.arange(table.n_rows, dtype=np.int64)
    thresholds = (
        column_thresholds(table, config.max_bins)
        if hist_active(config)
        else None
    )
    root = reference_build_subtree(
        table, config, row_ids, thresholds=thresholds
    )
    return DecisionTree(
        root=root,
        problem=table.problem,
        n_classes=table.n_classes,
        tree_id=tree_id,
    )
