"""Tree-building helpers and the serial trainer.

What every builder of a tree — the level kernel in
:mod:`repro.core.kernel`, the master's column-task arbitration, the
PLANET baseline — must agree on lives here: heap-path node ids, the
per-node RNG keys, candidate-column and bootstrap sampling, node label
statistics and the leaf / usefulness rules.  :func:`train_tree` trains one
complete tree on a single machine with the kernel; it is the ground truth
of the exactness invariant (distributed training returns exactly this
tree), the serial trainer of the paper's "fairness of implementation"
experiment and the deep forest's fast local backend.

Node ids are *heap paths*: the root is 1, node ``p``'s children are ``2p``
and ``2p + 1``.  The path determines the depth (``path.bit_length() - 1``)
and, for extra-trees, seeds the per-node RNG — which is how distributed and
serial training draw identical random splits regardless of task order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.schema import ProblemKind
from ..data.table import DataTable
from .config import TreeConfig, TreeKind
from .histogram import column_thresholds, encode_bin_codes, hist_active
from .impurity import Impurity, classification_impurity, variance
from .splits import CandidateSplit, label_codes
from .tree import DecisionTree


def path_depth(path: int) -> int:
    """Depth of a heap-path node id (root path 1 has depth 0)."""
    return path.bit_length() - 1


def node_rng(seed: int, path: int) -> np.random.Generator:
    """Per-node RNG derived from the tree seed and the node's heap path.

    Deterministic in ``(seed, path)`` only — independent of the order nodes
    are processed in, which is what lets the distributed engine reproduce
    extra-tree splits bit-for-bit.
    """
    return np.random.default_rng([seed, path])


def extra_tree_column_order(
    seed: int, path: int, candidate_columns: tuple[int, ...]
) -> list[int]:
    """Column try-order for one extra-tree node.

    The node samples one random column; if its values are degenerate
    (constant / all missing) the next column in this order is tried.  The
    order depends only on ``(seed, path)`` so the master and any worker
    compute the same sequence independently.
    """
    order = node_rng(seed, path).permutation(len(candidate_columns))
    return [candidate_columns[int(i)] for i in order]


def extra_tree_split_rng(seed: int, path: int, column: int) -> np.random.Generator:
    """RNG for one extra-tree random split draw.

    Keyed by ``(seed, path, column)`` — not a shared stream — so a remote
    column-holding worker reproduces the exact draw without coordination.
    """
    return np.random.default_rng([seed, path, column, 0xE7])


def sample_candidate_columns(
    config: TreeConfig, n_columns: int
) -> tuple[int, ...]:
    """Draw the per-tree candidate attribute set ``C``.

    A sorted tuple for determinism.  For ``ColumnSampling.ALL`` this is all
    columns; random forests use ``sqrt(|A|)`` columns per tree (paper
    Section VIII); Table VIII(c,d) sweeps an explicit ratio.
    """
    size = config.n_candidate_columns(n_columns)
    if size >= n_columns:
        return tuple(range(n_columns))
    rng = np.random.default_rng([config.seed, 0xC0])
    cols = rng.choice(n_columns, size=size, replace=False)
    return tuple(sorted(int(c) for c in cols))


def bootstrap_row_ids(seed: int, n_rows: int) -> np.ndarray:
    """Deterministic bootstrap sample for optional row bagging.

    Both the master and workers can regenerate this from the tree seed, so
    bootstrap row ids never travel in task-plan messages.
    """
    rng = np.random.default_rng([seed, 0xB0])
    return np.sort(rng.integers(0, n_rows, size=n_rows, dtype=np.int64))


@dataclass(frozen=True)
class NodeStats:
    """Sufficient statistics of ``Y`` over a node's rows ``D_x``.

    Classification keeps the integer class-count vector ``counts``;
    regression keeps the ``(n_rows, y_sum, y_sq_sum)`` triple.  Either
    gives the node's prediction (Appendix D) and its own impurity, the
    baseline of the gain check.  ``is_pure`` is exact — every label equal
    — because a float variance test could disagree with it and break the
    exactness invariant.  One record serves every builder: the kernel
    makes it from its level-wide class counts, a worker ships it in
    ``ColumnResultMsg`` and ``SplitDoneMsg``, and the master and PLANET
    read it.
    """

    n_rows: int
    is_pure: bool
    counts: np.ndarray | None = None
    y_sum: float = 0.0
    y_sq_sum: float = 0.0

    @classmethod
    def of_labels(
        cls, y: np.ndarray, problem: ProblemKind, n_classes: int
    ) -> "NodeStats":
        """The statistics of one node's labels (class codes or targets)."""
        n = int(y.size)
        if problem is ProblemKind.CLASSIFICATION:
            counts = np.bincount(label_codes(y), minlength=n_classes)
            return cls(n, bool(n > 0 and counts.max() == n), counts=counts)
        return cls(
            n,
            bool(n > 0 and np.all(y == y[0])),
            y_sum=float(y.sum()),
            y_sq_sum=float((y * y).sum()),
        )

    def prediction(self) -> np.ndarray | float:
        """PMF vector (classification) or mean (regression)."""
        if self.counts is not None:
            return self.counts / max(1, self.n_rows)
        return self.y_sum / self.n_rows if self.n_rows else 0.0

    def impurity(self, criterion: Impurity) -> float:
        """The node's own impurity under ``criterion``."""
        if self.counts is not None:
            return classification_impurity(
                self.counts.astype(np.float64), criterion
            )
        return variance(float(self.n_rows), self.y_sum, self.y_sq_sum)


def should_stop(
    stats: NodeStats, depth: int, config: TreeConfig
) -> bool:
    """Leaf conditions (1)-(3) from the paper's Section II."""
    if stats.is_pure:
        return True
    if stats.n_rows <= config.tau_leaf:
        return True
    if config.max_depth is not None and depth >= config.max_depth:
        return True
    return False


def split_is_useful(
    split: CandidateSplit | None,
    parent_impurity: float,
    config: TreeConfig,
) -> bool:
    """Whether a candidate split justifies creating children.

    Exact trees demand a strict impurity decrease; extra-trees split whenever
    a valid random condition exists (both children non-empty).
    """
    if split is None:
        return False
    if split.n_left == 0 or split.n_right == 0:
        return False
    if config.tree_kind is TreeKind.EXTRA:
        return True
    return split.score < parent_impurity - config.min_impurity_decrease


def train_tree(
    table: DataTable,
    config: TreeConfig,
    tree_id: int = 0,
    row_ids: np.ndarray | None = None,
) -> DecisionTree:
    """Train one complete tree serially — the conventional exact algorithm.

    ``row_ids`` restricts training to a row subset (bootstrap bagging or a
    pre-split training fold); by default all rows are used, as in the paper.

    In hist mode (``config.split_mode="hist"``) the equi-depth thresholds
    are computed here from the **full** table — even when ``row_ids``
    restricts training to a subset — matching the distributed engine,
    whose threshold book is built once per run before any task runs — and
    the table is binned against them once.
    """
    # Imported here, not at module level: kernel.py builds on this module.
    from .kernel import build_subtree

    if row_ids is None:
        row_ids = np.arange(table.n_rows, dtype=np.int64)
    columns, thresholds = table.columns, None
    if hist_active(config):
        thresholds = column_thresholds(table, config.max_bins)
        columns = [
            encode_bin_codes(v, thresholds[c]) if c in thresholds else v
            for c, v in enumerate(columns)
        ]
    root = build_subtree(
        table.schema, columns, table.target, config, row_ids,
        thresholds=thresholds,
    )
    return DecisionTree(
        root=root,
        problem=table.problem,
        n_classes=table.n_classes,
        tree_id=tree_id,
    )
