"""Level-synchronous batch traversal of a compiled forest.

All rows of a batch descend **all trees together**, one vectorized step per
tree *level*: there is no Python loop over rows, nodes or trees on the
descent, only over levels (and over fixed-size row tiles).

The forest's nodes form one table (:attr:`FlatForest.stacked` plus a few
index arrays derived here, once per model).  A *slot* is one (tree, row)
pair holding the global id of the node it currently sits at; every slot
starts at its tree's root.  One step gathers, per slot, the node's split
column, the row's value in that column, the node's threshold (or, for
categorical nodes, the direction-table entry of the row's code), and from
those the child to move to.  A slot that must not move — it is at a leaf,
or its split value is missing (NaN / code ``-1``) or was unseen in the
node's ``D_x`` during training (paper Appendix D) — is sent to *itself*.

That makes the step idempotent on settled slots, and two things follow:

* ``max_depth`` truncation is just running ``min(max_depth, forest depth)``
  steps: a slot moves at most one level per step, so after ``d`` steps it
  sits exactly where node descent with ``max_depth=d`` stops;
* settled slots may stay in the working set at no cost to correctness.
  They leave it by one rule: when fewer than half of the current slots
  moved in a step, the set is compacted to those that did.  Either way
  the next step's set is at most twice the slots that just moved, so total
  work stays within 2x the slots still descending — which is what keeps a
  deep, skewed forest (few rows reach the deepest levels) from paying
  ``depth x all slots``.

The answer of a slot is the prediction stored at its final node.  Per row
they are added **in tree order** and divided once, the same float additions
in the same order as ``ForestModel.predict_proba``; the parity tests in
``tests/test_serving.py`` enforce bit-identical output against node descent
across problem kinds, categorical columns, missing values and all
truncation depths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..data.schema import ProblemKind
from ..data.table import DataTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from .compiler import FlatForest

#: Rows descended together.  A constant, not an option: it only has to keep
#: the per-slot working arrays (trees x tile entries) cache-resident while
#: amortising the ~10 NumPy calls of a step, and measured throughput stays
#: within ~20 % of its best from 1 k to 8 k rows a tile on forests of 1, 8
#: and 64 trees (docs/SERVING.md).  Tiling also bounds working memory, so
#: no ``(trees, n_rows)`` array ever exists.
TILE_ROWS = 2048

#: ``child`` has three entries per node, chosen by these move codes.
_STAY, _LEFT, _RIGHT = 0, 1, 2
#: Move code of a ``cat_dir`` entry, indexed by it: CAT_RIGHT (0) ->
#: _RIGHT, CAT_LEFT (1) -> _LEFT, CAT_STOP (-1, i.e. the last) -> _STAY.
_CAT_MOVE = np.array([_RIGHT, _LEFT, _STAY], dtype=np.int8)


class BatchPredictor:
    """Vectorized prediction over a compiled forest.

    The public surface mirrors :class:`~repro.ensemble.forest.ForestModel`
    (``predict`` / ``predict_proba`` / ``predict_values`` with optional
    ``max_depth``) so callers can swap engines, plus ``*_matrix`` variants
    for raw serving batches (dense row-major ``float64``, categorical codes
    float-encoded, ``-1.0`` or NaN for missing).
    """

    def __init__(self, forest: "FlatForest") -> None:
        self.forest = forest
        #: Times the working set was compacted.  A diagnostic the tests
        #: read; unsynchronised, so only indicative under concurrent calls.
        self.compactions = 0

        # The bulk of the table is the forest's own memory (possibly a
        # shared-memory image); only index-sized arrays are derived.
        stacked = forest.stacked
        self._threshold = stacked["threshold"]
        self._predictions = stacked["predictions"]
        self._cat_dir = stacked["cat_dir"]

        node_counts = forest.node_counts
        self._roots = np.cumsum([0] + node_counts[:-1], dtype=np.intp)
        first_cat = np.cumsum([0] + forest.cat_counts[:-1], dtype=np.intp)
        self._depth = forest.max_depth()

        feature = stacked["feature"].astype(np.intp)
        #: Columns a batch must have (one past the last split column).
        self.n_columns = int(feature.max()) + 1
        leaf = feature < 0
        feature[leaf] = 0  # any valid column: a leaf's moves all stay
        self._feature = feature

        ids = np.arange(feature.size, dtype=np.intp)
        node_base = np.repeat(self._roots, node_counts)
        child = np.empty((feature.size, 3), dtype=np.intp)
        child[:, _STAY] = ids
        child[:, _LEFT] = np.where(leaf, ids, node_base + stacked["left"])
        child[:, _RIGHT] = np.where(leaf, ids, node_base + stacked["right"])
        self._child = child.reshape(-1)

        # Leaves and numeric nodes have cat_len 0, so no value is "in
        # range" there; float so the range test needs no cast of the value.
        self._cat_len = stacked["cat_len"].astype(np.float64)
        self._is_cat = self._cat_len > 0
        self._has_cat = bool(self._is_cat.any())
        self._cat_offset = np.repeat(first_cat, node_counts) + stacked[
            "cat_offset"
        ]

    @property
    def problem(self) -> ProblemKind:
        """Problem kind of the compiled model."""
        return self.forest.problem

    @property
    def n_classes(self) -> int:
        """Target cardinality (0 for regression)."""
        return self.forest.n_classes

    # ------------------------------------------------------------------
    # the kernel
    # ------------------------------------------------------------------
    def _descend(self, block: np.ndarray, levels: int) -> np.ndarray:
        """Final global node id of every (tree, row) slot of one tile.

        ``block`` is a C-contiguous ``float64[n, n_columns]``; the result
        is ``intp[n_trees * n]``, tree-major.
        """
        n, n_columns = block.shape
        if n_columns < self.n_columns:
            # The flat gather below would read into the next row.
            raise IndexError(
                f"batch has {n_columns} columns, the model splits on "
                f"column {self.n_columns - 1}"
            )
        values = block.reshape(-1)
        node = np.repeat(self._roots, n)
        row = np.tile(
            np.arange(0, n * n_columns, n_columns, dtype=np.intp),
            self._roots.size,
        )
        final = None  # all slots' nodes, once `node` has been narrowed
        active = None  # positions in `final` of the slots still in `node`
        for _ in range(levels):
            value = values.take(row + self._feature.take(node))
            threshold = self._threshold.take(node)
            # NaN values and the NaN thresholds of leaves and categorical
            # nodes fail both comparisons: the move stays _STAY.
            move = (value <= threshold).view(np.int8)
            move += (value > threshold).view(np.int8) << 1
            if self._has_cat:
                at_cat = np.flatnonzero(self._is_cat.take(node))
                if at_cat.size:
                    self._route_categorical(at_cat, node, value, move)
            target = self._child.take(node * 3 + move)
            moved = target != node
            n_moved = np.count_nonzero(moved)
            if n_moved == 0:
                break
            node = target
            if 2 * n_moved < node.size:
                self.compactions += 1
                if final is None:
                    final, active = node, np.flatnonzero(moved)
                else:
                    final[active] = node
                    active = active[moved]
                node = node[moved]
                row = row[moved]
        if final is None:
            return node
        final[active] = node
        return final

    def _route_categorical(
        self,
        at_cat: np.ndarray,
        node: np.ndarray,
        value: np.ndarray,
        move: np.ndarray,
    ) -> None:
        """Set ``move`` for the slots (``at_cat``) at categorical nodes.

        A code is looked up only if it truncates into the node's direction
        table; NaN, ``-1`` and out-of-range codes fail the float range test
        and keep ``_STAY`` without ever being cast to an integer.
        """
        code = value.take(at_cat)
        cat_node = node.take(at_cat)
        known = (code > -1.0) & (code < self._cat_len.take(cat_node))
        direction = self._cat_dir.take(
            self._cat_offset.take(cat_node[known])
            + code[known].astype(np.intp)
        )
        move[at_cat[known]] = _CAT_MOVE[direction]

    def _average(
        self,
        blocks: Callable[[int, int], np.ndarray],
        n_rows: int,
        max_depth: int | None,
    ) -> np.ndarray:
        """Tree-averaged predictions, ``float64[n_rows, output_width]``.

        ``blocks(start, stop)`` yields the row-major ``float64`` tile of
        rows ``start:stop``.
        """
        levels = (
            self._depth if max_depth is None else min(max_depth, self._depth)
        )
        n_trees = self.forest.n_trees
        out = np.zeros((n_rows, self._predictions.shape[1]), dtype=np.float64)
        for start in range(0, n_rows, TILE_ROWS):
            acc = out[start : start + TILE_ROWS]
            final = self._descend(blocks(start, start + len(acc)), levels)
            # Tree order, one tree at a time: the float additions of
            # ForestModel.predict_proba, so every output bit agrees.
            for per_tree in final.reshape(n_trees, len(acc)):
                acc += self._predictions.take(per_tree, axis=0)
        out /= n_trees
        return out

    def _average_table(
        self, table: DataTable, max_depth: int | None
    ) -> np.ndarray:
        columns = table.columns

        def blocks(start: int, stop: int) -> np.ndarray:
            block = np.empty((stop - start, len(columns)), dtype=np.float64)
            for i, column in enumerate(columns):
                block[:, i] = column[start:stop]
            return block

        return self._average(blocks, table.n_rows, max_depth)

    def _average_matrix(
        self, matrix: np.ndarray, max_depth: int | None
    ) -> np.ndarray:
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.ndim != 2:
            raise ValueError(f"expected a 2-D row matrix, got shape {mat.shape}")
        return self._average(
            lambda start, stop: np.ascontiguousarray(mat[start:stop]),
            len(mat),
            max_depth,
        )

    def _require(self, problem: ProblemKind, method: str) -> None:
        if self.forest.problem is not problem:
            raise ValueError(f"{method} requires a {problem.value} model")

    # ------------------------------------------------------------------
    # table-level entry points (drop-in for ForestModel)
    # ------------------------------------------------------------------
    def predict_proba(
        self, table: DataTable, max_depth: int | None = None
    ) -> np.ndarray:
        """Average class PMFs over all trees, shape ``(n_rows, n_classes)``."""
        self._require(ProblemKind.CLASSIFICATION, "predict_proba")
        return self._average_table(table, max_depth)

    def predict_values(
        self, table: DataTable, max_depth: int | None = None
    ) -> np.ndarray:
        """Average regression predictions over all trees, ``(n_rows,)``."""
        self._require(ProblemKind.REGRESSION, "predict_values")
        return self._average_table(table, max_depth)[:, 0]

    def predict(
        self, table: DataTable, max_depth: int | None = None
    ) -> np.ndarray:
        """Predicted labels (classification) or values (regression)."""
        if self.forest.problem is ProblemKind.CLASSIFICATION:
            return np.argmax(self.predict_proba(table, max_depth), axis=1)
        return self.predict_values(table, max_depth)

    # ------------------------------------------------------------------
    # row-matrix entry points (prediction server requests)
    # ------------------------------------------------------------------
    def predict_proba_matrix(
        self, matrix: np.ndarray, max_depth: int | None = None
    ) -> np.ndarray:
        """Class PMFs for a dense ``(n_rows, n_columns)`` row matrix."""
        self._require(ProblemKind.CLASSIFICATION, "predict_proba")
        return self._average_matrix(matrix, max_depth)

    def predict_matrix(
        self, matrix: np.ndarray, max_depth: int | None = None
    ) -> np.ndarray:
        """Labels or values for a dense ``(n_rows, n_columns)`` row matrix."""
        if self.forest.problem is ProblemKind.CLASSIFICATION:
            return np.argmax(
                self.predict_proba_matrix(matrix, max_depth), axis=1
            )
        return self._average_matrix(matrix, max_depth)[:, 0]
