"""Flat-array trees and the one kernel every model predicts with.

A trained :class:`~repro.core.tree.DecisionTree` is a graph of Python
objects — ideal for the master's graft-subtrees-onto-nodes protocol, hostile
to prediction (every row descent chases pointers and re-enters the
interpreter per node).  :func:`compile_tree` freezes a tree into parallel
NumPy arrays indexed by node id:

* ``feature[i]`` — split column of node ``i`` (``-1`` for leaves);
* ``numeric[i]`` / ``threshold[i]`` — ordinal split condition;
* ``cat_offset[i]`` / ``cat_len[i]`` — slice of the shared ``cat_dir``
  direction table for categorical splits (see below);
* ``left[i]`` / ``right[i]`` — child node ids (``-1`` for leaves);
* ``depth[i]`` — absolute node depth, for ``d_max`` truncation;
* ``predictions[i]`` — the node's PMF row (classification) or mean
  (regression), because *every* TreeServer node carries a prediction
  (paper Appendix D) and descents may stop anywhere.

Nodes are laid out in **breadth-first order**, so node ids are sorted by
depth; the kernel's ``max_depth`` argument stops every descent at depth
``d`` (paper Appendix D: one ``d_max`` tree contains every shallower one).

A :class:`FlatForest` owns each of those arrays **once for the whole
forest** (``stacked``: the member trees' arrays end to end, ids still
tree-local) and its trees are slice views of them.  That block is what the
kernel gathers from and what ``serving.shm_model`` publishes, so a fleet
worker's bulk arrays are views of the shared image, never copies.

Categorical splits keep the paper's stop-at-node semantics exactly: the
direction table maps a category code to ``LEFT`` (in ``S_l``), ``RIGHT``
(seen in the node's ``D_x`` but not in ``S_l``) or ``STOP`` (missing code
``-1`` or a value unseen at this node during training).

**The kernel.**  :class:`BatchPredictor` descends all rows of a batch
through **all trees together**, one vectorized step per tree *level*: there
is no Python loop over rows, nodes or trees on the descent, only over
levels (and over fixed-size row tiles).  A *slot* is one (tree, row) pair
holding the global id of the node it currently sits at; every slot starts
at its tree's root.  One step gathers, per slot, the node's split column,
the row's value in that column, the node's threshold (or, for categorical
nodes, the direction-table entry of the row's code), and from those the
child to move to.  A slot that must not move — it is at a leaf, or its
split value is missing (NaN / code ``-1``) or was unseen in the node's
``D_x`` during training — is sent to *itself*.

That makes the step idempotent on settled slots, and two things follow:

* ``max_depth`` truncation is just running ``min(max_depth, forest depth)``
  steps: a slot moves at most one level per step, so after ``d`` steps it
  sits exactly where a per-row descent with ``max_depth=d`` stops;
* settled slots may stay in the working set at no cost to correctness.
  They leave it by one rule: when fewer than half of the current slots
  moved in a step, the set is compacted to those that did.  Either way
  the next step's set is at most twice the slots that just moved, so total
  work stays within 2x the slots still descending — which is what keeps a
  deep, skewed forest (few rows reach the deepest levels) from paying
  ``depth x all slots``.

The answer of a slot is the prediction stored at its final node.  Per row
they are added **in tree order** — and divided once for a forest, scaled
by the learning rate for boosting — so the float additions are those of a
per-tree loop.  ``DecisionTree``, ``ForestModel``, ``GBDTModel`` and the
deep forest all predict through :func:`compiled_predictor`; the parity
tests hold them, bit for bit, to the frozen per-row oracle in
``tests/reference_predict.py`` across problem kinds, categorical columns,
missing and unseen values and every truncation depth.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..data.schema import ColumnKind, ProblemKind
from ..data.table import DataTable

if TYPE_CHECKING:  # pragma: no cover - the model classes import this module
    from .tree import DecisionTree, TreeNode

#: Direction codes stored in :attr:`FlatTree.cat_dir`.
CAT_LEFT: int = 1
CAT_RIGHT: int = 0
CAT_STOP: int = -1

#: Documented tolerance of quantized mode (``quantize=True``): per-row PMF
#: (or regression) values differ from exact float64 mode by at most this,
#: *except* for rows whose split-column value lies within one float32 ulp
#: of a numeric threshold — float32 rounding may route such a row to the
#: sibling subtree.  For continuous features the measure of that boundary
#: band is ~1e-7 relative, so agreement in practice is ≈ 100%; the pinned
#: regression test asserts label agreement >= :data:`QUANTIZE_MIN_AGREEMENT`.
QUANTIZE_ATOL: float = 1e-6
QUANTIZE_MIN_AGREEMENT: float = 0.995

#: Array attributes of a :class:`FlatTree`, in the one order that byte
#: accounting, fingerprints and the shm image all use.  Every array has one
#: entry per node except ``cat_dir`` (one per direction-table slot).
TREE_ARRAYS = (
    "feature",
    "numeric",
    "threshold",
    "left",
    "right",
    "depth",
    "predictions",
    "cat_offset",
    "cat_len",
    "cat_dir",
)


@dataclass
class FlatTree:
    """One decision tree as parallel arrays (breadth-first node order)."""

    feature: np.ndarray  # int32[n]; -1 marks a leaf
    numeric: np.ndarray  # bool[n]; split kind of the node's column
    threshold: np.ndarray  # float64[n]; NaN for non-numeric nodes
    left: np.ndarray  # int32[n]; -1 for leaves
    right: np.ndarray  # int32[n]; -1 for leaves
    depth: np.ndarray  # int32[n]; sorted ascending (BFS layout)
    predictions: np.ndarray  # float64[n, k] (k = n_classes, or 1 for regression)
    cat_offset: np.ndarray  # int64[n]; -1 for non-categorical nodes
    cat_len: np.ndarray  # int32[n]; 0 for non-categorical nodes
    cat_dir: np.ndarray  # int8[total]; CAT_LEFT / CAT_RIGHT / CAT_STOP
    problem: ProblemKind
    n_classes: int = 0
    tree_id: int = 0
    #: Compact dtypes (float32 thresholds/predictions, int16 ids); see
    #: :data:`QUANTIZE_ATOL` for the accuracy contract.
    quantized: bool = False

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the compiled tree."""
        return int(self.feature.size)

    @property
    def max_depth(self) -> int:
        """Depth of the deepest node (root is depth 0)."""
        return int(self.depth[-1]) if self.depth.size else 0

    def nbytes(self) -> int:
        """Total bytes of all arrays (serving memory accounting)."""
        return int(sum(getattr(self, attr).nbytes for attr in TREE_ARRAYS))

    def quantized_copy(self) -> "FlatTree":
        """This tree with compact array dtypes (opt-in ``quantize=True``).

        Thresholds and predictions narrow to ``float32``; the small id
        arrays (``feature``, ``depth``, ``cat_len``) narrow to ``int16``.
        Node ids (``left`` / ``right``) stay ``int32`` — trees can exceed
        32k nodes.  Shrinks the shm image roughly 2x and lets the kernel's
        comparisons run twice as many lanes per SIMD register.  Accuracy
        contract: see :data:`QUANTIZE_ATOL`.
        """
        if self.quantized:
            return self
        int16_max = int(np.iinfo(np.int16).max)
        if self.feature.size and int(self.feature.max()) >= int16_max:
            raise ValueError(
                "cannot quantize: split column index exceeds int16 range"
            )
        if self.cat_len.size and int(self.cat_len.max()) >= int16_max:
            raise ValueError(
                "cannot quantize: categorical code range exceeds int16"
            )
        # Ceiling-quantize thresholds: the smallest float32 >= the exact
        # float64 threshold.  Split points are data values, so rows with
        # value == threshold are common; a plain cast rounds down half
        # the time and flips every such row to the right child.  Rounding
        # up keeps ``v <= t`` true for all v <= t — only values inside
        # the sub-ulp interval (t, t32] can mis-route.
        threshold32 = self.threshold.astype(np.float32)
        rounded_down = threshold32.astype(np.float64) < self.threshold
        threshold32[rounded_down] = np.nextafter(
            threshold32[rounded_down], np.float32(np.inf)
        )
        return FlatTree(
            feature=self.feature.astype(np.int16),
            numeric=self.numeric.copy(),
            threshold=threshold32,
            left=self.left.copy(),
            right=self.right.copy(),
            depth=self.depth.astype(np.int16),
            predictions=self.predictions.astype(np.float32),
            cat_offset=self.cat_offset.copy(),
            cat_len=self.cat_len.astype(np.int16),
            cat_dir=self.cat_dir.copy(),
            problem=self.problem,
            n_classes=self.n_classes,
            tree_id=self.tree_id,
            quantized=True,
        )


def unstack_trees(
    stacked: dict[str, np.ndarray],
    node_counts: list[int],
    cat_counts: list[int],
    tree_ids: list[int],
    problem: ProblemKind,
    n_classes: int,
    quantized: bool,
) -> list[FlatTree]:
    """Member trees as slice views of a forest's ``stacked`` arrays."""
    trees = []
    node_lo = cat_lo = 0
    for n_nodes, n_cats, tree_id in zip(node_counts, cat_counts, tree_ids):
        fields = {
            attr: stacked[attr][node_lo : node_lo + n_nodes]
            for attr in TREE_ARRAYS
            if attr != "cat_dir"
        }
        fields["cat_dir"] = stacked["cat_dir"][cat_lo : cat_lo + n_cats]
        trees.append(
            FlatTree(
                problem=problem,
                n_classes=n_classes,
                tree_id=tree_id,
                quantized=quantized,
                **fields,
            )
        )
        node_lo += n_nodes
        cat_lo += n_cats
    return trees


@dataclass
class FlatForest:
    """A compiled ensemble: one :class:`FlatTree` per member tree.

    Construction copies the given trees' arrays into ``stacked`` and
    replaces ``trees`` with views of it; pass ``stacked`` (with trees
    already viewing it, see :func:`unstack_trees`) to adopt existing
    memory instead, as ``serving.shm_model`` does for a mapped image.
    """

    trees: list[FlatTree]
    problem: ProblemKind
    n_classes: int = 0
    #: Every :data:`TREE_ARRAYS` attribute of all member trees end to end,
    #: in tree order; node ids and ``cat_offset`` stay tree-local.
    stacked: dict[str, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.trees:
            raise ValueError("a compiled forest needs at least one tree")
        if self.stacked is None:
            self.stacked = {
                attr: np.concatenate([getattr(t, attr) for t in self.trees])
                for attr in TREE_ARRAYS
            }
            self.trees = unstack_trees(
                self.stacked,
                self.node_counts,
                self.cat_counts,
                [t.tree_id for t in self.trees],
                self.problem,
                self.n_classes,
                self.trees[0].quantized,
            )

    @property
    def n_trees(self) -> int:
        """Ensemble size."""
        return len(self.trees)

    @property
    def node_counts(self) -> list[int]:
        """Nodes per member tree: where each starts in ``stacked``."""
        return [t.n_nodes for t in self.trees]

    @property
    def cat_counts(self) -> list[int]:
        """``cat_dir`` slots per member tree."""
        return [int(t.cat_dir.size) for t in self.trees]

    @property
    def quantized(self) -> bool:
        """Whether member trees carry compact quantized arrays."""
        return self.trees[0].quantized

    @property
    def output_width(self) -> int:
        """Columns of the per-row output block (``n_classes`` or 1)."""
        return self.trees[0].predictions.shape[1]

    def total_nodes(self) -> int:
        """Total node count across all compiled trees."""
        return sum(t.n_nodes for t in self.trees)

    def max_depth(self) -> int:
        """Deepest node depth across member trees."""
        return max(t.max_depth for t in self.trees)

    def nbytes(self) -> int:
        """Total bytes of all member trees' arrays."""
        return sum(t.nbytes() for t in self.trees)

    def quantized_copy(self) -> "FlatForest":
        """This forest with every member tree quantized (no-op if already)."""
        if self.quantized:
            return self
        return FlatForest(
            trees=[t.quantized_copy() for t in self.trees],
            problem=self.problem,
            n_classes=self.n_classes,
        )


def compile_tree(tree: "DecisionTree", quantize: bool = False) -> FlatTree:
    """Flatten one trained tree into :class:`FlatTree` arrays.

    ``quantize=True`` opts into compact dtypes
    (:meth:`FlatTree.quantized_copy`) within :data:`QUANTIZE_ATOL`.
    """
    nodes: list[TreeNode] = list(tree.root.breadth_first())
    n = len(nodes)
    index = {id(node): i for i, node in enumerate(nodes)}

    width = tree.n_classes if tree.problem is ProblemKind.CLASSIFICATION else 1
    feature = np.full(n, -1, dtype=np.int32)
    numeric = np.zeros(n, dtype=bool)
    threshold = np.full(n, np.nan, dtype=np.float64)
    left = np.full(n, -1, dtype=np.int32)
    right = np.full(n, -1, dtype=np.int32)
    depth = np.empty(n, dtype=np.int32)
    predictions = np.zeros((n, width), dtype=np.float64)
    cat_offset = np.full(n, -1, dtype=np.int64)
    cat_len = np.zeros(n, dtype=np.int32)
    cat_chunks: list[np.ndarray] = []
    cat_total = 0

    for i, node in enumerate(nodes):
        depth[i] = node.depth
        pred = node.prediction
        if tree.problem is ProblemKind.CLASSIFICATION:
            row = np.asarray(pred, dtype=np.float64)
            if row.shape != (width,):
                raise ValueError(
                    f"node {node.node_id}: PMF shape {row.shape} != ({width},)"
                )
            predictions[i] = row
        else:
            predictions[i, 0] = float(pred)
        split = node.split
        if split is None:
            continue
        assert node.left is not None and node.right is not None
        feature[i] = split.column
        left[i] = index[id(node.left)]
        right[i] = index[id(node.right)]
        if split.kind is ColumnKind.NUMERIC:
            numeric[i] = True
            assert split.threshold is not None
            threshold[i] = split.threshold
        else:
            seen_left = split.left_categories or frozenset()
            seen_right = split.right_categories or frozenset()
            table_len = max(seen_left | seen_right) + 1
            table = np.full(table_len, CAT_STOP, dtype=np.int8)
            table[list(seen_left)] = CAT_LEFT
            table[list(seen_right)] = CAT_RIGHT
            cat_offset[i] = cat_total
            cat_len[i] = table_len
            cat_chunks.append(table)
            cat_total += table_len

    cat_dir = (
        np.concatenate(cat_chunks)
        if cat_chunks
        else np.empty(0, dtype=np.int8)
    )
    flat = FlatTree(
        feature=feature,
        numeric=numeric,
        threshold=threshold,
        left=left,
        right=right,
        depth=depth,
        predictions=predictions,
        cat_offset=cat_offset,
        cat_len=cat_len,
        cat_dir=cat_dir,
        problem=tree.problem,
        n_classes=tree.n_classes,
        tree_id=tree.tree_id,
    )
    return flat.quantized_copy() if quantize else flat


def compile_forest(model, quantize: bool = False) -> FlatForest:
    """Compile anything with ``.trees`` (a forest or boosting model), or a
    single ``DecisionTree`` as a 1-forest.

    Problem kind and output width are the member trees' own: a binary
    boosting model's trees are regression trees.
    """
    trees = getattr(model, "trees", [model])
    return FlatForest(
        trees=[compile_tree(t, quantize=quantize) for t in trees],
        problem=trees[0].problem,
        n_classes=trees[0].n_classes,
    )


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

#: A batch for the kernel: ``(blocks, feature, n_rows)``, where
#: ``blocks(start, stop)`` is the C-contiguous ``float64`` tile of rows
#: ``start:stop`` and ``feature[node]`` the tile column node splits on.
Batch = tuple[Callable[[int, int], np.ndarray], np.ndarray, int]


class BatchPredictor:
    """Vectorized prediction over a compiled forest.

    The table entry points (``predict`` / ``predict_proba`` /
    ``predict_values`` / ``raw_scores``, optional ``max_depth``) are what
    the model classes delegate to; the ``*_matrix`` variants take raw
    serving batches (dense row-major ``float64``, categorical codes
    float-encoded, ``-1.0`` or NaN for missing).
    """

    def __init__(self, forest: FlatForest) -> None:
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
        #: The columns some node splits on: all a table tile copies.
        self._split_columns = np.unique(feature[~leaf])
        feature[leaf] = 0  # any valid column: a leaf's moves all stay
        self._feature = feature
        #: ``feature`` as positions in ``_split_columns`` (table tiles);
        #: leaves land on position 0, itself a split column.
        self._split_feature = np.searchsorted(self._split_columns, feature)

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
    def _descend(
        self, block: np.ndarray, levels: int, feature: np.ndarray
    ) -> np.ndarray:
        """Final global node id of every (tree, row) slot of one tile.

        ``block`` is a C-contiguous ``float64[n, columns]`` and
        ``feature[node]`` the block column a node splits on; the result is
        ``intp[n_trees * n]``, tree-major.
        """
        n, n_columns = block.shape
        values = block.reshape(-1)
        node = np.repeat(self._roots, n)
        row = np.tile(
            np.arange(n, dtype=np.intp) * n_columns, self._roots.size
        )
        final = None  # all slots' nodes, once `node` has been narrowed
        active = None  # positions in `final` of the slots still in `node`
        for _ in range(levels):
            value = values.take(row + feature.take(node))
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

    def _add_trees(
        self,
        out: np.ndarray,
        batch: Batch,
        max_depth: int | None,
        scale: float | None = None,
    ) -> np.ndarray:
        """Add every tree's prediction (times ``scale``) into ``out``,
        ``float64[n_rows, output_width]``, in tree order."""
        blocks, feature, _ = batch
        levels = (
            self._depth if max_depth is None else min(max_depth, self._depth)
        )
        n_trees = self.forest.n_trees
        for start in range(0, len(out), TILE_ROWS):
            acc = out[start : start + TILE_ROWS]
            final = self._descend(
                blocks(start, start + len(acc)), levels, feature
            )
            # Tree order, one tree at a time: the float additions of a
            # per-tree loop, so every output bit agrees with it.
            for per_tree in final.reshape(n_trees, len(acc)):
                values = self._predictions.take(per_tree, axis=0)
                acc += values if scale is None else scale * values
        return out

    def _average(self, batch: Batch, max_depth: int | None) -> np.ndarray:
        """Tree-averaged predictions, ``float64[n_rows, output_width]``."""
        out = np.zeros(
            (batch[2], self._predictions.shape[1]), dtype=np.float64
        )
        self._add_trees(out, batch, max_depth)
        out /= self.forest.n_trees
        return out

    def _table_batch(self, table: DataTable) -> Batch:
        """Tiles of a typed table, holding only its split columns."""
        columns = [table.columns[c] for c in self._split_columns]

        def blocks(start: int, stop: int) -> np.ndarray:
            block = np.empty((stop - start, len(columns)), dtype=np.float64)
            for i, column in enumerate(columns):
                block[:, i] = column[start:stop]
            return block

        return blocks, self._split_feature, table.n_rows

    def _matrix_batch(self, matrix: np.ndarray) -> Batch:
        """Tiles of a dense row matrix, every column kept in place."""
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.ndim != 2:
            raise ValueError(
                f"expected a 2-D row matrix, got shape {mat.shape}"
            )
        if mat.shape[1] < self.n_columns:
            # The flat gather would read into the next row.
            raise IndexError(
                f"batch has {mat.shape[1]} columns, the model splits on "
                f"column {self.n_columns - 1}"
            )
        return (
            lambda start, stop: np.ascontiguousarray(mat[start:stop]),
            self._feature,
            len(mat),
        )

    def _require(self, problem: ProblemKind, method: str) -> None:
        if self.forest.problem is not problem:
            raise ValueError(f"{method} requires a {problem.value} model")

    # ------------------------------------------------------------------
    # table-level entry points (what the model classes call)
    # ------------------------------------------------------------------
    def predict_proba(
        self, table: DataTable, max_depth: int | None = None
    ) -> np.ndarray:
        """Average class PMFs over all trees, shape ``(n_rows, n_classes)``."""
        self._require(ProblemKind.CLASSIFICATION, "predict_proba")
        return self._average(self._table_batch(table), max_depth)

    def predict_values(
        self, table: DataTable, max_depth: int | None = None
    ) -> np.ndarray:
        """Average regression predictions over all trees, ``(n_rows,)``."""
        self._require(ProblemKind.REGRESSION, "predict_values")
        return self._average(self._table_batch(table), max_depth)[:, 0]

    def predict(
        self, table: DataTable, max_depth: int | None = None
    ) -> np.ndarray:
        """Predicted labels (classification) or values (regression)."""
        if self.forest.problem is ProblemKind.CLASSIFICATION:
            return np.argmax(self.predict_proba(table, max_depth), axis=1)
        return self.predict_values(table, max_depth)

    def raw_scores(
        self, table: DataTable, base: float, learning_rate: float
    ) -> np.ndarray:
        """Boosted margins, ``(n_rows,)``: ``base`` plus ``learning_rate``
        times each regression tree's value, added in tree order."""
        self._require(ProblemKind.REGRESSION, "raw_scores")
        out = np.full((table.n_rows, 1), base, dtype=np.float64)
        return self._add_trees(
            out, self._table_batch(table), None, learning_rate
        )[:, 0]

    # ------------------------------------------------------------------
    # row-matrix entry points (prediction server requests)
    # ------------------------------------------------------------------
    def predict_proba_matrix(
        self, matrix: np.ndarray, max_depth: int | None = None
    ) -> np.ndarray:
        """Class PMFs for a dense ``(n_rows, n_columns)`` row matrix."""
        self._require(ProblemKind.CLASSIFICATION, "predict_proba")
        return self._average(self._matrix_batch(matrix), max_depth)

    def predict_matrix(
        self, matrix: np.ndarray, max_depth: int | None = None
    ) -> np.ndarray:
        """Labels or values for a dense ``(n_rows, n_columns)`` row matrix."""
        if self.forest.problem is ProblemKind.CLASSIFICATION:
            return np.argmax(
                self.predict_proba_matrix(matrix, max_depth), axis=1
            )
        return self._average(self._matrix_batch(matrix), max_depth)[:, 0]


#: Serializes first compiles, so racing first callers compile a model once.
_COMPILE_LOCK = threading.Lock()


def compiled_predictor(model) -> BatchPredictor:
    """The model's own :class:`BatchPredictor`, compiled on first use.

    ``model`` is a ``DecisionTree`` or anything with ``.trees``.  The
    predictor is kept on the model object together with the trees it was
    compiled from, and rebuilt only when those changed (a boosting model
    grows a tree per round).  It is stored only once complete, under a
    lock, so a thread never sees a half-built predictor and racing first
    calls compile once.
    """
    trees = list(getattr(model, "trees", [model]))
    cached = getattr(model, "_compiled", None)
    if cached is None or not _same_trees(cached[0], trees):
        with _COMPILE_LOCK:
            cached = getattr(model, "_compiled", None)
            if cached is None or not _same_trees(cached[0], trees):
                cached = (trees, BatchPredictor(compile_forest(model)))
                model._compiled = cached
    return cached[1]


def _same_trees(a: list, b: list) -> bool:
    return len(a) == len(b) and all(map(operator.is_, a, b))
