"""Compile node-based tree models into flat structure-of-arrays form.

A trained :class:`~repro.core.tree.DecisionTree` is a graph of Python
objects — ideal for the master's graft-subtrees-onto-nodes protocol, hostile
to batch prediction (every row descent chases pointers and re-enters the
interpreter per node).  The compiler freezes a tree into parallel NumPy
arrays indexed by node id:

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
depth and truncating a tree at depth ``d`` is literally slicing a prefix of
every array (:meth:`FlatTree.truncated`).

A :class:`FlatForest` owns each of those arrays **once for the whole
forest** (``stacked``: the member trees' arrays end to end, ids still
tree-local) and its trees are slice views of them.  That block is what the
batch kernel gathers from and what ``shm_model`` publishes, so a fleet
worker's bulk arrays are views of the shared image, never copies.

Categorical splits keep the paper's stop-at-node semantics exactly: the
direction table maps a category code to ``LEFT`` (in ``S_l``), ``RIGHT``
(seen in the node's ``D_x`` but not in ``S_l``) or ``STOP`` (missing code
``-1`` or a value unseen at this node during training).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.tree import DecisionTree, TreeNode
from ..data.schema import ColumnKind, ProblemKind
from ..ensemble.forest import ForestModel
from .batch import BatchPredictor

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

    def truncated(self, max_depth: int) -> "FlatTree":
        """Slice the tree at ``max_depth`` — the BFS layout makes this a
        prefix cut of every array, with the cut level's nodes made leaves.

        Prediction on the sliced tree equals prediction on the full tree
        with the same ``max_depth`` argument, but the sliced model is
        smaller — the serving answer to the paper's observation that one
        ``d_max`` tree contains every shallower tree (Appendix D).
        """
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        keep = int(np.searchsorted(self.depth, max_depth, side="right"))
        keep = max(keep, 1)
        cut = self.depth[:keep] >= max_depth
        feature = self.feature[:keep].copy()
        left = self.left[:keep].copy()
        right = self.right[:keep].copy()
        feature[cut] = -1
        left[cut] = -1
        right[cut] = -1
        return FlatTree(
            feature=feature,
            numeric=self.numeric[:keep].copy(),
            threshold=self.threshold[:keep].copy(),
            left=left,
            right=right,
            depth=self.depth[:keep].copy(),
            predictions=self.predictions[:keep].copy(),
            cat_offset=self.cat_offset[:keep].copy(),
            cat_len=self.cat_len[:keep].copy(),
            cat_dir=self.cat_dir.copy(),
            problem=self.problem,
            n_classes=self.n_classes,
            tree_id=self.tree_id,
            quantized=self.quantized,
        )

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
    memory instead, as ``shm_model`` does for a mapped image.
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

    def truncated(self, max_depth: int) -> "FlatForest":
        """Depth-slice every member tree (see :meth:`FlatTree.truncated`)."""
        return FlatForest(
            trees=[t.truncated(max_depth) for t in self.trees],
            problem=self.problem,
            n_classes=self.n_classes,
        )

    def quantized_copy(self) -> "FlatForest":
        """This forest with every member tree quantized (no-op if already)."""
        if self.quantized:
            return self
        return FlatForest(
            trees=[t.quantized_copy() for t in self.trees],
            problem=self.problem,
            n_classes=self.n_classes,
        )


def compile_tree(tree: DecisionTree, quantize: bool = False) -> FlatTree:
    """Flatten one trained tree into :class:`FlatTree` arrays.

    Exactness contract (default ``quantize=False``): batch traversal of
    the result reproduces ``tree.predict`` / ``tree.predict_proba``
    bit-for-bit, including depth truncation and the missing/unseen
    stop-at-node rule.  ``quantize=True`` opts into compact dtypes
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


def compile_forest(
    model: ForestModel | DecisionTree, quantize: bool = False
) -> FlatForest:
    """Compile a forest (or a single tree, wrapped as a 1-forest)."""
    if isinstance(model, DecisionTree):
        model = ForestModel([model])
    return FlatForest(
        trees=[compile_tree(t, quantize=quantize) for t in model.trees],
        problem=model.problem,
        n_classes=model.n_classes,
    )


# ----------------------------------------------------------------------
# deep-forest cascades
# ----------------------------------------------------------------------
@dataclass
class CompiledCascadeLayer:
    """One cascade layer: a predictor per compiled forest plus the MGS
    window used."""

    index: int
    grain_window: int
    predictors: list[BatchPredictor] = field(default_factory=list)


@dataclass
class CompiledCascade:
    """A compiled cascade forest (paper Section VII, Fig. 11).

    Mirrors :class:`~repro.deepforest.cascade.CascadeForest` prediction
    exactly: each layer consumes the cycled MGS grain features concatenated
    with the previous layer's per-forest PMFs, and the final prediction is
    the argmax of the last layer's averaged PMFs.
    """

    layers: list[CompiledCascadeLayer]
    n_classes: int

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a compiled cascade needs at least one layer")

    def total_nodes(self) -> int:
        """Total node count across every layer's forests."""
        return sum(
            p.forest.total_nodes()
            for layer in self.layers
            for p in layer.predictors
        )

    def _layer_input(
        self,
        layer_index: int,
        grain_features: dict[int, np.ndarray],
        previous_output: np.ndarray | None,
    ) -> np.ndarray:
        windows = sorted(grain_features)
        grain = grain_features[windows[layer_index % len(windows)]]
        if previous_output is None:
            return grain
        return np.concatenate([grain, previous_output], axis=1)

    def predict_proba_per_layer(
        self, grain_features: dict[int, np.ndarray]
    ) -> list[np.ndarray]:
        """PMF predictions after each layer (Table VII accuracy column)."""
        outputs: list[np.ndarray] = []
        previous: np.ndarray | None = None
        for layer in self.layers:
            features = self._layer_input(
                layer.index, grain_features, previous
            )
            blocks = [
                predictor.predict_proba_matrix(features)
                for predictor in layer.predictors
            ]
            outputs.append(
                np.mean(np.stack(blocks, axis=1), axis=1)
            )
            previous = np.concatenate(blocks, axis=1)
        return outputs

    def predict_proba(
        self, grain_features: dict[int, np.ndarray]
    ) -> np.ndarray:
        """Final averaged PMFs of the last layer."""
        return self.predict_proba_per_layer(grain_features)[-1]

    def predict(self, grain_features: dict[int, np.ndarray]) -> np.ndarray:
        """Final prediction: argmax of the last layer's averaged PMFs."""
        return np.argmax(self.predict_proba(grain_features), axis=1)


def compile_cascade(cascade) -> CompiledCascade:
    """Compile a fitted :class:`~repro.deepforest.cascade.CascadeForest`."""
    if not getattr(cascade, "layers", None):
        raise ValueError("cascade is not fitted")
    layers = [
        CompiledCascadeLayer(
            index=layer.index,
            grain_window=layer.grain_window,
            predictors=[
                BatchPredictor(compile_forest(trained.forest))
                for trained in layer.forests
            ],
        )
        for layer in cascade.layers
    ]
    return CompiledCascade(layers=layers, n_classes=cascade.n_classes)
