"""Per-row prediction as the paper states it, frozen as a test oracle.

:func:`predict_row` and :func:`route_test_value` are
``DecisionTree.predict_row`` and ``repro.core.splits.route_test_value`` as
they stood when every model class moved onto the flat kernel
(:mod:`repro.core.flat`): one row, one tree, one ``TreeNode`` at a time,
the Appendix D rules spelled out — every node carries a prediction, a
missing or unseen value stops the descent at the node testing it, and
``max_depth`` stops it early.

The model-level oracles compose them the way the models are defined, with
the float additions in the same order as the kernel's:

* :func:`reference_forest` — per-tree node predictions added in tree
  order, divided once (``ForestModel``, and a ``DecisionTree`` as a
  1-forest);
* :func:`reference_raw_scores` — ``base + learning_rate * tree``, trees in
  order (``GBDTModel``);
* :func:`reference_cascade_per_layer` — the cascade's layer wiring
  (``CascadeForest.layer_input``) over :func:`reference_forest`.

:func:`reference_flat_forest` is the same descent over a compiled
``FlatTree``'s own arrays, for quantized compiles, whose float32
thresholds and predictions no ``TreeNode`` holds.

Frozen: do not optimise, do not vectorise, do not route through
``repro.core.flat``.  ``tests/test_serving.py``, ``tests/test_tree.py``,
``tests/test_boosting.py``, ``tests/test_deepforest.py`` and
``tests/test_invariants.py`` hold the models and the kernel to these
functions bit for bit; ``benchmarks/bench_serving_throughput.py`` times
the per-row descent against the kernel.
"""

from __future__ import annotations

import numpy as np

from repro.core.flat import CAT_LEFT, CAT_STOP
from repro.core.splits import CandidateSplit
from repro.data.schema import ColumnKind
from repro.data.table import MISSING_CODE, DataTable


def route_test_value(value: float | int, split: CandidateSplit) -> bool | None:
    """Route a single prediction-time value; ``None`` means stop here.

    ``None`` is returned for missing values and for categorical values never
    seen in the node's ``D_x`` during training — in both cases the paper's
    Appendix D stops the descent and reports the current node's prediction.
    """
    if split.kind is ColumnKind.NUMERIC:
        if np.isnan(value):
            return None
        return bool(value <= split.threshold)
    code = int(value)
    if code == MISSING_CODE:
        return None
    if split.left_categories and code in split.left_categories:
        return True
    if split.right_categories and code in split.right_categories:
        return False
    return None


def predict_row(tree, values, max_depth: int | None = None):
    """Predict one row, optionally truncating the descent at a depth.

    Returns the PMF vector (classification) or mean (regression) of the
    node where the descent stops — a leaf, the depth cutoff, or the first
    node whose split attribute is missing/unseen for this row.
    """
    node = tree.root
    while not node.is_leaf:
        if max_depth is not None and node.depth >= max_depth:
            break
        assert node.split is not None
        direction = route_test_value(values[node.split.column], node.split)
        if direction is None:
            break
        node = node.left if direction else node.right
        assert node is not None
    return node.prediction


def _rows(data) -> list:
    """Rows of a ``DataTable`` or of a 2-D row matrix."""
    if isinstance(data, DataTable):
        return [data.row(i) for i in range(data.n_rows)]
    return list(np.asarray(data, dtype=np.float64))


def _width(tree) -> int:
    return tree.n_classes if tree.n_classes else 1


def reference_forest(model, data, max_depth: int | None = None) -> np.ndarray:
    """Tree-averaged node predictions, ``(n_rows, n_classes or 1)``.

    ``model`` is a ``DecisionTree`` or anything with ``.trees``.
    """
    trees = getattr(model, "trees", [model])
    rows = _rows(data)
    out = np.zeros((len(rows), _width(trees[0])), dtype=np.float64)
    for i, row in enumerate(rows):
        for tree in trees:
            out[i] += predict_row(tree, row, max_depth)
    out /= len(trees)
    return out


def reference_raw_scores(model, data) -> np.ndarray:
    """A boosting model's margins: ``base + learning_rate * tree``, trees
    added in order."""
    rows = _rows(data)
    scores = np.full(len(rows), model.base_prediction, dtype=np.float64)
    for i, row in enumerate(rows):
        for tree in model.trees:
            scores[i] += model.learning_rate * predict_row(tree, row)
    return scores


def reference_cascade_per_layer(cascade, grain_features) -> list[np.ndarray]:
    """Per-layer averaged PMFs of a fitted cascade: each layer reads its
    MGS grain plus the previous layer's per-forest PMFs."""
    outputs: list[np.ndarray] = []
    previous = None
    for layer in cascade.layers:
        features, _ = cascade.layer_input(
            layer.index, grain_features, previous
        )
        blocks = [reference_forest(t.forest, features) for t in layer.forests]
        previous = np.concatenate(blocks, axis=1)
        outputs.append(
            previous.reshape(
                len(features), len(layer.forests), cascade.n_classes
            ).mean(axis=1)
        )
    return outputs


def flat_node(tree, row, max_depth: int | None) -> int:
    """Per-row descent over one compiled ``FlatTree``'s own arrays."""
    i = 0
    while tree.feature[i] >= 0 and (
        max_depth is None or tree.depth[i] < max_depth
    ):
        value = row[tree.feature[i]]
        if np.isnan(value):
            break
        if tree.numeric[i]:
            go_left = value <= tree.threshold[i]
        else:
            code = int(value)
            if not 0 <= code < tree.cat_len[i]:
                break
            direction = tree.cat_dir[tree.cat_offset[i] + code]
            if direction == CAT_STOP:
                break
            go_left = direction == CAT_LEFT
        i = tree.left[i] if go_left else tree.right[i]
    return i


def reference_flat_forest(flat, matrix, max_depth: int | None) -> np.ndarray:
    """Tree-averaged predictions of a compiled ``FlatForest``, per row."""
    acc = np.zeros((len(matrix), flat.output_width), dtype=np.float64)
    for tree in flat.trees:
        nodes = [flat_node(tree, row, max_depth) for row in matrix]
        acc += tree.predictions[nodes]
    acc /= flat.n_trees
    return acc
