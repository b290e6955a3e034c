"""Decision tree model: nodes, prediction and (de)serialization.

Two features of TreeServer's tree representation (paper Appendix D) shape
this module:

* **Every node carries a prediction**, not only leaves.  Since each node has
  access to ``D_x`` during training, the label PMF (classification) or mean
  ``Y`` (regression) is a free byproduct.  This enables (a) truncating
  prediction at any depth ``1..d_max`` without retraining, and (b) graceful
  handling of missing values and attribute values unseen in the node's
  ``D_x`` — the descent simply stops and the current node answers.
* **Trees are assembled from parts**: the master grafts subtrees built by
  subtree-tasks onto nodes it split itself via column-tasks, so nodes must
  serialize to a plain, mergeable form (dicts shipped as messages in the
  simulated cluster).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..data.schema import ColumnKind, ProblemKind
from ..data.table import DataTable
from .flat import compiled_predictor
from .splits import CandidateSplit


@dataclass(slots=True)
class TreeNode:
    """One node ``x`` of a decision tree.

    ``prediction`` is a class-PMF vector for classification and a float mean
    for regression.  Internal nodes carry both a split and a prediction.
    """

    node_id: int
    depth: int
    n_rows: int
    prediction: np.ndarray | float
    split: CandidateSplit | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        """Whether this node has no split (descent always stops here)."""
        return self.split is None

    def predicted_label(self) -> int:
        """Most likely class at this node (classification only)."""
        return int(np.argmax(self.prediction))

    def walk(self) -> Iterator["TreeNode"]:
        """Pre-order traversal of the subtree rooted here (iterative).

        Iterative because cascade-forest trees are trained with unbounded
        depth and may exceed Python's recursion limit.
        """
        stack: list[TreeNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    def breadth_first(self) -> Iterator["TreeNode"]:
        """Level-order traversal of the subtree rooted here.

        :func:`~repro.core.flat.compile_tree` lays nodes out in this order
        so that during level-synchronous batch traversal every active row
        reads from one contiguous band of the flat arrays.
        """
        queue: deque[TreeNode] = deque([self])
        while queue:
            node = queue.popleft()
            yield node
            if node.left is not None:
                queue.append(node.left)
            if node.right is not None:
                queue.append(node.right)

    def count_nodes(self) -> int:
        """Number of nodes in the subtree rooted here."""
        return sum(1 for _ in self.walk())

    def subtree_depth(self) -> int:
        """Depth of the deepest descendant, relative to the tree root."""
        return max(node.depth for node in self.walk())


@dataclass
class DecisionTree:
    """A trained decision tree over a fixed schema.

    Parameters
    ----------
    root:
        The root node.
    problem:
        Classification or regression — decides prediction semantics.
    n_classes:
        Target cardinality (0 for regression).
    tree_id:
        Identifier assigned by the training job (for ensembles).
    """

    root: TreeNode
    problem: ProblemKind
    n_classes: int = 0
    tree_id: int = 0

    # ------------------------------------------------------------------
    # prediction (the flat kernel of ``core.flat``, compiled on first use)
    # ------------------------------------------------------------------
    def predict_proba(
        self, table: DataTable, max_depth: int | None = None
    ) -> np.ndarray:
        """Per-row class PMFs of shape ``(n_rows, n_classes)``: each row's
        descent stops at a leaf, at ``max_depth``, or at the first node
        whose split value is missing or unseen (Appendix D)."""
        return compiled_predictor(self).predict_proba(table, max_depth)

    def predict_values(
        self, table: DataTable, max_depth: int | None = None
    ) -> np.ndarray:
        """Regression predictions of shape ``(n_rows,)``."""
        return compiled_predictor(self).predict_values(table, max_depth)

    def predict(
        self, table: DataTable, max_depth: int | None = None
    ) -> np.ndarray:
        """Predicted labels (classification) or values (regression)."""
        return compiled_predictor(self).predict(table, max_depth)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total node count."""
        return self.root.count_nodes()

    @property
    def depth(self) -> int:
        """Depth of the deepest node (root is depth 0)."""
        return self.root.subtree_depth()

    def nodes(self) -> Iterator[TreeNode]:
        """Pre-order traversal of all nodes."""
        return self.root.walk()

    # ------------------------------------------------------------------
    # serialization (used for subtree-task results and model output files)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form suitable for JSON or message payloads."""
        return {
            "problem": self.problem.value,
            "n_classes": self.n_classes,
            "tree_id": self.tree_id,
            "root": node_to_dict(self.root),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTree":
        """Inverse of :meth:`to_dict`."""
        return cls(
            root=node_from_dict(data["root"]),
            problem=ProblemKind(data["problem"]),
            n_classes=int(data["n_classes"]),
            tree_id=int(data.get("tree_id", 0)),
        )


def _split_to_dict(split: CandidateSplit) -> dict:
    return {
        "column": split.column,
        "kind": split.kind.value,
        "score": split.score,
        "n_left": split.n_left,
        "n_right": split.n_right,
        "threshold": split.threshold,
        "left_categories": (
            sorted(split.left_categories)
            if split.left_categories is not None
            else None
        ),
        "right_categories": (
            sorted(split.right_categories)
            if split.right_categories is not None
            else None
        ),
        "n_missing": split.n_missing,
        "missing_to_left": split.missing_to_left,
    }


def _split_from_dict(s: dict) -> CandidateSplit:
    return CandidateSplit(
        column=int(s["column"]),
        kind=ColumnKind(s["kind"]),
        score=float(s["score"]),
        n_left=int(s["n_left"]),
        n_right=int(s["n_right"]),
        threshold=None if s["threshold"] is None else float(s["threshold"]),
        left_categories=(
            None
            if s["left_categories"] is None
            else frozenset(int(c) for c in s["left_categories"])
        ),
        right_categories=(
            None
            if s["right_categories"] is None
            else frozenset(int(c) for c in s["right_categories"])
        ),
        n_missing=int(s["n_missing"]),
        missing_to_left=bool(s["missing_to_left"]),
    )


def node_to_dict(node: TreeNode) -> dict:
    """Serialize a subtree to nested dicts (message payload form).

    Iterative so arbitrarily deep cascade-forest trees serialize safely.
    """
    root_data: dict = {}
    stack: list[tuple[TreeNode, dict]] = [(node, root_data)]
    while stack:
        current, data = stack.pop()
        pred = current.prediction
        data["node_id"] = current.node_id
        data["depth"] = current.depth
        data["n_rows"] = current.n_rows
        data["prediction"] = (
            pred.tolist() if isinstance(pred, np.ndarray) else pred
        )
        if current.split is not None:
            data["split"] = _split_to_dict(current.split)
            assert current.left is not None and current.right is not None
            data["left"] = {}
            data["right"] = {}
            stack.append((current.left, data["left"]))
            stack.append((current.right, data["right"]))
    return root_data


def node_from_dict(data: dict) -> TreeNode:
    """Deserialize a subtree produced by :func:`node_to_dict` (iterative)."""

    def make_node(d: dict) -> TreeNode:
        pred = d["prediction"]
        prediction: np.ndarray | float
        if isinstance(pred, list):
            prediction = np.asarray(pred, dtype=np.float64)
        else:
            prediction = float(pred)
        return TreeNode(
            node_id=int(d["node_id"]),
            depth=int(d["depth"]),
            n_rows=int(d["n_rows"]),
            prediction=prediction,
        )

    root = make_node(data)
    stack: list[tuple[dict, TreeNode]] = [(data, root)]
    while stack:
        d, node = stack.pop()
        if "split" not in d:
            continue
        node.split = _split_from_dict(d["split"])
        node.left = make_node(d["left"])
        node.right = make_node(d["right"])
        stack.append((d["left"], node.left))
        stack.append((d["right"], node.right))
    return root


def trees_equal(a: DecisionTree, b: DecisionTree) -> bool:
    """Structural equality of two trees — the *exactness* invariant check.

    Distributed training must produce exactly the tree the serial builder
    produces; this compares splits, structure and predictions node by node.
    """
    return _nodes_equal(a.root, b.root)


def _nodes_equal(root_a: TreeNode, root_b: TreeNode) -> bool:
    stack: list[tuple[TreeNode | None, TreeNode | None]] = [(root_a, root_b)]
    while stack:
        a, b = stack.pop()
        if (a is None) != (b is None):
            return False
        if a is None or b is None:
            continue
        if a.depth != b.depth or a.n_rows != b.n_rows:
            return False
        pa, pb = a.prediction, b.prediction
        if isinstance(pa, np.ndarray) != isinstance(pb, np.ndarray):
            return False
        if isinstance(pa, np.ndarray):
            if not np.allclose(pa, pb, atol=1e-12):
                return False
        elif abs(float(pa) - float(pb)) > 1e-12:
            return False
        if (a.split is None) != (b.split is None):
            return False
        if a.split is not None and b.split is not None:
            sa, sb = a.split, b.split
            same = (
                sa.column == sb.column
                and sa.kind == sb.kind
                and sa.left_categories == sb.left_categories
                and (
                    (sa.threshold is None and sb.threshold is None)
                    or (
                        sa.threshold is not None
                        and sb.threshold is not None
                        and abs(sa.threshold - sb.threshold) <= 1e-12
                    )
                )
            )
            if not same:
                return False
        stack.append((a.left, b.left))
        stack.append((a.right, b.right))
    return True
