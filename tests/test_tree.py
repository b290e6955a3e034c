"""Tests for the tree model: prediction semantics, serialization, equality."""

import numpy as np
import pytest

from repro.core.builder import train_tree
from repro.core.config import TreeConfig
from repro.core.splits import CandidateSplit
from repro.core.tree import (
    DecisionTree,
    TreeNode,
    node_from_dict,
    node_to_dict,
    trees_equal,
)
from repro.data import (
    ColumnKind,
    ColumnSpec,
    DataTable,
    ProblemKind,
    TableSchema,
)

from .reference_predict import predict_row, reference_forest


def build_manual_tree() -> DecisionTree:
    """A hand-built two-level tree over one numeric column."""
    left = TreeNode(2, 1, 5, np.array([1.0, 0.0]))
    right = TreeNode(3, 1, 5, np.array([0.0, 1.0]))
    root = TreeNode(
        1,
        0,
        10,
        np.array([0.5, 0.5]),
        split=CandidateSplit(
            column=0,
            kind=ColumnKind.NUMERIC,
            score=0.0,
            n_left=5,
            n_right=5,
            threshold=10.0,
        ),
        left=left,
        right=right,
    )
    return DecisionTree(root, ProblemKind.CLASSIFICATION, n_classes=2)


class TestNodeBasics:
    def test_leaf_detection(self):
        tree = build_manual_tree()
        assert not tree.root.is_leaf
        assert tree.root.left.is_leaf

    def test_walk_counts(self):
        tree = build_manual_tree()
        assert tree.n_nodes == 3
        assert tree.depth == 1
        assert tree.root.predicted_label() in (0, 1)

    def test_walk_preorder(self):
        tree = build_manual_tree()
        ids = [node.node_id for node in tree.nodes()]
        assert ids == [1, 2, 3]


def one_row(tree, values):
    """A one-row table over the manual tree's single numeric column."""
    schema = TableSchema(
        (ColumnSpec("x", ColumnKind.NUMERIC),),
        ColumnSpec("y", ColumnKind.CATEGORICAL, ("a", "b")),
        ProblemKind.CLASSIFICATION,
    )
    return DataTable(schema, [[value] for value in values], [0])


class TestPrediction:
    """The model's batch prediction against the frozen per-row oracle."""

    def test_predict_row_routes(self):
        tree = build_manual_tree()
        for value, label in ((5.0, 0), (15.0, 1)):
            assert np.argmax(predict_row(tree, [value])) == label
            assert tree.predict(one_row(tree, [value]))[0] == label

    def test_predict_row_missing_stops_at_node(self):
        tree = build_manual_tree()
        np.testing.assert_array_equal(
            predict_row(tree, [np.nan]), [0.5, 0.5]
        )
        np.testing.assert_array_equal(
            tree.predict_proba(one_row(tree, [np.nan]))[0], [0.5, 0.5]
        )

    def test_predict_row_depth_cutoff(self):
        tree = build_manual_tree()
        np.testing.assert_array_equal(
            predict_row(tree, [5.0], max_depth=0), [0.5, 0.5]
        )
        np.testing.assert_array_equal(
            tree.predict_proba(one_row(tree, [5.0]), max_depth=0)[0],
            [0.5, 0.5],
        )

    def test_vectorized_matches_rowwise(self, small_mixed_classification):
        table = small_mixed_classification
        tree = train_tree(table, TreeConfig(max_depth=6))
        for max_depth in (None, 0, 1, 3, 6):
            np.testing.assert_array_equal(
                tree.predict_proba(table, max_depth),
                reference_forest(tree, table, max_depth),
            )

    def test_vectorized_regression_matches_rowwise(self, small_regression):
        table = small_regression
        tree = train_tree(table, TreeConfig(max_depth=5))
        for max_depth in (None, 0, 2, 5):
            np.testing.assert_array_equal(
                tree.predict_values(table, max_depth),
                reference_forest(tree, table, max_depth)[:, 0],
            )

    def test_depth_truncation_equals_shallower_tree(
        self, small_mixed_classification
    ):
        """Appendix D: a dmax-trained tree truncated at depth d predicts as a
        depth-d tree — because every node stores its own prediction."""
        table = small_mixed_classification
        deep = train_tree(table, TreeConfig(max_depth=8))
        for d in (1, 2, 4):
            shallow = train_tree(table, TreeConfig(max_depth=d))
            np.testing.assert_allclose(
                deep.predict_proba(table, max_depth=d),
                shallow.predict_proba(table),
                atol=1e-12,
            )

    def test_problem_kind_guards(self, small_mixed_classification):
        tree = train_tree(small_mixed_classification, TreeConfig(max_depth=3))
        with pytest.raises(ValueError):
            tree.predict_values(small_mixed_classification)

    def test_unseen_category_stops(self, tiny_classification):
        """'Primary' (code 0) is in the schema but in no training row, so
        a row carrying it stops at the first node testing education."""
        table = tiny_classification
        tree = train_tree(table, TreeConfig(max_depth=4))
        assert any(
            node.split is not None and node.split.column == 1
            for node in tree.nodes()
        )
        unseen = table.take(np.arange(table.n_rows))
        unseen.columns[1] = np.zeros(table.n_rows, dtype=np.int32)
        np.testing.assert_array_equal(
            tree.predict_proba(unseen), reference_forest(tree, unseen)
        )
        assert not np.array_equal(
            tree.predict_proba(unseen), tree.predict_proba(table)
        )

    def test_predict_labels_shape(self, small_mixed_classification):
        table = small_mixed_classification
        tree = train_tree(table, TreeConfig(max_depth=4))
        labels = tree.predict(table)
        assert labels.shape == (table.n_rows,)
        assert set(np.unique(labels)) <= set(range(table.n_classes))


class TestSerialization:
    def test_round_trip_classification(self, small_mixed_classification):
        tree = train_tree(small_mixed_classification, TreeConfig(max_depth=6))
        back = DecisionTree.from_dict(tree.to_dict())
        assert trees_equal(tree, back)

    def test_round_trip_regression_with_missing(self, small_regression):
        tree = train_tree(small_regression, TreeConfig(max_depth=6))
        back = DecisionTree.from_dict(tree.to_dict())
        assert trees_equal(tree, back)

    def test_round_trip_preserves_predictions(self, small_mixed_classification):
        table = small_mixed_classification
        tree = train_tree(table, TreeConfig(max_depth=5))
        back = DecisionTree.from_dict(tree.to_dict())
        np.testing.assert_allclose(
            tree.predict_proba(table), back.predict_proba(table)
        )

    def test_node_dict_round_trip_subtree(self, small_mixed_classification):
        tree = train_tree(small_mixed_classification, TreeConfig(max_depth=4))
        data = node_to_dict(tree.root)
        back = node_from_dict(data)
        assert back.count_nodes() == tree.n_nodes


class TestEquality:
    def test_equal_trees(self, small_mixed_classification):
        t1 = train_tree(small_mixed_classification, TreeConfig(max_depth=5))
        t2 = train_tree(small_mixed_classification, TreeConfig(max_depth=5))
        assert trees_equal(t1, t2)

    def test_different_depth_not_equal(self, small_mixed_classification):
        t1 = train_tree(small_mixed_classification, TreeConfig(max_depth=3))
        t2 = train_tree(small_mixed_classification, TreeConfig(max_depth=6))
        assert not trees_equal(t1, t2)

    def test_leaf_vs_split_not_equal(self):
        tree = build_manual_tree()
        pruned = DecisionTree(
            TreeNode(1, 0, 10, np.array([0.5, 0.5])),
            ProblemKind.CLASSIFICATION,
            2,
        )
        assert not trees_equal(tree, pruned)
