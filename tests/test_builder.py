"""Tests for the serial exact builder: leaf rules, invariants, extra-trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import (
    bootstrap_row_ids,
    extra_tree_column_order,
    node_rng,
    path_depth,
    sample_candidate_columns,
    train_tree,
)
from repro.core.config import ColumnSampling, TreeConfig, TreeKind
from repro.core.impurity import Impurity
from repro.cluster.machine import MachineStats
from repro.core.kernel import build_subtree
from repro.core.tree import node_to_dict, trees_equal
from repro.data import ProblemKind
from repro.datasets import SyntheticSpec, generate

from .reference_builder import reference_build_subtree, reference_train_tree


def kernel_build_subtree(table, config, row_ids, **kwargs):
    """The kernel on a table's columns, called as the reference
    recursion is."""
    return build_subtree(
        table.schema, table.columns, table.target, config, row_ids, **kwargs
    )


class TestPathHelpers:
    def test_path_depth(self):
        assert path_depth(1) == 0
        assert path_depth(2) == 1
        assert path_depth(3) == 1
        assert path_depth(4) == 2
        assert path_depth(7) == 2

    @given(st.integers(min_value=1, max_value=2**40))
    def test_children_one_deeper(self, path):
        assert path_depth(2 * path) == path_depth(path) + 1
        assert path_depth(2 * path + 1) == path_depth(path) + 1

    def test_node_rng_deterministic(self):
        a = node_rng(7, 13).random()
        b = node_rng(7, 13).random()
        c = node_rng(7, 14).random()
        assert a == b
        assert a != c


class TestCandidateColumns:
    def test_all_sampling(self):
        cfg = TreeConfig(column_sampling=ColumnSampling.ALL)
        assert sample_candidate_columns(cfg, 10) == tuple(range(10))

    def test_sqrt_sampling_size(self):
        cfg = TreeConfig(column_sampling=ColumnSampling.SQRT, seed=3)
        cols = sample_candidate_columns(cfg, 100)
        assert len(cols) == 10
        assert cols == tuple(sorted(cols))
        assert all(0 <= c < 100 for c in cols)

    def test_ratio_sampling_size(self):
        cfg = TreeConfig(
            column_sampling=ColumnSampling.RATIO, column_ratio=0.4, seed=1
        )
        assert len(sample_candidate_columns(cfg, 50)) == 20

    def test_different_seeds_differ(self):
        base = TreeConfig(column_sampling=ColumnSampling.SQRT)
        a = sample_candidate_columns(base.with_seed(1), 400)
        b = sample_candidate_columns(base.with_seed(2), 400)
        assert a != b

    def test_bootstrap_deterministic_and_sorted(self):
        a = bootstrap_row_ids(5, 100)
        b = bootstrap_row_ids(5, 100)
        np.testing.assert_array_equal(a, b)
        assert len(a) == 100
        assert (np.diff(a) >= 0).all()


class TestLeafRules:
    def test_pure_node_is_leaf(self, small_mixed_classification):
        table = small_mixed_classification
        tree = train_tree(table, TreeConfig(max_depth=20))
        for node in tree.nodes():
            if not node.is_leaf:
                # Internal nodes must be impure (pure nodes stop splitting).
                assert float(np.max(node.prediction)) < 1.0

    def test_max_depth_respected(self, small_mixed_classification):
        for dmax in (1, 3, 5):
            tree = train_tree(small_mixed_classification, TreeConfig(max_depth=dmax))
            assert tree.depth <= dmax

    def test_tau_leaf_respected(self, small_mixed_classification):
        tree = train_tree(
            small_mixed_classification, TreeConfig(max_depth=30, tau_leaf=20)
        )
        for node in tree.nodes():
            if not node.is_leaf:
                assert node.n_rows > 20

    def test_unbounded_depth(self, small_mixed_classification):
        tree = train_tree(small_mixed_classification, TreeConfig(max_depth=None))
        # With tau_leaf=1 every leaf is pure or unsplittable.
        for node in tree.nodes():
            if node.is_leaf and node.n_rows > 1:
                pass  # unsplittable leaves are allowed (no useful split)
        assert tree.n_nodes >= 3


class TestStructuralInvariants:
    def test_children_partition_rows(self, small_mixed_classification):
        tree = train_tree(small_mixed_classification, TreeConfig(max_depth=8))
        for node in tree.nodes():
            if not node.is_leaf:
                assert node.left.n_rows + node.right.n_rows == node.n_rows
                assert node.left.n_rows > 0 and node.right.n_rows > 0

    def test_heap_path_ids(self, small_mixed_classification):
        tree = train_tree(small_mixed_classification, TreeConfig(max_depth=6))
        for node in tree.nodes():
            assert node.depth == path_depth(node.node_id)
            if not node.is_leaf:
                assert node.left.node_id == 2 * node.node_id
                assert node.right.node_id == 2 * node.node_id + 1

    def test_pmf_sums_to_one(self, small_mixed_classification):
        tree = train_tree(small_mixed_classification, TreeConfig(max_depth=6))
        for node in tree.nodes():
            assert float(np.sum(node.prediction)) == pytest.approx(1.0)

    def test_determinism(self, small_mixed_classification):
        t1 = train_tree(small_mixed_classification, TreeConfig(max_depth=7))
        t2 = train_tree(small_mixed_classification, TreeConfig(max_depth=7))
        assert trees_equal(t1, t2)

    def test_regression_tree_with_missing(self, small_regression):
        tree = train_tree(small_regression, TreeConfig(max_depth=6))
        assert tree.problem is ProblemKind.REGRESSION
        for node in tree.nodes():
            assert isinstance(node.prediction, float)

    def test_entropy_criterion(self, small_mixed_classification):
        tree = train_tree(
            small_mixed_classification,
            TreeConfig(max_depth=5, criterion=Impurity.ENTROPY),
        )
        assert tree.n_nodes >= 3

    def test_training_accuracy_high_on_separable(self):
        table = generate(
            SyntheticSpec(
                name="clean",
                n_rows=400,
                n_numeric=5,
                n_categorical=0,
                n_classes=2,
                planted_depth=3,
                noise=0.0,
                seed=11,
            )
        )
        tree = train_tree(table, TreeConfig(max_depth=10))
        acc = (tree.predict(table) == table.target).mean()
        assert acc >= 0.99


class TestSubtreeBuilding:
    def test_subtree_on_row_subset(self, small_mixed_classification):
        table = small_mixed_classification
        ids = np.arange(0, table.n_rows, 2, dtype=np.int64)
        root = kernel_build_subtree(
            table, TreeConfig(max_depth=4), ids, root_path=5
        )
        assert root.node_id == 5
        assert root.depth == path_depth(5)
        assert root.n_rows == len(ids)

    def test_subtree_respects_remaining_depth(self, small_mixed_classification):
        table = small_mixed_classification
        ids = np.arange(table.n_rows, dtype=np.int64)
        # Root at path 4 has depth 2; dmax 4 leaves two more levels.
        root = kernel_build_subtree(
            table, TreeConfig(max_depth=4), ids, root_path=4
        )
        assert root.subtree_depth() <= 4

    def test_candidate_columns_restrict_splits(self, small_mixed_classification):
        table = small_mixed_classification
        ids = np.arange(table.n_rows, dtype=np.int64)
        root = kernel_build_subtree(
            table, TreeConfig(max_depth=6), ids, candidate_columns=(0, 2)
        )
        for node in root.walk():
            if node.split is not None:
                assert node.split.column in (0, 2)


class TestExtraTrees:
    def test_extra_tree_builds(self, small_mixed_classification):
        cfg = TreeConfig(max_depth=8, tree_kind=TreeKind.EXTRA, seed=3)
        tree = train_tree(small_mixed_classification, cfg)
        assert tree.n_nodes >= 3

    def test_extra_tree_deterministic_in_seed(self, small_mixed_classification):
        cfg = TreeConfig(max_depth=6, tree_kind=TreeKind.EXTRA, seed=4)
        t1 = train_tree(small_mixed_classification, cfg)
        t2 = train_tree(small_mixed_classification, cfg)
        assert trees_equal(t1, t2)

    def test_extra_tree_seeds_differ(self, small_mixed_classification):
        cfg = TreeConfig(max_depth=6, tree_kind=TreeKind.EXTRA)
        t1 = train_tree(small_mixed_classification, cfg.with_seed(1))
        t2 = train_tree(small_mixed_classification, cfg.with_seed(2))
        assert not trees_equal(t1, t2)

    def test_column_order_deterministic(self):
        cols = tuple(range(8))
        assert extra_tree_column_order(1, 5, cols) == extra_tree_column_order(
            1, 5, cols
        )
        assert set(extra_tree_column_order(1, 5, cols)) == set(cols)

    def test_extra_tree_splits_without_gain_requirement(self):
        """Extra-trees split on any valid random condition, even zero-gain."""
        table = generate(
            SyntheticSpec(
                name="noise",
                n_rows=200,
                n_numeric=3,
                n_categorical=0,
                n_classes=2,
                planted_depth=1,
                noise=0.5,
                seed=12,
            )
        )
        cfg = TreeConfig(max_depth=6, tree_kind=TreeKind.EXTRA, seed=1)
        tree = train_tree(table, cfg)
        assert tree.depth >= 2


class TestBootstrapTraining:
    def test_bootstrap_changes_tree(self, small_mixed_classification):
        table = small_mixed_classification
        plain = train_tree(table, TreeConfig(max_depth=6))
        boot = train_tree(
            table,
            TreeConfig(max_depth=6),
            row_ids=bootstrap_row_ids(0, table.n_rows),
        )
        assert not trees_equal(plain, boot)
        assert boot.root.n_rows == table.n_rows  # bootstrap keeps n rows


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_any_seeded_dataset_trains(seed):
    """Training never crashes and invariants hold on random small tables."""
    spec = SyntheticSpec(
        name="prop",
        n_rows=60,
        n_numeric=2,
        n_categorical=1,
        n_classes=2,
        planted_depth=3,
        noise=0.2,
        missing_rate=0.1,
        seed=seed,
    )
    table = generate(spec)
    tree = train_tree(table, TreeConfig(max_depth=5))
    assert tree.depth <= 5
    for node in tree.nodes():
        if not node.is_leaf:
            assert node.left.n_rows + node.right.n_rows == node.n_rows
    labels = tree.predict(table)
    assert labels.shape == (60,)


# ----------------------------------------------------------------------
# level kernel (repro.core.kernel) vs the frozen scalar recursion
# (tests/reference_builder.py)
# ----------------------------------------------------------------------
def _parity_table(
    problem=ProblemKind.CLASSIFICATION,
    missing=0.1,
    seed=9,
    n_classes=3,
    n_rows=500,
    cardinality=6,
):
    return generate(
        SyntheticSpec(
            name="kparity",
            problem=problem,
            n_rows=n_rows,
            n_numeric=4,
            n_categorical=2,
            categorical_cardinality=cardinality,
            n_classes=n_classes if problem is ProblemKind.CLASSIFICATION else 2,
            planted_depth=4,
            noise=0.25,
            missing_rate=missing,
            seed=seed,
        )
    )


def _tie_heavy(table):
    """``table`` with every numeric column coarsened to a handful of
    distinct values, the zeros among them of both signs — ties the
    unstable classification sort is free to order either way."""
    from repro.data import ColumnKind, DataTable

    columns = []
    for index, spec in enumerate(table.schema.columns):
        col = table.column(index)
        if spec.kind is ColumnKind.NUMERIC:
            col = np.round(col / np.nanstd(col))
            zeros = np.flatnonzero(col == 0)
            col[zeros[::2]] = -0.0
            col[zeros[1::2]] = 0.0
        columns.append(col)
    return DataTable(table.schema, columns, table.target)


def assert_matches_reference(table, config, row_ids=None):
    """``train_tree`` and the reference recursion must serialize to
    identical dicts."""
    reference = reference_train_tree(table, config, row_ids=row_ids)
    tree = train_tree(table, config, row_ids=row_ids)
    assert trees_equal(reference, tree)
    assert reference.to_dict() == tree.to_dict()
    return tree


def assert_sim_matches(table, config, serial):
    """The ``sim``-distributed tree serializes like the serial one, with
    every node a column task and with the paper's task mix."""
    from repro.core import SystemConfig, TreeServer, decision_tree_job

    base = SystemConfig(n_workers=3, compers_per_worker=2)
    for system in (
        base.scaled_to(table.n_rows),
        SystemConfig(
            n_workers=3, compers_per_worker=2, tau_subtree=1, tau_dfs=1
        ),
    ):
        report = TreeServer(system).fit(
            table, [decision_tree_job("dt", config)]
        )
        assert report.tree("dt").to_dict() == serial.to_dict()


class TestKernelParity:
    """The level kernel is bit-identical to the scalar recursion.

    This is the exactness invariant extended to the kernel seam: the
    level-synchronous builder must reproduce heap paths, RNG draws, and
    every tie-break of growing one node at a time, across the whole
    configuration matrix.
    """

    @pytest.mark.parametrize("criterion", [Impurity.GINI, Impurity.ENTROPY])
    @pytest.mark.parametrize("missing", [0.0, 0.15])
    def test_classification_decision(self, criterion, missing):
        table = _parity_table(missing=missing)
        assert_matches_reference(
            table, TreeConfig(max_depth=None, criterion=criterion, seed=3)
        )

    @pytest.mark.parametrize("missing", [0.0, 0.15])
    def test_regression_decision(self, missing):
        table = _parity_table(problem=ProblemKind.REGRESSION, missing=missing)
        assert_matches_reference(
            table,
            TreeConfig(max_depth=None, criterion=Impurity.VARIANCE, seed=4),
        )

    @pytest.mark.parametrize(
        "problem", [ProblemKind.CLASSIFICATION, ProblemKind.REGRESSION]
    )
    def test_extra_trees(self, problem):
        table = _parity_table(problem=problem)
        assert_matches_reference(
            table,
            TreeConfig(max_depth=None, tree_kind=TreeKind.EXTRA, seed=7),
        )

    @pytest.mark.parametrize("criterion", [Impurity.GINI, Impurity.ENTROPY])
    @pytest.mark.parametrize(
        "table",
        [
            pytest.param(lambda: _tie_heavy(_parity_table()), id="tie-heavy"),
            pytest.param(
                lambda: _tie_heavy(_parity_table(missing=0.0)),
                id="tie-heavy-no-nan",
            ),
            pytest.param(lambda: _parity_table(n_classes=9), id="9-class"),
        ],
    )
    def test_tie_order_and_class_order_reach_no_output(self, table, criterion):
        """Scalar recursion == level kernel == ``sim`` distributed, where
        the sort may order ties freely (signed zeros included) and where
        the class sum runs past NumPy's sequential row length."""
        table = table()
        config = TreeConfig(max_depth=None, criterion=criterion, seed=3)
        serial = assert_matches_reference(table, config)
        assert_sim_matches(table, config, serial)
        for node in serial.nodes():
            if node.split is not None and node.split.threshold == 0.0:
                assert not np.signbit(node.split.threshold)

    @pytest.mark.parametrize("split_mode", ["exact", "hist"])
    @pytest.mark.parametrize("criterion", [Impurity.GINI, Impurity.ENTROPY])
    @pytest.mark.parametrize("missing", [0.0, 0.1])
    @pytest.mark.parametrize("cardinality", [2, 8, 9, 13, 40])
    def test_categorical_cardinalities(
        self, cardinality, missing, criterion, split_mode
    ):
        """Scalar recursion == level kernel == ``sim`` distributed on
        categorical columns either side of the subset-enumeration limit:
        the recursion and the column tasks scan one node at a time, the
        kernel a level at a time, through one function."""
        table = _parity_table(cardinality=cardinality, missing=missing)
        config = TreeConfig(
            max_depth=None,
            criterion=criterion,
            seed=3,
            split_mode=split_mode,
            max_bins=16,
        )
        serial = assert_matches_reference(table, config)
        assert_sim_matches(table, config, serial)
        assert any(
            node.split is not None and node.split.left_categories
            for node in serial.nodes()
        )

    def test_categorical_classification_leaves_the_per_node_path(
        self, monkeypatch
    ):
        """Under a classification criterion the kernel scores a level's
        categorical columns in one count table (both have 6 categories)
        and calls no per-node split function; categorical regression
        still scans node by node."""
        from repro.core import kernel, splits

        calls = {"level": 0, "node": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            splits,
            "_scan_count_table",
            counting("level", splits._scan_count_table),
        )
        monkeypatch.setattr(
            splits,
            "best_split_for_column",
            counting("node", splits.best_split_for_column),
        )
        monkeypatch.setattr(
            kernel,
            "best_categorical_regression_split",
            counting("node", kernel.best_categorical_regression_split),
        )
        tree = train_tree(_parity_table(), TreeConfig(max_depth=3, seed=3))
        assert tree.depth == 3
        assert calls == {"level": 3, "node": 0}  # one table a level

        calls.update(level=0, node=0)
        tree = train_tree(
            _parity_table(problem=ProblemKind.REGRESSION),
            TreeConfig(max_depth=3, seed=4),
        )
        internal = sum(not node.is_leaf for node in tree.nodes())
        assert calls["level"] == 0 and calls["node"] >= 2 * internal > 0

    def test_subsets_are_enumerated_once_per_category_count(self, monkeypatch):
        """The subset table is a pure function of the number of seen
        categories: a 3-level build (7 nodes, 2 categorical columns)
        enumerates at most once for each, and a second build not at all."""
        from repro.core import splits

        enumerated = []
        enumerate_subsets = splits._enumerate_subsets

        def counting(n):
            enumerated.append(n)
            return enumerate_subsets(n)

        monkeypatch.setattr(splits, "_enumerate_subsets", counting)
        splits._subset_table.cache_clear()  # as in a fresh process
        table = _parity_table()
        train_tree(table, TreeConfig(max_depth=3, seed=3))
        assert enumerated and len(enumerated) == len(set(enumerated))
        assert max(enumerated) <= splits.EXHAUSTIVE_SUBSET_LIMIT
        before = list(enumerated)
        train_tree(table, TreeConfig(max_depth=3, seed=3))
        assert enumerated == before

    def test_regression_tie_heavy(self):
        table = _tie_heavy(_parity_table(problem=ProblemKind.REGRESSION))
        config = TreeConfig(max_depth=None, criterion=Impurity.VARIANCE, seed=4)
        serial = assert_matches_reference(table, config)
        assert_sim_matches(table, config, serial)
        for node in serial.nodes():
            if node.split is not None and node.split.threshold == 0.0:
                assert not np.signbit(node.split.threshold)

    def test_bootstrap_rows(self):
        table = _parity_table()
        rows = bootstrap_row_ids(21, table.n_rows)
        assert_matches_reference(
            table, TreeConfig(max_depth=None, seed=21), row_ids=rows
        )

    @pytest.mark.parametrize(
        "config",
        [
            TreeConfig(max_depth=0),
            TreeConfig(max_depth=1),
            TreeConfig(max_depth=None, tau_leaf=50),
            TreeConfig(max_depth=None, min_impurity_decrease=0.5),
            TreeConfig(
                max_depth=6, column_sampling=ColumnSampling.SQRT, seed=2
            ),
        ],
        ids=["depth0", "depth1", "tau-leaf-50", "high-gain-bar", "sqrt-cols"],
    )
    def test_edge_configs(self, config):
        assert_matches_reference(_parity_table(), config)

    @pytest.mark.parametrize("problem", ["clf", "reg"])
    @pytest.mark.parametrize("missing", [0.0, 0.15])
    @pytest.mark.parametrize("max_bins", [4, 32])
    def test_hist_mode_beyond_collapse(self, max_bins, missing, problem):
        """Hist mode where it is not exact mode in disguise: every numeric
        column has far more distinct values than bins."""
        table = _parity_table(
            problem=(
                ProblemKind.CLASSIFICATION
                if problem == "clf"
                else ProblemKind.REGRESSION
            ),
            missing=missing,
            n_rows=1500,
        )
        tree = assert_matches_reference(
            table,
            TreeConfig(
                max_depth=None, seed=6, split_mode="hist", max_bins=max_bins
            ),
        )
        assert tree.n_nodes > 100

    def test_subtree_below_the_root(self):
        """A subtree-task's call: a row subset, a candidate-column subset
        and a root that is not heap path 1."""
        table = _parity_table()
        cfg = TreeConfig(max_depth=None, seed=5)
        rows = np.arange(0, table.n_rows, 3, dtype=np.int64)
        reference, root = (
            build(table, cfg, rows, candidate_columns=(0, 2, 4), root_path=5)
            for build in (reference_build_subtree, kernel_build_subtree)
        )
        assert root.node_id == 5 and not root.is_leaf
        assert node_to_dict(reference) == node_to_dict(root)

    @pytest.mark.parametrize(
        "problem", [ProblemKind.CLASSIFICATION, ProblemKind.REGRESSION]
    )
    def test_empty_root_is_a_leaf(self, problem):
        table = _parity_table(problem=problem)
        none = np.empty(0, dtype=np.int64)
        reference, root = (
            build(table, TreeConfig(), none)
            for build in (reference_build_subtree, kernel_build_subtree)
        )
        assert root.is_leaf and root.n_rows == 0
        assert node_to_dict(reference) == node_to_dict(root)

    def test_config_rejects_unknown_kernel(self):
        """There is one kernel and no field to name another."""
        with pytest.raises(TypeError):
            TreeConfig(kernel="turbo")

    def test_counters_accumulate(self):
        table = _parity_table()
        rows = np.arange(table.n_rows, dtype=np.int64)
        stats = MachineStats()
        kernel_build_subtree(
            table, TreeConfig(max_depth=None), rows, host_stats=stats
        )
        assert stats.subtree_kernel_s > 0
        assert 0 <= stats.subtree_gather_s <= stats.subtree_kernel_s
