"""Tests for the serving subsystem: compiler, kernel, registry, server.

The heart of this file is the parity suite: the flat-array kernel must
reproduce node-based descent *bit for bit* — across problem kinds,
categorical columns, missing values, unseen category codes and every
truncation depth — because the serving layer silently replaces the node
engine everywhere (harness, distributed predictor, CLI).
"""

import functools
import io
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import SystemConfig, TreeConfig, train_tree
from repro.core.persistence import (
    fingerprint_trees,
    model_fingerprint_hdfs,
    model_fingerprint_local,
    save_model_hdfs,
    save_model_local,
)
from repro.core.predictor import predict_from_hdfs
from repro.data import (
    ColumnKind,
    ColumnSpec,
    DataTable,
    ProblemKind,
    TableSchema,
    write_csv,
)
from repro.datasets import SyntheticSpec, generate
from repro.ensemble import ForestModel
from repro.hdfs import SimHdfs
from repro.serving import (
    QUANTIZE_ATOL,
    BatchPredictor,
    FlatForest,
    ModelRegistry,
    PredictionServer,
    ServerConfig,
    compile_forest,
    compile_tree,
    load_compiled_hdfs,
    load_compiled_local,
)
from repro.serving.batch import TILE_ROWS
from repro.serving.compiler import CAT_LEFT, CAT_STOP
from repro.serving.server import QueueFullError


def make_table(seed, problem=ProblemKind.CLASSIFICATION, missing=0.0, rows=200):
    return generate(
        SyntheticSpec(
            name="t",
            n_rows=rows,
            n_numeric=3,
            n_categorical=2,
            n_classes=3,
            problem=problem,
            planted_depth=4,
            noise=0.1,
            missing_rate=missing,
            seed=seed,
        )
    )


def make_forest(table, n_trees=3, max_depth=6, seed=0):
    return ForestModel(
        [
            train_tree(table, TreeConfig(max_depth=max_depth, seed=seed + i))
            for i in range(n_trees)
        ]
    )


class TestCompiler:
    def test_layout_invariants(self, small_mixed_classification):
        tree = train_tree(small_mixed_classification, TreeConfig(max_depth=6))
        flat = compile_tree(tree)
        assert flat.n_nodes == tree.n_nodes
        assert flat.max_depth == tree.depth
        # BFS layout: depths are sorted ascending, root first.
        assert np.all(np.diff(flat.depth) >= 0)
        assert flat.depth[0] == 0
        # Leaves have no children or split column; inner nodes have both.
        leaves = flat.feature < 0
        assert np.all(flat.left[leaves] == -1)
        assert np.all(flat.right[leaves] == -1)
        assert np.all(flat.left[~leaves] >= 0)
        # Every node carries a PMF (Appendix D: descents may stop anywhere).
        np.testing.assert_allclose(flat.predictions.sum(axis=1), 1.0)
        assert flat.nbytes() > 0

    def test_truncated_is_prefix_slice(self, small_mixed_classification):
        tree = train_tree(small_mixed_classification, TreeConfig(max_depth=7))
        flat = compile_tree(tree)
        for d in range(flat.max_depth + 1):
            cut = flat.truncated(d)
            assert cut.n_nodes <= flat.n_nodes
            assert cut.max_depth <= d
            # Prefix cut: surviving arrays match the full tree's prefix.
            np.testing.assert_array_equal(
                cut.predictions, flat.predictions[: cut.n_nodes]
            )
            # Cut-level nodes became leaves.
            assert np.all(cut.feature[cut.depth >= d] == -1)

    def test_truncated_rejects_negative(self, small_mixed_classification):
        tree = train_tree(small_mixed_classification, TreeConfig(max_depth=3))
        with pytest.raises(ValueError):
            compile_tree(tree).truncated(-1)

    def test_forest_accounting(self, small_mixed_classification):
        forest = make_forest(small_mixed_classification, n_trees=4)
        flat = compile_forest(forest)
        assert flat.n_trees == 4
        assert flat.total_nodes() == forest.total_nodes()
        assert flat.output_width == forest.n_classes
        assert flat.nbytes() == sum(t.nbytes() for t in flat.trees)

    def test_forest_owns_one_block_per_array(self, small_mixed_classification):
        """Trees are views of the forest's stacked arrays, in tree order."""
        flat = compile_forest(make_forest(small_mixed_classification))
        assert flat.nbytes() == sum(a.nbytes for a in flat.stacked.values())
        lo = 0
        for tree in flat.trees:
            assert np.shares_memory(tree.threshold, flat.stacked["threshold"])
            np.testing.assert_array_equal(
                flat.stacked["left"][lo : lo + tree.n_nodes], tree.left
            )
            lo += tree.n_nodes
        assert lo == flat.total_nodes()

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError):
            FlatForest(trees=[], problem=ProblemKind.CLASSIFICATION)


class TestParity:
    """Flat kernel == node descent, bit for bit, everywhere."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_classification_proba(self, seed):
        table = make_table(seed, missing=0.1 if seed % 2 else 0.0)
        forest = make_forest(table, n_trees=3, seed=seed)
        predictor = BatchPredictor(compile_forest(forest))
        np.testing.assert_array_equal(
            predictor.predict_proba(table), forest.predict_proba(table)
        )
        np.testing.assert_array_equal(
            predictor.predict(table), forest.predict(table)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_regression_values(self, seed):
        table = make_table(
            seed + 10,
            problem=ProblemKind.REGRESSION,
            missing=0.1 if seed % 2 else 0.0,
        )
        forest = make_forest(table, n_trees=3, seed=seed)
        predictor = BatchPredictor(compile_forest(forest))
        np.testing.assert_array_equal(
            predictor.predict_values(table), forest.predict_values(table)
        )

    def test_every_truncation_depth(self, small_mixed_classification):
        table = small_mixed_classification
        forest = make_forest(table, n_trees=2, max_depth=8)
        flat = compile_forest(forest)
        predictor = BatchPredictor(flat)
        for d in range(1, flat.max_depth() + 1):
            np.testing.assert_array_equal(
                predictor.predict_proba(table, max_depth=d),
                forest.predict_proba(table, max_depth=d),
            )
            # Compile-time slicing == run-time truncation.
            np.testing.assert_array_equal(
                BatchPredictor(flat.truncated(d)).predict_proba(table),
                predictor.predict_proba(table, max_depth=d),
            )

    def test_truncation_depth_regression(self, small_regression):
        forest = make_forest(small_regression, n_trees=2, max_depth=6)
        predictor = BatchPredictor(compile_forest(forest))
        for d in range(1, 7):
            np.testing.assert_array_equal(
                predictor.predict_values(small_regression, max_depth=d),
                forest.predict_values(small_regression, max_depth=d),
            )

    def test_unseen_categories_stop_at_node(self):
        """Codes absent from training data route like the node engine."""
        full = make_table(7, rows=400)
        cat_col = full.columns[3]  # first categorical column
        held_out = int(cat_col.max())
        train_rows = np.flatnonzero(cat_col != held_out)
        train = full.take(train_rows)
        assert len(train_rows) < full.n_rows  # the code really is held out
        forest = make_forest(train, n_trees=3, seed=7)
        predictor = BatchPredictor(compile_forest(forest))
        np.testing.assert_array_equal(
            predictor.predict_proba(full), forest.predict_proba(full)
        )

    def test_missing_codes_stop_at_node(self):
        table = make_table(11, missing=0.25)
        assert any(
            np.any(col == -1) for col in table.columns[3:]
        ) or any(np.any(np.isnan(col)) for col in table.columns[:3])
        forest = make_forest(table, n_trees=2, seed=11)
        predictor = BatchPredictor(compile_forest(forest))
        np.testing.assert_array_equal(
            predictor.predict_proba(table), forest.predict_proba(table)
        )

    def test_single_tree_matches_per_row_descent(self, tiny_classification):
        table = tiny_classification
        tree = train_tree(table, TreeConfig(max_depth=4))
        predictor = BatchPredictor(compile_forest(tree))
        np.testing.assert_array_equal(
            predictor.predict_proba(table), tree.predict_proba(table)
        )

    def test_forest_compiled_convenience(self, small_mixed_classification):
        forest = make_forest(small_mixed_classification, n_trees=2)
        np.testing.assert_array_equal(
            forest.compiled().predict_proba(small_mixed_classification),
            forest.predict_proba(small_mixed_classification),
        )

    def test_matrix_entry_point(self, small_mixed_classification):
        """A dense float64 row-matrix predicts like the typed table."""
        table = small_mixed_classification
        forest = make_forest(table, n_trees=2)
        predictor = BatchPredictor(compile_forest(forest))
        matrix = np.column_stack(
            [np.asarray(col, dtype=np.float64) for col in table.columns]
        )
        np.testing.assert_array_equal(
            predictor.predict_matrix(matrix), forest.predict(table)
        )
        np.testing.assert_array_equal(
            predictor.predict_proba_matrix(matrix), forest.predict_proba(table)
        )

    def test_proba_on_regression_rejected(self, small_regression):
        forest = make_forest(small_regression, n_trees=1)
        predictor = BatchPredictor(compile_forest(forest))
        with pytest.raises(ValueError):
            predictor.predict_proba(small_regression)
        with pytest.raises(ValueError):
            BatchPredictor(
                compile_forest(make_forest(make_table(0)))
            ).predict_values(make_table(0))

# ----------------------------------------------------------------------
# the level-synchronous kernel: generated and pinned parity cases
# ----------------------------------------------------------------------
def _matrix_of(table):
    return np.column_stack(
        [np.asarray(col, dtype=np.float64) for col in table.columns]
    )


def _reference_node(tree, row, max_depth):
    """Per-row descent over one FlatTree's own arrays (test-side oracle).

    Independent of the kernel: one row, one tree, one node at a time.  It
    is what pins *quantized* compiles, which node descent cannot (their
    thresholds are the float32 ceilings, their predictions float32).
    """
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


def _reference_average(flat, matrix, max_depth):
    acc = np.zeros((len(matrix), flat.output_width), dtype=np.float64)
    for tree in flat.trees:
        nodes = [_reference_node(tree, row, max_depth) for row in matrix]
        acc += tree.predictions[nodes]
    acc /= flat.n_trees
    return acc


_NUMERIC_SHAPES = ("continuous", "ties", "constant", "all_nan", "nan_heavy")


def _numeric_column(rng, shape, n):
    if shape == "continuous":
        return rng.normal(size=n)
    if shape == "ties":
        return rng.integers(0, 4, size=n).astype(np.float64)
    if shape == "constant":
        return np.full(n, 2.5)
    if shape == "all_nan":
        return np.full(n, np.nan)
    column = rng.normal(size=n)
    column[rng.random(n) < 0.5] = np.nan
    return column


def _generated_tables(seed, problem, numeric_shapes, n_categories, n_rows):
    """A training table and a serving table over one schema.

    The serving table draws categorical codes from the full range plus
    ``-1``, the training table never shows each column's last code: those
    rows meet *unseen* codes at serving time, the others *missing* ones.
    """
    rng = np.random.default_rng(seed)
    specs = [
        ColumnSpec(f"n{i}", ColumnKind.NUMERIC)
        for i in range(len(numeric_shapes))
    ] + [
        ColumnSpec(
            f"c{i}",
            ColumnKind.CATEGORICAL,
            tuple(str(code) for code in range(k)),
        )
        for i, k in enumerate(n_categories)
    ]
    if problem is ProblemKind.CLASSIFICATION:
        target = ColumnSpec("y", ColumnKind.CATEGORICAL, ("a", "b", "c"))
    else:
        target = ColumnSpec("y", ColumnKind.NUMERIC)
    schema = TableSchema(columns=tuple(specs), target=target, problem=problem)

    def draw(n, held_out):
        columns = [
            _numeric_column(rng, shape, n) for shape in numeric_shapes
        ] + [
            rng.integers(-1, k - held_out, size=n).astype(np.int32)
            for k in n_categories
        ]
        if problem is ProblemKind.CLASSIFICATION:
            y = rng.integers(0, 3, size=n)
        else:
            y = rng.normal(size=n)
        return DataTable(schema, columns, y)

    return draw(n_rows, held_out=1), draw(n_rows, held_out=0)


class TestLevelKernel:
    """One kernel for the whole forest == node descent, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        problem=st.sampled_from(list(ProblemKind)),
        numeric_shapes=st.lists(
            st.sampled_from(_NUMERIC_SHAPES), min_size=1, max_size=4
        ),
        n_categories=st.lists(
            st.integers(min_value=2, max_value=5), min_size=0, max_size=2
        ),
        n_rows=st.integers(min_value=8, max_value=70),
        quantize=st.booleans(),
    )
    def test_property_parity_with_descent(
        self, seed, problem, numeric_shapes, n_categories, n_rows, quantize
    ):
        train, serve = _generated_tables(
            seed, problem, numeric_shapes, n_categories, n_rows
        )
        forest = ForestModel(
            [
                train_tree(train, TreeConfig(max_depth=depth, seed=seed + i))
                for i, depth in enumerate((None, 3))
            ]
        )
        flat = compile_forest(forest, quantize=quantize)
        predictor = BatchPredictor(flat)
        matrix = _matrix_of(serve)
        classify = problem is ProblemKind.CLASSIFICATION
        for max_depth in [None, *range(flat.max_depth() + 2)]:
            if classify:
                from_table = predictor.predict_proba(serve, max_depth)
                from_matrix = predictor.predict_proba_matrix(matrix, max_depth)
                descent = forest.predict_proba(serve, max_depth)
            else:
                from_table = predictor.predict_values(serve, max_depth)
                from_matrix = predictor.predict_matrix(matrix, max_depth)
                descent = forest.predict_values(serve, max_depth)
            np.testing.assert_array_equal(from_table, from_matrix)
            if quantize:
                expected = _reference_average(flat, matrix, max_depth)
                descent_tolerance = QUANTIZE_ATOL
            else:
                expected = descent.reshape(len(matrix), -1)
                descent_tolerance = 0.0
            np.testing.assert_array_equal(
                from_matrix.reshape(len(matrix), -1), expected
            )
            # The float32 ceilings move no row of these tables across a
            # threshold, so quantized output is also within the contract.
            assert (
                np.abs(from_table - descent).max(initial=0.0)
                <= descent_tolerance
            )

    @pytest.mark.parametrize(
        "n_rows",
        [0, 1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 3 * TILE_ROWS + 5],
    )
    def test_batch_sizes_around_the_tile(self, n_rows):
        table = make_table(21, missing=0.05, rows=3 * TILE_ROWS + 5)
        forest = make_forest(table.take(np.arange(400)), n_trees=3, seed=21)
        predictor = BatchPredictor(compile_forest(forest))
        rows = table.take(np.arange(n_rows))
        proba = predictor.predict_proba_matrix(_matrix_of(table)[:n_rows])
        assert proba.shape == (n_rows, forest.n_classes)
        np.testing.assert_array_equal(proba, forest.predict_proba(rows))
        np.testing.assert_array_equal(
            predictor.predict_proba(rows), forest.predict_proba(rows)
        )

    def test_non_contiguous_matrix(self, small_mixed_classification):
        table = small_mixed_classification
        forest = make_forest(table, n_trees=2)
        predictor = BatchPredictor(compile_forest(forest))
        wide = np.asfortranarray(_matrix_of(table))
        np.testing.assert_array_equal(
            predictor.predict_proba_matrix(wide[::2]),
            forest.predict_proba(table.take(np.arange(0, table.n_rows, 2))),
        )

    def _skewed_regression(self, n=64):
        """``y = 2**x``: every best split peels off the largest value, so
        the unbounded tree is a chain far deeper than log2 of its size."""
        schema = TableSchema(
            columns=(ColumnSpec("x", ColumnKind.NUMERIC),),
            target=ColumnSpec("y", ColumnKind.NUMERIC),
            problem=ProblemKind.REGRESSION,
        )
        x = np.arange(n, dtype=np.float64)
        train = DataTable(schema, [x], 2.0**x)
        rng = np.random.default_rng(5)
        served = rng.uniform(-1.0, n, size=3000)
        served[::97] = np.nan
        return train, DataTable(schema, [served], np.zeros(served.size))

    def test_skewed_forest_compacts_the_working_set(self):
        train, serve = self._skewed_regression()
        tree = train_tree(train, TreeConfig(max_depth=None))
        assert tree.depth > 3 * np.log2(tree.n_nodes)
        forest = ForestModel([tree, train_tree(train, TreeConfig(max_depth=4))])
        predictor = BatchPredictor(compile_forest(forest))
        np.testing.assert_array_equal(
            predictor.predict_values(serve), forest.predict_values(serve)
        )
        assert predictor.compactions > 0  # the halving rule really fired
        for max_depth in (0, 1, 5, tree.depth - 1, tree.depth + 3):
            np.testing.assert_array_equal(
                predictor.predict_values(serve, max_depth),
                forest.predict_values(serve, max_depth),
            )

    def test_single_leaf_tree_and_mixed_depths(self, small_mixed_classification):
        table = small_mixed_classification
        stump = train_tree(table, TreeConfig(max_depth=0))
        assert stump.n_nodes == 1
        alone = BatchPredictor(compile_forest(stump))
        np.testing.assert_array_equal(
            alone.predict_proba(table), stump.predict_proba(table)
        )
        forest = ForestModel(
            [
                train_tree(table, TreeConfig(max_depth=depth, seed=depth))
                for depth in (7, 0, 2)
            ]
        )
        mixed = BatchPredictor(compile_forest(forest))
        for max_depth in (None, 0, 1, 2, 3, 9):
            np.testing.assert_array_equal(
                mixed.predict_proba(table, max_depth),
                forest.predict_proba(table, max_depth),
            )

    def test_nan_in_categorical_column_is_missing(self):
        """NaN in a float-encoded categorical column stops at the node like
        ``-1`` does, with no invalid float->int cast on the way."""
        table = make_table(13, rows=400)
        forest = make_forest(table, n_trees=3, seed=13)
        predictor = BatchPredictor(compile_forest(forest))
        with_codes = _matrix_of(table)
        with_codes[::3, 3] = -1.0
        with_codes[1::5, 4] = -1.0
        with_nans = np.where(with_codes == -1.0, np.nan, with_codes)
        with_nans[:, :3] = with_codes[:, :3]  # numeric columns untouched
        assert np.isnan(with_nans[:, 3:]).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from_nans = predictor.predict_proba_matrix(with_nans)
            np.testing.assert_array_equal(
                from_nans, predictor.predict_proba_matrix(with_codes)
            )
            # Values no int64 holds are unseen codes, not a cast warning.
            with_nans[0, 3], with_nans[1, 3] = np.inf, 1e300
            predictor.predict_proba_matrix(with_nans)
        assert not np.array_equal(
            from_nans, predictor.predict_proba_matrix(_matrix_of(table))
        )

    def test_too_narrow_matrix_is_rejected(self, small_mixed_classification):
        table = small_mixed_classification
        forest = make_forest(table, n_trees=2)
        predictor = BatchPredictor(compile_forest(forest))
        with pytest.raises(IndexError, match="columns"):
            predictor.predict_proba_matrix(_matrix_of(table)[:, :1])

    def test_fleet_serves_multi_tile_batches_like_descent(self):
        table = make_table(17, missing=0.05, rows=2 * TILE_ROWS + 3)
        forest = make_forest(table.take(np.arange(300)), n_trees=3, seed=17)
        expected = forest.predict_proba(table)
        matrix = _matrix_of(table)
        config = ServerConfig(max_batch_size=len(matrix))
        with PredictionServer(forest, config) as solo:
            np.testing.assert_array_equal(solo.predict_proba(matrix), expected)
        with PredictionServer(forest, config, n_workers=2) as fleet:
            np.testing.assert_array_equal(fleet.predict_proba(matrix), expected)


class TestFingerprints:
    def test_stable_across_persisted_forms(
        self, small_mixed_classification, tmp_path
    ):
        """In-memory, local-dir and DFS forms share one content hash."""
        forest = make_forest(small_mixed_classification)
        in_memory = fingerprint_trees(forest.trees)
        save_model_local(tmp_path / "m", "rf", forest.trees)
        assert model_fingerprint_local(tmp_path / "m") == in_memory
        fs = SimHdfs()
        save_model_hdfs(fs, "/models/rf", "rf", forest.trees)
        assert model_fingerprint_hdfs(fs, "/models/rf") == in_memory

    def test_name_and_path_do_not_matter(
        self, small_mixed_classification, tmp_path
    ):
        forest = make_forest(small_mixed_classification)
        save_model_local(tmp_path / "a", "first", forest.trees)
        save_model_local(tmp_path / "b", "second", forest.trees)
        assert model_fingerprint_local(
            tmp_path / "a"
        ) == model_fingerprint_local(tmp_path / "b")

    def test_different_models_differ(self, small_mixed_classification):
        a = make_forest(small_mixed_classification, max_depth=3)
        b = make_forest(small_mixed_classification, max_depth=6)
        assert fingerprint_trees(a.trees) != fingerprint_trees(b.trees)


class TestRegistry:
    def test_get_or_compile_hits_once(self, small_mixed_classification):
        registry = ModelRegistry(capacity=4)
        forest = make_forest(small_mixed_classification)
        entry, hit = registry.get_or_compile(forest)
        assert not hit
        again, hit = registry.get_or_compile(forest)
        assert hit
        assert again is entry
        assert registry.stats.hits == 1
        assert registry.stats.misses == 1

    def test_lru_eviction_order(self, small_mixed_classification):
        registry = ModelRegistry(capacity=2)
        models = [
            make_forest(small_mixed_classification, n_trees=1, max_depth=d)
            for d in (2, 3, 4)
        ]
        keys = [fingerprint_trees(m.trees) for m in models]
        registry.put(keys[0], models[0])
        registry.put(keys[1], models[1])
        registry.get(keys[0])  # refresh 0: now 1 is least recent
        registry.put(keys[2], models[2])
        assert keys[0] in registry
        assert keys[1] not in registry
        assert keys[2] in registry
        assert registry.stats.evictions == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ModelRegistry(capacity=0)
        with pytest.raises(ValueError):
            ModelRegistry(max_bytes=0)

    def test_byte_budget_eviction(self, small_mixed_classification):
        models = [
            make_forest(small_mixed_classification, n_trees=1, max_depth=d)
            for d in (2, 3, 4)
        ]
        keys = [fingerprint_trees(m.trees) for m in models]
        sizes = {}
        probe = ModelRegistry(capacity=None)
        for key, model in zip(keys, models):
            sizes[key] = probe.put(key, model).nbytes()
        # Budget fits the two largest models but not all three.
        budget = sizes[keys[1]] + sizes[keys[2]]
        assert budget < sum(sizes.values())

        registry = ModelRegistry(capacity=None, max_bytes=budget)
        for key, model in zip(keys, models):
            registry.put(key, model)
        assert keys[0] not in registry  # LRU fell to byte pressure
        assert keys[1] in registry and keys[2] in registry
        assert registry.total_bytes() == budget
        assert registry.total_bytes() <= registry.max_bytes
        assert registry.stats.evictions == 1
        assert registry.stats.bytes_evicted == sizes[keys[0]]
        assert registry.stats.peak_bytes == sum(sizes.values())

    def test_oversized_entry_still_served(self, small_mixed_classification):
        """One model over budget evicts everything else but itself."""
        forest = make_forest(small_mixed_classification)
        key = fingerprint_trees(forest.trees)
        registry = ModelRegistry(capacity=None, max_bytes=1)
        entry = registry.put(key, forest)
        assert key in registry  # the newest entry is never evicted
        assert registry.total_bytes() == entry.nbytes() > 1
        small = make_forest(small_mixed_classification, n_trees=1, max_depth=2)
        registry.put(fingerprint_trees(small.trees), small)
        assert key not in registry  # now it is the LRU and over budget
        assert len(registry) == 1

    def test_replacement_does_not_leak_bytes(
        self, small_mixed_classification
    ):
        forest = make_forest(small_mixed_classification)
        key = fingerprint_trees(forest.trees)
        registry = ModelRegistry()
        first = registry.put(key, forest).nbytes()
        registry.put(key, forest)  # same key: replaces, must not double-count
        assert registry.total_bytes() == first
        registry.clear()
        assert registry.total_bytes() == 0 and len(registry) == 0

    def test_load_compiled_local_skips_reload(
        self, small_mixed_classification, tmp_path
    ):
        registry = ModelRegistry()
        forest = make_forest(small_mixed_classification)
        save_model_local(tmp_path / "m", "rf", forest.trees)
        entry, hit = load_compiled_local(tmp_path / "m", registry)
        assert not hit
        again, hit = load_compiled_local(tmp_path / "m", registry)
        assert hit
        assert again is entry
        np.testing.assert_array_equal(
            entry.predictor.predict(small_mixed_classification),
            forest.predict(small_mixed_classification),
        )

    def test_load_compiled_hdfs_shares_line_with_local(
        self, small_mixed_classification, tmp_path
    ):
        """The same content arriving via DFS hits the local-dir cache line."""
        registry = ModelRegistry()
        forest = make_forest(small_mixed_classification)
        save_model_local(tmp_path / "m", "rf", forest.trees)
        fs = SimHdfs()
        save_model_hdfs(fs, "/m", "other-name", forest.trees)
        _, hit = load_compiled_local(tmp_path / "m", registry)
        assert not hit
        _, hit = load_compiled_hdfs(fs, "/m", registry)
        assert hit

    def test_explicit_empty_registry_is_used(self, small_mixed_classification):
        """An empty (falsy-length) registry must not fall back to default."""
        registry = ModelRegistry()
        forest = make_forest(small_mixed_classification, n_trees=1)
        fs = SimHdfs()
        save_model_hdfs(fs, "/m", "rf", forest.trees)
        load_compiled_hdfs(fs, "/m", registry)
        assert len(registry) == 1


class TestPredictorCaching:
    def test_model_load_charged_once(self, small_mixed_classification):
        table = small_mixed_classification
        forest = make_forest(table)
        fs = SimHdfs()
        save_model_hdfs(fs, "/m", "rf", forest.trees)
        registry = ModelRegistry()
        system = SystemConfig(n_workers=3, compers_per_worker=2)
        first = predict_from_hdfs(fs, "/m", table, system, registry=registry)
        assert not first.cache_hit
        assert first.model_load_seconds > 0
        second = predict_from_hdfs(fs, "/m", table, system, registry=registry)
        assert second.cache_hit
        assert second.model_load_seconds == 0.0
        assert second.sim_seconds < first.sim_seconds
        np.testing.assert_array_equal(first.predictions, second.predictions)
        np.testing.assert_array_equal(
            first.predictions, forest.predict(table)
        )


class GatedPredictor(BatchPredictor):
    """Predictor whose kernel blocks until released (dispatcher control)."""

    def __init__(self, forest):
        super().__init__(forest)
        self.entered = threading.Event()
        self.release = threading.Event()

    def predict_proba_matrix(self, matrix, max_depth=None):
        self.entered.set()
        assert self.release.wait(5.0)
        return super().predict_proba_matrix(matrix, max_depth)


class RecordingPredictor(BatchPredictor):
    """Predictor that notes the row count of every server kernel call."""

    def __init__(self, forest):
        super().__init__(forest)
        self.batch_rows = []

    def predict_proba_matrix(self, matrix, max_depth=None):
        self.batch_rows.append(len(matrix))
        return super().predict_proba_matrix(matrix, max_depth)


@functools.cache
def _property_model():
    """One small compiled forest + its matrix for the hypothesis test
    (built once: ``@given`` cannot take a function-scoped fixture)."""
    table = make_table(11, rows=120)
    return compile_forest(make_forest(table, n_trees=2)), _matrix_of(table)


def _run_threads(threads, timeout=20.0):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive()


class TestServer:
    @pytest.fixture
    def compiled(self, small_mixed_classification):
        forest = make_forest(small_mixed_classification, n_trees=2)
        return compile_forest(forest), forest, small_mixed_classification

    def _matrix(self, table):
        return np.column_stack(
            [np.asarray(col, dtype=np.float64) for col in table.columns]
        )

    @pytest.fixture
    def fast_switching(self):
        """Hand the GIL over ~500x as often, so racing threads do race."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        yield
        sys.setswitchinterval(interval)

    def test_predict_parity(self, compiled):
        flat, forest, table = compiled
        matrix = self._matrix(table)
        with PredictionServer(flat) as server:
            labels = server.predict(matrix)
            proba = server.predict_proba(matrix[:17])
        np.testing.assert_array_equal(labels, forest.predict(table))
        np.testing.assert_array_equal(
            proba, forest.predict_proba(table)[:17]
        )

    def test_requests_are_sliced_back(self, compiled):
        """Coalesced requests each get exactly their own rows back."""
        flat, forest, table = compiled
        matrix = self._matrix(table)
        expected = forest.predict(table)
        config = ServerConfig(max_batch_size=64, max_delay_seconds=0.05)
        with PredictionServer(flat, config) as server:
            futures = [
                server.submit(matrix[i : i + 3])
                for i in range(0, len(matrix) - 3, 3)
            ]
            for i, future in enumerate(futures):
                np.testing.assert_array_equal(
                    future.result(timeout=10.0),
                    expected[3 * i : 3 * i + 3],
                )
        report = server.report()
        assert report.n_requests == len(futures)
        assert report.n_rows == 3 * len(futures)
        # Micro-batching actually coalesced: fewer kernel calls than requests.
        assert report.n_batches < report.n_requests
        assert report.avg_batch_rows > 3

    def test_deadline_flushes_partial_batch(self, compiled):
        flat, forest, table = compiled
        config = ServerConfig(max_batch_size=100_000, max_delay_seconds=0.02)
        with PredictionServer(flat, config) as server:
            row = self._matrix(table)[:1]
            # Far fewer rows than the batch size: only the deadline flushes.
            label = server.predict(row, timeout=5.0)
        np.testing.assert_array_equal(label, forest.predict(table)[:1])

    def test_queue_overflow_sheds_load(self, compiled):
        flat, _, table = compiled
        predictor = GatedPredictor(flat)
        config = ServerConfig(
            max_batch_size=1, max_delay_seconds=0.0, queue_capacity=2
        )
        row = self._matrix(table)[:1]
        with PredictionServer(predictor, config) as server:
            first = server.submit(row, proba=True)
            assert predictor.entered.wait(5.0)  # dispatcher is busy serving
            server.submit(row, proba=True)
            server.submit(row, proba=True)  # queue now full (capacity 2)
            with pytest.raises(QueueFullError):
                server.submit(row, proba=True)
            assert server.stats.rejected == 1
            predictor.release.set()
            first.result(timeout=5.0)
        assert server.report().rejected == 1

    def test_stop_drains_admitted_requests(self, compiled):
        flat, forest, table = compiled
        matrix = self._matrix(table)
        config = ServerConfig(max_batch_size=4096, max_delay_seconds=0.5)
        server = PredictionServer(flat, config).start()
        futures = [server.submit(matrix[i : i + 1]) for i in range(20)]
        server.stop()
        assert not server.running
        expected = forest.predict(table)
        for i, future in enumerate(futures):
            assert future.done()
            np.testing.assert_array_equal(
                future.result(timeout=0), expected[i : i + 1]
            )

    def test_accepts_node_model_via_registry(self, compiled):
        _, forest, table = compiled
        registry = ModelRegistry()
        matrix = self._matrix(table)
        with PredictionServer(forest, registry=registry) as server:
            labels = server.predict(matrix)
        np.testing.assert_array_equal(labels, forest.predict(table))
        assert len(registry) == 1

    def test_regression_server(self, small_regression):
        forest = make_forest(small_regression, n_trees=2)
        matrix = self._matrix(small_regression)
        with PredictionServer(compile_forest(forest)) as server:
            values = server.predict(matrix)
            with pytest.raises(ValueError):
                server.submit(matrix[:1], proba=True)
        np.testing.assert_array_equal(
            values, forest.predict_values(small_regression)
        )

    def test_truncated_serving(self, compiled):
        flat, forest, table = compiled
        config = ServerConfig(max_depth=2)
        with PredictionServer(flat, config) as server:
            labels = server.predict(self._matrix(table))
        np.testing.assert_array_equal(
            labels, forest.predict(table, max_depth=2)
        )

    def test_kernel_errors_propagate_to_futures(self, compiled):
        flat, _, table = compiled

        class BrokenPredictor(BatchPredictor):
            def predict_proba_matrix(self, matrix, max_depth=None):
                raise RuntimeError("kernel exploded")

        with PredictionServer(BrokenPredictor(flat)) as server:
            future = server.submit(self._matrix(table)[:1])
            with pytest.raises(RuntimeError, match="kernel exploded"):
                future.result(timeout=5.0)

    def test_submit_requires_running_server(self, compiled):
        flat, _, table = compiled
        server = PredictionServer(flat)
        with pytest.raises(RuntimeError, match="not running"):
            server.submit(self._matrix(table)[:1])

    def test_result_timeout(self, compiled):
        flat, _, table = compiled
        predictor = GatedPredictor(flat)
        with PredictionServer(predictor) as server:
            future = server.submit(self._matrix(table)[:1], proba=True)
            with pytest.raises(TimeoutError):
                future.result(timeout=0.01)
            predictor.release.set()
            future.result(timeout=5.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            ServerConfig(max_delay_seconds=-1)
        with pytest.raises(ValueError):
            ServerConfig(queue_capacity=0)

    def test_report_shapes(self, compiled):
        flat, _, table = compiled
        with PredictionServer(flat) as server:
            server.predict(self._matrix(table)[:8])
            report = server.report()
        assert report.n_rows == 8
        assert report.rows_per_second > 0
        assert report.p99_latency_ms >= report.p50_latency_ms >= 0
        summary = report.summary()
        assert "rows/s" in summary and "p50" in summary
        assert report.to_dict()["n_rows"] == 8

    # ------------------------------------------------------------------
    # malformed requests fail alone
    # ------------------------------------------------------------------
    def test_odd_width_request_cannot_wedge_the_dispatcher(self, compiled):
        """A width change ends the micro-batch; nothing dies, nobody else
        pays.  (Before: the concatenate raised in the dispatcher thread,
        which died with ``running`` still true.)"""
        flat, forest, table = compiled
        matrix = self._matrix(table)
        expected = forest.predict(table)
        wider = np.hstack([matrix[2:5], np.zeros((3, 3))])
        config = ServerConfig(max_batch_size=4096, max_delay_seconds=0.05)
        with PredictionServer(flat, config) as server:
            narrow = matrix[:2, : server.predictor.n_columns - 1]
            good = server.submit(matrix[:2])
            with pytest.raises(ValueError, match="columns"):
                server.submit(narrow)  # same delay window as ``good``
            odd = server.submit(wider)  # extra columns are never read
            np.testing.assert_array_equal(good.result(5.0), expected[:2])
            np.testing.assert_array_equal(odd.result(5.0), expected[2:5])
            assert server.report().n_batches == 2  # widths never mix
            np.testing.assert_array_equal(
                server.predict(matrix[5:9], timeout=5.0), expected[5:9]
            )
            assert server._thread.is_alive()

    def test_batch_forming_error_fails_that_batch_only(
        self, compiled, monkeypatch
    ):
        """Whatever raises while a batch is put together reaches that
        batch's futures; the dispatcher serves the next one."""
        flat, forest, table = compiled
        matrix = self._matrix(table)
        expected = forest.predict(table)
        concatenate = np.concatenate
        raised = []

        def failing_once(*args, **kwargs):
            if (
                threading.current_thread().name == "repro-serving"
                and not raised
            ):
                raised.append(True)
                raise MemoryError("no room for the batch")
            return concatenate(*args, **kwargs)

        predictor = GatedPredictor(flat)
        with PredictionServer(predictor) as server:
            opener = server.submit(matrix[:1])
            assert predictor.entered.wait(5.0)
            monkeypatch.setattr(np, "concatenate", failing_once)
            doomed = [server.submit(matrix[i : i + 1]) for i in (1, 2, 3)]
            predictor.release.set()
            opener.result(5.0)
            for future in doomed:
                with pytest.raises(MemoryError, match="no room"):
                    future.result(5.0)
                assert future.done()
            pair = [server.submit(matrix[i : i + 1]) for i in (4, 5)]
            for i, future in zip((4, 5), pair):
                np.testing.assert_array_equal(
                    future.result(5.0), expected[i : i + 1]
                )
            monkeypatch.undo()
            assert server._thread.is_alive()

    def test_failed_batch_resolves_every_future_and_the_next_is_served(
        self, compiled
    ):
        flat, forest, table = compiled
        matrix = self._matrix(table)

        class FailsSecondCall(GatedPredictor):
            calls = 0

            def predict_proba_matrix(self, matrix, max_depth=None):
                self.calls += 1
                if self.calls == 2:
                    raise RuntimeError("kernel exploded")
                return super().predict_proba_matrix(matrix, max_depth)

        predictor = FailsSecondCall(flat)
        with PredictionServer(predictor) as server:
            opener = server.submit(matrix[:1])
            assert predictor.entered.wait(5.0)
            # Queued behind a busy dispatcher: one backlog, one batch.
            doomed = [server.submit(matrix[i : i + 2]) for i in (1, 3, 5)]
            predictor.release.set()
            opener.result(5.0)
            for future in doomed:
                with pytest.raises(RuntimeError, match="kernel exploded"):
                    future.result(5.0)
            assert predictor.calls == 2
            np.testing.assert_array_equal(
                server.predict(matrix[:9], timeout=5.0),
                forest.predict(table)[:9],
            )
        report = server.report()
        assert report.n_batches == 2  # the failed batch is not counted
        assert report.n_requests == 2

    # ------------------------------------------------------------------
    # the front door under concurrency
    # ------------------------------------------------------------------
    def test_blocked_callers_each_get_their_own_rows(
        self, compiled, fast_switching
    ):
        """32 threads asleep on the one ``served`` condition: a batch's
        single ``notify_all`` must reach every one of its callers."""
        flat, forest, table = compiled
        matrix = self._matrix(table)
        expected = forest.predict(table)
        n_callers = 32
        answers = [None] * n_callers
        barrier = threading.Barrier(n_callers)
        config = ServerConfig(max_batch_size=4096, max_delay_seconds=0.05)
        with PredictionServer(flat, config) as server:

            def call(i):
                barrier.wait(10.0)
                answers[i] = server.predict(
                    matrix[3 * i : 3 * i + 3], timeout=10.0
                )

            _run_threads(
                [
                    threading.Thread(target=call, args=(i,))
                    for i in range(n_callers)
                ]
            )
        for i, answer in enumerate(answers):
            np.testing.assert_array_equal(answer, expected[3 * i : 3 * i + 3])
        report = server.report()
        assert report.n_requests == n_callers
        assert report.n_batches < n_callers

    def test_capacity_is_exact_under_racing_producers(
        self, compiled, fast_switching
    ):
        flat, _, table = compiled
        predictor = GatedPredictor(flat)
        capacity, n_producers, attempts_each = 16, 8, 10
        config = ServerConfig(
            max_batch_size=1, max_delay_seconds=0.0, queue_capacity=capacity
        )
        row = self._matrix(table)[:1]
        admitted, refused = [], []
        barrier = threading.Barrier(n_producers)
        with PredictionServer(predictor, config) as server:
            opener = server.submit(row)
            assert predictor.entered.wait(5.0)  # the queue only fills

            def produce():
                barrier.wait(10.0)
                for _ in range(attempts_each):
                    try:
                        admitted.append(server.submit(row))
                    except QueueFullError as error:
                        refused.append(error)

            _run_threads(
                [threading.Thread(target=produce) for _ in range(n_producers)]
            )
            assert len(admitted) == capacity
            assert len(admitted) + len(refused) == n_producers * attempts_each
            assert server.stats.rejected_queue_full == len(refused)
            assert {e.queue_depth for e in refused} == {capacity}
            assert {e.capacity for e in refused} == {capacity}
            predictor.release.set()
            for future in [opener, *admitted]:
                assert future.result(10.0).shape == (1,)

    def test_labels_and_proba_mixed_in_one_micro_batch(self, compiled):
        flat, forest, table = compiled
        matrix = self._matrix(table)
        labels, proba = forest.predict(table), forest.predict_proba(table)
        predictor = GatedPredictor(flat)
        with PredictionServer(predictor) as server:
            opener = server.submit(matrix[:1])
            assert predictor.entered.wait(5.0)
            futures = [
                server.submit(matrix[2 * i : 2 * i + 2], proba=bool(i % 2))
                for i in range(1, 9)
            ]
            predictor.release.set()
            opener.result(5.0)
            for i, future in zip(range(1, 9), futures):
                want = proba if i % 2 else labels
                np.testing.assert_array_equal(
                    future.result(5.0), want[2 * i : 2 * i + 2]
                )
            assert server.report().n_batches == 2  # opener, then the rest

    def test_done_and_zero_timeout(self, compiled):
        flat, _, table = compiled
        predictor = GatedPredictor(flat)
        with PredictionServer(predictor) as server:
            future = server.submit(self._matrix(table)[:1])
            assert predictor.entered.wait(5.0)
            assert not future.done()
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                future.result(0)
            assert time.monotonic() - started < 1.0  # did not block
            predictor.release.set()
            assert future.result(5.0).shape == (1,)
            assert future.done()

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=40), min_size=1, max_size=30
        ),
        max_batch_size=st.integers(min_value=1, max_value=64),
        delay=st.sampled_from([0.0, 0.002]),
    )
    def test_property_every_request_gets_its_own_rows(
        self, sizes, max_batch_size, delay
    ):
        flat, matrix = _property_model()
        predictor, reference = RecordingPredictor(flat), BatchPredictor(flat)
        starts = np.concatenate([[0], np.cumsum(sizes)])
        requests = [
            matrix[np.arange(a, b) % len(matrix)]
            for a, b in zip(starts[:-1], starts[1:])
        ]
        config = ServerConfig(
            max_batch_size=max_batch_size, max_delay_seconds=delay
        )
        with PredictionServer(predictor, config) as server:
            futures = [server.submit(rows) for rows in requests]
            for rows, future in zip(requests, futures):
                np.testing.assert_array_equal(
                    future.result(10.0), reference.predict_matrix(rows)
                )
        report = server.report()
        assert report.n_requests == len(sizes)
        assert report.n_rows == sum(sizes)
        assert report.n_batches == len(predictor.batch_rows)
        # FIFO: the batches cut the request sequence in order, and each
        # was still short of max_batch_size before its last request.
        position = 0
        for rows in predictor.batch_rows:
            taken = 0
            while taken < rows:
                assert taken < max_batch_size
                taken += sizes[position]
                position += 1
            assert taken == rows
        assert position == len(sizes)

    # ------------------------------------------------------------------
    # replaced, not forked
    # ------------------------------------------------------------------
    def test_a_request_owns_no_synchronisation_object(
        self, compiled, monkeypatch
    ):
        import repro.serving.server as server_module

        assert not {"queue", "Queue", "Empty", "Full"} & set(
            vars(server_module)
        )
        flat, _, table = compiled
        row = self._matrix(table)[:1]
        predictor = GatedPredictor(flat)
        config = ServerConfig(queue_capacity=2048)
        with PredictionServer(predictor, config) as server:
            opener = server.submit(row)
            assert predictor.entered.wait(5.0)  # the dispatcher is parked
            made = []
            for name in (
                "Lock", "RLock", "Condition", "Event", "_allocate_lock"
            ):
                factory = getattr(threading, name)

                def counting(*args, _name=name, _factory=factory, **kwargs):
                    made.append(_name)
                    return _factory(*args, **kwargs)

                monkeypatch.setattr(threading, name, counting)
            futures = [server.submit(row) for _ in range(1000)]
            monkeypatch.undo()
            assert made == []
            primitives = (
                threading.Event,
                threading.Condition,
                type(threading.Lock()),
                type(threading.RLock()),
            )
            future = futures[0]
            assert not hasattr(future, "__dict__")
            for slot in type(future).__slots__:
                value = getattr(future, slot)
                assert value is server._served or not isinstance(
                    value, primitives
                )
            predictor.release.set()
            for future in [opener, *futures]:
                future.result(10.0)


class TestCascadeCompile:
    def _fit_cascade(self):
        from repro.deepforest import CascadeConfig, CascadeForest, LocalBackend

        rng = np.random.default_rng(3)
        n, n_classes = 80, 3
        grain_features = {
            3: rng.normal(size=(n, 6)),
            5: rng.normal(size=(n, 4)),
        }
        labels = rng.integers(0, n_classes, size=n)
        cascade = CascadeForest(
            CascadeConfig(n_layers=2, n_forests=2, trees_per_forest=2, seed=9),
            LocalBackend(),
        )
        previous = None
        for layer in range(2):
            _, previous = cascade.fit_layer(
                layer, grain_features, labels, n_classes, previous
            )
        return cascade, grain_features

    def test_compiled_cascade_parity(self):
        cascade, grain_features = self._fit_cascade()
        compiled = cascade.compiled()
        node_layers = cascade.predict_proba_per_layer(grain_features)
        flat_layers = compiled.predict_proba_per_layer(grain_features)
        assert len(flat_layers) == len(node_layers)
        for node_pmf, flat_pmf in zip(node_layers, flat_layers):
            np.testing.assert_array_equal(flat_pmf, node_pmf)
        np.testing.assert_array_equal(
            compiled.predict(grain_features), cascade.predict(grain_features)
        )
        assert compiled.total_nodes() > 0

    def test_unfitted_cascade_rejected(self):
        from repro.deepforest import CascadeConfig, CascadeForest, LocalBackend
        from repro.serving.compiler import compile_cascade

        with pytest.raises(ValueError, match="not fitted"):
            compile_cascade(CascadeForest(CascadeConfig(), LocalBackend()))


class TestCliServing:
    @pytest.fixture
    def trained(self, small_mixed_classification, tmp_path):
        csv_path = tmp_path / "data.csv"
        write_csv(small_mixed_classification, csv_path)
        model_dir = tmp_path / "model"
        code = main(
            [
                "train", "--csv", str(csv_path), "--target", "label",
                "--model-dir", str(model_dir), "--forest", "2",
                "--max-depth", "5", "--workers", "2", "--compers", "2",
            ],
            out=io.StringIO(),
        )
        assert code == 0
        return csv_path, model_dir, tmp_path

    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_predict_engines_agree(self, trained):
        csv_path, model_dir, tmp_path = trained
        flat_out = tmp_path / "flat.csv"
        node_out = tmp_path / "node.csv"
        code, output = self._run(
            [
                "predict", "--csv", str(csv_path), "--target", "label",
                "--model-dir", str(model_dir), "--out", str(flat_out),
            ]
        )
        assert code == 0
        assert "engine=flat" in output
        code, output = self._run(
            [
                "predict", "--csv", str(csv_path), "--target", "label",
                "--model-dir", str(model_dir), "--out", str(node_out),
                "--engine", "node",
            ]
        )
        assert code == 0
        assert "engine=node" in output
        assert flat_out.read_text() == node_out.read_text()

    def test_serve_matches_predict(self, trained):
        csv_path, model_dir, tmp_path = trained
        predict_out = tmp_path / "preds.csv"
        serve_out = tmp_path / "served.csv"
        self._run(
            [
                "predict", "--csv", str(csv_path), "--target", "label",
                "--model-dir", str(model_dir), "--out", str(predict_out),
            ]
        )
        code, output = self._run(
            [
                "serve", "--csv", str(csv_path), "--target", "label",
                "--model-dir", str(model_dir), "--out", str(serve_out),
                "--request-rows", "7", "--batch-size", "32",
                "--max-delay-ms", "1",
            ]
        )
        assert code == 0
        assert "rows/s" in output
        assert serve_out.read_text() == predict_out.read_text()


# ----------------------------------------------------------------------
# quantized compilation (opt-in compact arrays)
# ----------------------------------------------------------------------
import os as _os

from repro.data.shm import list_segments
from repro.serving import (
    QUANTIZE_ATOL,
    QUANTIZE_MIN_AGREEMENT,
    ServingFleet,
    SharedCompiledModel,
    flat_fingerprint,
)
from repro.runtime.base import FAULT_ENV, WorkerDiedError
from repro.serving import fleet as fleet_module


class TestQuantize:
    def test_dtypes_and_size(self, small_mixed_classification):
        forest = make_forest(small_mixed_classification, n_trees=2)
        exact = compile_forest(forest)
        quant = compile_forest(forest, quantize=True)
        assert not exact.quantized and quant.quantized
        tree = quant.trees[0]
        assert tree.threshold.dtype == np.float32
        assert tree.predictions.dtype == np.float32
        assert tree.feature.dtype == np.int16
        assert tree.depth.dtype == np.int16
        assert tree.cat_len.dtype == np.int16
        assert quant.nbytes() < exact.nbytes()
        # Quantizing twice is a no-op (identity, not another copy).
        assert quant.quantized_copy() is quant

    def test_accuracy_contract(self):
        """Quantized serving honours the documented tolerance constants."""
        for seed in range(4):
            table = make_table(seed, missing=0.1 if seed % 2 else 0.0)
            forest = make_forest(table, n_trees=3, seed=seed)
            mat = _matrix_of(table)
            exact = BatchPredictor(compile_forest(forest))
            quant = BatchPredictor(compile_forest(forest, quantize=True))
            p, q = exact.predict_proba_matrix(mat), quant.predict_proba_matrix(mat)
            assert np.abs(p - q).max() <= QUANTIZE_ATOL
            agreement = float(
                (np.argmax(p, axis=1) == np.argmax(q, axis=1)).mean()
            )
            assert agreement >= QUANTIZE_MIN_AGREEMENT

    def test_threshold_quantization_rounds_up(self, small_mixed_classification):
        """float32 thresholds are the ceiling of the exact ones: a row whose
        value equals the split point must still route left (split points
        are data values, so exact equality is the common case)."""
        forest = make_forest(small_mixed_classification, n_trees=2)
        for et, qt in zip(
            compile_forest(forest).trees,
            compile_forest(forest, quantize=True).trees,
        ):
            numeric = et.numeric & (et.feature >= 0)
            exact64 = et.threshold[numeric]
            quant64 = qt.threshold[numeric].astype(np.float64)
            assert np.all(quant64 >= exact64)

    def test_registry_separate_cache_lines(self, small_mixed_classification):
        forest = make_forest(small_mixed_classification, n_trees=2)
        registry = ModelRegistry(capacity=4)
        exact, hit_e = registry.get_or_compile(forest)
        quant, hit_q = registry.get_or_compile(forest, quantize=True)
        assert not hit_e and not hit_q
        assert quant.key == exact.key + "+q32"
        assert quant.quantized and not exact.quantized
        again, hit = registry.get_or_compile(forest, quantize=True)
        assert hit and again is quant


# ----------------------------------------------------------------------
# registry thread-safety
# ----------------------------------------------------------------------
class TestRegistryConcurrency:
    def test_racing_get_or_compile_is_atomic(self, small_mixed_classification):
        forest = make_forest(small_mixed_classification, n_trees=2)
        registry = ModelRegistry(capacity=4)
        entries, errors = [], []
        gate = threading.Barrier(8)

        def hammer():
            try:
                gate.wait(timeout=10.0)
                entry, _ = registry.get_or_compile(forest)
                entries.append(entry)
            except BaseException as err:  # noqa: BLE001 - surfaced below
                errors.append(err)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        # Exactly one compilation; every thread got the same entry.
        assert len(entries) == 8
        assert len({id(e) for e in entries}) == 1
        assert len(registry) == 1
        assert registry.stats.misses == 1
        assert registry.stats.hits == 7

    def test_concurrent_put_and_read_keep_accounting_consistent(self):
        registry = ModelRegistry(capacity=2)
        tables = [make_table(seed, rows=60) for seed in range(4)]
        forests = [make_forest(t, n_trees=1, max_depth=3) for t in tables]
        errors = []
        gate = threading.Barrier(4)

        def churn(forest):
            try:
                gate.wait(timeout=10.0)
                for _ in range(5):
                    entry, _ = registry.get_or_compile(forest)
                    registry.get(entry.key)
                    registry.keys()
                    registry.total_bytes()
            except BaseException as err:  # noqa: BLE001 - surfaced below
                errors.append(err)

        threads = [threading.Thread(target=churn, args=(f,)) for f in forests]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors
        assert len(registry) <= 2  # capacity honoured under the race
        # Byte accounting matches exactly what is resident.
        resident = sum(
            registry.get(key).nbytes() for key in registry.keys()
        )
        assert registry.total_bytes() == resident


# ----------------------------------------------------------------------
# structured rejection counters
# ----------------------------------------------------------------------
class TestRejectionCounters:
    def test_queue_full_and_shutdown_are_distinguished(
        self, small_mixed_classification
    ):
        forest = make_forest(small_mixed_classification, n_trees=1)
        server = PredictionServer(forest)
        row = _matrix_of(small_mixed_classification)[:1]
        with pytest.raises(RuntimeError):
            server.submit(row)  # not started yet: a shutdown rejection
        assert server.stats.rejected_shutdown == 1
        assert server.stats.rejected_queue_full == 0
        assert server.stats.rejected == 1
        with server:
            server.predict(row, timeout=10.0)
        with pytest.raises(RuntimeError):
            server.submit(row)  # stopped again
        report = server.report()
        assert report.rejected_shutdown == 2
        assert report.rejected_queue_full == 0
        assert report.rejected == 2
        payload = report.to_dict()
        assert payload["rejected_queue_full"] == 0
        assert payload["rejected_shutdown"] == 2
        assert payload["rejected"] == 2
        assert "queue_full=0" in report.summary()
        assert "shutdown=2" in report.summary()


# ----------------------------------------------------------------------
# the serving fleet
# ----------------------------------------------------------------------
class TestFleet:
    def test_exact_mode_bit_identical_to_single_process(self):
        table = make_table(3, missing=0.1)
        forest = make_forest(table, n_trees=3, seed=3)
        mat = _matrix_of(table)
        with PredictionServer(forest) as solo:
            ref_proba = solo.predict_proba(mat)
            ref_labels = solo.predict(mat)
        before = set(list_segments())
        with PredictionServer(forest, n_workers=3) as server:
            proba = server.predict_proba(mat)
            labels = server.predict(mat)
            assert np.array_equal(proba, ref_proba)
            assert np.array_equal(labels, ref_labels)
        assert set(list_segments()) == before  # all model segments gone

    def test_regression_parity(self, small_regression):
        forest = make_forest(small_regression, n_trees=2)
        mat = _matrix_of(small_regression)
        with PredictionServer(forest) as solo:
            ref = solo.predict(mat)
        with PredictionServer(forest, n_workers=2) as server:
            out = server.predict(mat)
        assert np.array_equal(out, ref)

    def test_quantized_fleet_within_tolerance(self):
        table = make_table(5)
        forest = make_forest(table, n_trees=3, seed=5)
        mat = _matrix_of(table)
        with PredictionServer(forest) as solo:
            ref = solo.predict_proba(mat)
        with PredictionServer(forest, n_workers=2, quantize=True) as server:
            out = server.predict_proba(mat)
            assert server.report().fleet["model_quantized"]
        assert np.abs(out - ref).max() <= QUANTIZE_ATOL
        agreement = float(
            (np.argmax(out, axis=1) == np.argmax(ref, axis=1)).mean()
        )
        assert agreement >= QUANTIZE_MIN_AGREEMENT

    def test_zero_per_worker_copies(self):
        """Every worker maps exactly the published image — no copies."""
        table = make_table(2)
        forest = make_forest(table, n_trees=2, seed=2)
        mat = _matrix_of(table)
        with PredictionServer(forest, n_workers=3) as server:
            server.predict(mat)
            report = server.report()
            model_nbytes = report.fleet["model_nbytes"]
            assert model_nbytes > 0
            for worker in report.fleet["workers"]:
                assert worker["shm_bytes_mapped"] == model_nbytes
                assert worker["model_attaches"] == 1

    def test_hot_swap_reattaches_and_rolls_back(self):
        table = make_table(4)
        forest_a = make_forest(table, n_trees=2, seed=4)
        forest_b = make_forest(table, n_trees=3, seed=44)
        mat = _matrix_of(table)
        with PredictionServer(forest_a) as solo:
            ref_a = solo.predict_proba(mat)
        with PredictionServer(forest_b) as solo:
            ref_b = solo.predict_proba(mat)
        before = set(list_segments())
        with PredictionServer(forest_a, n_workers=2) as server:
            key_a = server.model_key
            assert np.array_equal(server.predict_proba(mat), ref_a)
            key_b = server.swap_model(forest_b)
            assert key_b != key_a
            assert np.array_equal(server.predict_proba(mat), ref_b)
            # Re-publishing the same content is the rollback path.
            assert server.swap_model(forest_a) == key_a
            assert np.array_equal(server.predict_proba(mat), ref_a)
            report = server.report()
            for worker in report.fleet["workers"]:
                assert worker["model_attaches"] == 3  # a, b, a again
            with pytest.raises(ValueError, match="problem kind"):
                server.swap_model(
                    make_forest(
                        make_table(1, problem=ProblemKind.REGRESSION),
                        n_trees=1,
                    )
                )
        assert set(list_segments()) == before

    def test_swap_races_concurrent_submits(self):
        """Hot swap under fire: client threads hammer ``predict_proba``
        while the model flips between two forests.  Every result must be
        exactly one of the two reference outputs — an in-flight batch
        finishes on the model it started with, a later batch uses the
        new one, never a blend — and no shm segment may leak."""
        table = make_table(5, missing=0.1)
        forest_a = make_forest(table, n_trees=2, max_depth=2, seed=5)
        forest_b = make_forest(table, n_trees=3, max_depth=6, seed=55)
        mat = _matrix_of(table)
        with PredictionServer(forest_a) as solo:
            ref_a = solo.predict_proba(mat)
        with PredictionServer(forest_b) as solo:
            ref_b = solo.predict_proba(mat)
        assert not np.array_equal(ref_a, ref_b)
        before = set(list_segments())
        stop = threading.Event()
        errors: list[str] = []
        completed = [0] * 3

        with PredictionServer(forest_a, n_workers=2) as server:

            def client(slot):
                try:
                    while not stop.is_set():
                        out = server.predict_proba(mat, timeout=60.0)
                        if not (
                            np.array_equal(out, ref_a)
                            or np.array_equal(out, ref_b)
                        ):
                            errors.append("result matches neither model")
                            return
                        completed[slot] += 1
                except Exception as error:  # noqa: BLE001 - report in main
                    errors.append(repr(error))

            threads = [
                threading.Thread(target=client, args=(slot,))
                for slot in range(3)
            ]
            for thread in threads:
                thread.start()
            try:
                for flip in range(6):
                    server.swap_model(
                        forest_b if flip % 2 == 0 else forest_a
                    )
                    time.sleep(0.02)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=120.0)
            assert not errors
            assert all(count > 0 for count in completed)
        assert set(list_segments()) == before

    def test_killed_worker_respawns_without_losing_results(self, monkeypatch):
        """A worker hard-killed mid-shard: its batch completes (retried on
        the respawn), later batches are exact, nothing is duplicated."""
        monkeypatch.setenv(FAULT_ENV, "crash:2:1")
        table = make_table(6, missing=0.1)
        forest = make_forest(table, n_trees=2, seed=6)
        mat = _matrix_of(table)
        with PredictionServer(forest) as solo:
            ref = solo.predict_proba(mat)
        before = set(list_segments())
        with PredictionServer(forest, n_workers=2) as server:
            for _ in range(3):
                out = server.predict_proba(mat)
                assert out.shape == ref.shape
                assert np.array_equal(out, ref)
            report = server.report()
            assert report.fleet["respawns"] == 1
            per_worker = {
                w["worker_id"]: w for w in report.fleet["workers"]
            }
            assert per_worker[2]["respawns"] == 1
            # No result was dropped or double-counted: per-worker rows sum
            # to exactly the rows served.
            total_rows = sum(w["rows"] for w in report.fleet["workers"])
            assert total_rows == 3 * len(mat)
        assert set(list_segments()) == before

    def test_retry_budget_exhaustion_is_structured(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "crash:1:1")
        table = make_table(7)
        forest = make_forest(table, n_trees=1, seed=7)
        mat = _matrix_of(table)
        with ServingFleet(n_workers=1, max_shard_retries=0) as fleet:
            fleet.publish(forest)
            with pytest.raises(WorkerDiedError, match="giving up"):
                fleet.predict_batch(mat, proba=True, timeout=30.0)

    def test_raise_fault_plan_is_refused(self, monkeypatch):
        """The fleet injects crash faults only: a ``raise`` plan fails
        ``start()`` instead of being ignored."""
        monkeypatch.setenv(FAULT_ENV, "raise:1:1")
        fleet = ServingFleet(n_workers=1)
        with pytest.raises(ValueError, match="crash faults only"):
            fleet.start()
        fleet.close()

    def test_shared_model_fingerprint_is_content_addressed(self):
        table = make_table(8)
        forest = make_forest(table, n_trees=2, seed=8)
        flat = compile_forest(forest)
        assert flat_fingerprint(flat) == flat_fingerprint(compile_forest(forest))
        assert flat_fingerprint(flat) != flat_fingerprint(
            compile_forest(forest, quantize=True)
        )

    def test_fleet_api_misuse_is_loud(self):
        fleet = ServingFleet(n_workers=1)
        with pytest.raises(RuntimeError, match="not running"):
            fleet.predict_batch(np.zeros((1, 1)), proba=False)
        with fleet:
            with pytest.raises(RuntimeError, match="no model"):
                fleet.predict_batch(np.zeros((1, 1)), proba=False)
        with pytest.raises(ValueError):
            ServingFleet(n_workers=0)


def _slowed_worker_main(slow_worker_id, seconds):
    """A ``_fleet_worker_main`` whose worker ``slow_worker_id`` delivers
    every shard result ``seconds`` late (the straggler of the hedging
    tests; the fleet forks, so the wrapper needs no pickling)."""
    real_main = fleet_module._fleet_worker_main

    class LatePuts:
        def __init__(self, queue):
            self.queue = queue

        def put(self, item):
            time.sleep(seconds)
            self.queue.put(item)

    def worker_main(worker_id, task_queue, result_queue, fault=None):
        if worker_id == slow_worker_id:
            result_queue = LatePuts(result_queue)
        real_main(worker_id, task_queue, result_queue, fault)

    return worker_main


class TestFleetHedging:
    def _serve(self, monkeypatch, n_workers, n_batches):
        """Serve ``n_batches`` batches with worker 2 (or the only worker)
        250 ms late; returns (per-batch seconds, stats, outputs, expected)."""
        monkeypatch.setattr(
            fleet_module,
            "_fleet_worker_main",
            _slowed_worker_main(min(2, n_workers), 0.25),
        )
        table = make_table(11)
        flat = compile_forest(make_forest(table, n_trees=2, seed=11))
        mat = _matrix_of(table)
        before = set(list_segments())
        seconds, outputs = [], []
        with ServingFleet(n_workers=n_workers, start_method="fork") as fleet:
            fleet.publish(flat)
            for _ in range(n_batches):
                started = time.monotonic()
                outputs.append(fleet.predict_batch(mat, proba=False))
                seconds.append(time.monotonic() - started)
            stats = fleet.stats()
        assert set(list_segments()) == before
        return seconds, stats, outputs, BatchPredictor(flat).predict_matrix(mat)

    def test_hedging_beats_a_slow_worker(self, monkeypatch):
        """Worker 2 answers every shard 250 ms late: each batch re-sends
        its shard to worker 1 after the hedge delay, so p99 stays far
        below the straggle, and every output is exact."""
        seconds, stats, outputs, expected = self._serve(monkeypatch, 2, 12)
        assert np.percentile(seconds, 99) < 0.2
        assert stats["hedge_wins"] >= 1
        assert stats["hedges"] >= stats["hedge_wins"]
        for out in outputs:
            assert np.array_equal(out, expected)
        # Rows count once, at the worker whose result was used.
        total = sum(w["rows"] for w in stats["workers"])
        assert total == 12 * len(expected)

    def test_one_worker_fleet_fires_no_hedge(self, monkeypatch):
        seconds, stats, outputs, expected = self._serve(monkeypatch, 1, 2)
        assert stats["hedges"] == stats["hedge_wins"] == 0
        assert min(seconds) >= 0.25  # nobody to hedge on: it waits
        for out in outputs:
            assert np.array_equal(out, expected)

    def test_giving_up_on_a_copy_fails_only_an_unanswered_shard(self):
        """Worker death past the retry budget abandons its copies.  An
        abandoned copy of a shard that already has a result, or that
        still has a copy in flight elsewhere, must not fail the batch;
        the last copy of an unanswered shard must."""
        import queue as queue_module
        from types import SimpleNamespace

        fleet = ServingFleet(n_workers=2, max_shard_retries=0)
        fleet._slots = [
            fleet_module._WorkerSlot(i, queue_module.Queue()) for i in (1, 2)
        ]
        fleet._spawn = lambda slot: None
        handle = SimpleNamespace(key="model")
        tasks = [
            fleet_module._ShardTask(
                0, shard, handle, np.zeros((1, 1)), False, None, shard
            )
            for shard in (0, 1)
        ]
        batch = fleet_module._Batch(batch_id=0, n_shards=2)
        batch.results[1] = np.zeros(1)  # shard 1: answered by worker 2
        fleet._batches[0] = batch
        first, second = fleet._slots
        # Worker 1 holds shard 0 and the hedge copy of shard 1; worker 2
        # holds the hedge copy of shard 0.
        first.outstanding = {(0, 0): tasks[0], (0, 1): tasks[1]}
        second.outstanding = {(0, 0): tasks[0]}
        fleet._key_outstanding["model"] = 3
        fleet._respawn(first, -9)
        assert batch.error is None
        fleet._respawn(second, -9)
        assert isinstance(batch.error, WorkerDiedError)
        assert fleet._key_outstanding == {}


class TestCliFleetServing(TestCliServing):
    __test__ = True

    def test_serve_with_workers_matches_in_process(self, trained):
        csv_path, model_dir, tmp_path = trained
        solo_out = tmp_path / "solo.csv"
        fleet_out = tmp_path / "fleet.csv"
        code, _ = self._run(
            [
                "serve", "--csv", str(csv_path), "--target", "label",
                "--model-dir", str(model_dir), "--out", str(solo_out),
                "--request-rows", "7", "--batch-size", "32",
            ]
        )
        assert code == 0
        code, output = self._run(
            [
                "serve", "--csv", str(csv_path), "--target", "label",
                "--model-dir", str(model_dir), "--out", str(fleet_out),
                "--request-rows", "7", "--batch-size", "32",
                "--workers", "2",
            ]
        )
        assert code == 0
        assert fleet_out.read_text() == solo_out.read_text()
        assert "workers=2" in output
        assert "rejections: queue_full=0 shutdown=0" in output
        assert "worker 1:" in output and "worker 2:" in output
        assert "shm_bytes_mapped=" in output
