"""Tests for the PLANET/MLlib and XGBoost baselines and their machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    PlanetConfig,
    PlanetTrainer,
    WeightedQuantileSketch,
    XGBoostConfig,
    XGBoostTrainer,
)
from repro.core import TreeConfig, train_tree
from repro.core.histogram import (
    best_binned_numeric_split,
    bin_indices,
    equi_depth_thresholds,
)
from repro.core.impurity import Impurity
from repro.core.splits import best_split_for_column
from repro.data.schema import ColumnKind, ProblemKind
from repro.datasets import SyntheticSpec, generate, train_test
from repro.evaluation import accuracy, rmse


class TestEquiDepthThresholds:
    def test_number_of_thresholds(self):
        values = np.arange(1000, dtype=float)
        t = equi_depth_thresholds(values, max_bins=32)
        assert 1 <= len(t) <= 31
        assert (np.diff(t) > 0).all()

    def test_low_cardinality_collapses(self):
        values = np.array([1.0, 1.0, 2.0, 2.0, 3.0] * 10)
        t = equi_depth_thresholds(values, max_bins=32)
        # Only 2 distinct boundaries are possible below the max.
        assert set(t) <= {1.0, 2.0}

    def test_missing_ignored(self):
        values = np.array([1.0, np.nan, 2.0, np.nan, 3.0, 4.0])
        t = equi_depth_thresholds(values, 4)
        assert not np.isnan(t).any()

    def test_all_missing_empty(self):
        assert equi_depth_thresholds(np.full(5, np.nan), 8).size == 0

    def test_max_value_excluded(self):
        values = np.arange(100, dtype=float)
        t = equi_depth_thresholds(values, 10)
        assert t.max() < 99.0

    def test_invalid_bins_rejected(self):
        with pytest.raises(ValueError):
            equi_depth_thresholds(np.arange(10.0), 1)


class TestBinnedSplit:
    def test_matches_exact_when_bins_cover_all_values(self):
        """With enough bins, binned search finds the exact best split."""
        rng = np.random.default_rng(0)
        values = rng.integers(0, 10, size=200).astype(float)
        y = (values > 4).astype(np.int64)
        y[:20] = 1 - y[:20]
        thresholds = equi_depth_thresholds(values, max_bins=64)
        bins = bin_indices(values, thresholds)
        approx = best_binned_numeric_split(
            0, bins, thresholds, y, Impurity.GINI, 2
        )
        exact = best_split_for_column(
            0, ColumnKind.NUMERIC, values, y, Impurity.GINI, 2
        )
        assert approx is not None and exact is not None
        assert approx.score == pytest.approx(exact.score, abs=1e-9)

    def test_coarse_bins_are_no_better_than_exact(self):
        rng = np.random.default_rng(1)
        values = rng.lognormal(size=500)
        threshold = np.quantile(values, 0.93)
        y = (values > threshold).astype(np.int64)
        t4 = equi_depth_thresholds(values, max_bins=4)
        approx = best_binned_numeric_split(
            0, bin_indices(values, t4), t4, y, Impurity.GINI, 2
        )
        exact = best_split_for_column(
            0, ColumnKind.NUMERIC, values, y, Impurity.GINI, 2
        )
        assert exact is not None and approx is not None
        assert exact.score <= approx.score + 1e-12
        assert exact.score == pytest.approx(0.0, abs=1e-12)
        assert approx.score > 0.0  # the tail threshold falls between bins

    def test_counts_sum(self):
        values = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        y = np.array([0, 0, 1, 1, 1])
        t = equi_depth_thresholds(values, 4)
        split = best_binned_numeric_split(
            0, bin_indices(values, t), t, y, Impurity.GINI, 2
        )
        assert split is not None
        assert split.n_left + split.n_right == 5

    def test_empty_thresholds_none(self):
        values = np.full(5, 3.0)
        y = np.array([0, 1, 0, 1, 0])
        t = equi_depth_thresholds(values, 8)
        assert (
            best_binned_numeric_split(
                0, bin_indices(values, t), t, y, Impurity.GINI, 2
            )
            is None
        )


class TestPlanetTrainer:
    def test_model_close_to_exact_on_easy_data(
        self, small_mixed_classification
    ):
        table = small_mixed_classification
        exact = train_tree(table, TreeConfig(max_depth=6))
        approx = PlanetTrainer().fit(table, TreeConfig(max_depth=6))
        acc_exact = accuracy(table.target, exact.predict(table))
        acc_approx = accuracy(table.target, approx.tree().predict(table))
        assert acc_approx > 0.5
        assert acc_exact >= acc_approx - 0.05

    def test_regression(self, small_regression):
        report = PlanetTrainer().fit(small_regression, TreeConfig(max_depth=5))
        pred = report.tree().predict(small_regression)
        assert rmse(small_regression.target, pred) < rmse(
            small_regression.target, np.full_like(pred, small_regression.target.mean())
        )

    def test_forest_training(self, small_mixed_classification):
        report = PlanetTrainer().fit(
            small_mixed_classification, TreeConfig(max_depth=5), n_trees=5, seed=1
        )
        assert len(report.trees) == 5
        forest = report.forest()
        assert forest.n_trees == 5

    def test_ledger_components_positive(self, small_mixed_classification):
        report = PlanetTrainer().fit(
            small_mixed_classification, TreeConfig(max_depth=5)
        )
        assert report.sim_seconds == pytest.approx(
            report.scan_seconds + report.comm_seconds + report.overhead_seconds
        )
        assert report.n_iterations >= 1
        assert report.nodes_examined >= report.n_iterations

    def test_single_thread_has_no_comm(self, small_mixed_classification):
        report = PlanetTrainer(PlanetConfig().single_thread()).fit(
            small_mixed_classification, TreeConfig(max_depth=5)
        )
        assert report.comm_seconds < 0.05  # only driver-side select cost

    def test_deterministic(self, small_mixed_classification):
        r1 = PlanetTrainer().fit(small_mixed_classification, TreeConfig(max_depth=5))
        r2 = PlanetTrainer().fit(small_mixed_classification, TreeConfig(max_depth=5))
        assert r1.sim_seconds == r2.sim_seconds
        np.testing.assert_array_equal(
            r1.tree().predict(small_mixed_classification),
            r2.tree().predict(small_mixed_classification),
        )

    def test_more_machines_reduce_scan_time(self, small_mixed_classification):
        small = PlanetTrainer(
            PlanetConfig(n_machines=2, threads_per_machine=2)
        ).fit(small_mixed_classification, TreeConfig(max_depth=6))
        big = PlanetTrainer(
            PlanetConfig(n_machines=15, threads_per_machine=10)
        ).fit(small_mixed_classification, TreeConfig(max_depth=6))
        assert big.scan_seconds < small.scan_seconds

    def test_tree_helper_rejects_forest(self, small_mixed_classification):
        report = PlanetTrainer().fit(
            small_mixed_classification, TreeConfig(max_depth=4), n_trees=3, seed=1
        )
        with pytest.raises(ValueError):
            report.tree()


class TestWeightedQuantileSketch:
    def test_from_arrays_collapses_duplicates(self):
        sketch = WeightedQuantileSketch.from_arrays(
            np.array([1.0, 2.0, 1.0]), np.array([1.0, 1.0, 3.0])
        )
        assert sketch.size == 2
        assert sketch.total_weight == pytest.approx(5.0)

    def test_query_weighted_median(self):
        sketch = WeightedQuantileSketch.from_arrays(
            np.arange(100, dtype=float), np.ones(100)
        )
        assert 45 <= sketch.query(0.5) <= 55

    def test_merge_preserves_weight(self):
        a = WeightedQuantileSketch.from_arrays(
            np.arange(10, dtype=float), np.ones(10)
        )
        b = WeightedQuantileSketch.from_arrays(
            np.arange(5, 15, dtype=float), np.full(10, 2.0)
        )
        merged = a.merge(b)
        assert merged.total_weight == pytest.approx(30.0)

    def test_prune_bounds_size_and_weight(self):
        sketch = WeightedQuantileSketch.from_arrays(
            np.arange(1000, dtype=float), np.ones(1000)
        )
        pruned = sketch.prune(32)
        assert pruned.size <= 32
        assert pruned.total_weight == pytest.approx(1000.0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                st.floats(min_value=0.01, max_value=10),
            ),
            min_size=5,
            max_size=200,
        )
    )
    def test_prune_rank_error_bounded(self, pairs):
        """Pruned quantile queries stay within the summary's rank bound."""
        values = np.array([v for v, _ in pairs])
        weights = np.array([w for _, w in pairs])
        sketch = WeightedQuantileSketch.from_arrays(values, weights)
        pruned = sketch.prune(16)
        total = sketch.total_weight
        for frac in (0.25, 0.5, 0.75):
            answer = pruned.query(frac)
            # The answer value spans a weighted-rank *interval* (duplicates
            # make point ranks ill-defined); the query fraction must fall
            # near that interval.
            order = np.argsort(values, kind="stable")
            sorted_vals = values[order]
            cum = np.cumsum(weights[order])
            lo_idx = int(np.searchsorted(sorted_vals, answer, side="left"))
            hi_idx = int(np.searchsorted(sorted_vals, answer, side="right"))
            rank_lo = cum[lo_idx - 1] / total if lo_idx > 0 else 0.0
            rank_hi = cum[min(hi_idx, len(cum)) - 1] / total if hi_idx > 0 else 0.0
            slack = 2.5 / 16 + 2.0 / len(pairs)
            assert rank_lo - slack <= frac <= rank_hi + slack

    def test_candidates_exclude_max(self):
        sketch = WeightedQuantileSketch.from_arrays(
            np.arange(50, dtype=float), np.ones(50)
        )
        candidates = sketch.candidates(8)
        assert candidates.size >= 1
        assert candidates.max() < 49.0

    def test_empty_sketch(self):
        sketch = WeightedQuantileSketch.from_arrays(
            np.full(3, np.nan), np.ones(3)
        )
        assert sketch.size == 0
        assert sketch.candidates(8).size == 0
        with pytest.raises(ValueError):
            sketch.query(0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedQuantileSketch.from_arrays(
                np.array([1.0]), np.array([-1.0])
            )


class TestXGBoostTrainer:
    def test_binary_classification_learns(self):
        table = generate(
            SyntheticSpec(
                name="bin", n_rows=800, n_numeric=6, n_categorical=0,
                n_classes=2, planted_depth=4, noise=0.05, seed=21,
            )
        )
        train, test = table.split_train_test(0.25, seed=1)
        report = XGBoostTrainer(XGBoostConfig(n_rounds=20, max_depth=4)).fit(train)
        acc = accuracy(test.target, report.model.predict(test))
        assert acc > 0.75

    def test_multiclass_trains_k_trees_per_round(self):
        table = generate(
            SyntheticSpec(
                name="multi", n_rows=400, n_numeric=5, n_categorical=0,
                n_classes=3, planted_depth=3, noise=0.05, seed=22,
            )
        )
        report = XGBoostTrainer(XGBoostConfig(n_rounds=4, max_depth=3)).fit(table)
        assert report.model.n_trees == 12  # 4 rounds x 3 classes
        acc = accuracy(table.target, report.model.predict(table))
        assert acc > 0.6

    def test_regression_improves_with_rounds(self, small_regression):
        short = XGBoostTrainer(XGBoostConfig(n_rounds=3, max_depth=4)).fit(
            small_regression
        )
        long = XGBoostTrainer(XGBoostConfig(n_rounds=25, max_depth=4)).fit(
            small_regression
        )
        r_short = rmse(
            small_regression.target, short.model.predict(small_regression)
        )
        r_long = rmse(
            small_regression.target, long.model.predict(small_regression)
        )
        assert r_long < r_short

    def test_time_linear_in_rounds(self, small_mixed_classification):
        t10 = XGBoostTrainer(XGBoostConfig(n_rounds=10, max_depth=4)).fit(
            small_mixed_classification
        )
        t20 = XGBoostTrainer(XGBoostConfig(n_rounds=20, max_depth=4)).fit(
            small_mixed_classification
        )
        assert 1.5 < t20.sim_seconds / t10.sim_seconds < 2.6

    def test_max_depth_respected(self, small_mixed_classification):
        report = XGBoostTrainer(XGBoostConfig(n_rounds=2, max_depth=2)).fit(
            small_mixed_classification
        )

        def depth(node, d=0):
            if node.is_leaf:
                return d
            return max(depth(node.left, d + 1), depth(node.right, d + 1))

        for round_trees in report.model.rounds:
            for root in round_trees:
                assert depth(root) <= 2

    def test_handles_missing_values(self, small_regression):
        report = XGBoostTrainer(XGBoostConfig(n_rounds=5, max_depth=3)).fit(
            small_regression
        )
        pred = report.model.predict(small_regression)
        assert np.isfinite(pred).all()

    def test_deterministic(self, small_mixed_classification):
        a = XGBoostTrainer(XGBoostConfig(n_rounds=5, max_depth=3)).fit(
            small_mixed_classification
        )
        b = XGBoostTrainer(XGBoostConfig(n_rounds=5, max_depth=3)).fit(
            small_mixed_classification
        )
        np.testing.assert_array_equal(
            a.model.predict(small_mixed_classification),
            b.model.predict(small_mixed_classification),
        )
        assert a.sim_seconds == b.sim_seconds


class TestBoostingVsBagging:
    def test_xgboost_accuracy_competitive(self):
        """On additive-signal data boosting matches or beats a same-size
        forest — the paper's Table II(c) accuracy axis."""
        spec = SyntheticSpec(
            name="add", n_rows=1500, n_numeric=10, n_categorical=0,
            n_classes=2, planted_depth=4, noise=0.1, seed=23,
            interaction_weight=1.0,
        )
        train, test = train_test(spec)
        xgb = XGBoostTrainer(XGBoostConfig(n_rounds=30, max_depth=4)).fit(train)
        from repro.core.jobs import random_forest_job
        from repro.ensemble import ForestModel

        job = random_forest_job("rf", 30, TreeConfig(max_depth=10), seed=3)
        forest = ForestModel(
            [train_tree(train, t.config) for t in job.stages[0].trees]
        )
        acc_xgb = accuracy(test.target, xgb.model.predict(test))
        acc_rf = accuracy(test.target, forest.predict(test))
        assert acc_xgb >= acc_rf - 0.03
