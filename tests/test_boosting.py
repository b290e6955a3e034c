"""Tests for TreeServer-trained gradient boosting."""

import numpy as np
import pytest

from repro.core import SystemConfig
from repro.core.flat import compiled_predictor
from repro.data.schema import ProblemKind
from repro.datasets import SyntheticSpec, generate, train_test
from repro.ensemble import GBDTConfig, TreeServerGBDT
from repro.evaluation import accuracy, rmse

from .reference_predict import reference_raw_scores


def small_system() -> SystemConfig:
    return SystemConfig(n_workers=3, compers_per_worker=2)


class TestGBDTConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GBDTConfig(n_rounds=0)
        with pytest.raises(ValueError):
            GBDTConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            GBDTConfig(learning_rate=1.5)


class TestRegressionBoosting:
    def test_improves_with_rounds(self, small_regression):
        table = small_regression
        short = TreeServerGBDT(
            GBDTConfig(n_rounds=2, max_depth=3), small_system()
        ).fit(table)
        long = TreeServerGBDT(
            GBDTConfig(n_rounds=15, max_depth=3), small_system()
        ).fit(table)
        r_short = rmse(table.target, short.model.predict(table))
        r_long = rmse(table.target, long.model.predict(table))
        assert r_long < r_short

    def test_beats_constant_baseline(self, small_regression):
        table = small_regression
        report = TreeServerGBDT(
            GBDTConfig(n_rounds=8, max_depth=4), small_system()
        ).fit(table)
        pred = report.model.predict(table)
        baseline = rmse(
            table.target, np.full(table.n_rows, table.target.mean())
        )
        assert rmse(table.target, pred) < 0.8 * baseline

    def test_per_round_times_accumulate(self, small_regression):
        report = TreeServerGBDT(
            GBDTConfig(n_rounds=5, max_depth=3), small_system()
        ).fit(small_regression)
        assert len(report.per_round_seconds) == 5
        assert report.sim_seconds == pytest.approx(
            sum(report.per_round_seconds)
        )
        assert report.model.n_trees == 5


class TestBinaryBoosting:
    @pytest.fixture(scope="class")
    def binary_data(self):
        spec = SyntheticSpec(
            name="gb", n_rows=600, n_numeric=6, n_categorical=1,
            n_classes=2, planted_depth=4, noise=0.08, seed=61,
        )
        return train_test(spec)

    def test_learns(self, binary_data):
        train, test = binary_data
        report = TreeServerGBDT(
            GBDTConfig(n_rounds=12, max_depth=4), small_system()
        ).fit(train)
        acc = accuracy(test.target, report.model.predict(test))
        majority = np.bincount(test.target).max() / test.n_rows
        assert acc > majority + 0.03

    def test_proba_shape_and_range(self, binary_data):
        train, test = binary_data
        report = TreeServerGBDT(
            GBDTConfig(n_rounds=4, max_depth=3), small_system()
        ).fit(train)
        proba = report.model.predict_proba(test)
        assert proba.shape == (test.n_rows, 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert (proba >= 0).all()

    def test_multiclass_rejected(self, small_mixed_classification):
        with pytest.raises(ValueError, match="binary"):
            TreeServerGBDT(GBDTConfig(n_rounds=1), small_system()).fit(
                small_mixed_classification
            )

    def test_regression_model_has_no_proba(self, small_regression):
        report = TreeServerGBDT(
            GBDTConfig(n_rounds=2, max_depth=3), small_system()
        ).fit(small_regression)
        with pytest.raises(ValueError):
            report.model.predict_proba(small_regression)

    def test_deterministic(self, binary_data):
        train, _ = binary_data
        a = TreeServerGBDT(
            GBDTConfig(n_rounds=3, max_depth=3, seed=5), small_system()
        ).fit(train)
        b = TreeServerGBDT(
            GBDTConfig(n_rounds=3, max_depth=3, seed=5), small_system()
        ).fit(train)
        np.testing.assert_array_equal(
            a.model.predict(train), b.model.predict(train)
        )
        assert a.sim_seconds == b.sim_seconds


class TestPredictionPath:
    """Boosting predicts on the flat kernel: ``base + lr * tree`` in tree
    order, bit for bit the frozen per-row oracle's margins."""

    @pytest.fixture(scope="class")
    def binary_with_missing(self):
        spec = SyntheticSpec(
            name="gbm", n_rows=400, n_numeric=4, n_categorical=2,
            n_classes=2, planted_depth=4, noise=0.1, missing_rate=0.1,
            seed=67,
        )
        return train_test(spec)

    def test_raw_scores_match_oracle(self, binary_with_missing):
        train, test = binary_with_missing
        model = TreeServerGBDT(
            GBDTConfig(n_rounds=5, max_depth=4), small_system()
        ).fit(train).model
        np.testing.assert_array_equal(
            model.raw_scores(test), reference_raw_scores(model, test)
        )

    def test_regression_raw_scores_match_oracle(self, small_regression):
        model = TreeServerGBDT(
            GBDTConfig(n_rounds=4, max_depth=3), small_system()
        ).fit(small_regression).model
        np.testing.assert_array_equal(
            model.predict(small_regression),
            reference_raw_scores(model, small_regression),
        )

    def test_grown_model_is_not_served_from_a_stale_compile(
        self, binary_with_missing
    ):
        """Fitting appends a tree per round; a model predicted before it
        grew must not answer from the compile of fewer trees."""
        train, test = binary_with_missing
        model = TreeServerGBDT(
            GBDTConfig(n_rounds=2, max_depth=3), small_system()
        ).fit(train).model
        before = model.raw_scores(test)
        assert compiled_predictor(model) is compiled_predictor(model)
        extra = TreeServerGBDT(
            GBDTConfig(n_rounds=1, max_depth=2, seed=3), small_system()
        ).fit(train).model.trees[0]
        model.trees.append(extra)
        grown = model.raw_scores(test)
        assert compiled_predictor(model).forest.n_trees == 3
        np.testing.assert_array_equal(
            grown, reference_raw_scores(model, test)
        )
        assert not np.array_equal(grown, before)
