"""Tests for the synthetic dataset generators (tabular and image)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TreeConfig, train_tree
from repro.data.schema import ColumnKind, ProblemKind
from repro.datasets import (
    SMALL,
    TABLE_I,
    SyntheticSpec,
    dataset_names,
    dataset_spec,
    generate,
    generate_images,
    train_test,
    train_test_images,
)
from repro.evaluation import accuracy


class TestRegistry:
    def test_eleven_datasets_like_table_one(self):
        assert len(TABLE_I) == 11
        assert dataset_names()[0] == "allstate"

    def test_schema_shapes_match_paper(self):
        """Column counts mirror the paper's Table I (c14B reduced)."""
        expectations = {
            "allstate": (13, 14, ProblemKind.REGRESSION),
            "higgs_boson": (28, 0, ProblemKind.CLASSIFICATION),
            "ms_ltrc": (136, 1, ProblemKind.CLASSIFICATION),
            "covtype": (54, 0, ProblemKind.CLASSIFICATION),
            "poker": (0, 11, ProblemKind.CLASSIFICATION),
            "kdd99": (38, 3, ProblemKind.CLASSIFICATION),
            "susy": (18, 0, ProblemKind.CLASSIFICATION),
            "loan_m1": (14, 13, ProblemKind.CLASSIFICATION),
        }
        for name, (n_num, n_cat, problem) in expectations.items():
            spec = dataset_spec(name)
            assert (spec.n_numeric, spec.n_categorical, spec.problem) == (
                n_num,
                n_cat,
                problem,
            )

    def test_loan_size_ladder(self):
        sizes = [dataset_spec(f"loan_{s}").n_rows for s in ("m1", "y1", "y2")]
        assert sizes[1] == 4 * sizes[0]
        assert sizes[2] == 8 * sizes[0]

    def test_only_allstate_has_missing(self):
        for name in dataset_names():
            spec = dataset_spec(name)
            assert (spec.missing_rate > 0) == (name == "allstate")

    def test_small_variants_are_smaller(self):
        for name in dataset_names():
            assert SMALL[name].n_rows < TABLE_I[name].n_rows

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            dataset_spec("mnist")

    def test_case_insensitive(self):
        assert dataset_spec("HIGGS_BOSON") is dataset_spec("higgs_boson")


class TestGenerate:
    def test_deterministic(self):
        spec = dataset_spec("susy", small=True)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.target, b.target)
        np.testing.assert_array_equal(a.column(0), b.column(0))

    def test_different_seeds_differ(self):
        spec = dataset_spec("susy", small=True)
        from dataclasses import replace

        other = generate(replace(spec, seed=spec.seed + 1))
        assert not np.array_equal(generate(spec).target, other.target)

    def test_missing_rate_approximate(self):
        spec = SyntheticSpec(
            name="m", n_rows=5000, n_numeric=4, n_categorical=2,
            missing_rate=0.1, seed=3,
        )
        table = generate(spec)
        for i in range(table.n_columns):
            rate = table.missing_mask(i).mean()
            assert 0.05 < rate < 0.16

    def test_class_labels_in_range(self):
        spec = dataset_spec("covtype", small=True)
        table = generate(spec)
        assert table.target.min() >= 0
        assert table.target.max() < spec.n_classes

    def test_regression_target_normalized(self):
        table = generate(dataset_spec("allstate", small=True))
        assert 0.5 < table.target.std() < 2.0

    def test_learnable_signal(self):
        """A depth-10 exact tree beats the majority class clearly."""
        train, test = train_test(dataset_spec("covtype", small=True))
        tree = train_tree(train, TreeConfig(max_depth=10))
        majority = np.bincount(test.target).max() / test.n_rows
        assert accuracy(test.target, tree.predict(test)) > majority + 0.03

    def test_redundancy_produces_correlated_columns(self):
        from dataclasses import replace

        base = SyntheticSpec(
            name="r", n_rows=2000, n_numeric=10, n_categorical=0,
            relevant_fraction=0.2, seed=5,
        )
        redundant = generate(replace(base, redundancy=1.0))
        correlations = np.corrcoef(
            np.stack([redundant.column(i) for i in range(10)])
        )
        strong = (np.abs(correlations) > 0.9).sum() - 10  # minus diagonal
        assert strong >= 2

    @settings(max_examples=10, deadline=None)
    @given(
        n_classes=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_valid_tables(self, n_classes, seed):
        spec = SyntheticSpec(
            name="p", n_rows=100, n_numeric=3, n_categorical=2,
            n_classes=n_classes, planted_depth=3, seed=seed,
        )
        table = generate(spec)
        assert table.n_rows == 100
        assert table.n_classes == n_classes
        for i, col_spec in enumerate(table.schema.columns):
            if col_spec.kind is ColumnKind.CATEGORICAL:
                assert table.column(i).max() < col_spec.n_categories


#: ``generate`` output pinned byte for byte: specs and the first 16 hex
#: digits of sha256 over every column in order, then the target, taken
#: before PR 20 folded the stump ensemble's two masked updates into one
#: add.  T24 and S100 restate the tables of ``benchmarks/e2e`` (``train.py``
#: and ``serve.py``), whose every benchmark number is measured on them.
_PINNED_TABLES = {
    "T24": (
        SyntheticSpec(
            name="T24", n_rows=24_000, n_numeric=12, n_categorical=4,
            n_classes=5, planted_depth=6, noise=0.1, missing_rate=0.02,
            seed=3,
        ),
        "fcd43ca367565513",
    ),
    "S100": (
        SyntheticSpec(
            name="S100", n_rows=100_000, n_numeric=5, n_categorical=3,
            n_classes=3, planted_depth=5, noise=0.1, missing_rate=0.02,
            seed=7,
        ),
        "074b557ecbf0f6be",
    ),
    "regression": (
        SyntheticSpec(
            name="R5", problem=ProblemKind.REGRESSION, n_rows=5_000,
            n_numeric=6, n_categorical=3, planted_depth=4, noise=0.2,
            missing_rate=0.05, seed=11,
        ),
        "449d2b4d70669068",
    ),
    "redundant": (
        SyntheticSpec(
            name="D5", n_rows=5_000, n_numeric=10, n_categorical=2,
            n_classes=4, planted_depth=4, noise=0.1, redundancy=0.6,
            seed=13,
        ),
        "652395663182dda3",
    ),
}


class TestGeneratedBytes:
    @pytest.mark.parametrize("name", sorted(_PINNED_TABLES))
    def test_table_bytes_are_pinned(self, name):
        import hashlib

        spec, digest = _PINNED_TABLES[name]
        table = generate(spec)
        sha = hashlib.sha256()
        for column in table.columns:
            sha.update(np.ascontiguousarray(column).tobytes())
        sha.update(np.ascontiguousarray(table.target).tobytes())
        assert sha.hexdigest()[:16] == digest


class TestTrainTestSplit:
    def test_split_sizes(self):
        train, test = train_test(dataset_spec("poker", small=True), 0.25)
        total = dataset_spec("poker", small=True).n_rows
        assert train.n_rows + test.n_rows == total


class TestImageDatasets:
    def test_shapes_and_ranges(self):
        data = generate_images(50, n_classes=10, side=28, seed=1)
        assert data.images.shape == (50, 28, 28)
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0
        assert set(np.unique(data.labels)) <= set(range(10))

    def test_balanced_labels(self):
        data = generate_images(100, n_classes=10, seed=2)
        counts = np.bincount(data.labels, minlength=10)
        assert counts.min() == counts.max() == 10

    def test_deterministic(self):
        a = generate_images(20, seed=5)
        b = generate_images(20, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_train_test_disjoint_stream(self):
        train, test = train_test_images(30, 20, seed=3)
        assert train.n_images == 30
        assert test.n_images == 20

    def test_classes_distinguishable_by_patches(self):
        """Local patch statistics separate classes (the MGS premise):
        a tree on raw-pixel windows beats chance comfortably."""
        from repro.deepforest import sliding_windows, windows_to_table

        train, test = train_test_images(120, 60, seed=4)
        w_train = windows_to_table(
            sliding_windows(train.images, 7, 7), train.labels, 10
        )
        tree = train_tree(w_train, TreeConfig(max_depth=10))
        w_test = windows_to_table(
            sliding_windows(test.images, 7, 7), test.labels, 10
        )
        # Per-window accuracy is intrinsically modest (most windows show
        # background; the image-level aggregation is what MGS exploits),
        # but it must clearly beat the 0.1 chance level.
        acc = accuracy(w_test.target, tree.predict(w_test))
        assert acc > 0.12

    def test_too_few_images_rejected(self):
        with pytest.raises(ValueError):
            generate_images(5, n_classes=10)
