"""Tests for impurity functions, including property-based invariants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.impurity import (
    Impurity,
    classification_children_scores,
    classification_impurity,
    classification_impurity_classes,
    default_impurity,
    entropy,
    entropy_classes,
    gini,
    gini_classes,
    variance,
    variance_children_scores,
    variance_rows,
    weighted_children_impurity,
)

counts_strategy = st.lists(
    st.integers(min_value=0, max_value=1000), min_size=1, max_size=8
).map(lambda xs: np.array(xs, dtype=np.float64))


class TestGini:
    def test_pure_is_zero(self):
        assert gini(np.array([10.0, 0.0])) == 0.0

    def test_uniform_binary_is_half(self):
        assert gini(np.array([5.0, 5.0])) == pytest.approx(0.5)

    def test_empty_is_zero(self):
        assert gini(np.array([0.0, 0.0])) == 0.0

    @given(counts_strategy)
    def test_bounds(self, counts):
        value = gini(counts)
        k = len(counts)
        assert 0.0 <= value <= 1.0 - 1.0 / k + 1e-12

    @given(counts_strategy)
    def test_zero_iff_pure(self, counts):
        value = gini(counts)
        nonzero = int((counts > 0).sum())
        if nonzero <= 1:
            assert value == pytest.approx(0.0, abs=1e-12)
        else:
            assert value > 0

    @given(counts_strategy, st.integers(min_value=2, max_value=7))
    def test_scale_invariance(self, counts, factor):
        assert gini(counts * factor) == pytest.approx(gini(counts))


class TestEntropy:
    def test_pure_is_zero(self):
        assert entropy(np.array([7.0, 0.0, 0.0])) == 0.0

    def test_uniform_binary_is_log2(self):
        assert entropy(np.array([4.0, 4.0])) == pytest.approx(np.log(2))

    @given(counts_strategy)
    def test_nonnegative_and_bounded(self, counts):
        value = entropy(counts)
        assert value >= 0.0
        assert value <= np.log(len(counts)) + 1e-12


class TestVariance:
    def test_constant_values(self):
        y = np.full(5, 3.0)
        assert variance(5, y.sum(), (y * y).sum()) == pytest.approx(0.0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=100)
        ours = variance(len(y), y.sum(), (y * y).sum())
        assert ours == pytest.approx(np.var(y), rel=1e-9)

    def test_empty_is_zero(self):
        assert variance(0, 0.0, 0.0) == 0.0

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_nonnegative(self, values):
        y = np.array(values)
        assert variance(len(y), float(y.sum()), float((y * y).sum())) >= 0.0


def _class_major(columns):
    """Stack count vectors of unequal length as a ``(k, m)`` matrix."""
    k = max(len(c) for c in columns)
    matrix = np.zeros((k, len(columns)))
    for i, c in enumerate(columns):
        matrix[: len(c), i] = c
    return matrix


class TestVectorizedForms:
    @given(st.lists(counts_strategy, min_size=1, max_size=5))
    def test_gini_classes_matches_scalar(self, columns):
        matrix = _class_major(columns)
        vec = gini_classes(matrix, matrix.sum(axis=0))
        for i in range(len(columns)):
            assert vec[i] == pytest.approx(gini(matrix[:, i]))

    @given(st.lists(counts_strategy, min_size=1, max_size=5))
    def test_entropy_classes_matches_scalar(self, columns):
        matrix = _class_major(columns)
        vec = entropy_classes(matrix, matrix.sum(axis=0))
        for i in range(len(columns)):
            assert vec[i] == pytest.approx(entropy(matrix[:, i]))

    @pytest.mark.parametrize("fn", [gini_classes, entropy_classes])
    def test_layout_and_dtype_do_not_matter(self, fn):
        """Integer counts, a transposed view and extra candidate axes all
        give the bits of the plain float matrix: the order of the class
        sum is fixed by the function, not by strides."""
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 40, size=(9, 24))
        totals = counts.sum(axis=0)
        want = fn(counts.astype(np.float64), totals.astype(np.float64))
        assert np.array_equal(fn(counts, totals), want)
        assert np.array_equal(
            fn(np.asfortranarray(counts), totals), want
        )
        assert np.array_equal(
            fn(counts.reshape(9, 4, 6), totals.reshape(4, 6)),
            want.reshape(4, 6),
        )
        one = fn(counts[:, :1], totals[:1])
        assert one[0] == want[0]

    def test_variance_rows_matches_scalar(self):
        rng = np.random.default_rng(1)
        groups = [rng.normal(size=n) for n in (1, 5, 20)]
        counts = np.array([float(len(g)) for g in groups])
        sums = np.array([g.sum() for g in groups])
        sqs = np.array([(g * g).sum() for g in groups])
        vec = variance_rows(counts, sums, sqs)
        for i, g in enumerate(groups):
            assert vec[i] == pytest.approx(np.var(g), abs=1e-12)

    def test_zero_totals_are_zero(self):
        counts, totals = np.zeros((3, 2)), np.zeros(2)
        assert gini_classes(counts, totals).tolist() == [0.0, 0.0]
        assert entropy_classes(counts, totals).tolist() == [0.0, 0.0]
        mixed = np.array([[0.0, 2.0], [0.0, 2.0]])
        assert gini_classes(mixed, mixed.sum(axis=0)).tolist() == [0.0, 0.5]


class TestChildrenScores:
    @given(
        st.lists(
            st.tuples(counts_strategy, counts_strategy), min_size=1, max_size=5
        ),
        st.sampled_from([Impurity.GINI, Impurity.ENTROPY]),
    )
    def test_classification_matches_scalar_mix(self, pairs, criterion):
        left = _class_major([lc for lc, _ in pairs])
        right = _class_major([rc for _, rc in pairs])
        k = max(len(left), len(right))
        left = np.pad(left, ((0, k - len(left)), (0, 0)))
        right = np.pad(right, ((0, k - len(right)), (0, 0)))
        nl, nr = left.sum(axis=0), right.sum(axis=0)
        scores = classification_children_scores(left, nl, right, nr, criterion)
        for i in range(len(pairs)):
            want = weighted_children_impurity(
                classification_impurity(left[:, i], criterion), nl[i],
                classification_impurity(right[:, i], criterion), nr[i],
            )
            assert scores[i] == pytest.approx(want, abs=1e-12)

    def test_variance_matches_scalar_mix(self):
        rng = np.random.default_rng(3)
        lefts = [rng.normal(size=n) for n in (0, 1, 7)]
        rights = [rng.normal(size=n) for n in (0, 4, 2)]

        def triple(groups):
            return (
                np.array([len(g) for g in groups]),
                np.array([g.sum() for g in groups]),
                np.array([(g * g).sum() for g in groups]),
            )

        scores = variance_children_scores(*triple(lefts), *triple(rights))
        assert scores[0] == 0.0  # no rows on either side
        for i in (1, 2):
            want = weighted_children_impurity(
                np.var(lefts[i]), len(lefts[i]),
                np.var(rights[i]), len(rights[i]),
            )
            assert scores[i] == pytest.approx(want, abs=1e-12)


class TestWeightedChildren:
    def test_scalar_mix(self):
        assert weighted_children_impurity(0.5, 10, 0.0, 10) == pytest.approx(0.25)

    def test_zero_total(self):
        assert weighted_children_impurity(0.3, 0, 0.7, 0) == 0.0

    @given(
        st.floats(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=100),
    )
    def test_between_children(self, li, lw, ri, rw):
        value = weighted_children_impurity(li, lw, ri, rw)
        assert min(li, ri) - 1e-12 <= value <= max(li, ri) + 1e-12 or (
            lw + rw == 0 and value == 0.0
        )


class TestDispatch:
    def test_classification_dispatch(self):
        counts = np.array([3.0, 7.0])
        assert classification_impurity(counts, Impurity.GINI) == pytest.approx(
            gini(counts)
        )
        assert classification_impurity(
            counts, Impurity.ENTROPY
        ) == pytest.approx(entropy(counts))

    def test_variance_not_classification(self):
        with pytest.raises(ValueError):
            classification_impurity(np.array([1.0]), Impurity.VARIANCE)
        with pytest.raises(ValueError):
            classification_impurity_classes(
                np.ones((2, 1)), np.full(1, 2.0), Impurity.VARIANCE
            )

    def test_defaults_match_paper(self):
        assert default_impurity(True) is Impurity.GINI
        assert default_impurity(False) is Impurity.VARIANCE

    def test_is_classification_flag(self):
        assert Impurity.GINI.is_classification
        assert Impurity.ENTROPY.is_classification
        assert not Impurity.VARIANCE.is_classification
