"""Tests for exact split search — including brute-force cross-checks.

The brute-force comparisons are the key property tests: the one-pass /
grouped algorithms of Appendix B must agree with exhaustive enumeration of
every possible split on small random inputs.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import histogram, splits
from repro.core.impurity import (
    Impurity,
    classification_impurity,
    variance,
    weighted_children_impurity,
)
from repro.core.splits import (
    EXHAUSTIVE_SUBSET_LIMIT,
    CandidateSplit,
    CountScratch,
    best_categorical_regression_split,
    best_split_for_column,
    categorical_classification_scan,
    numeric_classification_scan,
    numeric_regression_scan,
    random_split_for_column,
    route_training_rows,
)
from repro.core.kernel import scan_columns
from repro.data.schema import ColumnKind, ColumnSpec

from .reference_predict import route_test_value
from .reference_scan import (
    reference_binned_split,
    reference_categorical_classification_split,
    reference_categorical_regression_split,
    reference_numeric_split,
)


def best_numeric_split(column, values, y, criterion, n_classes):
    """Case 1 at one node, through the one split dispatch."""
    return best_split_for_column(
        column, ColumnKind.NUMERIC, values, y, criterion, n_classes
    )


def best_categorical_classification_split(
    column, codes, y, n_categories, criterion, n_classes
):
    """Case 3 at one node, through the one split dispatch."""
    return best_split_for_column(
        column, ColumnKind.CATEGORICAL, codes, y, criterion, n_classes,
        n_categories,
    )


def brute_force_numeric(values, y, criterion, n_classes):
    """Score every distinct-value threshold exhaustively."""
    present = ~np.isnan(values)
    vals, ys = values[present], y[present]
    best = None
    for v in sorted(set(vals))[:-1]:
        left = vals <= v
        score = _score(ys[left], ys[~left], criterion, n_classes)
        if best is None or score < best - 1e-12:
            best = score
    return best


def _score(yl, yr, criterion, n_classes):
    if criterion.is_classification:
        li = classification_impurity(
            np.bincount(yl.astype(int), minlength=n_classes).astype(float),
            criterion,
        )
        ri = classification_impurity(
            np.bincount(yr.astype(int), minlength=n_classes).astype(float),
            criterion,
        )
    else:
        li = variance(len(yl), yl.sum(), (yl * yl).sum())
        ri = variance(len(yr), yr.sum(), (yr * yr).sum())
    return weighted_children_impurity(li, len(yl), ri, len(yr))


class TestNumericSplit:
    def test_perfect_separation(self):
        values = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
        y = np.array([0, 0, 0, 1, 1, 1])
        split = best_numeric_split(0, values, y, Impurity.GINI, 2)
        assert split is not None
        assert split.threshold == pytest.approx(3.0)
        assert split.score == pytest.approx(0.0)
        assert split.n_left == 3 and split.n_right == 3

    def test_constant_column_returns_none(self):
        values = np.full(5, 2.0)
        y = np.array([0, 1, 0, 1, 0])
        assert best_numeric_split(0, values, y, Impurity.GINI, 2) is None

    def test_single_row_returns_none(self):
        assert (
            best_numeric_split(
                0, np.array([1.0]), np.array([0]), Impurity.GINI, 2
            )
            is None
        )

    def test_all_missing_returns_none(self):
        values = np.full(4, np.nan)
        y = np.array([0, 1, 0, 1])
        assert best_numeric_split(0, values, y, Impurity.GINI, 2) is None

    def test_missing_routed_to_larger_child(self):
        values = np.array([1.0, 2.0, np.nan, 10.0, 11.0, 12.0, np.nan])
        y = np.array([0, 0, 0, 1, 1, 1, 1])
        split = best_numeric_split(0, values, y, Impurity.GINI, 2)
        assert split is not None
        assert split.n_missing == 2
        # Right side has 3 present rows, left has 2 -> missing go right.
        assert not split.missing_to_left
        assert split.n_right == 5 and split.n_left == 2

    def test_regression_split(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        split = best_numeric_split(0, values, y, Impurity.VARIANCE, 0)
        assert split is not None
        assert split.threshold == pytest.approx(2.0)
        assert split.score == pytest.approx(0.0)

    def test_tie_breaks_to_smallest_threshold(self):
        # Both thresholds 1.0 and 2.0 give identical scores here.
        values = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([0, 1, 0, 1])
        split = best_numeric_split(0, values, y, Impurity.GINI, 2)
        assert split is not None
        assert split.threshold == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=2,
            max_size=40,
        )
    )
    def test_matches_brute_force_classification(self, pairs):
        values = np.array([float(v) for v, _ in pairs])
        y = np.array([c for _, c in pairs])
        split = best_numeric_split(0, values, y, Impurity.GINI, 3)
        brute = brute_force_numeric(values, y, Impurity.GINI, 3)
        if brute is None:
            assert split is None
        else:
            assert split is not None
            assert split.score == pytest.approx(brute, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.floats(min_value=-5, max_value=5, allow_nan=False),
            ),
            min_size=2,
            max_size=30,
        )
    )
    def test_matches_brute_force_regression(self, pairs):
        values = np.array([float(v) for v, _ in pairs])
        y = np.array([t for _, t in pairs])
        split = best_numeric_split(0, values, y, Impurity.VARIANCE, 0)
        brute = brute_force_numeric(values, y, Impurity.VARIANCE, 0)
        if brute is None:
            assert split is None
        else:
            assert split is not None
            assert split.score == pytest.approx(brute, abs=1e-9)


# Columns built to break a scan that leans on tie order or on NaN, zero
# and infinity handling: few distinct values, both zeros, both infinities.
_TIE_HEAVY = st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 1.0, 1.0, 2.5, np.inf])
_SPREAD = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32)


#: Summing at most 12 terms of [0, 1] in another order moves the sum by a
#: few units of the last place of 1.0; the score inherits that.
_REORDER_TOLERANCE = 4 * np.finfo(np.float64).eps


@st.composite
def _scan_cases(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    element = draw(st.sampled_from([_TIE_HEAVY, _SPREAD, st.just(3.0)]))
    values = np.array(
        draw(st.lists(element, min_size=n, max_size=n)), dtype=np.float64
    )
    missing = draw(st.sampled_from(["none", "few", "most", "all"]))
    rate = {"none": 0.0, "few": 0.02, "most": 0.95, "all": 1.0}[missing]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values[rng.random(n) < rate] = np.nan
    n_classes = draw(st.integers(min_value=2, max_value=12))
    y = rng.integers(0, n_classes, size=n).astype(np.float64)
    return values, y, n_classes


_MISSING_RATES = {"none": 0.0, "few": 0.02, "most": 0.95, "all": 1.0}


@st.composite
def _categorical_cases(draw, max_rows=60):
    """One node of a categorical column: ``(codes, y, n_categories,
    n_classes)``.  1-12 declared categories of which any number occur, so
    both the enumerated and the ``|S_l| = 1`` branch and the 8 / 9 edge
    between them; no, few, most or all codes missing; one-class nodes."""
    n = draw(st.integers(min_value=1, max_value=max_rows))
    n_categories = draw(st.integers(min_value=1, max_value=12))
    n_present = draw(st.integers(min_value=0, max_value=n_categories))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.full(n, -1, dtype=np.int32)
    if n_present:
        present = rng.choice(n_categories, size=n_present, replace=False)
        codes = rng.choice(present, size=n).astype(np.int32)
    rate = _MISSING_RATES[draw(st.sampled_from(sorted(_MISSING_RATES)))]
    codes[rng.random(n) < rate] = -1
    n_classes = draw(st.integers(min_value=2, max_value=12))
    y = rng.integers(0, n_classes, size=n)
    if draw(st.sampled_from([False, False, False, True])):
        y[:] = y[0]  # a pure node
    return codes, y, n_categories, n_classes


def _same_split_same_bits(got, want):
    assert got == want  # every field, the score included
    if want is not None:
        assert np.signbit(got.score) == np.signbit(want.score)


def _matches_numeric_oracle(got, want, values, y, criterion, n_classes):
    """A segment of a level scan vs the oracle: equal field by field; the
    score bit for bit up to 7 classes, within the reordering tolerance
    from 8 on (see TestScanAgainstFrozenOracle).

    From 8 classes on, two boundaries whose scores differ by less than
    that tolerance may be ranked either way round, so where the winners
    differ the production one is checked against a brute-force score."""
    if want is None:
        assert got is None
        return
    assert got is not None
    if n_classes > 7 and got.threshold != want.threshold:
        present = ~np.isnan(values)
        vals, ys = values[present], y[present]
        left = vals <= got.threshold
        nl, nr, nm = int(left.sum()), int((~left).sum()), got.n_missing
        assert (nm, got.missing_to_left) == (want.n_missing, nl >= nr)
        assert (got.n_left, got.n_right) == (
            nl + (nm if nl >= nr else 0),
            nr + (0 if nl >= nr else nm),
        )
        brute = _score(ys[left], ys[~left], criterion, n_classes)
        assert brute == pytest.approx(want.score, abs=1e-9)
    else:
        assert (
            got.threshold, got.n_left, got.n_right,
            got.n_missing, got.missing_to_left,
        ) == (
            want.threshold, want.n_left, want.n_right,
            want.n_missing, want.missing_to_left,
        )
    if n_classes <= 7:
        assert got.score == want.score
        assert np.signbit(got.score) == np.signbit(want.score)
    else:
        assert abs(got.score - want.score) <= _REORDER_TOLERANCE * max(
            1.0, want.score
        )


_TIE_VALUES = np.array([-np.inf, -1.5, -0.0, 0.0, 1.0, 1.0, 2.5, np.inf])


@st.composite
def _numeric_levels(draw, regression=False):
    """A level of a numeric column: ``(values, y, starts, n_classes)``.

    1-12 segments — empty, 1-row and larger — each spread, tie-heavy
    (``-0.0`` / ``0.0`` and ``+-inf`` included), constant or all-NaN,
    with a few NaNs besides; 2-12 classes, one-class segments among
    them, or a regression target drawn from a few or many values."""
    sizes = draw(
        st.lists(
            st.sampled_from([0, 0, 1, 1, 2, 3, 7, 20, 45]),
            min_size=1,
            max_size=12,
        )
    )
    starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=starts[-1]) * 1e3
    for lo, hi in zip(starts[:-1], starts[1:]):
        kind = rng.integers(6)
        if kind < 2:
            values[lo:hi] = rng.choice(_TIE_VALUES, size=hi - lo)
        elif kind == 2:
            values[lo:hi] = 3.0
        elif kind == 3:
            values[lo:hi] = np.nan
    values[rng.random(values.size) < 0.05] = np.nan
    if regression:
        levels = rng.normal(size=draw(st.sampled_from([1, 3, 1000]))) * 10
        return values, rng.choice(levels, size=values.size), starts, 0
    n_classes = draw(st.integers(min_value=2, max_value=12))
    y = rng.integers(0, n_classes, size=values.size)
    for lo, hi in zip(starts[:-1], starts[1:]):
        if rng.integers(4) == 0:
            y[lo:hi] = rng.integers(n_classes)  # a pure node
    return values, y, starts, n_classes


@st.composite
def _categorical_regression_cases(draw):
    """One node of a categorical column with a numeric target: ``(codes,
    y, n_categories)``.  The codes of :func:`_categorical_cases`; targets
    spread, constant per category with tied category means, or one value,
    shifted by 0 or about ``+-1e6``."""
    codes, _, n_categories, _ = draw(_categorical_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spread", "tied means", "constant"]))
    if kind == "spread":
        y = rng.normal(size=codes.size) * 10
    elif kind == "tied means":
        means = rng.choice([0.0, 1.5, -2.25], size=n_categories)
        y = means[np.maximum(codes, 0)]
    else:
        y = np.full(codes.size, 4.5)
    shift = draw(st.sampled_from([0.0, 1e6, -1e6, 1e6 + 0.5]))
    return codes, y + shift, n_categories


class TestScanAgainstFrozenOracle:
    """The production scans vs the scans kept in reference_scan.py.

    Numeric (frozen before PR 15): unstable sort and class-major scoring
    must not move any output: the split is equal field by field, and the
    score bit for bit while NumPy's row sum is sequential (up to 7
    classes); from 8 classes on the class-by-class order is the definition
    and may differ in the last bits.

    Categorical classification (frozen before PR 20): the level-wide,
    table-driven scan changes counting, enumeration and tie-break but not
    scoring, so split and score are equal bit for bit at every class
    count, for one node and for every node of a level.

    The numeric scans are level-wide too, each node's scan their
    one-segment call, and are held to the numeric oracle per segment of
    generated levels; there, from 8 classes on, two boundaries whose
    scores differ in the last bits may also rank the other way round
    (about one segment in 10 000), which a brute-force score settles.
    Categorical regression (case 2, still per node) is held bit for bit
    to its verbatim frozen copy.
    """

    @settings(max_examples=400, deadline=None)
    @given(
        case=_categorical_cases(),
        criterion=st.sampled_from([Impurity.GINI, Impurity.ENTROPY]),
    )
    def test_categorical_matches_oracle(self, case, criterion):
        codes, y, n_categories, n_classes = case
        args = (2, codes, y, n_categories, criterion, n_classes)
        want = reference_categorical_classification_split(*args)
        _same_split_same_bits(
            best_categorical_classification_split(*args), want
        )
        # Labels as floats (the serial builder's) change nothing.
        _same_split_same_bits(
            best_categorical_classification_split(
                2, codes, y.astype(np.float64), *args[3:]
            ),
            want,
        )

    @settings(max_examples=150, deadline=None)
    @given(
        n_categories=st.integers(min_value=1, max_value=12),
        n_classes=st.integers(min_value=2, max_value=9),
        sizes=st.lists(
            st.sampled_from([0, 0, 1, 1, 2, 3, 7, 20, 45]),
            min_size=1,
            max_size=12,
        ),
        table_bins=st.sampled_from([1, 40, 300, splits.LEVEL_TABLE_BINS]),
        criterion=st.sampled_from([Impurity.GINI, Impurity.ENTROPY]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_categorical_level_matches_oracle_per_segment(
        self, n_categories, n_classes, sizes, table_bins, criterion, seed
    ):
        """A level equals the oracle called once per segment — with empty
        and 1-row segments, segments that see one category or only missing
        codes, and the count table cut into runs of segments (down to one
        segment a run) by a tiny bin constant."""
        rng = np.random.default_rng(seed)
        starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        codes = rng.integers(0, n_categories, size=starts[-1]).astype(np.int32)
        codes[rng.random(codes.size) < 0.05] = -1
        for lo, hi in zip(starts[:-1], starts[1:]):
            kind = rng.integers(8)
            if kind < 2:  # sees a few of the categories only
                few = rng.choice(n_categories, size=rng.integers(1, 4))
                codes[lo:hi] = rng.choice(few, size=hi - lo)
            elif kind == 2:  # sees none: every code missing
                codes[lo:hi] = -1
        y = rng.integers(0, n_classes, size=codes.size)
        with mock.patch.object(splits, "LEVEL_TABLE_BINS", table_bins):
            [scan] = categorical_classification_scan(
                (4,), (codes,), y, starts, (n_categories,), criterion,
                n_classes,
            )
        for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
            want = reference_categorical_classification_split(
                4, codes[lo:hi], y[lo:hi], n_categories, criterion, n_classes
            )
            _same_split_same_bits(scan.split_for(i), want)
            assert scan.key_for(i) == (
                None if want is None else want.sort_key()
            )

    @pytest.mark.parametrize("criterion", [Impurity.GINI, Impurity.ENTROPY])
    def test_unseen_category_never_wins_a_tie(self, criterion):
        """``|S_l| = 1`` with every candidate tied at the parent's
        impurity, which is also what an empty left child would score: the
        first *seen* category wins, not the unseen lower code."""
        codes = np.repeat(np.arange(1, 11), 2).astype(np.int32)
        y = np.tile([0, 1], 10)
        args = (0, codes, y, 12, criterion, 2)
        got = best_categorical_classification_split(*args)
        _same_split_same_bits(
            got, reference_categorical_classification_split(*args)
        )
        assert got.left_categories == {1} and got.n_left == 2

    def test_level_count_table_stays_within_the_bin_constant(self):
        """300 categories at a 512-node level: more bins than
        ``LEVEL_TABLE_BINS``, so the table is built in runs of segments,
        none larger than the constant, and the result is the oracle's."""
        n_categories, n_classes, n_segments = 300, 8, 512
        rng = np.random.default_rng(5)
        sizes = rng.integers(0, 40, size=n_segments)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        codes = rng.integers(0, n_categories, size=starts[-1]).astype(np.int32)
        codes[rng.random(codes.size) < 0.02] = -1
        y = rng.integers(0, n_classes, size=codes.size)
        assert (
            n_segments * (n_categories + 1) * n_classes
            > splits.LEVEL_TABLE_BINS
        )
        table_sizes = []
        scan_count_table = splits._scan_count_table

        def recording(table, criterion):
            table_sizes.append(table.size)
            return scan_count_table(table, criterion)

        with mock.patch.object(splits, "_scan_count_table", recording):
            [scan] = categorical_classification_scan(
                (0,), (codes,), y, starts, (n_categories,), Impurity.GINI,
                n_classes,
            )
        assert len(table_sizes) > 1
        assert max(table_sizes) <= splits.LEVEL_TABLE_BINS
        for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
            assert scan.split_for(i) == (
                reference_categorical_classification_split(
                    0, codes[lo:hi], y[lo:hi], n_categories,
                    Impurity.GINI, n_classes,
                )
            )

    @settings(max_examples=300, deadline=None)
    @given(
        case=_scan_cases(),
        criterion=st.sampled_from([Impurity.GINI, Impurity.ENTROPY]),
    )
    def test_classification_matches_oracle(self, case, criterion):
        values, y, n_classes = case
        got = best_numeric_split(0, values, y, criterion, n_classes)
        want = reference_numeric_split(0, values, y, criterion, n_classes)
        if want is None:
            assert got is None
            return
        assert got is not None
        assert (
            got.threshold, got.n_left, got.n_right,
            got.n_missing, got.missing_to_left,
        ) == (
            want.threshold, want.n_left, want.n_right,
            want.n_missing, want.missing_to_left,
        )
        if n_classes <= 7:
            assert got.score == want.score
            assert np.signbit(got.score) == np.signbit(want.score)
        else:
            assert abs(got.score - want.score) <= _REORDER_TOLERANCE * max(
                1.0, want.score
            )
        # Integer class codes (what a column task passes) change nothing.
        assert got == best_numeric_split(
            0, values, y.astype(np.int64), criterion, n_classes
        )

    @settings(max_examples=100, deadline=None)
    @given(case=_scan_cases())
    def test_regression_matches_oracle(self, case):
        values, y, _ = case
        got = best_numeric_split(0, values, y, Impurity.VARIANCE, 0)
        want = reference_numeric_split(0, values, y, Impurity.VARIANCE, 0)
        assert got == want  # the regression scan is unchanged: stable sort

    @settings(max_examples=300, deadline=None)
    @given(
        level=_numeric_levels(),
        criterion=st.sampled_from([Impurity.GINI, Impurity.ENTROPY]),
    )
    def test_numeric_classification_level_matches_oracle_per_segment(
        self, level, criterion
    ):
        """A level equals the oracle called once per segment, and so does
        each segment's one-segment call; what a reused scratch held
        before changes nothing."""
        values, y, starts, n_classes = level
        scratch = CountScratch()
        for i in (0, 1):
            scratch.array(i, (n_classes, starts[-1] + starts.size)).fill(-7)
        scan = numeric_classification_scan(
            4, values, y, starts, criterion, n_classes, scratch
        )
        for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
            got = scan.split_for(i)
            args = (4, values[lo:hi], y[lo:hi], criterion, n_classes)
            _same_split_same_bits(got, best_numeric_split(*args))
            _matches_numeric_oracle(
                got, reference_numeric_split(*args), *args[1:]
            )
            assert scan.key_for(i) == (None if got is None else got.sort_key())

    @settings(max_examples=200, deadline=None)
    @given(level=_numeric_levels(regression=True))
    def test_numeric_regression_level_matches_oracle_per_segment(self, level):
        """As above for a numeric target, every field and the score bit
        for bit: the regression scan keeps the stable sort and gives each
        segment its own cumulative sums."""
        values, y, starts, _ = level
        scan = numeric_regression_scan(4, values, y, starts)
        for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
            args = (4, values[lo:hi], y[lo:hi], Impurity.VARIANCE, 0)
            want = reference_numeric_split(*args)
            _same_split_same_bits(scan.split_for(i), want)
            _same_split_same_bits(best_numeric_split(*args), want)
            assert scan.key_for(i) == (
                None if want is None else want.sort_key()
            )

    def test_numeric_regression_level_sorted_segment_by_segment(self):
        """A level of at least 2 048 rows a segment sorts each segment on
        its own instead of one ``lexsort``: the same splits."""
        rng = np.random.default_rng(9)
        starts = np.array([0, 3000, 3001, 7000])
        values = rng.choice(_TIE_VALUES, size=starts[-1])
        values[rng.random(values.size) < 0.02] = np.nan
        y = rng.choice(rng.normal(size=5) * 10, size=values.size)
        scan = numeric_regression_scan(1, values, y, starts)
        for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
            _same_split_same_bits(
                scan.split_for(i),
                reference_numeric_split(
                    1, values[lo:hi], y[lo:hi], Impurity.VARIANCE, 0
                ),
            )

    @settings(max_examples=300, deadline=None)
    @given(case=_categorical_regression_cases())
    def test_categorical_regression_matches_oracle(self, case):
        """Case 2 equals its frozen copy field for field and bit for bit:
        missing codes, one category, declared categories never seen,
        tied category means and targets shifted by about ``1e6``."""
        codes, y, n_categories = case
        args = (6, codes, y, n_categories)
        _same_split_same_bits(
            best_categorical_regression_split(*args),
            reference_categorical_regression_split(*args),
        )


@st.composite
def _mixed_levels(draw):
    """A task's or a level's mixed columns for :func:`scan_columns`:
    ``(columns, values, specs, thresholds, y, starts, criterion,
    n_classes)``.  1-8 segments — empty, 1-row and larger; 1-6 columns,
    exact numeric (tie-heavy, constant, all-NaN segments) or, in hist
    mode, coded with equal or unequal threshold counts (int8, and int16
    at 200 thresholds), and categorical with equal or unequal category
    counts, segments that see a few categories or none; 2-7 classes,
    one-class segments among them, or a regression target."""
    sizes = draw(
        st.lists(
            st.sampled_from([0, 0, 1, 1, 2, 3, 7, 20, 45]),
            min_size=1,
            max_size=8,
        )
    )
    starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    n_rows = int(starts[-1])
    hist = draw(st.booleans())
    kinds = draw(
        st.lists(
            st.sampled_from(["numeric", "categorical"]), min_size=1, max_size=6
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns, values, specs, thresholds = [], [], [], {}
    for k, kind in enumerate(kinds):
        col = 3 * k + int(rng.integers(3))
        columns.append(col)
        if kind == "numeric" and hist:
            n_cuts = draw(st.sampled_from([1, 3, 3, 12, 200]))
            thresholds[col] = np.cumsum(rng.random(n_cuts) + 0.01) - 3.0
            v = rng.integers(-1, n_cuts + 1, size=n_rows)
            for lo, hi in zip(starts[:-1], starts[1:]):
                if rng.integers(5) == 0:
                    v[lo:hi] = rng.integers(-1, n_cuts + 1)
            v = v.astype(histogram.bin_code_dtype(n_cuts))
            specs.append(ColumnSpec(f"n{col}", ColumnKind.NUMERIC))
        elif kind == "numeric":
            v = rng.normal(size=n_rows) * 1e3
            for lo, hi in zip(starts[:-1], starts[1:]):
                pick = rng.integers(6)
                if pick < 2:
                    v[lo:hi] = rng.choice(_TIE_VALUES, size=hi - lo)
                elif pick == 2:
                    v[lo:hi] = 3.0
                elif pick == 3:
                    v[lo:hi] = np.nan
            v[rng.random(n_rows) < 0.05] = np.nan
            specs.append(ColumnSpec(f"n{col}", ColumnKind.NUMERIC))
        else:
            n_categories = draw(st.sampled_from([2, 6, 6, 12]))
            v = rng.integers(0, n_categories, size=n_rows).astype(np.int32)
            for lo, hi in zip(starts[:-1], starts[1:]):
                pick = rng.integers(6)
                if pick < 2:  # sees a few of the categories only
                    few = rng.choice(n_categories, size=rng.integers(1, 4))
                    v[lo:hi] = rng.choice(few, size=hi - lo)
                elif pick == 2:  # sees none: every code missing
                    v[lo:hi] = -1
            v[rng.random(n_rows) < 0.05] = -1
            specs.append(
                ColumnSpec(
                    f"c{col}",
                    ColumnKind.CATEGORICAL,
                    tuple(map(str, range(n_categories))),
                )
            )
        values.append(v)
    if draw(st.booleans()):
        n_classes = draw(st.integers(min_value=2, max_value=7))
        y = rng.integers(0, n_classes, size=n_rows)
        for lo, hi in zip(starts[:-1], starts[1:]):
            if rng.integers(4) == 0:
                y[lo:hi] = rng.integers(n_classes)  # a pure node
        criterion = draw(st.sampled_from([Impurity.GINI, Impurity.ENTROPY]))
    else:
        n_classes = 0
        levels = rng.normal(size=draw(st.sampled_from([1, 3, 1000]))) * 10
        y = rng.choice(levels, size=n_rows)
        criterion = Impurity.VARIANCE
    return (
        columns, values, specs, thresholds if hist else None, y, starts,
        criterion, n_classes,
    )


def _oracle_split(col, v, spec, thresholds, y, criterion, n_classes):
    """One (column, node) of :func:`scan_columns` by its frozen oracle."""
    if spec.kind is ColumnKind.NUMERIC and thresholds is not None:
        return reference_binned_split(
            col, v, thresholds[col], y, criterion, n_classes
        )
    if spec.kind is ColumnKind.NUMERIC:
        return reference_numeric_split(col, v, y, criterion, n_classes)
    if criterion.is_classification:
        return reference_categorical_classification_split(
            col, v, y, spec.n_categories, criterion, n_classes
        )
    return reference_categorical_regression_split(
        col, v, y, spec.n_categories
    )


class TestScanColumnsAgainstFrozenOracle:
    """:func:`repro.core.kernel.scan_columns`, the one dispatch of the
    level kernel and of a column task, vs the frozen scans of
    ``tests/reference_scan.py``: every (column, node) of a mixed level
    equals its oracle field for field and its score bit for bit (up to 7
    classes, where the numeric oracle's class sum is sequential)."""

    @settings(max_examples=300, deadline=None)
    @given(
        level=_mixed_levels(),
        table_bins=st.sampled_from([1, 40, 300]),
    )
    def test_every_column_and_node_matches_its_oracle(
        self, level, table_bins
    ):
        """Once as the kernel runs it, once with the count tables cut
        into runs (down to one segment a run, one column a stack) by a
        tiny bin constant and stale counts in a reused scratch."""
        columns, values, specs, thresholds, y, starts, criterion, n_classes = (
            level
        )
        stale = CountScratch()
        for i in (0, 1):
            stale.array(i, (8, 4 * int(starts[-1]) + 1024)).fill(7)
        runs = []
        for bins, scratch in (
            (splits.LEVEL_TABLE_BINS, None), (table_bins, stale)
        ):
            with mock.patch.object(splits, "LEVEL_TABLE_BINS", bins):
                runs.append(
                    scan_columns(
                        columns, values, y, starts, specs, criterion,
                        n_classes, thresholds, scratch,
                    )
                )
        for scans in runs:
            assert [scan.column for scan in scans] == columns
            for col, v, spec, scan in zip(columns, values, specs, scans):
                for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
                    want = _oracle_split(
                        col, v[lo:hi], spec, thresholds, y[lo:hi],
                        criterion, n_classes,
                    )
                    _same_split_same_bits(scan.split_for(i), want)
                    assert scan.key_for(i) == (
                        None if want is None else want.sort_key()
                    )


class TestSignedZeroThreshold:
    """A threshold between ``-0.0`` and ``0.0`` ties is always ``+0.0``."""

    @pytest.mark.parametrize(
        "criterion", [Impurity.GINI, Impurity.ENTROPY, Impurity.VARIANCE]
    )
    @pytest.mark.parametrize("flip", [False, True])
    def test_zero_run_gives_positive_zero(self, criterion, flip):
        zeros = [-0.0, 0.0, -0.0, 0.0, 0.0, -0.0]
        values = np.array((zeros[::-1] if flip else zeros) + [5.0] * 6)
        y = np.array([0.0] * 6 + [1.0] * 6)
        split = best_numeric_split(0, values, y, criterion, 2)
        assert split is not None
        assert split.threshold == 0.0
        assert not np.signbit(split.threshold)
        assert split.n_left == 6


class TestCategoricalRegression:
    def test_breiman_matches_exhaustive(self):
        """Breiman's prefix-cut result vs all 2^(k-1)-1 subsets."""
        rng = np.random.default_rng(5)
        for trial in range(20):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(4, 40))
            codes = rng.integers(0, k, size=n).astype(np.int32)
            y = rng.normal(size=n)
            split = best_categorical_regression_split(0, codes, y, k)
            best = None
            seen = sorted(set(codes.tolist()))
            if len(seen) < 2:
                assert split is None
                continue
            for mask in range(1, 1 << (len(seen) - 1)):
                subset = {
                    seen[i]
                    for i in range(len(seen))
                    if (i == 0) or (mask >> (i - 1)) & 1
                } | {seen[0]}
                if len(subset) == len(seen):
                    continue
                left = np.isin(codes, list(subset))
                score = _score(y[left], y[~left], Impurity.VARIANCE, 0)
                if best is None or score < best:
                    best = score
            # Also the pure singleton-first subset {seen[0]}:
            left = codes == seen[0]
            singleton = _score(y[left], y[~left], Impurity.VARIANCE, 0)
            best = singleton if best is None else min(best, singleton)
            assert split is not None
            assert split.score == pytest.approx(best, abs=1e-9)

    def test_single_category_returns_none(self):
        codes = np.zeros(5, dtype=np.int32)
        y = np.arange(5, dtype=float)
        assert best_categorical_regression_split(0, codes, y, 3) is None

    def test_left_right_partition_categories(self):
        codes = np.array([0, 0, 1, 1, 2, 2], dtype=np.int32)
        y = np.array([0.0, 0.1, 5.0, 5.1, 0.05, 0.0])
        split = best_categorical_regression_split(0, codes, y, 3)
        assert split is not None
        assert split.left_categories is not None
        assert split.right_categories is not None
        assert split.left_categories | split.right_categories == {0, 1, 2}
        assert split.left_categories & split.right_categories == frozenset()
        # Category 1 (mean 5) should be separated from 0 and 2 (mean ~0).
        assert split.left_categories == {0, 2} or split.right_categories == {0, 2}


class TestCategoricalClassification:
    def test_exhaustive_small_cardinality(self):
        codes = np.array([0, 0, 1, 1, 2, 2], dtype=np.int32)
        y = np.array([0, 0, 1, 1, 0, 0], dtype=np.int64)
        split = best_categorical_classification_split(
            0, codes, y, 3, Impurity.GINI, 2
        )
        assert split is not None
        assert split.score == pytest.approx(0.0)
        assert split.left_categories in ({1}, {0, 2})

    def test_singleton_restriction_above_limit(self):
        k = EXHAUSTIVE_SUBSET_LIMIT + 4
        rng = np.random.default_rng(3)
        codes = rng.integers(0, k, size=200).astype(np.int32)
        y = (codes == 3).astype(np.int64)  # category 3 determines the class
        split = best_categorical_classification_split(
            0, codes, y, k, Impurity.GINI, 2
        )
        assert split is not None
        assert len(split.left_categories) == 1  # |S_l| = 1 restriction
        assert split.left_categories == {3}
        assert split.score == pytest.approx(0.0)

    def test_missing_counted(self):
        codes = np.array([0, 0, 1, 1, -1, -1], dtype=np.int32)
        y = np.array([0, 0, 1, 1, 0, 1], dtype=np.int64)
        split = best_categorical_classification_split(
            0, codes, y, 2, Impurity.GINI, 2
        )
        assert split is not None
        assert split.n_missing == 2
        assert split.n_left + split.n_right == 6

    def test_all_one_category_returns_none(self):
        codes = np.zeros(6, dtype=np.int32)
        y = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
        assert (
            best_categorical_classification_split(
                0, codes, y, 4, Impurity.GINI, 2
            )
            is None
        )


class TestDispatcher:
    def test_dispatch_numeric(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([0, 0, 1, 1])
        split = best_split_for_column(
            0, ColumnKind.NUMERIC, values, y, Impurity.GINI, 2
        )
        assert split is not None and split.kind is ColumnKind.NUMERIC

    def test_dispatch_categorical_classification(self):
        codes = np.array([0, 0, 1, 1], dtype=np.int32)
        y = np.array([0, 0, 1, 1])
        split = best_split_for_column(
            0, ColumnKind.CATEGORICAL, codes, y, Impurity.GINI, 2, 2
        )
        assert split is not None and split.kind is ColumnKind.CATEGORICAL

    def test_dispatch_categorical_regression(self):
        codes = np.array([0, 0, 1, 1], dtype=np.int32)
        y = np.array([0.0, 0.0, 5.0, 5.0])
        split = best_split_for_column(
            0, ColumnKind.CATEGORICAL, codes, y, Impurity.VARIANCE, 0, 2
        )
        assert split is not None
        assert split.score == pytest.approx(0.0)


class TestRandomSplit:
    def test_numeric_draw_in_range(self):
        rng = np.random.default_rng(0)
        values = np.array([1.0, 5.0, 3.0, 2.0])
        y = np.array([0, 1, 0, 1])
        split = random_split_for_column(
            0, ColumnKind.NUMERIC, values, y, Impurity.GINI, 2, rng
        )
        assert split is not None
        assert 1.0 <= split.threshold < 5.0
        assert split.n_left + split.n_right == 4

    def test_numeric_constant_returns_none(self):
        rng = np.random.default_rng(0)
        values = np.full(4, 3.0)
        y = np.array([0, 1, 0, 1])
        assert (
            random_split_for_column(
                0, ColumnKind.NUMERIC, values, y, Impurity.GINI, 2, rng
            )
            is None
        )

    def test_categorical_singleton(self):
        rng = np.random.default_rng(7)
        codes = np.array([0, 1, 2, 0, 1, 2], dtype=np.int32)
        y = np.array([0, 1, 0, 0, 1, 0])
        split = random_split_for_column(
            0, ColumnKind.CATEGORICAL, codes, y, Impurity.GINI, 2, rng, 3
        )
        assert split is not None
        assert len(split.left_categories) == 1

    def test_deterministic_given_rng(self):
        values = np.array([1.0, 5.0, 3.0, 2.0])
        y = np.array([0, 1, 0, 1])
        s1 = random_split_for_column(
            0, ColumnKind.NUMERIC, values, y, Impurity.GINI, 2,
            np.random.default_rng(42),
        )
        s2 = random_split_for_column(
            0, ColumnKind.NUMERIC, values, y, Impurity.GINI, 2,
            np.random.default_rng(42),
        )
        assert s1.threshold == s2.threshold


class TestRouting:
    def test_training_rows_complete_partition(self):
        values = np.array([1.0, np.nan, 3.0, 4.0, np.nan])
        split = CandidateSplit(
            column=0,
            kind=ColumnKind.NUMERIC,
            score=0.0,
            n_left=3,
            n_right=2,
            threshold=2.0,
            n_missing=2,
            missing_to_left=True,
        )
        go_left = route_training_rows(values, split)
        assert go_left.tolist() == [True, True, False, False, True]

    def test_training_rows_categorical(self):
        values = np.array([0, 1, 2, -1], dtype=np.int32)
        split = CandidateSplit(
            column=0,
            kind=ColumnKind.CATEGORICAL,
            score=0.0,
            n_left=2,
            n_right=2,
            left_categories=frozenset({0, 2}),
            right_categories=frozenset({1}),
            missing_to_left=False,
        )
        go_left = route_training_rows(values, split)
        assert go_left.tolist() == [True, False, True, False]

    def test_test_value_missing_stops(self):
        split = CandidateSplit(
            column=0,
            kind=ColumnKind.NUMERIC,
            score=0.0,
            n_left=1,
            n_right=1,
            threshold=2.0,
        )
        assert route_test_value(np.nan, split) is None
        assert route_test_value(1.0, split) is True
        assert route_test_value(3.0, split) is False

    def test_test_value_unseen_category_stops(self):
        split = CandidateSplit(
            column=0,
            kind=ColumnKind.CATEGORICAL,
            score=0.0,
            n_left=1,
            n_right=1,
            left_categories=frozenset({0}),
            right_categories=frozenset({1}),
        )
        assert route_test_value(0, split) is True
        assert route_test_value(1, split) is False
        assert route_test_value(2, split) is None  # unseen in D_x
        assert route_test_value(-1, split) is None  # missing

    def test_describe(self):
        split = CandidateSplit(
            column=1,
            kind=ColumnKind.NUMERIC,
            score=0.0,
            n_left=1,
            n_right=1,
            threshold=40.0,
        )
        assert "<= 40" in split.describe("Age")


class TestSplitCounts:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=2,
            max_size=30,
        )
    )
    def test_counts_sum_to_n(self, pairs):
        """|I_xl| + |I_xr| == |I_x| — the delegate protocol's invariant."""
        values = np.array(
            [np.nan if v is None else float(v) for v, _ in pairs]
        )
        y = np.array([c for _, c in pairs])
        split = best_numeric_split(0, values, y, Impurity.GINI, 2)
        if split is None:
            return
        assert split.n_left + split.n_right == len(pairs)
        go_left = route_training_rows(values, split)
        assert int(go_left.sum()) == split.n_left
