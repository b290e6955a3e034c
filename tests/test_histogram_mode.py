"""Histogram split mode (``split_mode="hist"``).

Pins the three guarantees of the equi-depth machinery in
``repro.core.histogram``:

* **Exact-collapse parity** — columns with at most ``max_bins`` distinct
  present values use their exact distinct values as thresholds, so hist
  mode reproduces the exact-mode tree bit-for-bit on such tables (the
  quantile-only prototype skipped distinct values on skewed data), with
  the exact scan's tie rules (first-minimum threshold within a column,
  lower column index across columns).
* **Node-local accounting** — every histogram statistic, including the
  missing-row count, comes from the node's own rows, so the delegate
  invariant ``|I_xl| + |I_xr| = |I_x|`` holds at every node.
* **Degenerate-column guards** — constant, all-NaN and quantile-collapsed
  columns yield an empty threshold set and a clean "no split", never an
  empty argmin or an IndexError, in the level kernel and in the scalar
  recursion that is its oracle.

Plus the distributed story: sim/mp/socket train hist-mode forests
bit-identical to the serial hist builder (shm on and off), and on the
socket backend with inline rows the hist data plane moves strictly fewer
pickled bytes per worker than exact mode on the same job.
"""

from __future__ import annotations

import traceback
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SystemConfig, TreeConfig, TreeServer, trees_equal
from repro.core.builder import train_tree
from repro.core.config import SPLIT_MODES
from repro.core.impurity import Impurity
from repro.core import histogram, kernel, splits, worker
from repro.core.histogram import (
    best_binned_numeric_split,
    bin_indices,
    binned_scan,
    encode_bin_codes,
    equi_depth_thresholds,
    route_bin_codes,
)
from repro.core.jobs import decision_tree_job, random_forest_job
from repro.core.splits import CandidateSplit
from repro.data import ColumnKind, ColumnSpec, DataTable, ProblemKind, TableSchema
from repro.datasets import SyntheticSpec, generate
from repro.runtime import RuntimeOptions

from .reference_builder import reference_train_tree
from .reference_scan import reference_binned_split

CLF_CRITERION = TreeConfig().resolved_criterion(True)
REG_CRITERION = TreeConfig().resolved_criterion(False)


#: The whole-tree properties below are held by the product trainer and by
#: the oracle it is compared with (``tests/reference_builder.py``).
both_trainers = pytest.mark.parametrize(
    "train",
    [
        pytest.param(reference_train_tree, id="scalar"),
        pytest.param(train_tree, id="vectorized"),
    ],
)


def _hist(config: TreeConfig, max_bins: int = 32) -> TreeConfig:
    from dataclasses import replace

    return replace(config, split_mode="hist", max_bins=max_bins)


def _numeric_table(
    columns: dict[str, np.ndarray], y: np.ndarray, problem=ProblemKind.CLASSIFICATION
) -> DataTable:
    specs = tuple(ColumnSpec(name, ColumnKind.NUMERIC) for name in columns)
    target = (
        ColumnSpec("y", ColumnKind.CATEGORICAL, ("neg", "pos"))
        if problem is ProblemKind.CLASSIFICATION
        else ColumnSpec("y", ColumnKind.NUMERIC)
    )
    schema = TableSchema(columns=specs, target=target, problem=problem)
    return DataTable(
        schema=schema,
        columns=[np.asarray(v, dtype=np.float64) for v in columns.values()],
        target=np.asarray(y),
    )


# ----------------------------------------------------------------------
# thresholds: exact collapse and degenerate guards
# ----------------------------------------------------------------------
class TestThresholds:
    def test_exact_collapse_uses_distinct_values(self):
        """<= max_bins distinct values -> thresholds are exactly the
        distinct values (all but the largest), even on skewed data where
        equi-depth quantile positions alone would skip values."""
        skewed = np.array([1.0, 2.0, 3.0] + [4.0] * 100)
        t = equi_depth_thresholds(skewed, max_bins=4)
        np.testing.assert_array_equal(t, [1.0, 2.0, 3.0])
        # The quantile positions all land on 4.0 here; without the
        # collapse rule this column would offer no cut at all.
        qs = np.quantile(skewed, np.linspace(0, 1, 5)[1:-1], method="lower")
        assert set(qs) == {4.0}

    def test_high_cardinality_caps_thresholds(self):
        values = np.arange(1000, dtype=np.float64)
        t = equi_depth_thresholds(values, max_bins=8)
        assert 0 < t.size <= 7
        assert np.all(np.diff(t) > 0)
        assert t.max() < values.max()

    def test_max_bins_validation(self):
        with pytest.raises(ValueError):
            equi_depth_thresholds(np.arange(10.0), max_bins=1)

    @pytest.mark.parametrize(
        "values",
        [
            np.full(50, 3.25),  # constant
            np.full(50, np.nan),  # all missing
            np.array([np.nan] * 30 + [7.0] * 20),  # constant-present
        ],
        ids=["constant", "all-nan", "constant-with-missing"],
    )
    def test_degenerate_columns_offer_no_split(self, values):
        t = equi_depth_thresholds(values, max_bins=8)
        assert t.size == 0
        bins = bin_indices(values, t)
        assert set(np.unique(bins)) <= {-1, 0}
        y = (np.arange(values.size) % 2).astype(np.float64)
        for criterion in (CLF_CRITERION, REG_CRITERION):
            assert (
                best_binned_numeric_split(0, bins, t, y, criterion, 2) is None
            )

    def test_quantile_collapse_onto_maximum(self):
        """A heavy upper atom can collapse every quantile onto the max;
        the guard drops those thresholds instead of producing a cut that
        sends all rows left."""
        values = np.array(list(np.linspace(0, 1, 20)) + [5.0] * 500)
        t = equi_depth_thresholds(values, max_bins=3)
        assert np.all(t < 5.0)

    @both_trainers
    def test_degenerate_columns_train_cleanly(self, train):
        """A table whose numeric columns are constant / all-NaN trains to
        a usable tree (splitting on the remaining real column), hist and
        exact."""
        rng = np.random.default_rng(5)
        signal = rng.integers(0, 6, size=120).astype(np.float64)
        table = _numeric_table(
            {
                "const": np.full(120, 2.0),
                "nan": np.full(120, np.nan),
                "signal": signal,
            },
            (signal > 2.5).astype(np.float64),
        )
        cfg = TreeConfig(seed=1, max_depth=4)
        exact = train(table, cfg)
        hist = train(table, _hist(cfg, max_bins=8))
        assert exact.root.split is not None
        assert exact.root.split.column == 2
        assert trees_equal(exact, hist)  # signal column collapses exactly


# ----------------------------------------------------------------------
# bucket codes: what a numeric column is below the threshold book
# ----------------------------------------------------------------------
@st.composite
def _coded_columns(draw):
    """A numeric column and its ``max_bins``: an int8 book (2-32 bins over
    a few tied atoms or distinct values) or an int16 one (300-1 000 bins
    over 1 000 distinct values); NaN, +inf and -inf each at rate 0, 2 %
    or 10 %.  Thresholds are data values, so rows equal to a threshold
    are always among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wide = draw(st.booleans())
    if wide:
        n, n_atoms = 1000, 1000
        max_bins = draw(st.sampled_from([300, 1000]))
    else:
        n = draw(st.sampled_from([1, 5, 40, 200]))
        n_atoms = draw(st.sampled_from([1, 2, 5, n]))
        max_bins = draw(st.sampled_from([2, 3, 8, 32]))
    values = rng.choice(np.round(rng.normal(size=n_atoms) * 10.0, 2), size=n)
    for special in (np.nan, np.inf, -np.inf):
        rate = draw(st.sampled_from([0.0, 0.02, 0.1]))
        values[rng.random(n) < rate] = special
    return values, max_bins, wide


class TestBinCodes:
    @settings(max_examples=150, deadline=None)
    @given(case=_coded_columns())
    def test_codes_are_compact_and_route_identically(self, case):
        """Routing a node on its codes is routing it on its values: for
        every cut of the book and either side for missing rows,
        ``route_bin_codes`` equals ``route_training_rows`` on the raw
        column — ties, NaN, +-inf and rows equal to a threshold alike."""
        values, max_bins, wide = case
        t = equi_depth_thresholds(values, max_bins)
        codes = encode_bin_codes(values, t)
        assert codes.dtype == (np.int16 if wide else np.int8)
        assert (t.size > np.iinfo(np.int8).max) == wide
        for cut in t:
            for missing_to_left in (True, False):
                split = CandidateSplit(
                    0, ColumnKind.NUMERIC, 0.0, 0, 0,
                    threshold=float(cut), missing_to_left=missing_to_left,
                )
                np.testing.assert_array_equal(
                    route_bin_codes(codes, t, split),
                    splits.route_training_rows(values, split),
                )

    def test_wide_books_use_wider_dtypes(self):
        values = np.arange(500.0)
        t = equi_depth_thresholds(values, max_bins=300)
        assert encode_bin_codes(values, t).dtype == np.int16


# ----------------------------------------------------------------------
# exact-collapse parity and tie rules
# ----------------------------------------------------------------------
class TestExactCollapseParity:
    @both_trainers
    @pytest.mark.parametrize("problem", ["clf", "reg"])
    def test_low_cardinality_table_is_bit_identical(self, train, problem):
        """Every column has <= max_bins distinct values -> the hist tree
        equals the exact tree bit-for-bit, both problems alike."""
        spec = SyntheticSpec(
            "lowcard",
            400,
            5,
            2,
            problem=(
                ProblemKind.CLASSIFICATION
                if problem == "clf"
                else ProblemKind.REGRESSION
            ),
            missing_rate=0.05,
            seed=13,
        )
        table = generate(spec)
        # Quantize numeric columns to few distinct values.
        for idx, cspec in enumerate(table.schema.columns):
            if cspec.kind is ColumnKind.NUMERIC:
                col = table.columns[idx]
                present = ~np.isnan(col)
                col[present] = np.round(col[present] * 2.0) / 2.0
        if problem == "reg":
            # Bit-identical scores need order-independent label sums: the
            # exact scan accumulates row by row, the histogram per bin
            # then per cut.  Integer-valued labels make every partial sum
            # exact in float64, so association cannot change a score.
            table.target[:] = np.round(table.target)
        cfg = TreeConfig(seed=3)
        exact = train(table, cfg)
        for max_bins in (64, 4096):
            hist = train(table, _hist(cfg, max_bins=max_bins))
            assert trees_equal(exact, hist)
            assert exact.to_dict() == hist.to_dict()

    @both_trainers
    def test_skewed_distinct_values_survive_collapse(self, train):
        """The satellite bugfix: on skewed columns the quantile positions
        miss low-frequency distinct values; the collapse rule keeps them,
        so the hist tree still finds the minority cut."""
        rng = np.random.default_rng(11)
        col = np.array([0.0, 1.0, 2.0] * 5 + [9.0] * 285)
        rng.shuffle(col)
        y = (col < 1.5).astype(np.float64)
        noise = rng.normal(size=col.size)
        table = _numeric_table({"skew": col, "noise": noise}, y)
        cfg = TreeConfig(seed=2, max_depth=4)
        exact = train(table, cfg)
        hist = train(table, _hist(cfg, max_bins=8))
        assert trees_equal(exact, hist)
        assert hist.root.split is not None and hist.root.split.column == 0

    @both_trainers
    def test_cross_column_ties_pick_lower_column(self, train):
        """Duplicated columns score identically at every node; the strict
        ``(score, column)`` rule must route every split to the copy with
        the lower index — in hist mode exactly as in exact mode."""
        rng = np.random.default_rng(7)
        base = rng.normal(size=300)
        y = (base + 0.3 * rng.normal(size=300) > 0).astype(np.float64)
        table = _numeric_table({"a": base, "b": base.copy()}, y)
        cfg = _hist(TreeConfig(seed=1, max_depth=5), 16)
        tree = train(table, cfg)

        def walk(node):
            if node is None:
                return
            if node.split is not None:
                assert node.split.column == 0
            walk(node.left)
            walk(node.right)

        assert tree.root.split is not None
        walk(tree.root)


# ----------------------------------------------------------------------
# node-local missing-row accounting
# ----------------------------------------------------------------------
class TestNodeLocalMissing:
    def test_statistics_come_from_the_nodes_own_rows(self):
        """Whole-table missing counts would break the delegate invariant:
        a node whose rows have no NaN must report ``n_missing == 0`` and
        children that partition exactly its rows, even when the rest of
        the table is full of NaNs in that column."""
        rng = np.random.default_rng(0)
        values = rng.normal(size=200)
        values[:80] = np.nan  # all misses outside the node
        y = (rng.random(200) > 0.5).astype(np.float64)
        thresholds = equi_depth_thresholds(values, 8)
        codes = bin_indices(values, thresholds)
        node_rows = np.arange(80, 200)
        split = best_binned_numeric_split(
            0, codes[node_rows], thresholds, y[node_rows], CLF_CRITERION, 2
        )
        assert split is not None
        assert split.n_missing == 0
        assert split.n_left + split.n_right == node_rows.size

        # And a node that does hold NaNs counts exactly its own.
        mixed_rows = np.arange(60, 200)  # 20 NaN rows inside
        split = best_binned_numeric_split(
            0, codes[mixed_rows], thresholds, y[mixed_rows], CLF_CRITERION, 2
        )
        assert split is not None
        assert split.n_missing == 20
        assert split.n_left + split.n_right == mixed_rows.size

    def test_distributed_column_tasks_preserve_the_invariant(self):
        """Forcing column-tasks at every node (tiny tau) runs the
        master-side ``|I_xl| + |I_xr| = |I_x|`` assertion against every
        shipped histogram; the result must equal the serial hist tree."""
        table = generate(
            SyntheticSpec("m", 300, 6, 1, missing_rate=0.15, seed=21)
        )
        cfg = _hist(TreeConfig(seed=4, max_depth=6), 8)
        serial = train_tree(table, cfg)
        system = SystemConfig(
            n_workers=3, compers_per_worker=2, tau_subtree=8, tau_dfs=8
        )
        report = TreeServer(system).fit(table, [decision_tree_job("dt", cfg)])
        assert trees_equal(serial, report.tree("dt"))


# ----------------------------------------------------------------------
# the binned scan against its frozen copy
# ----------------------------------------------------------------------
@st.composite
def _binned_cases(draw):
    """One node of a binned numeric column: ``(codes, y, thresholds,
    criterion, n_classes)``.  0-12 thresholds (0: the degenerate column);
    rows spread over all bins, crowded into two, or all in one; no, few,
    most or all rows missing, or exactly one present; 2-9 classes with
    pure nodes, or a regression target drawn from 1, 3 or many values."""
    n = draw(st.sampled_from([1, 2, 3, 5, 10, 30, 80]))
    n_thresholds = draw(st.sampled_from([0, 1, 2, 3, 5, 8, 12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    thresholds = np.cumsum(rng.random(n_thresholds) + 0.01) - 3.0
    spread = draw(st.sampled_from(["all", "all", "all", "two", "one"]))
    if spread == "all":
        codes = rng.integers(0, n_thresholds + 1, size=n)
    else:
        occupied = rng.integers(0, n_thresholds + 1, size=2)
        codes = rng.choice(occupied[: 2 if spread == "two" else 1], size=n)
    rate = {"none": 0.0, "few": 0.1, "most": 0.8, "all": 1.0, "all-but-1": 1.0}
    missing = draw(st.sampled_from(["none", "few", *sorted(rate)]))
    keep = codes[0]
    codes[rng.random(n) < rate[missing]] = -1
    if missing == "all-but-1":
        codes[0] = keep
    if draw(st.booleans()):
        n_classes = draw(st.integers(min_value=2, max_value=9))
        y = rng.integers(0, n_classes, size=n)
        if draw(st.sampled_from([False, False, False, True])):
            y[:] = y[0]  # a pure node: every cut ties
        criterion = draw(st.sampled_from([Impurity.GINI, Impurity.ENTROPY]))
    else:
        n_classes = 0
        levels = draw(st.sampled_from([1, 3, n]))
        y = rng.choice(rng.normal(size=levels) * 10.0, size=n)
        criterion = Impurity.VARIANCE
    return codes.astype(np.int64), y, thresholds, criterion, n_classes


@st.composite
def _binned_levels(draw):
    """A level of a binned column: ``(codes, y, starts, thresholds,
    criterion, n_classes)``.  1-12 segments — empty, 1-row and larger —
    whose rows spread over all bins, crowd into one, or are all missing,
    with a few missing besides; 1-12 thresholds; 2-12 classes, one-class
    segments among them, or a regression target."""
    sizes = draw(
        st.lists(
            st.sampled_from([0, 0, 1, 1, 2, 3, 7, 20, 45]),
            min_size=1,
            max_size=12,
        )
    )
    starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    n_thresholds = draw(st.sampled_from([1, 2, 3, 5, 8, 12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    thresholds = np.cumsum(rng.random(n_thresholds) + 0.01) - 3.0
    codes = rng.integers(0, n_thresholds + 1, size=starts[-1])
    for lo, hi in zip(starts[:-1], starts[1:]):
        kind = rng.integers(5)
        if kind == 0:
            codes[lo:hi] = rng.integers(0, n_thresholds + 1)
        elif kind == 1:
            codes[lo:hi] = -1
    codes[rng.random(codes.size) < 0.05] = -1
    if draw(st.booleans()):
        n_classes = draw(st.integers(min_value=2, max_value=12))
        y = rng.integers(0, n_classes, size=codes.size)
        for lo, hi in zip(starts[:-1], starts[1:]):
            if rng.integers(4) == 0:
                y[lo:hi] = rng.integers(n_classes)  # a pure node
        criterion = draw(st.sampled_from([Impurity.GINI, Impurity.ENTROPY]))
    else:
        n_classes = 0
        y = rng.choice(rng.normal(size=3) * 10.0, size=codes.size)
        criterion = Impurity.VARIANCE
    return codes, y, starts, thresholds, criterion, n_classes


@st.composite
def _binned_multi_levels(draw):
    """A task's or a level's coded columns: ``(columns, codes, y, starts,
    thresholds, criterion, n_classes)``.  2-5 columns whose threshold
    counts are all equal, or not (1-12, or 200: int16 codes among int8
    ones); 1-12 segments — empty, 1-row and larger — each column's rows
    spread over all bins, crowded into one, or all missing per segment;
    2-12 classes or a regression target."""
    sizes = draw(
        st.lists(
            st.sampled_from([0, 0, 1, 1, 2, 3, 7, 20, 45]),
            min_size=1,
            max_size=12,
        )
    )
    starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    n_columns = draw(st.integers(min_value=2, max_value=5))
    counts = st.sampled_from([1, 2, 3, 5, 12, 200])
    if draw(st.booleans()):
        n_thresholds = [draw(counts)] * n_columns
    else:
        n_thresholds = draw(
            st.lists(counts, min_size=n_columns, max_size=n_columns)
        )
    columns = draw(
        st.lists(
            st.integers(0, 30),
            min_size=n_columns,
            max_size=n_columns,
            unique=True,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    thresholds, codes = [], []
    for n_cuts in n_thresholds:
        cuts = np.cumsum(rng.random(n_cuts) + 0.01) - 3.0
        col = rng.integers(0, n_cuts + 1, size=starts[-1])
        for lo, hi in zip(starts[:-1], starts[1:]):
            kind = rng.integers(5)
            if kind == 0:
                col[lo:hi] = rng.integers(0, n_cuts + 1)
            elif kind == 1:
                col[lo:hi] = -1
        col[rng.random(col.size) < 0.05] = -1
        thresholds.append(cuts)
        codes.append(col.astype(histogram.bin_code_dtype(n_cuts)))
    if draw(st.booleans()):
        n_classes = draw(st.integers(min_value=2, max_value=12))
        y = rng.integers(0, n_classes, size=starts[-1])
        for lo, hi in zip(starts[:-1], starts[1:]):
            if rng.integers(4) == 0:
                y[lo:hi] = rng.integers(n_classes)  # a pure node
        criterion = draw(st.sampled_from([Impurity.GINI, Impurity.ENTROPY]))
    else:
        n_classes = 0
        y = rng.choice(rng.normal(size=3) * 10.0, size=starts[-1])
        criterion = Impurity.VARIANCE
    return columns, codes, y, starts, thresholds, criterion, n_classes


class TestBinnedScanAgainstFrozenOracle:
    """Production ``best_binned_numeric_split`` vs ``reference_binned_split``
    (the scan as PR 24 found it, kept in ``tests/reference_scan.py``): the
    same split or the same ``None``, every field, the score bit for bit —
    at every class count, since both add class terms in class order.  The
    level scan, whose one-segment call the per-node function is, is held
    to the same oracle per segment."""

    @settings(max_examples=300, deadline=None)
    @given(
        level=_binned_levels(),
        table_bins=st.sampled_from([1, 40, 300, splits.LEVEL_TABLE_BINS]),
    )
    def test_binned_level_matches_oracle_per_segment(self, level, table_bins):
        """A level equals the oracle called once per segment — empty,
        1-row, all-missing and one-bin segments, 2-12 classes and
        regression — with the bin table cut into runs of segments (down
        to one a run) by a tiny bin constant, and stale counts in a reused
        scratch."""
        codes, y, starts, thresholds, criterion, n_classes = level
        scratch = splits.CountScratch()
        for i in (0, 1):
            scratch.array(i, (n_classes, starts.size, thresholds.size)).fill(7)
        with mock.patch.object(splits, "LEVEL_TABLE_BINS", table_bins):
            [scan] = binned_scan(
                (3,), (codes,), y, starts, (thresholds,), criterion,
                n_classes, scratch,
            )
        for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
            args = (
                3, codes[lo:hi], thresholds, y[lo:hi], criterion, n_classes
            )
            want = reference_binned_split(*args)
            got = scan.split_for(i)
            assert got == want
            assert best_binned_numeric_split(*args) == want
            if want is not None:
                assert np.signbit(got.score) == np.signbit(want.score)
            assert scan.key_for(i) == (
                None if want is None else want.sort_key()
            )

    @settings(max_examples=300, deadline=None)
    @given(
        level=_binned_multi_levels(),
        table_bins=st.sampled_from([1, 40, 300, splits.LEVEL_TABLE_BINS]),
    )
    def test_multi_column_level_matches_oracle_per_segment(
        self, level, table_bins
    ):
        """Several coded columns scanned at once equal the oracle called
        once per (column, segment): equal and unequal threshold counts,
        int8 and int16 codes, 2-12 classes and regression, empty, 1-row
        and all-missing segments, runs cut inside a column and across
        columns by a tiny bin constant, and stale counts in a reused
        scratch.  Unsplit, a level scores each threshold-count group
        once."""
        columns, codes, y, starts, thresholds, criterion, n_classes = level
        scratch = splits.CountScratch()
        for i in (0, 1):
            scratch.array(i, (n_classes, 4 * starts.size, 202)).fill(7)
        calls = []
        score_bin_table = histogram._score_bin_table

        def recording(*args):
            calls.append(args)
            return score_bin_table(*args)

        with mock.patch.object(splits, "LEVEL_TABLE_BINS", table_bins):
            with mock.patch.object(histogram, "_score_bin_table", recording):
                scans = binned_scan(
                    columns, codes, y, starts, thresholds, criterion,
                    n_classes, scratch,
                )
        if table_bins == splits.LEVEL_TABLE_BINS:
            assert len(calls) == len({t.size for t in thresholds})
        assert [scan.column for scan in scans] == columns
        for col, col_codes, cuts, scan in zip(
            columns, codes, thresholds, scans
        ):
            for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
                want = reference_binned_split(
                    col, col_codes[lo:hi], cuts, y[lo:hi], criterion,
                    n_classes,
                )
                got = scan.split_for(i)
                assert got == want
                if want is not None:
                    assert np.signbit(got.score) == np.signbit(want.score)
                assert scan.key_for(i) == (
                    None if want is None else want.sort_key()
                )

    def test_level_bin_table_stays_within_the_bin_constant(self):
        """1 024 bins at a 512-node level of 8 classes: more cells than
        ``LEVEL_TABLE_BINS``, so the table is built in runs of segments,
        none larger than the constant, and the result is the oracle's."""
        n_thresholds, n_classes, n_segments = 1023, 8, 512
        rng = np.random.default_rng(5)
        thresholds = np.cumsum(rng.random(n_thresholds) + 0.01)
        sizes = rng.integers(0, 40, size=n_segments)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        codes = rng.integers(-1, n_thresholds + 1, size=starts[-1])
        y = rng.integers(0, n_classes, size=codes.size)
        assert (
            n_segments * (n_thresholds + 2) * n_classes
            > splits.LEVEL_TABLE_BINS
        )
        table_sizes = []
        score_bin_table = histogram._score_bin_table

        def recording(table, *args):
            table_sizes.append(table.size)
            return score_bin_table(table, *args)

        with mock.patch.object(histogram, "_score_bin_table", recording):
            [scan] = binned_scan(
                (0,), (codes,), y, starts, (thresholds,), Impurity.GINI,
                n_classes,
            )
        assert len(table_sizes) > 1
        assert max(table_sizes) <= splits.LEVEL_TABLE_BINS
        for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
            assert scan.split_for(i) == reference_binned_split(
                0, codes[lo:hi], thresholds, y[lo:hi], Impurity.GINI, n_classes
            )

    @settings(max_examples=400, deadline=None)
    @given(case=_binned_cases())
    def test_binned_split_matches_oracle(self, case):
        codes, y, thresholds, criterion, n_classes = case
        want = reference_binned_split(
            3, codes, thresholds, y, criterion, n_classes
        )
        for labels in (y, y.astype(np.float64)):  # the serial builder's
            for wire in (codes, codes.astype(np.int8)):  # gathered codes
                got = best_binned_numeric_split(
                    3, wire, thresholds, labels, criterion, n_classes
                )
                # Dataclass equality: score, threshold, n_left, n_right,
                # n_missing, missing_to_left — every field.
                assert got == want
                if want is not None:
                    assert np.signbit(got.score) == np.signbit(want.score)
                    assert got.n_left + got.n_right == codes.size


# ----------------------------------------------------------------------
# distributed determinism and the byte win
# ----------------------------------------------------------------------
class TestDistributedHist:
    @pytest.mark.parametrize("backend", ["sim", "mp", "socket"])
    @pytest.mark.parametrize("use_shm", [False, True])
    def test_backends_match_serial_hist(self, backend, use_shm):
        if backend == "sim" and use_shm:
            pytest.skip("shm is a real-process data plane")
        table = generate(
            SyntheticSpec("d", 400, 6, 2, missing_rate=0.05, seed=17)
        )
        cfg = _hist(TreeConfig(seed=9, max_depth=6), 16)
        job = random_forest_job("rf", 3, cfg, seed=9)
        serial = [
            train_tree(table, req.config, tree_id=i)
            for i, req in enumerate(job.stages[0].trees)
        ]
        options = RuntimeOptions(
            use_shm=use_shm,
            message_timeout_seconds=15.0,
        )
        report = TreeServer(
            SystemConfig(n_workers=3, compers_per_worker=2).scaled_to(
                table.n_rows
            ),
            backend=backend,
            runtime_options=options,
        ).fit(table, [job])
        for a, b in zip(serial, report.models["rf"]):
            assert trees_equal(a, b)
            assert a.to_dict() == b.to_dict()

    def test_hist_column_result_is_charged_like_an_exact_one(self, monkeypatch):
        """One column-task answer (PR 24): on ``sim`` a hist column result
        carries scored ``CandidateSplit`` s and is charged
        ``column_result_bytes(n_columns)`` — no per-bin term — so on a
        table where hist collapses to exact (same trees, same plans) the
        two modes move the same messages and the same bytes, result for
        result.  The message count is the parent commit's for this job:
        scoring moved from the master to the worker without adding or
        removing a message."""
        from repro.cluster.network import Network
        from repro.core.tasks import MSG_COLUMN_RESULT

        rng = np.random.default_rng(5)
        columns = {
            f"c{i}": np.round(rng.normal(size=600) * 2.0) / 2.0 for i in range(5)
        }
        columns["c4"][rng.random(600) < 0.1] = np.nan
        noisy = columns["c0"] - columns["c2"] + rng.normal(size=600)
        y = (noisy > 0).astype(np.float64)
        table = _numeric_table(columns, y)
        system = SystemConfig(
            n_workers=3, compers_per_worker=2, tau_subtree=16, tau_dfs=16
        )
        sent: list[tuple] = []
        real_send = Network.send

        def spy(self, src, dst, kind, payload, size_bytes):
            if src != dst:
                sent.append((kind, payload, size_bytes))
            return real_send(self, src, dst, kind, payload, size_bytes)

        monkeypatch.setattr(Network, "send", spy)

        def run(config):
            sent.clear()
            server = TreeServer(system)
            report = server.fit(table, [decision_tree_job("dt", config)])
            results = []
            for kind, payload, size in sent:
                if kind == MSG_COLUMN_RESULT:
                    n_columns = len(payload.splits)
                    assert size == server.cost.column_result_bytes(n_columns)
                    assert all(
                        s is None or type(s) is CandidateSplit
                        for s in payload.splits
                    )
                    results.append((n_columns, size))
            return report, len(sent), results

        cfg = TreeConfig(seed=2, max_depth=7)
        exact, exact_messages, exact_results = run(cfg)
        hist, hist_messages, hist_results = run(_hist(cfg, 64))
        assert trees_equal(exact.tree("dt"), hist.tree("dt"))
        assert hist.counters.column_tasks == 47
        assert hist_results == exact_results
        # Pinned at the parent commit: 665 messages there too, but 84 976 B
        # of hist column results (the per-bin summaries rode along).  28 of
        # the 665 were expect_fetches(count=0) freeing leaf children's
        # sides; a delegate no longer stores those, so they are not sent.
        assert hist_messages == exact_messages == 637
        for report in (exact, hist):
            assert report.cluster.bytes_by_kind[MSG_COLUMN_RESULT] == 34_592

    def test_a_fit_bins_each_held_column_once(self, monkeypatch):
        """Codes are made once per (worker, held numeric column,
        ``max_bins``), when the worker starts with the threshold book: 2
        workers holding all 12 numeric columns is 24 on the e2e hist job's
        shape.  Column tasks, column servers and the level kernel bin
        nothing; they read the stored codes."""
        table = generate(
            SyntheticSpec(
                "T", 3000, 12, 4, n_classes=5, planted_depth=6,
                missing_rate=0.02, seed=3,
            )
        )
        callers: list[set[tuple[str, str]]] = []
        real = histogram.bin_indices

        def counting(values, thresholds):
            stack = traceback.extract_stack()
            callers.append({(Path(f.filename).name, f.name) for f in stack})
            return real(values, thresholds)

        for module in (histogram, kernel, worker):
            monkeypatch.setattr(module, "bin_indices", counting, raising=False)
        system = SystemConfig(
            n_workers=2, compers_per_worker=2, column_replication=2
        ).scaled_to(table.n_rows)
        cfg = _hist(TreeConfig(seed=1, max_depth=10), 32)
        report = TreeServer(system).fit(
            table, [random_forest_job("rf", 4, cfg, seed=1)]
        )
        assert report.counters.column_tasks > 0
        assert report.counters.subtree_tasks > 0
        assert len(callers) == 2 * 12
        for frames in callers:
            assert ("worker.py", "__init__") in frames
            assert not {name for _, name in frames} & {
                "_compute_column_task", "_serve_columns", "build_subtree"
            }

    def test_a_fit_scores_each_task_and_level_once(self, monkeypatch):
        """One ``_score_bin_table`` call per column task that holds a
        numeric column and one per kernel level that scans one, on the e2e
        hist job's shape, where every numeric column has 31 thresholds:
        one threshold-count group, so a task's or a level's coded columns
        are scored together, not one call per (task or level, column).
        Likewise one ``_scan_count_table`` call per column task or kernel
        level that holds a categorical column: every one has 6
        categories, so they share one count table: the decision tree's
        tasks and levels hold all four, the forest's at most one."""
        table = generate(
            SyntheticSpec(
                "T", 3000, 12, 4, n_classes=5, planted_depth=6,
                missing_rate=0.02, seed=3,
            )
        )
        book = histogram.column_thresholds(table, 32)
        assert {cuts.size for cuts in book.values()} == {31}
        assert {
            spec.n_categories
            for spec in table.schema.columns
            if spec.kind is ColumnKind.CATEGORICAL
        } == {6}
        scored = {"bins": 0, "counts": 0}

        def counting(name, fn):
            def wrapper(*args):
                scored[name] += 1
                return fn(*args)

            return wrapper

        levels: list[set] = []  # the column kinds each kernel level scans
        real_scan = kernel.scan_columns

        def scan_recording(columns, values, y, starts, specs, *args):
            levels.append({spec.kind for spec in specs})
            return real_scan(columns, values, y, starts, specs, *args)

        tasks: list[set] = []  # the column kinds each column task holds
        real_task = worker.WorkerActor._compute_column_task

        def task_counting(self, task):
            state = self._column_tasks.get(task)
            if state is not None and state.row_ids is not None:
                tasks.append(
                    {table.column_spec(c).kind for c in state.plan.columns}
                )
            return real_task(self, task)

        monkeypatch.setattr(
            histogram,
            "_score_bin_table",
            counting("bins", histogram._score_bin_table),
        )
        monkeypatch.setattr(
            splits,
            "_scan_count_table",
            counting("counts", splits._scan_count_table),
        )
        monkeypatch.setattr(kernel, "scan_columns", scan_recording)
        monkeypatch.setattr(
            worker.WorkerActor, "_compute_column_task", task_counting
        )
        system = SystemConfig(
            n_workers=2, compers_per_worker=2, column_replication=2
        ).scaled_to(table.n_rows)
        cfg = _hist(TreeConfig(seed=1, max_depth=10), 32)
        report = TreeServer(system).fit(
            table,
            [
                random_forest_job("rf", 4, cfg, seed=1),
                decision_tree_job("dt", cfg),  # all 4 categorical columns
            ],
        )
        assert report.counters.column_tasks == len(tasks) > 0
        assert report.counters.subtree_tasks > 0 and levels
        for name, kind in (
            ("bins", ColumnKind.NUMERIC), ("counts", ColumnKind.CATEGORICAL)
        ):
            holding = [kinds for kinds in tasks + levels if kind in kinds]
            assert holding and scored[name] == len(holding)

    def test_hist_moves_fewer_bytes_than_exact_on_socket(self):
        """The headline data-plane win: identical jobs, identical wide
        numeric table, shm off (inline rows) — hist-mode workers pickle
        strictly fewer bytes than exact-mode workers, because subtree
        gathers ship int8 bucket codes instead of float64 columns.

        Columns are quantized below ``max_bins`` so the trained trees —
        and hence the subtree-*result* messages — are identical in both
        modes (exact-collapse parity), isolating the data-plane
        difference; every tree uses all columns, so every worker serves
        column slices to the other key workers."""
        rng = np.random.default_rng(31)
        columns = {
            f"c{i}": np.round(rng.normal(size=600) * 4.0) / 4.0
            for i in range(12)
        }
        y = (columns["c0"] + columns["c1"] > 0).astype(np.float64)
        table = _numeric_table(columns, y)
        max_distinct = max(len(np.unique(c)) for c in columns.values())
        system = SystemConfig(
            n_workers=3,
            compers_per_worker=2,
            column_replication=1,
            tau_subtree=100_000,  # gather-dominated: whole trees ship
            tau_dfs=100_000,
        )
        options = RuntimeOptions(
            use_shm=False,
            message_timeout_seconds=15.0,
        )
        cfg = TreeConfig(seed=6, max_depth=6)

        def run(config):
            jobs = [
                decision_tree_job(f"dt{i}", config.with_seed(i))
                for i in range(3)
            ]
            return TreeServer(
                system, backend="socket", runtime_options=options
            ).fit(table, jobs)

        exact = run(cfg)
        hist = run(_hist(cfg, max_distinct + 1))
        for i in range(3):  # collapse parity: identical result messages
            assert trees_equal(exact.tree(f"dt{i}"), hist.tree(f"dt{i}"))
        exact_pw = exact.cluster.transport["per_worker"]
        hist_pw = hist.cluster.transport["per_worker"]
        assert set(exact_pw) == set(hist_pw)
        for wid in exact_pw:
            assert (
                hist_pw[wid]["bytes_pickled"]
                < exact_pw[wid]["bytes_pickled"]
            ), f"worker {wid}: hist moved at least as many bytes as exact"


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_split_modes_constant(self):
        assert SPLIT_MODES == ("exact", "hist")

    def test_tree_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TreeConfig(split_mode="approx")
        with pytest.raises(ValueError):
            TreeConfig(split_mode="hist", max_bins=1)
        assert TreeConfig(split_mode="hist", max_bins=2).max_bins == 2

    def test_runtime_options_reject_bad_values(self):
        """Split search is configured in ``TreeConfig`` and nowhere else:
        the runtime has no field to override it with, good value or bad."""
        for option in ({"split_mode": "hist"}, {"max_bins": 8}):
            with pytest.raises(TypeError):
                RuntimeOptions(**option)

    def test_cli_rejects_bad_split_flags(self, tmp_path, capsys):
        from repro.cli import main
        from repro.data.io import write_csv

        table = generate(SyntheticSpec("c", 60, 3, 0, seed=1))
        csv_path = tmp_path / "t.csv"
        write_csv(table, csv_path)
        base = [
            "train", "--csv", str(csv_path), "--target", "label",
            "--model-dir", str(tmp_path / "m"),
        ]
        with pytest.raises(SystemExit):
            main(base + ["--split-mode", "approx"])
        assert main(base + ["--max-bins", "1"]) == 2
