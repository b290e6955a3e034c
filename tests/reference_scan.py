"""Split scans as they stood before they were rewritten, frozen as test oracles.

:func:`reference_numeric_split` is the numeric scan before PR 15: stable
sort, row-major ``(m, n_classes)`` class counts reduced with
``sum(axis=1)``, impurities weighted in a separate pass.  The production
scan (:func:`repro.core.splits.best_split_for_column` on a numeric column)
sorts unstably and scores class-major; ``tests/test_splits.py`` holds it
to this function's outputs.

:func:`reference_categorical_classification_split` is the Appendix B
case 3 scan before PR 20: one node at a time, float64 class counts, the
subsets re-enumerated in Python and summed one list comprehension each.
The production scan
(:func:`repro.core.splits.categorical_classification_scan`) counts a whole
level in one integer table and reads the subsets from a membership table
built once per category count; ``tests/test_splits.py`` holds it — alone
and per level — to this function's outputs, bit for bit.

:func:`reference_binned_split` is the hist-mode numeric scan as PR 24 found
it: ``column_histogram`` + ``score_histogram`` + their composition
``best_binned_numeric_split`` (:mod:`repro.core.histogram`), with its own
copy of the class-major, class-by-class scoring arithmetic
(``_classes_impurity``).  PR 24 moved that scan's caller from the master
to the column-task worker without touching it; the oracle is what makes the
next change to it (bin once per run, ROADMAP item 2(b)) safe.
``tests/test_histogram_mode.py`` holds production to it field for field,
and the hist reference recursion (``tests/reference_builder.py``) searches
with it, so it no longer compares production with itself.

The level-wide numeric and binned scans (``numeric_classification_scan``,
``numeric_regression_scan`` in :mod:`repro.core.splits`, ``binned_scan`` in
:mod:`repro.core.histogram`) are now the only implementations of their
cases, each per-node entry their one-segment call; ``tests/test_splits.py``
and ``tests/test_histogram_mode.py`` hold them, per segment of generated
levels, to :func:`reference_numeric_split` and :func:`reference_binned_split`.

:func:`reference_categorical_regression_split` is Appendix B case 2,
``best_categorical_regression_split`` (:mod:`repro.core.splits`) as it stood
when the numeric scans became level-wide: one node at a time, float
``bincount(weights=)`` category sums, categories ordered by a ``lexsort`` on
``(mean, code)``, prefix cuts scored with this file's own variance
arithmetic (``variance_rows``, ``weighted_children_rows``).  It is the
prerequisite of rewriting that scan level-wide: ``tests/test_splits.py``
holds production to it field for field and bit for bit.

Frozen: do not optimise.  Nothing here may import the production scoring
functions, with one exception: the case-3 categorical oracle calls
:func:`repro.core.impurity.classification_children_scores`, as the scan
it froze did.  PR 20 did not touch scoring — what it changed is counting,
enumeration and tie-break, and those are what the oracle keeps its own
copy of (``_category_stats_classification``, ``_enumerate_subsets``).
"""

from __future__ import annotations

import numpy as np

from repro.core.impurity import Impurity, classification_children_scores
from repro.core.splits import CandidateSplit
from repro.data.schema import ColumnKind
from repro.data.table import MISSING_CODE

#: The value of ``repro.core.splits.EXHAUSTIVE_SUBSET_LIMIT`` when frozen.
EXHAUSTIVE_SUBSET_LIMIT = 8


def gini_rows(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=1)
    safe = np.where(totals == 0, 1.0, totals)
    p = counts / safe[:, None]
    out = 1.0 - (p * p).sum(axis=1)
    out[totals == 0] = 0.0
    return out


def entropy_rows(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=1)
    safe = np.where(totals == 0, 1.0, totals)
    p = counts / safe[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(p > 0, np.log(p), 0.0)
    out = -(p * logp).sum(axis=1)
    out[totals == 0] = 0.0
    return out


def variance_rows(counts, sums, sq_sums) -> np.ndarray:
    safe = np.where(counts == 0, 1.0, counts)
    means = sums / safe
    out = sq_sums / safe - means * means
    out[counts == 0] = 0.0
    return np.maximum(out, 0.0)


def weighted_children_rows(left_imp, left_weight, right_imp, right_weight):
    total = left_weight + right_weight
    safe = np.where(total == 0, 1.0, total)
    out = (left_weight * left_imp + right_weight * right_imp) / safe
    return np.where(total == 0, 0.0, out)


def reference_numeric_split(
    column: int,
    values: np.ndarray,
    y: np.ndarray,
    criterion: Impurity,
    n_classes: int,
) -> CandidateSplit | None:
    present = ~np.isnan(values)
    n_missing = int(values.size - present.sum())
    vals = values[present]
    ys = y[present]
    n = vals.size
    if n < 2:
        return None

    order = np.argsort(vals, kind="stable")
    sv = vals[order]
    sy = ys[order]

    boundary = np.nonzero(sv[:-1] < sv[1:])[0]
    if boundary.size == 0:
        return None
    n_left = boundary + 1
    n_right = n - n_left

    if criterion.is_classification:
        rows = gini_rows if criterion is Impurity.GINI else entropy_rows
        left_counts = np.empty((boundary.size, n_classes), dtype=np.float64)
        for cls in range(n_classes):
            cum = np.cumsum(sy == cls)
            left_counts[:, cls] = cum[boundary]
        total_counts = np.bincount(sy.astype(np.int64), minlength=n_classes)
        right_counts = total_counts[None, :] - left_counts
        left_imp = rows(left_counts)
        right_imp = rows(right_counts)
    else:
        cum_y = np.cumsum(sy)
        cum_y2 = np.cumsum(sy * sy)
        l_sum, l_sq = cum_y[boundary], cum_y2[boundary]
        r_sum, r_sq = cum_y[-1] - l_sum, cum_y2[-1] - l_sq
        left_imp = variance_rows(n_left.astype(float), l_sum, l_sq)
        right_imp = variance_rows(n_right.astype(float), r_sum, r_sq)

    scores = weighted_children_rows(left_imp, n_left, right_imp, n_right)
    best = int(np.argmin(scores))
    nl, nr = int(n_left[best]), int(n_right[best])
    return CandidateSplit(
        column=column,
        kind=ColumnKind.NUMERIC,
        score=float(scores[best]),
        n_left=nl + (n_missing if nl >= nr else 0),
        n_right=nr + (0 if nl >= nr else n_missing),
        threshold=float(sv[boundary[best]]),
        n_missing=n_missing,
        missing_to_left=nl >= nr,
    )


def label_codes(y: np.ndarray) -> np.ndarray:
    return y.astype(np.int64, copy=False)


def _category_stats_classification(
    codes: np.ndarray, y: np.ndarray, n_categories: int, n_classes: int
) -> np.ndarray:
    """Class-count matrix of shape ``(n_categories, n_classes)``."""
    flat = codes.astype(np.int64) * n_classes + label_codes(y)
    counts = np.bincount(flat, minlength=n_categories * n_classes)
    return counts.reshape(n_categories, n_classes).astype(np.float64)


def _enumerate_subsets(n: int) -> list[tuple[int, ...]]:
    """Proper non-empty subsets of ``range(n)`` that contain element 0.

    Fixing element 0 on the left removes mirror-image duplicates, leaving
    ``2^(n-1) - 1`` distinct binary partitions.
    """
    subsets: list[tuple[int, ...]] = []
    for mask in range(1, 1 << (n - 1)):
        subset = tuple(
            i for i in range(n) if (i == 0) or (mask >> (i - 1)) & 1
        )
        if len(subset) < n:
            subsets.append(subset)
    # mask == 0 case: {0} alone.
    subsets.insert(0, (0,))
    return subsets


def reference_categorical_classification_split(
    column: int,
    codes: np.ndarray,
    y: np.ndarray,
    n_categories: int,
    criterion: Impurity,
    n_classes: int,
) -> CandidateSplit | None:
    """Case 3: categorical attribute, categorical target.

    Exhaustive subset enumeration when the node sees at most
    :data:`EXHAUSTIVE_SUBSET_LIMIT` categories; otherwise the paper's
    ``|S_l| = 1`` restriction (one-vs-rest per category).
    """
    present = codes != MISSING_CODE
    n_missing = int(codes.size - present.sum())
    cd = codes[present]
    ys = y[present]
    if cd.size < 2:
        return None

    stats = _category_stats_classification(cd, ys, n_categories, n_classes)
    cat_totals = stats.sum(axis=1)
    nonempty = np.nonzero(cat_totals > 0)[0]
    if nonempty.size < 2:
        return None
    live = stats[nonempty]  # (g, k) stats of non-empty categories
    total = live.sum(axis=0)
    n_total = float(total.sum())

    if nonempty.size <= EXHAUSTIVE_SUBSET_LIMIT:
        candidates = _enumerate_subsets(nonempty.size)
        left_counts = np.stack(
            [live[list(subset)].sum(axis=0) for subset in candidates]
        )
    else:
        candidates = [(i,) for i in range(nonempty.size)]
        left_counts = live

    n_left = left_counts.sum(axis=1)
    n_right = n_total - n_left
    valid = (n_left > 0) & (n_right > 0)
    if not valid.any():
        return None
    scores = classification_children_scores(
        left_counts.T, n_left, (total - left_counts).T, n_right, criterion
    )
    scores = np.where(valid, scores, np.inf)
    best = int(np.argmin(scores))

    left_local = set(candidates[best])
    left = frozenset(int(nonempty[i]) for i in left_local)
    right = frozenset(
        int(nonempty[i]) for i in range(nonempty.size) if i not in left_local
    )
    nl, nr = int(n_left[best]), int(n_right[best])
    return CandidateSplit(
        column=column,
        kind=ColumnKind.CATEGORICAL,
        score=float(scores[best]),
        n_left=nl + (n_missing if nl >= nr else 0),
        n_right=nr + (0 if nl >= nr else n_missing),
        left_categories=left,
        right_categories=right,
        n_missing=n_missing,
        missing_to_left=nl >= nr,
    )


def _classes_impurity(counts, totals, criterion: Impurity) -> np.ndarray:
    """Gini/entropy per candidate of a class-major ``(n_classes, m)`` stack.

    Terms are added class by class, in class order — the definition of a
    classification score since PR 15 (``sum(axis=...)`` orders its adds by
    shape and strides, and differs from this beyond 7 classes).
    """
    zero = totals == 0
    p = counts / np.where(zero, 1.0, totals)
    if criterion is Impurity.GINI:
        terms = p * p
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = p * np.where(p > 0, np.log(p), 0.0)
    acc = terms[0].copy()
    for row in terms[1:]:
        acc = acc + row
    out = 1.0 - acc if criterion is Impurity.GINI else -acc
    out[zero] = 0.0
    return out


def reference_binned_split(
    column: int,
    bins: np.ndarray,
    thresholds: np.ndarray,
    y: np.ndarray,
    criterion: Impurity,
    n_classes: int,
) -> CandidateSplit | None:
    """Best prefix cut over a node's own bucket codes (``-1`` missing).

    Per-bin statistics from the node's rows, prefix sums over bins in
    ascending-threshold order, one score per cut ``bin <= t``; cuts with
    an empty child are masked, the first minimum wins, missing rows join
    the larger child.
    """
    present = bins >= 0
    if int(present.sum()) < 2 or thresholds.size == 0:
        return None
    n_bins = len(thresholds) + 1
    n_missing = int(bins.size - present.sum())
    b = bins[present].astype(np.int64)
    ys = y[present]
    if criterion.is_classification:
        flat = b * n_classes + label_codes(ys)
        counts = np.bincount(flat, minlength=n_bins * n_classes).reshape(
            n_bins, n_classes
        )
        cum = np.cumsum(counts.T, axis=1)
        total = cum[:, -1:]
        cum = cum[:, :-1]
        n_left = cum.sum(axis=0)
        n_right = total.sum() - n_left
        left_imp = _classes_impurity(cum, n_left, criterion)
        right_imp = _classes_impurity(total - cum, n_right, criterion)
    else:
        bin_counts = np.bincount(b, minlength=n_bins).astype(np.float64)
        y_sum = np.bincount(b, weights=ys, minlength=n_bins)
        y_sq_sum = np.bincount(b, weights=ys * ys, minlength=n_bins)
        n_left = np.cumsum(bin_counts)[:-1]
        s_cum = np.cumsum(y_sum)[:-1]
        q_cum = np.cumsum(y_sq_sum)[:-1]
        n_right = bin_counts.sum() - n_left
        left_imp = variance_rows(n_left, s_cum, q_cum)
        right_imp = variance_rows(
            n_right, y_sum.sum() - s_cum, y_sq_sum.sum() - q_cum
        )
    valid = (n_left > 0) & (n_right > 0)
    if not valid.any():
        return None
    scores = weighted_children_rows(left_imp, n_left, right_imp, n_right)
    scores = np.where(valid, scores, np.inf)
    best = int(np.argmin(scores))
    nl, nr = int(n_left[best]), int(n_right[best])
    return CandidateSplit(
        column=column,
        kind=ColumnKind.NUMERIC,
        score=float(scores[best]),
        n_left=nl + (n_missing if nl >= nr else 0),
        n_right=nr + (0 if nl >= nr else n_missing),
        threshold=float(thresholds[best]),
        n_missing=n_missing,
        missing_to_left=nl >= nr,
    )


def reference_categorical_regression_split(
    column: int,
    codes: np.ndarray,
    y: np.ndarray,
    n_categories: int,
) -> CandidateSplit | None:
    """Case 2: Breiman's mean-ordering algorithm for regression.

    After sorting the category groups by mean ``Y``, the optimal subset split
    is a prefix cut of the sorted group list, so only ``|S_i| - 1`` cuts need
    scoring — no exponential enumeration.
    """
    present = codes != MISSING_CODE
    n_missing = int(codes.size - present.sum())
    cd = codes[present]
    ys = y[present]
    if cd.size < 2:
        return None

    counts = np.bincount(cd, minlength=n_categories).astype(np.float64)
    sums = np.bincount(cd, weights=ys, minlength=n_categories)
    sq_sums = np.bincount(cd, weights=ys * ys, minlength=n_categories)
    nonempty = np.nonzero(counts > 0)[0]
    if nonempty.size < 2:
        return None

    means = sums[nonempty] / counts[nonempty]
    # Stable order by (mean, code) keeps ties deterministic.
    order = nonempty[np.lexsort((nonempty, means))]
    c = counts[order]
    s = sums[order]
    q = sq_sums[order]

    cum_c = np.cumsum(c)[:-1]
    cum_s = np.cumsum(s)[:-1]
    cum_q = np.cumsum(q)[:-1]
    tot_c, tot_s, tot_q = c.sum(), s.sum(), q.sum()
    scores = weighted_children_rows(
        variance_rows(cum_c, cum_s, cum_q),
        cum_c,
        variance_rows(tot_c - cum_c, tot_s - cum_s, tot_q - cum_q),
        tot_c - cum_c,
    )
    best = int(np.argmin(scores))

    left = frozenset(int(code) for code in order[: best + 1])
    right = frozenset(int(code) for code in order[best + 1 :])
    nl, nr = int(cum_c[best]), int(tot_c - cum_c[best])
    return CandidateSplit(
        column=column,
        kind=ColumnKind.CATEGORICAL,
        score=float(scores[best]),
        n_left=nl + (n_missing if nl >= nr else 0),
        n_right=nr + (0 if nl >= nr else n_missing),
        left_categories=left,
        right_categories=right,
        n_missing=n_missing,
        missing_to_left=nl >= nr,
    )
