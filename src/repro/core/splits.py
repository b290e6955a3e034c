"""Exact best-split search per attribute — the paper's Appendix B.

TreeServer computes *exact* split conditions, unlike PLANET/MLlib (equi-depth
histograms) and XGBoost (weighted quantile sketches).  At each tree node the
best split of each candidate attribute is found independently — this module
implements the three cases the paper describes:

* **Case 1 — ordinal attribute** (classification or regression): sort the
  rows of ``D_x`` by the attribute and score every distinct-value boundary in
  one incremental pass.
* **Case 2 — categorical attribute, numeric target** (regression): Breiman's
  result — group rows by category, sort groups by mean ``Y``, and the optimal
  subset split is a prefix of that order, so one pass over groups suffices.
* **Case 3 — categorical attribute, categorical target** (classification):
  subsets must be enumerated; following the paper, when ``|S_i|`` is large we
  restrict ``|S_l| = 1`` so only ``O(|S_i|)`` splits are checked, and we
  enumerate all subsets exhaustively when ``|S_i|`` is small.

Missing values are excluded from split scoring; during training they are
routed to the larger child, and at prediction time a missing or unseen value
stops the descent at the current node (paper Appendix D).

All searches are deterministic: ties are broken toward the smaller threshold
or the earlier-enumerated category subset, and across columns the engine
breaks ties toward the lower column index.  Determinism is what makes the
distributed engine's output bit-identical to the serial builder's — a tested
invariant of this reproduction.

Determinism does not need a stable sort where the *order of equal values*
cannot reach an output, and for a classification target it cannot: a score
reads class counts only at a boundary between two distinct values, the rows
left of that boundary are the same set in any order of the ties, and counts
are integers.  So the Case-1 classification scan sorts with NumPy's default
(unstable, SIMD where the CPU has it) ``argsort``; NaNs are compacted away
first, because the SIMD sort takes a slow path when it meets one.  The one
value that does depend on tie order — which of ``-0.0`` and ``0.0`` ends a
run of zeros — is canonicalised in :func:`boundary_threshold`.  A regression
target keeps the stable sort: its cumulative sums of ``y`` are floating
point, so the order of tied rows changes their last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.schema import ColumnKind
from ..data.table import MISSING_CODE
from .impurity import (
    Impurity,
    classification_children_scores,
    variance_children_scores,
)

#: Enumerate all category subsets exhaustively when the number of non-empty
#: categories at the node is at most this; otherwise restrict ``|S_l| = 1``.
EXHAUSTIVE_SUBSET_LIMIT = 8


@dataclass(frozen=True, slots=True)
class CandidateSplit:
    """The best split condition found for one attribute at one node.

    ``score`` is the size-weighted impurity of the two children (lower is
    better).  For categorical splits, ``left_categories`` is the chosen
    ``S_l`` and ``right_categories`` the remaining categories *seen in D_x* —
    keeping both lets prediction detect values unseen during training.
    """

    column: int
    kind: ColumnKind
    score: float
    n_left: int
    n_right: int
    threshold: float | None = None
    left_categories: frozenset[int] | None = None
    right_categories: frozenset[int] | None = None
    n_missing: int = 0
    missing_to_left: bool = True

    def sort_key(self) -> tuple[float, int]:
        """Deterministic cross-column comparison key (score, column)."""
        return (self.score, self.column)

    def describe(self, column_name: str = "") -> str:
        """Human-readable split condition, e.g. ``A1 <= 40``."""
        name = column_name or f"A{self.column}"
        if self.kind is ColumnKind.NUMERIC:
            return f"{name} <= {self.threshold:g}"
        cats = sorted(self.left_categories or ())
        return f"{name} in {cats}"


def label_codes(y: np.ndarray) -> np.ndarray:
    """Class labels as ``int64`` codes (a no-op when they already are)."""
    return y.astype(np.int64, copy=False)


def boundary_threshold(sorted_values: np.ndarray, index: int) -> float:
    """The threshold ``A_i <= v`` of a boundary of a sorted column.

    ``-0.0`` and ``0.0`` sort as ties, so which of the two ends a run of
    zeros is up to the sort; ``+ 0.0`` maps both to ``0.0`` and leaves
    every other value alone, which keeps a model's bytes independent of
    sort kind and CPU.
    """
    return float(sorted_values[index] + 0.0)


def left_class_counts(
    sorted_codes: np.ndarray,
    starts: np.ndarray | int,
    stops: np.ndarray,
    n_classes: int,
) -> np.ndarray:
    """Class-major ``(n_classes, m)`` counts of sorted rows ``starts..stops``.

    Candidate ``i`` has rows ``starts[i]`` (the first row of its node; 0
    for a single node) up to but excluding ``stops[i]`` on its left, so
    one pass serves every node of a level.  The pass is one cumulative
    sum for several classes at once: a count never exceeds the number of
    rows, so each class gets a bit field that wide in an ``int64`` and a
    row adds 1 to the field of its class; fields cannot carry into each
    other, and the difference of two cumulative words is the difference
    field by field.  All integer, hence exact; the last class is the
    complement of the rest.
    """
    counts = np.empty((n_classes, stops.size), dtype=np.int64)
    bits = int(sorted_codes.size).bit_length()
    per_word = 63 // bits
    field = (1 << bits) - 1
    cum = np.empty(sorted_codes.size + 1, dtype=np.int64)
    cum[0] = 0
    rest = counts[-1]
    np.subtract(stops, starts, out=rest)
    for first in range(0, n_classes - 1, per_word):
        group = range(first, min(first + per_word, n_classes - 1))
        increment = np.zeros(n_classes, dtype=np.int64)
        for cls in group:
            increment[cls] = 1 << (bits * (cls - first))
        np.take(increment, sorted_codes, out=cum[1:])
        np.cumsum(cum[1:], out=cum[1:])
        words = cum[stops]
        words -= cum[starts]
        for cls in group:
            row = counts[cls]
            np.right_shift(words, bits * (cls - first), out=row)
            row &= field
            rest -= row
    return counts


def best_numeric_split(
    column: int,
    values: np.ndarray,
    y: np.ndarray,
    criterion: Impurity,
    n_classes: int,
) -> CandidateSplit | None:
    """Case 1: exact best threshold for an ordinal attribute.

    Sorts the node's rows by the attribute value and scores every boundary
    between distinct values.  The threshold is the left boundary value itself
    (the paper's ``A_i <= v`` uses data values for ``v``).  ``y`` holds the
    labels (classification: as floats or as integer codes) or targets.
    """
    present = ~np.isnan(values)
    n_missing = int(values.size - present.sum())
    if n_missing:
        values = values[present]
        y = y[present]
    n = values.size
    if n < 2:
        return None

    if criterion.is_classification:
        y = label_codes(y)
        order = np.argsort(values)  # tie order is free, see module docstring
    else:
        order = np.argsort(values, kind="stable")
    sv = values[order]
    sy = y[order]

    # Candidate boundaries: positions i where sv[i] < sv[i + 1].
    boundary = np.nonzero(sv[:-1] < sv[1:])[0]
    if boundary.size == 0:
        return None
    n_left = boundary + 1
    n_right = n - n_left

    if criterion.is_classification:
        left_counts = left_class_counts(sy, 0, n_left, n_classes)
        total_counts = np.bincount(sy, minlength=n_classes)
        scores = classification_children_scores(
            left_counts,
            n_left,
            total_counts[:, None] - left_counts,
            n_right,
            criterion,
        )
    else:
        cum_y = np.cumsum(sy)
        cum_y2 = np.cumsum(sy * sy)
        l_sum, l_sq = cum_y[boundary], cum_y2[boundary]
        scores = variance_children_scores(
            n_left, l_sum, l_sq, n_right, cum_y[-1] - l_sum, cum_y2[-1] - l_sq
        )

    best = int(np.argmin(scores))  # first minimum == smallest threshold
    nl, nr = int(n_left[best]), int(n_right[best])
    return CandidateSplit(
        column=column,
        kind=ColumnKind.NUMERIC,
        score=float(scores[best]),
        n_left=nl + (n_missing if nl >= nr else 0),
        n_right=nr + (0 if nl >= nr else n_missing),
        threshold=boundary_threshold(sv, boundary[best]),
        n_missing=n_missing,
        missing_to_left=nl >= nr,
    )


def _category_stats_classification(
    codes: np.ndarray, y: np.ndarray, n_categories: int, n_classes: int
) -> np.ndarray:
    """Class-count matrix of shape ``(n_categories, n_classes)``."""
    flat = codes.astype(np.int64) * n_classes + label_codes(y)
    counts = np.bincount(flat, minlength=n_categories * n_classes)
    return counts.reshape(n_categories, n_classes).astype(np.float64)


def best_categorical_regression_split(
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
    scores = variance_children_scores(
        cum_c, cum_s, cum_q, tot_c - cum_c, tot_s - cum_s, tot_q - cum_q
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


def best_categorical_classification_split(
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


def best_split_for_column(
    column: int,
    kind: ColumnKind,
    values: np.ndarray,
    y: np.ndarray,
    criterion: Impurity,
    n_classes: int,
    n_categories: int = 0,
) -> CandidateSplit | None:
    """Dispatch to the right Appendix-B case for one attribute.

    This single entry point is shared by the serial builder, the column-task
    worker code in the distributed engine, and the subtree builder, which is
    what guarantees all of them pick identical splits.
    """
    if kind is ColumnKind.NUMERIC:
        return best_numeric_split(column, values, y, criterion, n_classes)
    if criterion.is_classification:
        return best_categorical_classification_split(
            column, values, y, n_categories, criterion, n_classes
        )
    return best_categorical_regression_split(column, values, y, n_categories)


def random_split_for_column(
    column: int,
    kind: ColumnKind,
    values: np.ndarray,
    y: np.ndarray,
    criterion: Impurity,
    n_classes: int,
    rng: np.random.Generator,
    n_categories: int = 0,
) -> CandidateSplit | None:
    """Completely-random split for extra-trees (paper Appendix F).

    Numeric: a threshold drawn uniformly from ``[min, max)`` of the node's
    values.  Categorical: a uniformly random seen category as ``S_l``.
    The returned score is the realized weighted child impurity so leaves and
    degenerate draws are still handled uniformly by the builder.
    """
    if kind is ColumnKind.NUMERIC:
        present = ~np.isnan(values)
        vals = values[present]
        if vals.size < 2:
            return None
        lo, hi = float(vals.min()), float(vals.max())
        if lo == hi:
            return None
        threshold = float(rng.uniform(lo, hi))
        go_left = vals <= threshold
        nl = int(go_left.sum())
        nr = int(vals.size - nl)
        if nl == 0 or nr == 0:
            return None
        score = _realized_score(go_left, y[present], criterion, n_classes)
        n_missing = int(values.size - vals.size)
        return CandidateSplit(
            column=column,
            kind=ColumnKind.NUMERIC,
            score=score,
            n_left=nl + (n_missing if nl >= nr else 0),
            n_right=nr + (0 if nl >= nr else n_missing),
            threshold=threshold,
            n_missing=n_missing,
            missing_to_left=nl >= nr,
        )

    present = values != MISSING_CODE
    cd = values[present]
    if cd.size < 2:
        return None
    seen = np.unique(cd)
    if seen.size < 2:
        return None
    pick = int(seen[rng.integers(seen.size)])
    go_left = cd == pick
    nl = int(go_left.sum())
    nr = int(cd.size - nl)
    score = _realized_score(go_left, y[present], criterion, n_classes)
    n_missing = int(values.size - cd.size)
    return CandidateSplit(
        column=column,
        kind=ColumnKind.CATEGORICAL,
        score=score,
        n_left=nl + (n_missing if nl >= nr else 0),
        n_right=nr + (0 if nl >= nr else n_missing),
        left_categories=frozenset({pick}),
        right_categories=frozenset(int(c) for c in seen if c != pick),
        n_missing=n_missing,
        missing_to_left=nl >= nr,
    )


def _realized_score(
    go_left: np.ndarray, y: np.ndarray, criterion: Impurity, n_classes: int
) -> float:
    """Weighted child impurity of an already-decided partition."""
    yl, yr = y[go_left], y[~go_left]
    nl, nr = np.array([yl.size]), np.array([yr.size])
    if criterion.is_classification:
        lc = np.bincount(label_codes(yl), minlength=n_classes)
        rc = np.bincount(label_codes(yr), minlength=n_classes)
        scores = classification_children_scores(
            lc[:, None], nl, rc[:, None], nr, criterion
        )
    else:
        scores = variance_children_scores(
            nl,
            np.array([yl.sum()]),
            np.array([(yl * yl).sum()]),
            nr,
            np.array([yr.sum()]),
            np.array([(yr * yr).sum()]),
        )
    return float(scores[0])


def route_training_rows(values: np.ndarray, split: CandidateSplit) -> np.ndarray:
    """Boolean mask: which of the node's rows go to the *left* child.

    Missing values follow ``split.missing_to_left`` (the larger child), so
    every training row is routed and ``|I_xl| + |I_xr| = |I_x|`` always holds
    — the invariant the delegate-worker protocol relies on.
    """
    if split.kind is ColumnKind.NUMERIC:
        missing = np.isnan(values)
        go_left = values <= split.threshold
    else:
        missing = values == MISSING_CODE
        left = split.left_categories or frozenset()
        go_left = np.isin(values, np.fromiter(left, dtype=values.dtype, count=len(left)))
    go_left = np.where(missing, split.missing_to_left, go_left)
    return go_left.astype(bool)


def route_test_value(value: float | int, split: CandidateSplit) -> bool | None:
    """Route a single prediction-time value; ``None`` means stop here.

    ``None`` is returned for missing values and for categorical values never
    seen in the node's ``D_x`` during training — in both cases the paper's
    Appendix D stops the descent and reports the current node's prediction.
    """
    if split.kind is ColumnKind.NUMERIC:
        if np.isnan(value):
            return None
        return bool(value <= split.threshold)
    code = int(value)
    if code == MISSING_CODE:
        return None
    if split.left_categories and code in split.left_categories:
        return True
    if split.right_categories and code in split.right_categories:
        return False
    return None
