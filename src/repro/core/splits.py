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
  enumerate all subsets exhaustively when ``|S_i|`` is small.  One function,
  :func:`categorical_classification_scan`, does this for all the nodes of a
  level at once — a column task's single node is its one-segment call — and
  the enumeration is a table: the 0/1 membership matrix of the subsets of
  ``g`` categories, built once per ``g`` in enumeration order, times the
  nodes' integer class counts gives every candidate's left counts, and the
  first minimum along the candidate axis is the earliest-enumerated subset,
  the tie rule of enumerating them one by one.  The level's count table is
  built :data:`LEVEL_TABLE_BINS` bins (``int64``: 8 MiB) at a time.

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

import functools
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

#: Most ``(class, segment, category)`` bins that
#: :func:`categorical_classification_scan` counts at once (``int64``: 8 MiB);
#: a level with more is walked in runs of segments.  A constant, like
#: serving's ``TILE_ROWS``, not an option.
LEVEL_TABLE_BINS = 1 << 20


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


@functools.lru_cache(maxsize=None)
def _subset_table(n: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The candidate subsets of ``n`` categories and their membership table.

    ``table[i, j]`` is 1 when category ``i`` (of the node's non-empty
    categories, in code order) is in candidate ``j``, candidates in the
    order of :func:`_enumerate_subsets`, so ``counts @ table`` is every
    candidate's left count at once.  A pure function of ``n``, asked for
    ``2 <= n <= EXHAUSTIVE_SUBSET_LIMIT`` only, hence built once per
    process and ``n`` and kept.
    """
    subsets = _enumerate_subsets(n)
    table = np.zeros((n, len(subsets)))
    for j, subset in enumerate(subsets):
        table[list(subset), j] = 1.0
    table.flags.writeable = False
    return subsets, table


@dataclass(slots=True)
class CategoricalLevelScan:
    """Case 3 results of one categorical column over the nodes of a level.

    One entry per segment: the winning candidate, its score and left
    size, and what the segment holds — arrays, so that a
    :class:`CandidateSplit` is built only for a segment whose node picks
    this column (:meth:`split_for`), not one per (node, column).
    """

    column: int
    #: Winning candidate, -1 for none: an index into the enumerated
    #: subsets of the categories the segment sees, or the category code
    #: itself when it sees more than :data:`EXHAUSTIVE_SUBSET_LIMIT`.
    best: np.ndarray
    seg_scores: np.ndarray
    n_left: np.ndarray
    n_present: np.ndarray
    n_missing: np.ndarray
    #: ``(segments, categories)``: which categories a segment sees.
    nonempty: np.ndarray

    def key_for(self, segment: int) -> tuple[float, int] | None:
        if self.best[segment] < 0:
            return None
        return (float(self.seg_scores[segment]), self.column)

    def split_for(self, segment: int) -> CandidateSplit | None:
        best = int(self.best[segment])
        if best < 0:
            return None
        seen = self.nonempty[segment].nonzero()[0].tolist()
        if len(seen) <= EXHAUSTIVE_SUBSET_LIMIT:
            subsets, _ = _subset_table(len(seen))
            left = frozenset(seen[i] for i in subsets[best])
        else:
            left = frozenset((best,))
        nl = int(self.n_left[segment])
        nr = int(self.n_present[segment]) - nl
        nm = int(self.n_missing[segment])
        return CandidateSplit(
            column=self.column,
            kind=ColumnKind.CATEGORICAL,
            score=float(self.seg_scores[segment]),
            n_left=nl + (nm if nl >= nr else 0),
            n_right=nr + (0 if nl >= nr else nm),
            left_categories=left,
            right_categories=frozenset(seen) - left,
            n_missing=nm,
            missing_to_left=nl >= nr,
        )


def categorical_classification_scan(
    column: int,
    codes: np.ndarray,
    y_codes: np.ndarray,
    starts: np.ndarray,
    n_categories: int,
    criterion: Impurity,
    n_classes: int,
) -> CategoricalLevelScan:
    """Case 3 (categorical attribute, categorical target) over a level.

    Segment ``i`` — one node — is rows ``starts[i]:starts[i + 1]`` of
    ``codes`` and of the ``int64`` class codes ``y_codes``; there is at
    least one segment.  One ``bincount`` gives the class-major ``(class,
    segment, category)`` count table of every segment, missing codes in
    a slot of their own.  Segments that see the same number ``g`` of
    categories are scored together: exhaustive subset enumeration when
    ``g`` is at most :data:`EXHAUSTIVE_SUBSET_LIMIT` — the non-empty
    categories' counts times the membership table of
    :func:`_subset_table` — and otherwise the paper's ``|S_l| = 1``
    restriction, one candidate per category with the empty ones masked
    out.  The first minimum along the candidate axis wins: the
    earliest-enumerated subset, or the lowest category code.

    Every count is an integer below ``2^53`` (as ``int64``, or as
    ``float64`` once through the matrix product), so no sum depends on
    its order, and a candidate is scored by the elementwise
    :func:`~repro.core.impurity.classification_children_scores`: it gets
    the same bits alone, with its node or with its level.
    """
    n_segments = starts.size - 1
    # A code's slot is ``code - MISSING_CODE``: slot 0 counts the missing.
    slots = n_categories + 1
    step = max(1, LEVEL_TABLE_BINS // (n_classes * slots))
    runs = []
    for first in range(0, n_segments, step):
        m = min(step, n_segments - first)
        lo, hi = int(starts[first]), int(starts[first + m])
        flat = y_codes[lo:hi] * (m * slots)
        flat += codes[lo:hi]
        if m == 1:  # one segment: no per-row segment offset to build
            flat -= MISSING_CODE
        else:
            flat += np.repeat(
                np.arange(-MISSING_CODE, m * slots, slots),
                np.diff(starts[first : first + m + 1]),
            )
        table = np.bincount(flat, minlength=n_classes * m * slots)
        runs.append(
            _scan_count_table(table.reshape(n_classes, m, slots), criterion)
        )
    fields = runs[0] if len(runs) == 1 else map(np.concatenate, zip(*runs))
    return CategoricalLevelScan(column, *fields)


def _scan_count_table(table: np.ndarray, criterion: Impurity) -> tuple:
    """The fields of a :class:`CategoricalLevelScan` from the ``(class,
    segment, slot)`` counts of a run of segments."""
    n_classes = table.shape[0]
    counts = table[:, :, 1:]
    class_totals = counts.sum(axis=2)
    slot_totals = table.sum(axis=0)
    n_missing = slot_totals[:, 0]
    cat_totals = slot_totals[:, 1:]
    n_present = cat_totals.sum(axis=1)
    nonempty = cat_totals > 0
    n_seen = nonempty.sum(axis=1)
    m, n_categories = nonempty.shape
    picked = []  # per group: its segments, their winners, scores, left sizes

    def pick(members, left, n_left, offered=None):
        """Score every candidate of segments ``members``, keep the best."""
        scores = classification_children_scores(
            left,
            n_left,
            class_totals[:, members, None] - left,
            n_present[members, None] - n_left,
            criterion,
        )
        if offered is not None:
            scores = np.where(offered, scores, np.inf)
        winner = scores.argmin(axis=1)  # first minimum, the scalar tie rule
        rows = np.arange(winner.size)
        picked.append(
            (members, winner, scores[rows, winner], n_left[rows, winner])
        )

    # Segments that see equally many categories share a candidate list and
    # are scored together.  Where a group is every segment of the run (the
    # root, most shallow levels, a single node) it is indexed with a slice,
    # which gives views where an index array gives copies.
    groups = set(n_seen.tolist())
    everyone = slice(None)
    for g in groups:
        if not 2 <= g <= EXHAUSTIVE_SUBSET_LIMIT:
            continue  # nothing to split on, or too many to enumerate (below)
        members = everyone if len(groups) == 1 else (n_seen == g).nonzero()[0]
        live, live_totals = counts[:, members], cat_totals[members]
        if g < n_categories:  # drop the categories a segment does not see
            seen = nonempty[members]
            live = live[:, seen].reshape(n_classes, -1, g)
            live_totals = live_totals[seen].reshape(-1, g)
        _, membership = _subset_table(g)
        pick(members, live @ membership, live_totals @ membership)
    if max(groups) > EXHAUSTIVE_SUBSET_LIMIT:
        # |S_l| = 1: each category is a candidate, the empty ones masked.
        members = (
            everyone
            if min(groups) > EXHAUSTIVE_SUBSET_LIMIT
            else (n_seen > EXHAUSTIVE_SUBSET_LIMIT).nonzero()[0]
        )
        pick(
            members, counts[:, members], cat_totals[members], nonempty[members]
        )
    if len(picked) == 1 and picked[0][0] is everyone:
        # One group that is the whole run: its arrays are the result.
        _, best, seg_scores, seg_n_left = picked[0]
    else:
        best = np.full(m, -1, dtype=np.int64)
        seg_scores = np.full(m, np.inf)
        seg_n_left = np.zeros(m, dtype=np.int64)
        for members, winner, score, n_left in picked:
            best[members] = winner
            seg_scores[members] = score
            seg_n_left[members] = n_left
    return best, seg_scores, seg_n_left, n_present, n_missing, nonempty


def best_categorical_classification_split(
    column: int,
    codes: np.ndarray,
    y: np.ndarray,
    n_categories: int,
    criterion: Impurity,
    n_classes: int,
) -> CandidateSplit | None:
    """Case 3 for one node: the one-segment call of the level scan."""
    return categorical_classification_scan(
        column,
        codes,
        label_codes(y),
        np.array([0, codes.size]),
        n_categories,
        criterion,
        n_classes,
    ).split_for(0)


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

    The entry point of a column task and of the reference recursion in
    ``tests/``.  The level kernel runs the same scans a level at a time
    (categorical regression: this module's function, node by node), which
    is what guarantees all of them pick identical splits.
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
