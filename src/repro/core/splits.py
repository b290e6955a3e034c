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
  enumerate all subsets exhaustively when ``|S_i|`` is small.  The
  enumeration is a table: the 0/1 membership matrix of the subsets of
  ``g`` categories, built once per ``g`` in enumeration order, times the
  nodes' integer class counts gives every candidate's left counts, and the
  first minimum along the candidate axis is the earliest-enumerated subset,
  the tie rule of enumerating them one by one.

Cases 1 and 3 are each one function over all the nodes of a level at once
(:func:`numeric_classification_scan`, :func:`numeric_regression_scan`,
:func:`categorical_classification_scan`): node ``i`` is segment
``starts[i]:starts[i + 1]`` of node-contiguous arrays, and a one-node call
is the one-segment case.  Case 3 also takes all the categorical columns of
a task or a level at once, whose (column, node) pairs are the segments of
one count table per number of categories (:func:`stacked_scan`, which the
binned twin of case 1 in :mod:`repro.core.histogram` shares).  A count
table is built :data:`LEVEL_TABLE_BINS` cells (``int64``: 8 MiB) at a time.
Case 2 runs per node: its float sums and its order by category mean are
not yet computed level-wide.  Which scan serves which column is decided in
one place, :func:`repro.core.kernel.scan_columns`, for the level kernel, a
column task and :func:`best_split_for_column` alike.

Missing values are excluded from split scoring; during training they are
routed to the larger child, and at prediction time a missing or unseen value
stops the descent at the current node (paper Appendix D).

All searches are deterministic: ties are broken toward the smaller threshold
or the earlier-enumerated category subset, and across columns the engine
breaks ties toward the lower column index.  Determinism is what makes the
distributed engine's output bit-identical to the serial builder's — a tested
invariant of this reproduction.

**Exactness.**  A segment of a level scan gets the bits a one-node scan
gives it, by construction:

* a classification score reads class counts only at boundaries between
  *distinct* values of a node, and the rows left of such a boundary are the
  same set however equal values are ordered among themselves.  Tie order
  therefore reaches no count, no score and no threshold, so the case-1
  classification scan needs no stable sort: it uses NumPy's default
  (unstable, SIMD where the CPU has it) ``argsort`` on NaN-compacted values
  (the SIMD sort takes a slow path when it meets a NaN), and a level adds a
  stable radix sort of 16-bit segment ids, which only regroups rows by
  node.  The one value that does depend on tie order — which of ``-0.0``
  and ``0.0`` ends a run of zeros — is canonicalised: a threshold is
  ``v + 0.0``;
* class counts are integers, exact under "level-wide cumulative count minus
  its value at the segment start" (:func:`left_class_counts`) and, for
  case 3, out of one table for the whole level and all its columns with
  equally many categories, each (column, node) segment counting only its
  own rows; every candidate is scored
  by :func:`~repro.core.impurity.classification_children_scores`, whose
  arithmetic is elementwise per candidate and whose sum over classes runs
  in one fixed order — a candidate gets the same bits alone, with its node
  or with its level;
* a regression target's cumulative sums are floating point, so there tie
  order does reach the last bits: the case-1 regression scan keeps a
  stable sort and restarts its sums per segment, the additions of a
  one-node scan in its order;
* within a column the first boundary achieving the minimum score wins,
  ``np.argmin``'s rule.

``tests/test_splits.py`` holds every scan, alone and per segment of
generated levels, to the scans they replaced, frozen in
``tests/reference_scan.py``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..data.schema import ColumnKind, ColumnSpec
from ..data.table import MISSING_CODE
from .impurity import (
    Impurity,
    classification_children_scores,
    variance_children_scores,
)

#: Enumerate all category subsets exhaustively when the number of non-empty
#: categories at the node is at most this; otherwise restrict ``|S_l| = 1``.
EXHAUSTIVE_SUBSET_LIMIT = 8

#: Most cells of a level's count table — ``(class, segment, category)``
#: of :func:`categorical_classification_scan`, ``(class, segment, bin)`` of
#: :func:`~repro.core.histogram.binned_scan` — built at once (``int64``:
#: 8 MiB); a level with more is walked in runs of segments
#: (:func:`scan_in_runs`).  Also the most rows :func:`stacked_scan` stacks
#: at once when it scans several columns together.  A constant, like
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


def left_class_counts(
    sorted_codes: np.ndarray,
    starts: np.ndarray | int,
    stops: np.ndarray,
    n_classes: int,
    out: np.ndarray | None = None,
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
    complement of the rest.  ``out``, when given, receives the counts.
    """
    counts = out
    if counts is None:
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


class CountScratch:
    """The two class-major count arrays of a classification level scan,
    kept for a caller that scans column after column (the level kernel
    keeps one per subtree): the children's class counts at every boundary
    of :func:`numeric_classification_scan`, or at every cut of
    :func:`~repro.core.histogram.binned_scan`.  A scan given none
    allocates them afresh, as a one-node call does.

    They are a scan's largest arrays, megabytes at a large node.  glibc
    hands a freed heap top back to the OS once it exceeds twice the
    largest block freed so far, so scans that allocated them afresh
    faulted their pages back in column after column (2-core host: a
    serial 8-tree forest of the e2e table 3x the minor faults and +20-40 %
    wall; a 1 024-bin hist tree 7x the faults and +30 % wall).
    """

    def __init__(self) -> None:
        self._blocks = [np.empty(0, dtype=np.int64)] * 2

    def array(self, i: int, shape: tuple[int, ...]) -> np.ndarray:
        """``int64`` array ``i`` (0 or 1) of ``shape``; contents undefined."""
        size = math.prod(shape)
        if self._blocks[i].size < size:
            self._blocks[i] = np.empty(size, dtype=np.int64)
        return self._blocks[i][:size].reshape(shape)


@dataclass(slots=True)
class NumericLevelScan:
    """Case 1 results of one numeric column over the nodes of a level.

    What the exact scans below and the binned scan of
    :mod:`repro.core.histogram` return.  One entry per segment: the
    winning candidate (an index into the scan's boundaries or cuts; -1
    for none), its score, the present rows left and right of it, the
    threshold ``A_i <= v`` and the segment's missing rows — arrays, so
    that a :class:`CandidateSplit` is built only for a segment whose node
    picks this column (:meth:`split_for`), not one per (node, column).
    """

    column: int
    winner: np.ndarray
    score: np.ndarray
    n_left: np.ndarray
    n_right: np.ndarray
    threshold: np.ndarray
    n_missing: np.ndarray

    @classmethod
    def nothing(cls, column: int, n_segments: int) -> NumericLevelScan:
        """The result when no segment has a candidate."""
        none = np.full(n_segments, -1)
        return cls(column, none, none, none, none, none, none)

    def key_for(self, segment: int) -> tuple[float, int] | None:
        if self.winner[segment] < 0:
            return None
        return (float(self.score[segment]), self.column)

    def split_for(self, segment: int) -> CandidateSplit | None:
        if self.winner[segment] < 0:
            return None
        nl = int(self.n_left[segment])
        nr = int(self.n_right[segment])
        nm = int(self.n_missing[segment])
        # Missing rows join the larger child.
        return CandidateSplit(
            column=self.column,
            kind=ColumnKind.NUMERIC,
            score=float(self.score[segment]),
            n_left=nl + (nm if nl >= nr else 0),
            n_right=nr + (0 if nl >= nr else nm),
            threshold=float(self.threshold[segment]),
            n_missing=nm,
            missing_to_left=nl >= nr,
        )


def _first_per_group(groups: np.ndarray) -> np.ndarray:
    """Indices of the first element of each run in a sorted group array."""
    if groups.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.nonzero(np.concatenate(([True], groups[1:] != groups[:-1])))[0]


def _sort_level(
    values: np.ndarray, y: np.ndarray, starts: np.ndarray, stable: bool
) -> tuple:
    """A level's present rows sorted by (segment, value), and its boundaries.

    Returns the sorted values and labels, each segment's missing rows,
    the offsets of each segment's present rows in the sorted arrays, and
    every boundary ``b`` — ``sv[b] < sv[b + 1]`` within one segment, rows
    up to ``b`` on its left — with its segment and its children's present
    rows.  One segment has no offsets and no boundary segments (both
    ``None``): no segment ids, no segment sort, no segment compare.
    ``stable`` keeps equal values in row order (see "Exactness" in the
    module docstring).
    """
    n_segments = starts.size - 1
    if n_segments > 1:
        seg = np.repeat(np.arange(n_segments), np.diff(starts))
    present = ~np.isnan(values)
    n_present = np.count_nonzero(present)
    if n_present == values.size:
        n_missing = np.zeros(n_segments, dtype=np.int64)
    else:
        if n_segments == 1:
            n_missing = np.array([values.size - n_present])
        else:
            n_missing = np.bincount(seg[~present], minlength=n_segments)
            seg = seg[present]
        values = values[present]
        y = y[present]
    if n_segments == 1:
        order = np.argsort(values, kind="stable" if stable else None)
        sv = values[order]
        bidx = np.nonzero(sv[:-1] < sv[1:])[0]
        n_left = bidx + 1
        n_right = n_present - n_left
        return sv, y[order], n_missing, None, bidx, None, n_left, n_right
    pres = np.zeros(n_segments + 1, dtype=np.int64)
    np.cumsum(np.diff(starts) - n_missing, out=pres[1:])
    if not stable:
        # Rows never change segment (the level is node-contiguous); NumPy's
        # stable sort of 16-bit keys is a radix sort.
        keys = seg.astype(np.uint16) if n_segments <= 1 << 16 else seg
        by_value = np.argsort(values)
        order = by_value[np.argsort(keys[by_value], kind="stable")]
    elif n_segments * 2048 <= values.size:
        order = np.empty(values.size, dtype=np.int64)
        for lo, hi in zip(pres[:-1].tolist(), pres[1:].tolist()):
            order[lo:hi] = lo + np.argsort(values[lo:hi], kind="stable")
    else:
        order = np.lexsort((values, seg))
    sv = values[order]
    bidx = np.nonzero((sv[:-1] < sv[1:]) & (seg[:-1] == seg[1:]))[0]
    bseg = seg[bidx]
    stop = bidx + 1
    n_left = stop - pres[bseg]
    n_right = pres[1:][bseg] - stop
    return sv, y[order], n_missing, pres, bidx, bseg, n_left, n_right


def _numeric_winners(
    column: int,
    scores: np.ndarray,
    bseg: np.ndarray | None,
    n_left: np.ndarray,
    n_right: np.ndarray,
    n_missing: np.ndarray,
    sv: np.ndarray,
    bidx: np.ndarray,
) -> NumericLevelScan:
    """Each segment's first minimum-score boundary (``np.argmin``'s rule:
    the smallest threshold) as a :class:`NumericLevelScan`; its threshold
    is ``sv[b] + 0.0``, which maps ``-0.0`` to ``0.0`` (module docstring).
    """
    if bseg is None:
        b = int(scores.argmin())
        at = slice(b, b + 1)
        pos = int(bidx[b])
        return NumericLevelScan(
            column, np.array([b]), scores[at], n_left[at], n_right[at],
            sv[pos : pos + 1] + 0.0, n_missing,
        )
    first_b = _first_per_group(bseg)
    seg_min = np.minimum.reduceat(scores, first_b)
    counts_b = np.diff(np.append(first_b, bseg.size))
    hit = np.nonzero(scores == np.repeat(seg_min, counts_b))[0]
    hseg = bseg[hit]
    hfirst = _first_per_group(hseg)
    # The winning boundary of each segment, -1 for none; the other
    # fields read the last boundary there, which nothing looks at.
    won = np.full(n_missing.size, -1)
    won[hseg[hfirst]] = hit[hfirst]
    return NumericLevelScan(
        column, won, scores[won], n_left[won], n_right[won],
        sv[bidx[won]] + 0.0, n_missing,
    )


def numeric_classification_scan(
    column: int,
    values: np.ndarray,
    y_codes: np.ndarray,
    starts: np.ndarray,
    criterion: Impurity,
    n_classes: int,
    scratch: CountScratch | None = None,
) -> NumericLevelScan:
    """Case 1 (ordinal attribute, categorical target) over a level.

    Segment ``i`` — one node — is rows ``starts[i]:starts[i + 1]`` of
    ``values`` and of the ``int64`` class codes ``y_codes``.  One sort of
    the level (unstable: tie order is free), one packed cumulative class
    count (:func:`left_class_counts`) for every boundary's left child and
    every segment's total, and one scoring pass over every boundary of
    every segment.  A level's class counts go to ``scratch``, if given.
    """
    sv, syc, n_missing, pres, bidx, bseg, n_left, n_right = _sort_level(
        values, y_codes, starts, stable=False
    )
    if bidx.size == 0:
        return NumericLevelScan.nothing(column, n_missing.size)
    shape = (n_classes, bidx.size)
    if bseg is None:
        left = left_class_counts(
            syc, 0, n_left, n_classes, scratch and scratch.array(0, shape)
        )
        right = np.subtract(
            np.bincount(syc, minlength=n_classes)[:, None],
            left,
            out=scratch and scratch.array(1, shape),
        )
    else:
        stop = bidx + 1
        both = (n_classes, bidx.size + n_missing.size)  # then the totals
        counts = left_class_counts(
            syc,
            np.concatenate((stop - n_left, pres[:-1])),
            np.concatenate((stop, pres[1:])),
            n_classes,
            scratch and scratch.array(0, both),
        )
        left = counts[:, : bidx.size]
        # "clip" never clips (segments are in range); "raise" would copy.
        right = np.take(
            counts[:, bidx.size :], bseg, axis=1, mode="clip",
            out=scratch and scratch.array(1, shape),
        )
        right -= left
    scores = classification_children_scores(
        left, n_left, right, n_right, criterion
    )
    return _numeric_winners(
        column, scores, bseg, n_left, n_right, n_missing, sv, bidx
    )


def numeric_regression_scan(
    column: int,
    values: np.ndarray,
    y: np.ndarray,
    starts: np.ndarray,
) -> NumericLevelScan:
    """Case 1 (ordinal attribute, numeric target) over a level.

    Segments as in :func:`numeric_classification_scan`.  A cumulative sum
    of ``y`` is floating point, so tie order reaches its last bits: the
    sort is stable and each segment's slice gets its own ``np.cumsum``,
    the additions of a one-node scan in its order.  Scoring and the
    winner pass run once for the level.
    """
    sv, sy, n_missing, pres, bidx, bseg, n_left, n_right = _sort_level(
        values, y, starts, stable=True
    )
    if bidx.size == 0:
        return NumericLevelScan.nothing(column, n_missing.size)
    sy2 = sy * sy
    if bseg is None:
        cum_y, cum_y2 = np.cumsum(sy), np.cumsum(sy2)
        tot_y, tot_y2 = cum_y[-1], cum_y2[-1]
    else:
        cum_y, cum_y2 = np.empty_like(sy), np.empty_like(sy)
        for lo, hi in zip(pres[:-1].tolist(), pres[1:].tolist()):
            np.cumsum(sy[lo:hi], out=cum_y[lo:hi])
            np.cumsum(sy2[lo:hi], out=cum_y2[lo:hi])
        last = (pres[1:] - 1)[bseg]
        tot_y, tot_y2 = cum_y[last], cum_y2[last]
    l_sum, l_sq = cum_y[bidx], cum_y2[bidx]
    scores = variance_children_scores(
        n_left, l_sum, l_sq, n_right, tot_y - l_sum, tot_y2 - l_sq
    )
    return _numeric_winners(
        column, scores, bseg, n_left, n_right, n_missing, sv, bidx
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
    columns: Sequence[int],
    codes: Sequence[np.ndarray],
    y_codes: np.ndarray,
    starts: np.ndarray,
    n_categories: Sequence[int],
    criterion: Impurity,
    n_classes: int,
) -> list[CategoricalLevelScan]:
    """Case 3 (categorical attribute, categorical target) over the
    categorical columns of a task or a level: one
    :class:`CategoricalLevelScan` per column, in ``columns`` order.

    Node ``i`` is rows ``starts[i]:starts[i + 1]`` of the ``int64`` class
    codes ``y_codes`` and of each column's codes ``codes[k]``, of which
    there are ``n_categories[k]``.  Columns with equally many categories
    share one class-major ``(class, segment, category)`` count table
    whose segments are their (column, node) pairs (:func:`stacked_scan`),
    missing codes in a slot of their own.  Segments that see the same
    number ``g`` of categories are scored together: exhaustive subset
    enumeration when ``g`` is at most :data:`EXHAUSTIVE_SUBSET_LIMIT` —
    the non-empty categories' counts times the membership table of
    :func:`_subset_table` — and otherwise the paper's ``|S_l| = 1``
    restriction, one candidate per category with the empty ones masked
    out.  The first minimum along the candidate axis wins: the
    earliest-enumerated subset, or the lowest category code.  Counts stay
    integers below ``2^53`` through the matrix product (as ``float64``),
    so no sum depends on its order (module docstring, "Exactness").
    """
    scans: list = [None] * len(columns)
    groups: dict[int, list[int]] = {}
    for k, count in enumerate(n_categories):
        groups.setdefault(count, []).append(k)
    for count, group in groups.items():
        fields = stacked_scan(
            [codes[k] for k in group], y_codes, starts, count + 1,
            criterion, n_classes,
            lambda table: _scan_count_table(table, criterion),
        )
        for k, column_fields in zip(group, fields):
            scans[k] = CategoricalLevelScan(columns[k], *column_fields)
    return scans


def stacked_scan(
    codes: Sequence[np.ndarray],
    y: np.ndarray,
    starts: np.ndarray,
    slots: int,
    criterion: Impurity,
    n_classes: int,
    score,
) -> list[tuple]:
    """Per column of ``codes``, the per-node fields ``score`` reads off
    its count table: the columns of a task or a level scanned as one.

    Node ``i`` is rows ``starts[i]:starts[i + 1]`` of ``y`` (``int64``
    class codes under a classification criterion, targets otherwise) and
    of every column's integer codes (``-1`` missing, at most ``slots -
    2``).  Stacked column-major, the (column, node) pairs are the
    segments of one :func:`count_table`, each counting only its own rows,
    built in runs (:func:`scan_in_runs`); a stack holds at most
    :data:`LEVEL_TABLE_BINS` rows (one column at least).
    """
    n_nodes = starts.size - 1
    n_rows = int(starts[-1])
    per_segment = n_classes if criterion.is_classification else 3
    per_stack = max(1, LEVEL_TABLE_BINS // max(1, n_rows))
    out = []
    for first in range(0, len(codes), per_stack):
        stack = codes[first : first + per_stack]
        shifted = starts[:-1] + n_rows * np.arange(len(stack))[:, None]
        bounds = np.append(shifted.ravel(), n_rows * len(stack))
        fields = scan_in_runs(
            bounds,
            per_segment * slots,
            lambda run, m: score(
                count_table(
                    stack, y, bounds, run, m, slots, criterion, n_classes
                )
            ),
        )
        out += [
            tuple(f[j * n_nodes : (j + 1) * n_nodes] for f in fields)
            for j in range(len(stack))
        ]
    return out


def count_table(codes, y, starts, first, m, slots, criterion, n_classes):
    """Per-(segment, slot) statistics of segments ``first..first+m`` of
    stacked columns (:func:`level_cells`).

    Classification: the class-major ``(class, segment, slot)`` counts.
    Regression: ``(segment, slot)`` row counts, sums of ``y`` and of
    ``y * y`` — float ``bincount(weights=)`` sums, each slot's rows added
    in row order, as a one-node table adds them.
    """
    if criterion.is_classification:
        cells = level_cells(codes, starts, first, m, slots, y)
        table = np.bincount(cells, minlength=n_classes * m * slots)
        return table.reshape(n_classes, m, slots)
    cells = level_cells(codes, starts, first, m, slots)
    # Stacked row ``j * n + r`` is labelled ``y[r]``.
    ys = y[np.arange(starts[first], starts[first + m]) % y.size]
    size = m * slots
    return (
        np.bincount(cells, minlength=size).reshape(m, slots),
        np.bincount(cells, weights=ys, minlength=size).reshape(m, slots),
        np.bincount(cells, weights=ys * ys, minlength=size).reshape(m, slots),
    )


def level_cells(
    codes: Sequence[np.ndarray],
    starts: np.ndarray,
    first: int,
    m: int,
    slots: int,
    y_codes: np.ndarray | None = None,
) -> np.ndarray:
    """Each row's cell of a count table over segments ``first..first+m``.

    ``codes`` are columns of equally many rows, stacked column-major:
    stacked row ``j * n + r`` is row ``r`` of ``codes[j]``, labelled
    ``y_codes[r]``.  The table is ``(class, segment, slot)``, class-major,
    or ``(segment, slot)`` without ``y_codes``; a code's slot is ``code -
    MISSING_CODE``, so slot 0 counts the missing codes.  Each column's
    rows and the labels are read where they lie, with no stacked copy of
    either: one ``int64`` array out.
    """
    lo, hi = int(starts[first]), int(starts[first + m])
    n = codes[0].size
    cells = np.empty(hi - lo, dtype=np.int64)
    for j in range(lo // n, -(-hi // n)) if hi > lo else ():
        a, b = max(lo - j * n, 0), min(hi - j * n, n)  # column j's rows
        piece = cells[j * n + a - lo : j * n + b - lo]
        if y_codes is None:
            piece[:] = codes[j][a:b]
        else:
            np.multiply(y_codes[a:b], m * slots, out=piece)
            piece += codes[j][a:b]
    if m == 1:  # one segment: no per-row segment offset to build
        cells -= MISSING_CODE
    else:
        cells += np.repeat(
            np.arange(-MISSING_CODE, m * slots, slots),
            np.diff(starts[first : first + m + 1]),
        )
    return cells


def scan_in_runs(starts: np.ndarray, segment_cells: int, scan_run) -> tuple:
    """A level's per-segment fields, its count tables bounded in size.

    ``scan_run(first, m)`` builds the table of segments ``first..first+m``
    — ``segment_cells`` cells a segment — and returns per-segment arrays;
    runs hold at most :data:`LEVEL_TABLE_BINS` cells (one segment at
    least) and their fields are concatenated.  One run, the common case,
    is returned as it is.
    """
    n_segments = starts.size - 1
    step = max(1, LEVEL_TABLE_BINS // segment_cells)
    if step >= n_segments:
        return scan_run(0, n_segments)
    runs = [
        scan_run(first, min(step, n_segments - first))
        for first in range(0, n_segments, step)
    ]
    return tuple(map(np.concatenate, zip(*runs)))


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


def best_split_for_column(
    column: int,
    kind: ColumnKind,
    values: np.ndarray,
    y: np.ndarray,
    criterion: Impurity,
    n_classes: int,
    n_categories: int = 0,
) -> CandidateSplit | None:
    """The best split of one attribute at one node: the one-column,
    one-node call of :func:`~repro.core.kernel.scan_columns`, so it picks
    what a column task and the level kernel pick.  ``y`` holds the labels
    (as floats or as integer codes) or targets.  The split search of the
    reference recursion in ``tests/`` and of PLANET's categorical columns.
    """
    # Imported here, not at module level: kernel.py builds on this module.
    from .kernel import scan_columns

    if criterion.is_classification:
        y = label_codes(y)
    spec = ColumnSpec(str(column), kind, ("",) * n_categories)
    [scan] = scan_columns(
        (column,), (values,), y, np.array([0, values.size]), (spec,),
        criterion, n_classes,
    )
    return scan.split_for(0)


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

