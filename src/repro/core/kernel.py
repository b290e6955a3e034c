"""Level-synchronous (breadth-first) subtree training kernel.

:func:`build_subtree` is the one subtree builder: a subtree-task's key
worker calls it on ``D_x`` (paper Fig. 3(b)) and
:func:`~repro.core.builder.train_tree` calls it on the whole table.
Growing one node per Python iteration — fancy-indexing ``y`` and every
candidate column per *node* — spends the CPU-bound tail of every backend
in thousands of small NumPy calls whose fixed per-call overhead
dominates the arithmetic, so the kernel processes the whole frontier of
a subtree at once (the breadth-first scheme of the RF-training
literature, see PAPERS.md):

* one gather of ``y`` and of each candidate column per *level*, with rows
  bucketed to frontier nodes through a node-contiguous partition array
  (segment ids derived from the heap-path frontier order);
* per-node label statistics for classification in a single ``bincount``
  over ``segment * n_classes + y``;
* the numeric best-split scan for classification batched across all
  frontier nodes: one sort by ``(segment, value)``, one packed integer
  cumulative class count for the level minus its value at each segment
  start, and one class-major scoring pass over every candidate boundary
  of every node;
* the categorical best-split scan for classification likewise
  (:func:`~repro.core.splits.categorical_classification_scan`): one
  ``bincount`` into a ``(class, node, category)`` table, and the subset
  enumeration as one matrix product and one scoring pass per group of
  nodes that see equally many categories.

**Exactness.**  The kernel is bit-identical to growing the tree one node
at a time with the per-column scans of :mod:`repro.core.splits` — the
repo's ground-truth invariant, with that recursion kept as the oracle in
``tests/reference_builder.py`` — by construction:

* node ids are the same heap paths and all per-node RNG draws key off
  ``(seed, path)`` / ``(seed, path, column)``, so extra-trees reproduce
  the per-node draws regardless of traversal order;
* a classification score reads class counts only at boundaries between
  *distinct* values of a node, and the rows left of such a boundary are
  the same set however equal values are ordered among themselves.  Tie
  order therefore reaches no count, no score and no threshold (a run of
  ``-0.0`` / ``0.0`` ties is mapped to ``0.0``, see
  :func:`~repro.core.splits.boundary_threshold`), so neither scan needs
  a stable sort: both use NumPy's default ``argsort`` on NaN-compacted
  values (the SIMD sort falls back to a slow path when NaNs are left
  in), and the level sort is that plus a stable 16-bit radix sort of
  the segment ids, which only regroups rows by node;
* integer statistics (class counts) are exact under "level-wide
  cumulative count minus its value at the segment start", and both
  scans count and score through the very same functions
  (:func:`~repro.core.splits.left_class_counts`,
  :func:`~repro.core.impurity.classification_children_scores`), whose
  arithmetic is elementwise per candidate and whose sum over classes
  runs in one fixed order — a candidate gets the same bits whether it is
  scored alone, with its node, or with its level.  Categorical
  *classification* belongs here too: a subset's left counts are sums of
  per-category class counts, integers far below ``2^53``, so they are
  the same in any order and out of one table for the whole level, and
  the column task's per-node scan is the one-segment call of the level
  function — one implementation, one set of bits;
* floating-point accumulations whose result depends on summation order —
  regression cumulative sums, node means, categorical *regression* —
  are *not* re-associated: the numeric regression scan keeps a stable
  sort (tie order does reach a cumulative sum of ``y``) and restarts its
  sums per segment, and categorical regression (float
  ``bincount(weights=)`` sums in row order, ``c.sum()``, candidates
  ordered by a ``lexsort`` on category means) calls
  :func:`~repro.core.splits.best_categorical_regression_split` per node
  on the node-contiguous slices of the level gather, which see exactly
  the arrays a per-node scan sees.  Extra-trees also run per node: their
  draws are keyed by node and taken one column at a time;
* cross-column tie-breaking keeps the per-node rule (strictly smaller
  ``(score, column)`` wins, i.e. ties go to the lower column index), and
  within a column the first boundary achieving the minimum score wins,
  matching ``np.argmin``.

The parity sweep in ``tests/test_builder.py`` pins all of this against
the oracle, on tie-heavy, 9-class, non-collapsed hist-mode and
cardinality-2-to-40 categorical tables too; ``tests/test_splits.py``
holds the per-column scans — and the categorical one per level — to the
scans they replaced, frozen in ``tests/reference_scan.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..data.schema import ColumnKind, ProblemKind
from ..data.table import DataTable
from .builder import (
    NodeStats,
    extra_tree_column_order,
    extra_tree_split_rng,
    parent_impurity_of,
    path_depth,
    sample_candidate_columns,
    should_stop,
    split_is_useful,
)
from .config import TreeConfig, TreeKind
from .histogram import bin_indices
from .impurity import (
    Impurity,
    classification_children_scores,
    variance_children_scores,
)
from .splits import (
    CandidateSplit,
    best_categorical_regression_split,
    boundary_threshold,
    categorical_classification_scan,
    left_class_counts,
    random_split_for_column,
    route_training_rows,
)
from .tree import TreeNode

#: Empty threshold set: a degenerate hist-mode column offers no candidates.
_NO_THRESHOLDS = np.empty(0)


@dataclass
class KernelCounters:
    """Per-worker training-kernel observability counters.

    ``build_s`` is total wall-clock inside :func:`build_subtree`,
    ``gather_s`` the slice of it spent fancy-indexing ``y``/column values
    out of the table, and ``nodes_built`` the tree nodes constructed.
    """

    build_s: float = 0.0
    gather_s: float = 0.0
    nodes_built: int = 0


class _BatchedNumericEntry:
    """Batched best-split results of one numeric column over a level.

    Holds, for every active frontier segment, the winning boundary of
    the batched scan (or -1) plus the per-boundary arrays needed to
    materialize a :class:`CandidateSplit` for the segments that win the
    cross-column comparison — so only one split object is built per node
    instead of one per (node, column).
    """

    __slots__ = (
        "column",
        "seg_scores",
        "best_pos",
        "n_left",
        "n_right",
        "n_missing",
        "sv",
        "bidx",
        "scores",
    )

    def __init__(self, column: int, n_segments: int) -> None:
        self.column = column
        self.seg_scores = np.full(n_segments, np.inf)
        self.best_pos = np.full(n_segments, -1, dtype=np.int64)
        self.n_left: np.ndarray | None = None
        self.n_right: np.ndarray | None = None
        self.n_missing: np.ndarray | None = None
        self.sv: np.ndarray | None = None
        self.bidx: np.ndarray | None = None
        self.scores: np.ndarray | None = None

    def key_for(self, segment: int) -> tuple[float, int] | None:
        if self.best_pos[segment] < 0:
            return None
        return (float(self.seg_scores[segment]), self.column)

    def split_for(self, segment: int) -> CandidateSplit | None:
        b = int(self.best_pos[segment])
        if b < 0:
            return None
        nl = int(self.n_left[b])
        nr = int(self.n_right[b])
        nm = int(self.n_missing[segment])
        # Identical construction to best_numeric_split: missing rows join
        # the larger child, threshold is the left boundary value.
        return CandidateSplit(
            column=self.column,
            kind=ColumnKind.NUMERIC,
            score=float(self.scores[b]),
            n_left=nl + (nm if nl >= nr else 0),
            n_right=nr + (0 if nl >= nr else nm),
            threshold=boundary_threshold(self.sv, self.bidx[b]),
            n_missing=nm,
            missing_to_left=nl >= nr,
        )


class _ObjectEntry:
    """Per-segment split objects of one column (non-batched cases)."""

    __slots__ = ("column", "splits")

    def __init__(self, column: int, splits: list[CandidateSplit | None]):
        self.column = column
        self.splits = splits

    def key_for(self, segment: int) -> tuple[float, int] | None:
        split = self.splits[segment]
        return None if split is None else split.sort_key()

    def split_for(self, segment: int) -> CandidateSplit | None:
        return self.splits[segment]


def _first_per_group(groups: np.ndarray) -> np.ndarray:
    """Indices of the first element of each run in a sorted group array."""
    if groups.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.nonzero(np.concatenate(([True], groups[1:] != groups[:-1])))[0]


def _batched_numeric_classification(
    column: int,
    values: np.ndarray,
    y_codes: np.ndarray,
    seg: np.ndarray,
    n_segments: int,
    sizes: np.ndarray,
    seg_counts: np.ndarray | None,
    criterion: Impurity,
    n_classes: int,
) -> _BatchedNumericEntry:
    """Case 1 (ordinal attribute, classification) over a whole frontier.

    The batched twin of :func:`~repro.core.splits.best_numeric_split`:
    every intermediate quantity below reproduces the scalar scan's value
    for each segment exactly (see the module docstring for the argument),
    with one sort and one impurity pass for the entire level.

    ``sizes`` is the per-segment row count and ``seg_counts`` the
    class-major ``(n_classes, n_segments)`` integer class counts the
    level statistics pass already produced (``None`` when the caller has
    no class counts, e.g. a classification criterion forced onto a
    regression target) — reusing them skips a full-level bincount per
    column.
    """
    entry = _BatchedNumericEntry(column, n_segments)
    present = ~np.isnan(values)
    total_counts = seg_counts
    if present.all():
        entry.n_missing = np.zeros(n_segments, dtype=np.int64)
        vp = values
        sp = seg
        yc = y_codes
        n_present = sizes
    else:
        # NaNs are compacted away before the sort, as in the scalar scan.
        absent = ~present
        seg_absent = seg[absent]
        entry.n_missing = np.bincount(seg_absent, minlength=n_segments)
        vp = values[present]
        sp = seg[present]
        yc = y_codes[present]
        n_present = sizes - entry.n_missing
        if seg_counts is not None:
            total_counts = seg_counts - np.bincount(
                y_codes[absent] * n_segments + seg_absent,
                minlength=n_classes * n_segments,
            ).reshape(n_classes, n_segments)
    if vp.size == 0:
        return entry
    if total_counts is None:
        total_counts = np.bincount(
            yc * n_segments + sp, minlength=n_classes * n_segments
        ).reshape(n_classes, n_segments)
    pres_starts = np.zeros(n_segments + 1, dtype=np.int64)
    np.cumsum(n_present, out=pres_starts[1:])

    # Sort by (segment, value): an unstable sort by value, then a stable
    # sort of the segment ids of that order.  Rows never change segment
    # (the level gather is node-contiguous), and within a segment only
    # the order of equal values is left open, which no score can see.
    # NumPy's stable sort of 16-bit keys is a radix sort.
    keys = sp.astype(np.uint16) if n_segments <= 1 << 16 else sp
    by_value = np.argsort(vp)
    order = by_value[np.argsort(keys[by_value], kind="stable")]
    sv = vp[order]
    ss = sp  # sorting never moves rows across segments
    syc = yc[order]

    # A boundary needs two present rows of the same segment, so segments
    # the scalar scan rejects (n < 2, or no distinct values) simply
    # contribute no boundaries here.
    bmask = (sv[:-1] < sv[1:]) & (ss[:-1] == ss[1:])
    bidx = np.nonzero(bmask)[0]
    if bidx.size == 0:
        return entry
    bseg = ss[bidx]
    bstart = pres_starts[:-1][bseg]
    bstop = bidx + 1
    n_left = bstop - bstart
    n_right = n_present[bseg] - n_left

    # Integer cumulative counts minus the count at the segment start are
    # exact, hence identical to per-node cumulative counts.
    left_counts = left_class_counts(syc, bstart, bstop, n_classes)
    scores = classification_children_scores(
        left_counts,
        n_left,
        np.take(total_counts, bseg, axis=1) - left_counts,
        n_right,
        criterion,
    )

    # First minimum per segment == the scalar np.argmin (first-min) rule.
    first_b = _first_per_group(bseg)
    counts_b = np.diff(np.append(first_b, bseg.size))
    seg_min = np.minimum.reduceat(scores, first_b)
    hit = np.nonzero(scores == np.repeat(seg_min, counts_b))[0]
    hseg = bseg[hit]
    hfirst = _first_per_group(hseg)
    winners = hit[hfirst]
    entry.best_pos[hseg[hfirst]] = winners
    entry.seg_scores[hseg[hfirst]] = scores[winners]
    entry.n_left = n_left
    entry.n_right = n_right
    entry.sv = sv
    entry.bidx = bidx
    entry.scores = scores
    return entry


def _batched_numeric_regression(
    column: int,
    values: np.ndarray,
    y: np.ndarray,
    seg: np.ndarray,
    n_segments: int,
    sizes: np.ndarray,
) -> _BatchedNumericEntry:
    """Case 1 (ordinal attribute, regression) over a whole frontier.

    Floating-point cumulative sums are order-sensitive, so they are *not*
    globally accumulated: each segment's slice of the sorted level array
    gets its own ``np.cumsum``, which performs the exact same additions in
    the exact same order as the scalar per-node scan — the per-call
    overhead that remains (two cumsums per segment) is a fraction of the
    full scalar :func:`~repro.core.splits.best_numeric_split` chain, and
    the sort, boundary detection, variance scoring and argmin still run
    once for the entire level.
    """
    entry = _BatchedNumericEntry(column, n_segments)
    present = ~np.isnan(values)
    if present.all():
        entry.n_missing = np.zeros(n_segments, dtype=np.int64)
        vp = values
        sp = seg
        yp = y
        n_present = sizes
    else:
        entry.n_missing = np.bincount(seg[~present], minlength=n_segments)
        vp = values[present]
        sp = seg[present]
        yp = y[present]
        n_present = sizes - entry.n_missing
    if vp.size == 0:
        return entry
    pres_starts = np.zeros(n_segments + 1, dtype=np.int64)
    np.cumsum(n_present, out=pres_starts[1:])

    if n_segments * 2048 <= vp.size:
        order = np.empty(vp.size, dtype=np.int64)
        for s in range(n_segments):
            lo, hi = int(pres_starts[s]), int(pres_starts[s + 1])
            order[lo:hi] = lo + np.argsort(vp[lo:hi], kind="stable")
    else:
        order = np.lexsort((vp, sp))
    sv = vp[order]
    ss = sp  # per-segment sorting never moves rows across segments
    sy = yp[order]

    bmask = (sv[:-1] < sv[1:]) & (ss[:-1] == ss[1:])
    bidx = np.nonzero(bmask)[0]
    if bidx.size == 0:
        return entry
    bseg = ss[bidx]
    seg_start = pres_starts[:-1]
    bstart = seg_start[bseg]
    n_left = bidx + 1 - bstart
    n_right = n_present[bseg] - n_left

    # Per-segment cumulative sums — each slice cumsum adds the same
    # numbers in the same order as the scalar scan, hence identical
    # floats; only the boundary scoring below is batched.
    sy2 = sy * sy
    cum_y = np.empty_like(sy)
    cum_y2 = np.empty_like(sy)
    tot_y = np.zeros(n_segments)
    tot_y2 = np.zeros(n_segments)
    for s in range(n_segments):
        lo, hi = int(pres_starts[s]), int(pres_starts[s + 1])
        if hi > lo:
            np.cumsum(sy[lo:hi], out=cum_y[lo:hi])
            np.cumsum(sy2[lo:hi], out=cum_y2[lo:hi])
            tot_y[s] = cum_y[hi - 1]
            tot_y2[s] = cum_y2[hi - 1]
    l_sum, l_sq = cum_y[bidx], cum_y2[bidx]
    scores = variance_children_scores(
        n_left, l_sum, l_sq, n_right, tot_y[bseg] - l_sum, tot_y2[bseg] - l_sq
    )

    first_b = _first_per_group(bseg)
    counts_b = np.diff(np.append(first_b, bseg.size))
    seg_min = np.minimum.reduceat(scores, first_b)
    hit = np.nonzero(scores == np.repeat(seg_min, counts_b))[0]
    hseg = bseg[hit]
    hfirst = _first_per_group(hseg)
    winners = hit[hfirst]
    entry.best_pos[hseg[hfirst]] = winners
    entry.seg_scores[hseg[hfirst]] = scores[winners]
    entry.n_left = n_left
    entry.n_right = n_right
    entry.sv = sv
    entry.bidx = bidx
    entry.scores = scores
    return entry


class _BinnedNumericEntry:
    """Batched histogram-mode results of one numeric column over a level.

    The hist-mode sibling of :class:`_BatchedNumericEntry`: instead of a
    winning sort boundary it records the winning prefix-cut index into the
    column's global equi-depth thresholds, plus the per-(segment, cut)
    child-count matrices needed to materialize a :class:`CandidateSplit`
    identical to the scalar :func:`~repro.core.histogram.score_histogram`.
    """

    __slots__ = (
        "column",
        "thresholds",
        "seg_scores",
        "best_cut",
        "n_left",
        "n_right",
        "n_missing",
    )

    def __init__(
        self, column: int, thresholds: np.ndarray, n_segments: int
    ) -> None:
        self.column = column
        self.thresholds = thresholds
        self.seg_scores = np.full(n_segments, np.inf)
        self.best_cut = np.full(n_segments, -1, dtype=np.int64)
        self.n_left: np.ndarray | None = None
        self.n_right: np.ndarray | None = None
        self.n_missing = np.zeros(n_segments, dtype=np.int64)

    def key_for(self, segment: int) -> tuple[float, int] | None:
        if self.best_cut[segment] < 0:
            return None
        return (float(self.seg_scores[segment]), self.column)

    def split_for(self, segment: int) -> CandidateSplit | None:
        b = int(self.best_cut[segment])
        if b < 0:
            return None
        nl = int(self.n_left[segment, b])
        nr = int(self.n_right[segment, b])
        nm = int(self.n_missing[segment])
        # Identical construction to score_histogram: missing rows join the
        # larger child, threshold is the winning bin's upper edge.
        return CandidateSplit(
            column=self.column,
            kind=ColumnKind.NUMERIC,
            score=float(self.seg_scores[segment]),
            n_left=nl + (nm if nl >= nr else 0),
            n_right=nr + (0 if nl >= nr else nm),
            threshold=float(self.thresholds[b]),
            n_missing=nm,
            missing_to_left=nl >= nr,
        )


def _batched_binned_numeric(
    column: int,
    values: np.ndarray,
    y_or_codes: np.ndarray,
    seg: np.ndarray,
    n_segments: int,
    thresholds: np.ndarray,
    criterion: Impurity,
    n_classes: int,
) -> _BinnedNumericEntry:
    """Histogram split search (ordinal attribute) over a whole frontier.

    The batched twin of :func:`~repro.core.histogram.score_histogram`:
    one composite ``bincount`` builds every segment's per-bin statistics
    (statistics stay node-local — each segment's bins count only its own
    rows, including its own missing-row total), then the axis-wise
    cumulative sums and impurity evaluations perform the same additions
    in the same order per segment lane as the scalar per-node scan, so
    every score and winning cut is bit-identical.  Segments with no valid
    cut (fewer than two present rows, constant within a bin span, or an
    empty threshold set) end with ``best_cut == -1``, exactly where the
    scalar path returns ``None``.
    """
    entry = _BinnedNumericEntry(column, thresholds, n_segments)
    if thresholds.size == 0:
        return entry
    codes = bin_indices(values, thresholds)
    present = codes >= 0
    if present.all():
        sp = seg
        yp = y_or_codes
    else:
        entry.n_missing = np.bincount(seg[~present], minlength=n_segments)
        codes = codes[present]
        sp = seg[present]
        yp = y_or_codes[present]
    n_bins = thresholds.size + 1
    if criterion.is_classification:
        # Class-major: each class's (segment, bin) plane is contiguous.
        stats = np.bincount(
            (yp * n_segments + sp) * n_bins + codes,
            minlength=n_classes * n_segments * n_bins,
        ).reshape(n_classes, n_segments, n_bins)
        cum = np.cumsum(stats, axis=2)
        total = cum[:, :, -1:]
        cum = cum[:, :, :-1]
        n_left = cum.sum(axis=0)
        n_right = total.sum(axis=0) - n_left
        scores = classification_children_scores(
            cum, n_left, total - cum, n_right, criterion
        )
    else:
        flat = sp * n_bins + codes
        size = n_segments * n_bins
        bin_counts = (
            np.bincount(flat, minlength=size)
            .reshape(n_segments, n_bins)
            .astype(np.float64)
        )
        y_sum = np.bincount(flat, weights=yp, minlength=size).reshape(
            n_segments, n_bins
        )
        y_sq = np.bincount(flat, weights=yp * yp, minlength=size).reshape(
            n_segments, n_bins
        )
        c_cum = np.cumsum(bin_counts, axis=1)[:, :-1]
        s_cum = np.cumsum(y_sum, axis=1)[:, :-1]
        q_cum = np.cumsum(y_sq, axis=1)[:, :-1]
        n_left = c_cum
        n_right = bin_counts.sum(axis=1)[:, None] - c_cum
        scores = variance_children_scores(
            n_left,
            s_cum,
            q_cum,
            n_right,
            y_sum.sum(axis=1)[:, None] - s_cum,
            y_sq.sum(axis=1)[:, None] - q_cum,
        )
    valid = (n_left > 0) & (n_right > 0)
    scores = np.where(valid, scores, np.inf)
    best = np.argmin(scores, axis=1)  # first minimum == smallest threshold
    has = valid.any(axis=1)
    entry.best_cut[has] = best[has]
    entry.seg_scores[has] = scores[np.arange(n_segments), best][has]
    entry.n_left = n_left
    entry.n_right = n_right
    return entry


def build_subtree(
    table: DataTable,
    config: TreeConfig,
    row_ids: np.ndarray,
    candidate_columns: tuple[int, ...] | None = None,
    root_path: int = 1,
    counters: KernelCounters | None = None,
    thresholds: dict[int, np.ndarray] | None = None,
) -> TreeNode:
    """Build the subtree ``Delta_x`` rooted at heap path ``root_path``.

    Exactly the computation a subtree-task performs on its key worker,
    one whole frontier per iteration.  ``thresholds`` (hist mode)
    restricts numeric split search to the global equi-depth candidate
    cuts; ``counters``, when given, accumulates build and gather seconds.
    """
    start = time.perf_counter()
    if candidate_columns is None:
        candidate_columns = sample_candidate_columns(config, table.n_columns)
    is_clf = table.problem is ProblemKind.CLASSIFICATION
    criterion = config.resolved_criterion(is_clf)
    n_classes = table.n_classes
    is_extra = config.tree_kind is TreeKind.EXTRA
    target = table.target
    gather_s = 0.0

    root_holder: list[TreeNode] = []

    def attach_node(node: TreeNode, attach) -> None:
        if attach is None:
            root_holder.append(node)
        else:
            parent, side = attach
            setattr(parent, side, node)

    # Frontier entries: (row ids, heap path, attach) — one whole level.
    frontier: list = [(np.asarray(row_ids, dtype=np.int64), root_path, None)]
    while frontier:
        m = len(frontier)
        sizes = np.fromiter(
            (entry[0].size for entry in frontier), dtype=np.int64, count=m
        )
        starts = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        level_rows = np.concatenate([entry[0] for entry in frontier])
        seg_all = np.repeat(np.arange(m, dtype=np.int64), sizes)

        tick = time.perf_counter()
        y_lvl = target[level_rows]
        gather_s += time.perf_counter() - tick

        # -- per-node label statistics, one pass for the level ----------
        stats_list: list[NodeStats] = []
        if is_clf:
            y_codes_lvl = y_lvl.astype(np.int64)
            counts = np.bincount(
                seg_all * n_classes + y_codes_lvl,
                minlength=m * n_classes,
            ).reshape(m, n_classes)
            maxes = counts.max(axis=1)
            for i in range(m):
                n = int(sizes[i])
                row = counts[i]
                stats_list.append(
                    NodeStats(
                        n,
                        (row / max(n, 1)).astype(np.float64),
                        bool(n > 0 and maxes[i] == n),
                        counts=row,
                    )
                )
        else:
            for i in range(m):
                n = int(sizes[i])
                y_seg = y_lvl[starts[i] : starts[i + 1]]
                mean = float(y_seg.mean()) if n else 0.0
                pure = bool(n > 0 and np.all(y_seg == y_seg[0]))
                stats_list.append(NodeStats(n, mean, pure))

        nodes: list[TreeNode] = []
        stopped = np.zeros(m, dtype=bool)
        for i, (ids, path, attach) in enumerate(frontier):
            stats = stats_list[i]
            node = TreeNode(
                node_id=path,
                depth=path_depth(path),
                n_rows=stats.n_rows,
                prediction=stats.prediction,
            )
            attach_node(node, attach)
            nodes.append(node)
            stopped[i] = should_stop(stats, node.depth, config)

        act_idx = np.nonzero(~stopped)[0]
        if act_idx.size == 0:
            frontier = []
            continue
        a = int(act_idx.size)
        act_sizes = sizes[act_idx]
        act_starts = np.zeros(a + 1, dtype=np.int64)
        np.cumsum(act_sizes, out=act_starts[1:])
        keep = ~stopped[seg_all]
        act_rows = level_rows[keep]
        y_act = y_lvl[keep]
        seg_act = np.repeat(np.arange(a, dtype=np.int64), act_sizes)

        # -- best split per active node ---------------------------------
        next_frontier: list = []
        if is_extra:
            # Extra-trees draw one random column per node; the draws are
            # keyed by (seed, path, column) so the scalar helpers run
            # per node on the level-gathered slices unchanged.
            for j in range(a):
                i = int(act_idx[j])
                _, path, _ = frontier[i]
                s0, s1 = int(act_starts[j]), int(act_starts[j + 1])
                ids_seg = act_rows[s0:s1]
                y_seg = y_act[s0:s1]
                split = None
                split_values = None
                for col in extra_tree_column_order(
                    config.seed, path, candidate_columns
                ):
                    spec = table.column_spec(col)
                    tick = time.perf_counter()
                    vals = table.column(col)[ids_seg]
                    gather_s += time.perf_counter() - tick
                    cand = random_split_for_column(
                        col,
                        spec.kind,
                        vals,
                        y_seg,
                        criterion,
                        n_classes,
                        extra_tree_split_rng(config.seed, path, col),
                        spec.n_categories,
                    )
                    if cand is not None:
                        split, split_values = cand, vals
                        break
                if not split_is_useful(split, 0.0, config):
                    continue
                node = nodes[i]
                node.split = split
                go_left = route_training_rows(split_values, split)
                next_frontier.append(
                    (ids_seg[go_left], 2 * path, (node, "left"))
                )
                next_frontier.append(
                    (ids_seg[~go_left], 2 * path + 1, (node, "right"))
                )
            frontier = next_frontier
            continue

        column_cache: dict[int, np.ndarray] = {}
        entries: list = []
        # What a scan reads as labels: class codes (cast once per level)
        # under a classification criterion, the targets otherwise.
        y_scan = y_act
        act_counts = None
        if criterion.is_classification:
            y_scan = y_codes_lvl[keep] if is_clf else y_act.astype(np.int64)
            if is_clf:
                act_counts = np.ascontiguousarray(counts[act_idx].T)
        for col in candidate_columns:
            spec = table.column_spec(col)
            tick = time.perf_counter()
            v = table.column(col)[act_rows]
            gather_s += time.perf_counter() - tick
            column_cache[col] = v
            if spec.kind is ColumnKind.NUMERIC and thresholds is not None:
                entries.append(
                    _batched_binned_numeric(
                        col,
                        v,
                        y_scan,
                        seg_act,
                        a,
                        thresholds.get(col, _NO_THRESHOLDS),
                        criterion,
                        n_classes,
                    )
                )
            elif spec.kind is ColumnKind.NUMERIC and criterion.is_classification:
                entries.append(
                    _batched_numeric_classification(
                        col, v, y_scan, seg_act, a, act_sizes,
                        act_counts, criterion, n_classes,
                    )
                )
            elif spec.kind is ColumnKind.NUMERIC:
                entries.append(
                    _batched_numeric_regression(
                        col, v, y_act, seg_act, a, act_sizes
                    )
                )
            elif criterion.is_classification:
                entries.append(
                    categorical_classification_scan(
                        col, v, y_scan, act_starts, spec.n_categories,
                        criterion, n_classes,
                    )
                )
            else:
                # Categorical regression stays per node: its category
                # sums are float ``bincount(weights=)`` accumulations in
                # row order and its candidate order a sort by category
                # mean, neither of which survives pooling a level.
                splits = [
                    best_categorical_regression_split(
                        col,
                        v[act_starts[j] : act_starts[j + 1]],
                        y_act[act_starts[j] : act_starts[j + 1]],
                        spec.n_categories,
                    )
                    for j in range(a)
                ]
                entries.append(_ObjectEntry(col, splits))

        for j in range(a):
            i = int(act_idx[j])
            _, path, _ = frontier[i]
            best_entry = None
            best_key = None
            for entry in entries:  # candidate_columns order
                key = entry.key_for(j)
                if key is None:
                    continue
                if best_key is None or key < best_key:
                    best_key, best_entry = key, entry
            split = None if best_entry is None else best_entry.split_for(j)
            s0, s1 = int(act_starts[j]), int(act_starts[j + 1])
            stats = stats_list[i]
            parent_imp = parent_impurity_of(
                y_act[s0:s1], criterion, n_classes, counts=stats.counts
            )
            if not split_is_useful(split, parent_imp, config):
                continue
            node = nodes[i]
            node.split = split
            go_left = route_training_rows(
                column_cache[split.column][s0:s1], split
            )
            ids_seg = act_rows[s0:s1]
            next_frontier.append((ids_seg[go_left], 2 * path, (node, "left")))
            next_frontier.append(
                (ids_seg[~go_left], 2 * path + 1, (node, "right"))
            )
        frontier = next_frontier

    if counters is not None:
        counters.gather_s += gather_s
        counters.build_s += time.perf_counter() - start
    return root_holder[0]
