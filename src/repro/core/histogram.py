"""Equi-depth histogram split machinery — the ``split_mode="hist"`` path.

The paper's TreeServer computes *exact* splits: a column-task worker scans
every distinct-value boundary of its columns and the result it ships is
already O(1) per column.  The communication-heavy part of the protocol is
elsewhere — subtree-task gathers ship whole float64 column slices, and the
related PLANET / MLlib / PV-Tree line of work replaces exact scans with
equi-depth histograms precisely to shrink what travels.  This module is
that machinery, behind the existing task seam (the PLANET baseline in
:mod:`repro.baselines.planet` runs on the same functions):

* :func:`equi_depth_thresholds` / :func:`bin_indices` — candidate
  thresholds per column (computed **once over the full table** at training
  start and shipped to every machine) and the per-row bucket codes.
* :func:`encode_bin_codes` — a column's int8/int16 bucket codes, made
  **once per run** (per worker for its held columns, per tree serially).
  Below the book a numeric column *is* its codes: column tasks scan them,
  column servers ship them and the level kernel scans and routes them.
* :func:`binned_scan` — the split search on bucket codes for all the
  coded columns of a task or a level at once, whose segments are
  (column, node) pairs (:func:`~repro.core.splits.stacked_scan`); a
  one-column call is its per-column case.  It is called from one place,
  :func:`repro.core.kernel.scan_columns`, once per level of the level
  kernel and once per column task.  PLANET keeps
  the per-node search: :func:`column_histogram` builds one node's per-bin
  statistics (class counts, or ``(count, sum, sum-of-squares)``, missing
  rows in a slot of their own), :func:`score_histogram` scores its
  O(bins) prefix cuts into a :class:`~repro.core.splits.CandidateSplit`,
  and :func:`best_binned_numeric_split` composes the two.  Nothing is
  shipped: a column lives whole on one worker, so its histogram over
  ``I_x`` is complete there.
* :func:`route_bin_codes` — :func:`~repro.core.splits.route_training_rows`
  on codes.  Thresholds strictly increase, so ``v <= t[b]`` holds exactly
  when ``code <= b``, and code ``-1`` follows ``missing_to_left``.

**Exact-collapse guarantee.**  When a column has at most ``max_bins``
distinct present values, the thresholds are exactly the distinct values
(all but the largest), every prefix cut corresponds 1:1 to an exact-scan
boundary, and the integer statistics make the scores bit-identical — so
hist mode reproduces the exact-mode tree bit-for-bit on such columns.
The scorer keeps the exact scan's deterministic tie rules: within a
column the *first* minimum (smallest threshold) wins, across columns the
strictly smaller ``(score, column)`` key wins.

**Exactness.**  A segment of :func:`binned_scan` gets the bits of a
one-node histogram: its bins count only its own rows; class counts are
integers; a regression bin's sums are ``bincount(weights=)`` sums, which
add each bin's rows in row order whether the rows are one node's or a
level's; and the prefix sums and impurities run along the bin axis, the
same additions in the same order per segment, scored by the elementwise
functions of :mod:`repro.core.impurity`.  A column is just more
segments: stacking a task's or a level's columns column-major adds
(column, node) segments, each still counting only its own rows.  What
must not change is a segment's row of the table — a regression row's
float sums and cumulative sums along the bin axis repeat one node's
additions only over a row of the same length — so columns are stacked
only with columns of equally many thresholds, one group per threshold
count, never padded to a common width.

**Node-local accounting.**  Every statistic here — including
``n_missing`` and the derived ``missing_to_left`` — is computed from the
rows of the node being split, never from whole-table bins, so the
delegate-protocol invariant ``|I_xl| + |I_xr| = |I_x|`` holds for every
node (the master asserts it on every ``split_done``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..data.schema import ColumnKind
from .impurity import (
    Impurity,
    classification_children_scores,
    variance_children_scores,
)
from .splits import (
    CandidateSplit,
    CountScratch,
    NumericLevelScan,
    count_table,
    label_codes,
    stacked_scan,
)

#: A threshold book: ``{max_bins: {column: thresholds array}}``, covering
#: every numeric column of the table for every distinct ``max_bins`` any
#: submitted hist-mode tree uses.  Computed once at training start from
#: the full table and shipped to every worker, so every machine bins
#: against identical global thresholds.
ThresholdBook = dict[int, dict[int, np.ndarray]]


def hist_active(config) -> bool:
    """Whether a tree config trains with histogram splits.

    Histogram mode applies to decision trees only: extra-trees draw
    random thresholds from the actual node values (Appendix F) and are
    unaffected by ``split_mode``.
    """
    from .config import TreeKind

    return config.split_mode == "hist" and config.tree_kind is TreeKind.DECISION


# ----------------------------------------------------------------------
# thresholds and bucket codes
# ----------------------------------------------------------------------
def equi_depth_thresholds(values: np.ndarray, max_bins: int) -> np.ndarray:
    """Candidate thresholds: at most ``max_bins - 1`` equi-depth quantiles.

    Computed once per column over the whole table at training start, as in
    MLlib's ``findSplits``; missing values are ignored.  Columns with at
    most ``max_bins`` distinct present values collapse to their *exact*
    distinct values (all but the largest — a threshold equal to the
    maximum would send everything left), which is what makes hist mode
    bit-identical to exact mode on low-cardinality columns; sampling
    quantile positions alone would skip distinct values on skewed
    distributions.  Degenerate columns (all-NaN, constant, or quantiles
    collapsing onto the maximum) return an empty array, meaning "no split
    candidates" — never an exception downstream.
    """
    if max_bins < 2:
        raise ValueError("max_bins must be >= 2")
    values = np.asarray(values, dtype=np.float64)
    present = values[~np.isnan(values)]
    if present.size == 0:
        return np.empty(0)
    distinct = np.unique(present)
    if distinct.size <= max_bins:
        # Exact collapse: one bucket per distinct value.
        return distinct[:-1]
    qs = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    # method="lower": candidates are actual data values, as in MLlib.
    thresholds = np.unique(np.quantile(present, qs, method="lower"))
    return thresholds[thresholds < distinct[-1]]


def bin_indices(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Bucket index per row: ``searchsorted`` over the thresholds.

    Bin ``b`` contains rows with ``thresholds[b-1] < v <= thresholds[b]``
    (the last bin, index ``len(thresholds)``, holds everything above the
    largest threshold); missing values get bin ``-1``.  An empty
    thresholds array puts every present row in bin 0 — downstream scoring
    treats that as "no split" cleanly.
    """
    bins = np.searchsorted(thresholds, values, side="left").astype(np.int64)
    bins[np.isnan(values)] = -1
    return bins


def bin_code_dtype(n_thresholds: int) -> np.dtype:
    """Smallest signed integer dtype holding codes ``-1..n_thresholds``."""
    if n_thresholds <= np.iinfo(np.int8).max:
        return np.dtype(np.int8)
    if n_thresholds <= np.iinfo(np.int16).max:
        return np.dtype(np.int16)
    return np.dtype(np.int32)


def encode_bin_codes(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Compact bucket codes of a column (1–2 bytes/row), made once per run."""
    return bin_indices(values, thresholds).astype(bin_code_dtype(thresholds.size))


def route_bin_codes(
    codes: np.ndarray, thresholds: np.ndarray, split: CandidateSplit
) -> np.ndarray:
    """Which of a node's rows go left, from their bucket codes: the
    :func:`~repro.core.splits.route_training_rows` of the raw values.

    ``split.threshold`` is ``thresholds[b]`` for some cut ``b``, and
    ``v <= thresholds[b]`` exactly when ``code <= b``; missing rows (code
    ``-1``) follow ``split.missing_to_left``.
    """
    cut = np.searchsorted(thresholds, split.threshold)
    return np.where(codes < 0, split.missing_to_left, codes <= cut)


# ----------------------------------------------------------------------
# the binned split scan: per task or level, per node as its one-segment call
# ----------------------------------------------------------------------
def binned_scan(
    columns: Sequence[int],
    codes: Sequence[np.ndarray],
    y: np.ndarray,
    starts: np.ndarray,
    thresholds: Sequence[np.ndarray],
    criterion: Impurity,
    n_classes: int,
    scratch: CountScratch | None = None,
) -> list[NumericLevelScan]:
    """Histogram split search (ordinal attributes) over the coded columns
    of a task or a level: one :class:`NumericLevelScan` per column, in
    ``columns`` order.

    Node ``i`` is rows ``starts[i]:starts[i + 1]`` of ``y`` (``int64``
    class codes under a classification criterion, targets otherwise) and
    of every column's bucket codes ``codes[k]`` (``-1`` missing), scored
    against ``thresholds[k]``.  Columns with equally many thresholds form
    a group, whose segments are its (column, node) pairs
    (:func:`~repro.core.splits.stacked_scan`): one ``bincount`` per run
    of a group's segments builds every segment's per-bin statistics,
    missing rows in a slot of their own; then every cut of every segment
    of the run is scored at once (:func:`_score_bin_table`), and each
    column's threshold is read from its own ``thresholds[k]`` at the
    winning cut.  Their children's class counts go to ``scratch``, if
    given.
    """
    n_nodes = starts.size - 1
    scans: list = [None] * len(columns)
    groups: dict[int, list[int]] = {}
    for k, cuts in enumerate(thresholds):
        if cuts.size == 0:
            scans[k] = NumericLevelScan.nothing(columns[k], n_nodes)
        else:
            groups.setdefault(cuts.size, []).append(k)
    for n_cuts, group in groups.items():
        fields = stacked_scan(
            [codes[k] for k in group], y, starts, n_cuts + 2, criterion,
            n_classes,
            lambda table: _score_bin_table(table, criterion, scratch),
        )
        for k, column_fields in zip(group, fields):
            scans[k] = _column_scan(columns[k], column_fields, thresholds[k])
    return scans


def _column_scan(column: int, fields, thresholds: np.ndarray):
    """One column's :class:`NumericLevelScan` from its segments' fields
    (:func:`_score_bin_table`'s), the winning cut read as its threshold."""
    winner, score, n_left, n_right, cut, n_missing = fields
    return NumericLevelScan(
        column, winner, score, n_left, n_right, thresholds[cut], n_missing
    )


def _score_bin_table(
    table,
    criterion: Impurity,
    scratch: CountScratch | None = None,
) -> tuple:
    """Per-segment winner, score, children, cut and missing rows of a
    run's bin table: the fields of a :class:`NumericLevelScan` with the
    winning cut's index where its threshold goes (:func:`_column_scan`).

    Prefix sums over bins in ascending-threshold order give each cut
    ``bin <= t``.  Cuts with an empty child are masked to ``inf`` and the
    first minimum wins — the smallest threshold, the exact scan's tie
    rule.
    """
    # Cut ``c`` has bins ``..c`` on its left: prefix sums of all bins but
    # the last, one slot after the missing one.
    if criterion.is_classification:
        n_missing = table[:, :, 0].sum(axis=0)
        cuts = table[:, :, 1:-1]
        cum = np.cumsum(
            cuts, axis=2, out=scratch and scratch.array(0, cuts.shape)
        )
        total = table[:, :, 1:].sum(axis=2)[:, :, None]
        n_left = cum.sum(axis=0)
        n_right = total.sum(axis=0) - n_left
        right = np.subtract(
            total, cum, out=scratch and scratch.array(1, cuts.shape)
        )
        scores = classification_children_scores(
            cum, n_left, right, n_right, criterion
        )
    else:
        bin_counts, y_sum, y_sq = table
        n_missing = bin_counts[:, 0]
        counts = bin_counts[:, 1:].astype(np.float64)
        y_sum, y_sq = y_sum[:, 1:], y_sq[:, 1:]
        n_left = np.cumsum(counts[:, :-1], axis=1)
        s_cum = np.cumsum(y_sum[:, :-1], axis=1)
        q_cum = np.cumsum(y_sq[:, :-1], axis=1)
        n_right = counts.sum(axis=1)[:, None] - n_left
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
    best = scores.argmin(axis=1)
    pick = np.arange(0, scores.size, scores.shape[-1]) + best
    return (
        np.where(valid.ravel()[pick], best, -1),
        scores.ravel()[pick],
        n_left.ravel()[pick],
        n_right.ravel()[pick],
        best,
        n_missing,
    )


@dataclass
class ColumnHistogram:
    """Per-bin statistics of one column at one node: the one-segment
    table of :func:`binned_scan`, computed by the worker that holds the
    column (its histogram over ``I_x`` is complete there), never shipped."""

    column: int
    table: np.ndarray | tuple


def column_histogram(
    column: int,
    codes: np.ndarray,
    y: np.ndarray,
    n_bins: int,
    criterion: Impurity,
    n_classes: int,
) -> ColumnHistogram:
    """Accumulate one node's per-bin statistics from its own rows.

    ``codes`` are the node rows' bucket codes (``-1`` missing), so every
    statistic — the missing count included — is node-local by
    construction.
    """
    if criterion.is_classification:
        y = label_codes(y)
    starts = np.array([0, codes.size])
    table = count_table(
        (codes,), y, starts, 0, 1, n_bins + 1, criterion, n_classes
    )
    return ColumnHistogram(column, table)


def score_histogram(
    hist: ColumnHistogram,
    thresholds: np.ndarray,
    criterion: Impurity,
) -> CandidateSplit | None:
    """Best prefix cut of one node-local histogram; ``None`` means "this
    column offers no split".  Missing rows join the larger child."""
    if thresholds.size == 0:
        return None
    fields = _score_bin_table(hist.table, criterion)
    return _column_scan(hist.column, fields, thresholds).split_for(0)


def best_binned_numeric_split(
    column: int,
    bins: np.ndarray,
    thresholds: np.ndarray,
    y: np.ndarray,
    criterion: Impurity,
    n_classes: int,
) -> CandidateSplit | None:
    """Best candidate threshold from a node's pre-binned values.

    The one-segment call of :func:`binned_scan`, as the composition of
    its statistics and its scoring — the per-node hist split search of a
    column-task worker and of the PLANET baseline.  ``bins`` must be the
    **node's own rows'** codes; whole-table bins handed as a slice are
    fine (the slice is node-local), but statistics are always derived
    from exactly what is passed in.
    """
    hist = column_histogram(
        column, bins, y, thresholds.size + 1, criterion, n_classes
    )
    return score_histogram(hist, thresholds, criterion)


# ----------------------------------------------------------------------
# the threshold book: computed once, shipped everywhere
# ----------------------------------------------------------------------
def column_thresholds(table, max_bins: int) -> dict[int, np.ndarray]:
    """Equi-depth thresholds of every numeric column of a table."""
    out: dict[int, np.ndarray] = {}
    for idx, spec in enumerate(table.schema.columns):
        if spec.kind is ColumnKind.NUMERIC:
            out[idx] = equi_depth_thresholds(table.column(idx), max_bins)
    return out


def hist_bin_counts(jobs) -> tuple[int, ...]:
    """Distinct ``max_bins`` values across all hist-mode trees of jobs."""
    bins = {
        tree.config.max_bins
        for job in jobs
        for stage in job.stages
        for tree in stage.trees
        if hist_active(tree.config)
    }
    return tuple(sorted(bins))


def build_threshold_book(table, jobs) -> ThresholdBook:
    """The threshold book for a run: empty when no job trains hist-mode."""
    return {mb: column_thresholds(table, mb) for mb in hist_bin_counts(jobs)}


def book_for_config(
    book: ThresholdBook | None, config
) -> dict[int, np.ndarray] | None:
    """This config's per-column thresholds, or ``None`` outside hist mode."""
    if not hist_active(config):
        return None
    thresholds = (book or {}).get(config.max_bins)
    if thresholds is None:
        raise RuntimeError(
            f"no thresholds for max_bins={config.max_bins} in the shipped "
            f"book (present: {sorted(book or {})}); the driver must build "
            f"the book from the submitted jobs before dispatch"
        )
    return thresholds


def book_to_wire(book: ThresholdBook) -> dict:
    """JSON-able form of a threshold book (socket rendezvous welcome).

    Control frames are JSON, never pickle; Python's ``repr``-based float
    serialization round-trips every float64 exactly, so the decoded book
    is bit-identical on the worker side.
    """
    return {
        str(mb): {
            str(col): [float(v) for v in arr] for col, arr in cols.items()
        }
        for mb, cols in book.items()
    }


def book_from_wire(wire: dict) -> ThresholdBook:
    """Decode :func:`book_to_wire` back into numpy-array form."""
    return {
        int(mb): {
            int(col): np.asarray(vals, dtype=np.float64)
            for col, vals in cols.items()
        }
        for mb, cols in wire.items()
    }
