"""The numeric split scan as it stood before PR 15, frozen as a test oracle.

Stable sort, row-major ``(m, n_classes)`` class counts reduced with
``sum(axis=1)``, impurities weighted in a separate pass.  The production
scan (:func:`repro.core.splits.best_numeric_split`) sorts unstably and scores
class-major; ``tests/test_splits.py`` holds it to this function's outputs.
Nothing here may import the production scoring functions.
"""

from __future__ import annotations

import numpy as np

from repro.core.impurity import Impurity
from repro.core.splits import CandidateSplit
from repro.data.schema import ColumnKind


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
