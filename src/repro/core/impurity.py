"""Impurity functions for node-split scoring.

The paper evaluates node splits with an impurity function: Gini index or
entropy of the ``Y`` labels for classification, and variance of the ``Y``
values for regression (Section II).  All functions here operate on
*sufficient statistics* — class-count vectors for classification and
``(count, sum, sum of squares)`` triples for regression — because that is
what the split-search scans accumulate incrementally, and what column-task
workers could ship in messages.

Vectorized variants score every candidate boundary of a split scan in one
pass.  Class counts are stacked *class-major*, ``(n_classes, candidates)``:
each class is one contiguous vector, so a score is a handful of whole-vector
operations per class instead of a reduction over a short strided axis.
"""

from __future__ import annotations

import enum

import numpy as np


class Impurity(enum.Enum):
    """User-selectable impurity criterion (a model hyperparameter, Fig. 2)."""

    GINI = "gini"
    ENTROPY = "entropy"
    VARIANCE = "variance"

    @property
    def is_classification(self) -> bool:
        """Whether this criterion scores class-count statistics."""
        return self is not Impurity.VARIANCE


def gini(counts: np.ndarray) -> float:
    """Gini index of one class-count vector: ``1 - sum_k p_k^2``."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


def entropy(counts: np.ndarray) -> float:
    """Shannon entropy (nats) of one class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def variance(count: float, total: float, total_sq: float) -> float:
    """Variance of ``Y`` values from ``(n, sum, sum of squares)``."""
    if count == 0:
        return 0.0
    mean = total / count
    return max(0.0, total_sq / count - mean * mean)


def classification_impurity(counts: np.ndarray, criterion: Impurity) -> float:
    """Dispatch Gini or entropy for one class-count vector."""
    if criterion is Impurity.GINI:
        return gini(counts)
    if criterion is Impurity.ENTROPY:
        return entropy(counts)
    raise ValueError(f"{criterion} is not a classification criterion")


def _square(p: np.ndarray) -> np.ndarray:
    return np.multiply(p, p, out=p)


def _p_log_p(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(p > 0, np.log(p), 0.0)
    return np.multiply(p, logp, out=p)


def _sum_over_classes(counts, totals, term) -> tuple[np.ndarray, np.ndarray]:
    """``sum_c term(counts[c] / totals)`` and the mask of zero totals.

    The terms are added class by class in class order, whole candidate
    vectors at a time; that order is the definition of every
    classification score (it is also the order in which NumPy sums a row
    of up to 7 entries).  ``sum(axis=0)`` would not do: its order depends
    on the strides and the shape of its input.
    """
    zero = totals == 0
    safe = np.where(zero, 1.0, totals) if zero.any() else totals
    terms = term(counts / safe)
    acc = terms[0].copy()  # not a view: lets go of the whole stack on return
    for row in terms[1:]:
        acc += row
    return acc, zero


def gini_classes(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Gini per candidate of a class-major ``(n_classes, ...)`` count stack.

    ``counts[c]`` holds class ``c``'s count for every candidate and
    ``totals`` their sum over classes, which a split scan already has as
    the child size.  A candidate with no rows scores 0.
    """
    acc, zero = _sum_over_classes(counts, totals, _square)
    np.subtract(1.0, acc, out=acc)
    acc[zero] = 0.0
    return acc


def entropy_classes(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Entropy (nats) per candidate; layout as :func:`gini_classes`."""
    acc, zero = _sum_over_classes(counts, totals, _p_log_p)
    np.negative(acc, out=acc)
    acc[zero] = 0.0
    return acc


def classification_impurity_classes(
    counts: np.ndarray, totals: np.ndarray, criterion: Impurity
) -> np.ndarray:
    """Vectorized Gini/entropy over a class-major stack of count vectors."""
    if criterion is Impurity.GINI:
        return gini_classes(counts, totals)
    if criterion is Impurity.ENTROPY:
        return entropy_classes(counts, totals)
    raise ValueError(f"{criterion} is not a classification criterion")


def variance_rows(
    counts: np.ndarray, sums: np.ndarray, sq_sums: np.ndarray
) -> np.ndarray:
    """Vectorized variance over parallel ``(n, sum, sum_sq)`` arrays."""
    safe = np.where(counts == 0, 1.0, counts)
    means = sums / safe
    out = sq_sums / safe - means * means
    out[counts == 0] = 0.0
    return np.maximum(out, 0.0)


def weighted_children_impurity(
    left_impurity: float,
    left_weight: float,
    right_impurity: float,
    right_weight: float,
) -> float:
    """Size-weighted mean impurity of one candidate (left, right) split.

    This is the quantity the split search minimizes; the parent impurity is
    a constant per node, so minimizing the weighted child impurity maximizes
    the impurity decrease the paper describes.
    """
    total = left_weight + right_weight
    if total == 0:
        return 0.0
    return (left_weight * left_impurity + right_weight * right_impurity) / total


def _children_scores(
    left_imp: np.ndarray,
    n_left: np.ndarray,
    right_imp: np.ndarray,
    n_right: np.ndarray,
) -> np.ndarray:
    """:func:`weighted_children_impurity` of every candidate at once."""
    total = n_left + n_right
    zero = total == 0
    if zero.any():
        total = np.where(zero, 1.0, total)
    out = n_left * left_imp
    out += n_right * right_imp
    out /= total
    return out


def classification_children_scores(
    left_counts: np.ndarray,
    n_left: np.ndarray,
    right_counts: np.ndarray,
    n_right: np.ndarray,
    criterion: Impurity,
) -> np.ndarray:
    """Split score of every candidate from class-major child class counts.

    The one scoring arithmetic of every classification scan — exact and
    binned, per node and per level, numeric and categorical — so all of
    them give a candidate the same bits.
    """
    return _children_scores(
        classification_impurity_classes(left_counts, n_left, criterion),
        n_left,
        classification_impurity_classes(right_counts, n_right, criterion),
        n_right,
    )


def variance_children_scores(
    n_left: np.ndarray,
    left_sum: np.ndarray,
    left_sq: np.ndarray,
    n_right: np.ndarray,
    right_sum: np.ndarray,
    right_sq: np.ndarray,
) -> np.ndarray:
    """Split score of every candidate from its children's regression triples."""
    return _children_scores(
        variance_rows(n_left, left_sum, left_sq),
        n_left,
        variance_rows(n_right, right_sum, right_sq),
        n_right,
    )


def default_impurity(is_classification: bool) -> Impurity:
    """The paper's default criteria: Gini for classification, variance else."""
    return Impurity.GINI if is_classification else Impurity.VARIANCE
