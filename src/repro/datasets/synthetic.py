"""Synthetic tabular dataset generator with planted structure.

The paper evaluates on 11 public datasets (Table I) that we cannot download
in this offline environment.  What the evaluation actually depends on is the
*shape* of each dataset — how many numeric vs categorical columns, problem
type, missing values, row count — plus two label properties:

* **Breadth**: signal spread over many columns, so sqrt-column random
  forests and boosting work (as they do on the real datasets).  The label
  is driven by an *additive* ensemble of single-column stumps over all
  relevant columns.
* **Depth**: some interaction structure, so deeper exact trees keep
  improving with ``d_max`` (paper Table VIII(a,b)).  A planted interaction
  tree contributes on top of the stumps.

Stump thresholds are drawn as upper-tail quantiles of a skewed (lognormal)
marginal, where equi-depth histogram binning (the MLlib baseline) is
coarsest — reproducing the paper's exact-vs-approximate accuracy gap —
while exact split search recovers them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.schema import ColumnKind, ColumnSpec, ProblemKind, TableSchema
from ..data.table import MISSING_CODE, DataTable


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset (mirrors a Table I row, scaled).

    ``noise`` is the label-flip probability (classification) or the label
    noise standard deviation as a fraction of the signal range (regression);
    ``missing_rate`` injects missing values uniformly into feature columns;
    ``planted_depth`` controls the interaction tree's depth and
    ``interaction_weight`` its share of the label signal.
    """

    name: str
    n_rows: int
    n_numeric: int
    n_categorical: int
    problem: ProblemKind = ProblemKind.CLASSIFICATION
    n_classes: int = 2
    categorical_cardinality: int = 6
    planted_depth: int = 6
    noise: float = 0.08
    missing_rate: float = 0.0
    relevant_fraction: float = 0.6
    interaction_weight: float = 2.5
    #: Probability that a non-relevant numeric column becomes a tight noisy
    #: copy of a relevant one.  Models the heavy feature redundancy of some
    #: real tables (e.g. insurance data), which is what makes accuracy flat
    #: across per-tree column ratios (paper Table VIII(c)).
    redundancy: float = 0.0
    seed: int = 7
    tags: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.n_rows < 4:
            raise ValueError("need at least 4 rows")
        if self.n_numeric + self.n_categorical < 1:
            raise ValueError("need at least one feature column")
        if self.problem is ProblemKind.CLASSIFICATION and self.n_classes < 2:
            raise ValueError("classification needs >= 2 classes")


@dataclass
class _PlantedNode:
    """Internal node of the hidden interaction tree."""

    column: int
    threshold: float | None
    left_categories: frozenset[int] | None
    left: "_PlantedNode | np.ndarray"
    right: "_PlantedNode | np.ndarray"


def _skewed_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw a heavy-tailed numeric column (lognormal).

    Skew matters: equi-depth histograms place few boundaries in the sparse
    tail, so planted tail thresholds are what approximate split search loses.
    """
    return rng.lognormal(mean=0.0, sigma=1.0, size=n)


def _class_vector(rng: np.random.Generator, k: int) -> np.ndarray:
    """A random per-class score contribution (zero-mean)."""
    v = rng.normal(0.0, 1.0, size=k)
    return v - v.mean()


def _leaf_vector(rng: np.random.Generator, k: int, margin: float) -> np.ndarray:
    """A leaf contribution dominated by one class with a clear margin.

    Hard-ish leaf classes keep test accuracy monotone in tree depth (the
    paper's Table VIII(a,b) shape): a learner must recover the interaction
    tree's cells to pick these up, and deeper trees recover more of them.
    """
    if k == 1:  # regression: a scalar leaf value
        return np.array([rng.normal(0.0, margin)])
    v = 0.3 * _class_vector(rng, k)
    v[int(rng.integers(k))] += margin
    return v - v.mean()


def _grow_planted_tree(
    rng: np.random.Generator,
    relevant_columns: list[int],
    specs: list[ColumnSpec],
    columns: list[np.ndarray],
    depth: int,
    k: int,
    margin: float,
) -> "_PlantedNode | np.ndarray":
    if depth == 0 or rng.random() < 0.12:
        return _leaf_vector(rng, k, margin)
    column = int(relevant_columns[rng.integers(len(relevant_columns))])
    col_spec = specs[column]
    if col_spec.kind is ColumnKind.NUMERIC:
        # Interaction thresholds sit in the bulk of the distribution.
        threshold = float(np.quantile(columns[column], rng.uniform(0.25, 0.75)))
        left_categories = None
    else:
        cardinality = col_spec.n_categories
        size = int(rng.integers(1, max(2, cardinality // 2 + 1)))
        left_categories = frozenset(
            int(c) for c in rng.choice(cardinality, size=size, replace=False)
        )
        threshold = None
    return _PlantedNode(
        column=column,
        threshold=threshold,
        left_categories=left_categories,
        left=_grow_planted_tree(
            rng, relevant_columns, specs, columns, depth - 1, k, margin
        ),
        right=_grow_planted_tree(
            rng, relevant_columns, specs, columns, depth - 1, k, margin
        ),
    )


def _route_scores(
    node: "_PlantedNode | np.ndarray",
    columns: list[np.ndarray],
    row_ids: np.ndarray,
    out: np.ndarray,
) -> None:
    stack = [(node, row_ids)]
    while stack:
        current, ids = stack.pop()
        if ids.size == 0:
            continue
        if isinstance(current, np.ndarray):
            out[ids] += current
            continue
        values = columns[current.column][ids]
        if current.threshold is not None:
            go_left = values <= current.threshold
        else:
            left = current.left_categories or frozenset()
            go_left = np.isin(
                values, np.fromiter(left, dtype=values.dtype, count=len(left))
            )
        stack.append((current.left, ids[go_left]))
        stack.append((current.right, ids[~go_left]))


def generate(spec: SyntheticSpec) -> DataTable:
    """Generate the dataset a :class:`SyntheticSpec` describes.

    Deterministic in ``spec.seed``; repeated calls return equal tables.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_rows
    k = spec.n_classes if spec.problem is ProblemKind.CLASSIFICATION else 1

    specs: list[ColumnSpec] = []
    columns: list[np.ndarray] = []
    for i in range(spec.n_numeric):
        specs.append(ColumnSpec(f"num{i}", ColumnKind.NUMERIC))
        columns.append(_skewed_values(rng, n))
    for i in range(spec.n_categorical):
        cardinality = spec.categorical_cardinality
        cats = tuple(f"c{i}_{j}" for j in range(cardinality))
        specs.append(ColumnSpec(f"cat{i}", ColumnKind.CATEGORICAL, cats))
        # Zipf-ish category frequencies: realistic imbalance.
        weights = 1.0 / np.arange(1, cardinality + 1)
        weights /= weights.sum()
        columns.append(rng.choice(cardinality, size=n, p=weights).astype(np.int32))

    m = len(specs)
    n_relevant = max(1, int(round(spec.relevant_fraction * m)))
    relevant = sorted(
        int(c) for c in rng.choice(m, size=n_relevant, replace=False)
    )

    # Optional redundancy: tight noisy copies of relevant numeric columns
    # replace some irrelevant ones, so any column subset carries signal.
    relevant_numeric = [
        c for c in relevant if specs[c].kind is ColumnKind.NUMERIC
    ]
    if spec.redundancy > 0 and relevant_numeric:
        for idx in range(m):
            if idx in relevant or specs[idx].kind is not ColumnKind.NUMERIC:
                continue
            if rng.random() < spec.redundancy:
                source = int(
                    relevant_numeric[rng.integers(len(relevant_numeric))]
                )
                scale = 0.5 + rng.random()
                jitter = rng.normal(0.0, 0.03, size=n)
                columns[idx] = columns[source] * scale * (1.0 + jitter)

    # Additive stump ensemble: one tail-threshold stump per relevant column.
    scores = np.zeros((n, k), dtype=np.float64)
    for column in relevant:
        contribution = _class_vector(rng, k)
        if specs[column].kind is ColumnKind.NUMERIC:
            threshold = float(
                np.quantile(columns[column], rng.uniform(0.55, 0.95))
            )
            above = columns[column] > threshold
        else:
            cardinality = specs[column].n_categories
            size = int(rng.integers(1, max(2, cardinality // 2 + 1)))
            chosen = rng.choice(cardinality, size=size, replace=False)
            above = np.isin(columns[column], chosen)
        # One add: ``x - y`` is ``x + (-y)`` bit for bit in IEEE arithmetic.
        scores += np.where(above[:, None], contribution, -0.5 * contribution)

    # Interaction component: a planted tree over the same relevant columns.
    planted = _grow_planted_tree(
        rng, relevant, specs, columns, spec.planted_depth, k,
        spec.interaction_weight,
    )
    interaction = np.zeros((n, k), dtype=np.float64)
    _route_scores(planted, columns, np.arange(n, dtype=np.int64), interaction)
    stump_scale = max(1.0, np.sqrt(len(relevant)) / 2.0)
    scores = scores / stump_scale + interaction

    if spec.problem is ProblemKind.CLASSIFICATION:
        labels = np.argmax(scores, axis=1).astype(np.int64)
        flip = rng.random(n) < spec.noise
        labels[flip] = rng.integers(spec.n_classes, size=int(flip.sum()))
        target_spec = ColumnSpec(
            "label",
            ColumnKind.CATEGORICAL,
            tuple(f"y{c}" for c in range(spec.n_classes)),
        )
        target: np.ndarray = labels.astype(np.int32)
    else:
        raw = scores[:, 0]
        scale = max(1e-9, float(raw.std()))
        raw = raw / scale  # unit variance: RMSE numbers are comparable
        target = raw + rng.normal(0.0, max(1e-9, spec.noise), size=n)
        target_spec = ColumnSpec("target", ColumnKind.NUMERIC)

    if spec.missing_rate > 0:
        for arr, col_spec in zip(columns, specs):
            mask = rng.random(n) < spec.missing_rate
            if col_spec.kind is ColumnKind.NUMERIC:
                arr[mask] = np.nan
            else:
                arr[mask] = MISSING_CODE

    schema = TableSchema(tuple(specs), target_spec, spec.problem)
    return DataTable(schema, columns, target)


def train_test(
    spec: SyntheticSpec, test_fraction: float = 0.25
) -> tuple[DataTable, DataTable]:
    """Generate and deterministically split a dataset."""
    table = generate(spec)
    return table.split_train_test(test_fraction, seed=spec.seed + 1)
