"""Gradient-boosted trees trained round-by-round on TreeServer.

The paper's tree scheduling supports boosting-style dependencies: "in
boosting (e.g. gradient boosted trees, or layers in deep forest),
sequential dependencies exist where the next layer of trees can only be
scheduled for training when all trees in the previous layer is fully
constructed" (Section III).  This module realizes that workload: each
boosting round fits one exact regression tree to the current negative
gradients as a TreeServer job on the simulated cluster, then updates the
model before the next round is submitted.

Supported objectives: squared error (regression) and logistic loss (binary
classification).  Trees are exact — this is *not* the XGBoost baseline
(which uses second-order gains and sketch-approximate splits); it is
first-order gradient boosting built from TreeServer's own exact trees,
demonstrating the system as a building block for larger ensemble methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import ColumnSampling, SystemConfig, TreeConfig
from ..core.flat import compiled_predictor
from ..core.jobs import decision_tree_job
from ..core.server import TreeServer
from ..core.tree import DecisionTree
from ..data.schema import ColumnSpec, ColumnKind, ProblemKind, TableSchema
from ..data.table import DataTable


@dataclass(frozen=True)
class GBDTConfig:
    """Boosting hyperparameters for TreeServer-trained GBDT."""

    n_rounds: int = 20
    learning_rate: float = 0.2
    max_depth: int = 4
    tau_leaf: int = 8
    column_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rounds < 1:
            raise ValueError("need at least one boosting round")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")


@dataclass
class GBDTModel:
    """An additive model of exact regression trees."""

    problem: ProblemKind
    base_prediction: float
    learning_rate: float
    trees: list[DecisionTree] = field(default_factory=list)

    def raw_scores(self, table: DataTable) -> np.ndarray:
        """Additive raw margins for every row: ``base + lr * tree``, trees
        added in order on the flat kernel (compiled once per model, again
        only after the model grows)."""
        if not self.trees:
            return np.full(table.n_rows, self.base_prediction)
        return compiled_predictor(self).raw_scores(
            table, self.base_prediction, self.learning_rate
        )

    def predict(self, table: DataTable) -> np.ndarray:
        """Predicted values (regression) or class labels (binary)."""
        scores = self.raw_scores(table)
        if self.problem is ProblemKind.REGRESSION:
            return scores
        return (scores > 0).astype(np.int64)

    def predict_proba(self, table: DataTable) -> np.ndarray:
        """Class probabilities for binary classification, shape ``(n, 2)``."""
        if self.problem is not ProblemKind.CLASSIFICATION:
            raise ValueError("predict_proba requires a classification model")
        p1 = 1.0 / (1.0 + np.exp(-self.raw_scores(table)))
        return np.stack([1.0 - p1, p1], axis=1)

    @property
    def n_trees(self) -> int:
        """Number of boosting rounds fitted."""
        return len(self.trees)


@dataclass
class GBDTReport:
    """Model plus the accumulated simulated training time."""

    model: GBDTModel
    sim_seconds: float
    per_round_seconds: list[float]


def _gradient_table(table: DataTable, gradients: np.ndarray) -> DataTable:
    """The training table with the target replaced by negative gradients."""
    schema = TableSchema(
        table.schema.columns,
        ColumnSpec("__gradient__", ColumnKind.NUMERIC),
        ProblemKind.REGRESSION,
    )
    return DataTable(schema, list(table.columns), gradients)


class TreeServerGBDT:
    """Fits a GBDT by submitting one TreeServer job per boosting round."""

    def __init__(
        self,
        config: GBDTConfig | None = None,
        system: SystemConfig | None = None,
    ) -> None:
        self.config = config or GBDTConfig()
        self.system = system or SystemConfig(n_workers=8, compers_per_worker=4)

    def fit(self, table: DataTable) -> GBDTReport:
        """Train on a regression or binary-classification table."""
        cfg = self.config
        problem = table.problem
        if problem is ProblemKind.CLASSIFICATION and table.n_classes != 2:
            raise ValueError(
                "TreeServerGBDT supports regression and binary classification"
            )
        y = table.target.astype(np.float64)
        if problem is ProblemKind.REGRESSION:
            base = float(y.mean())
        else:
            # Log-odds of the positive class.
            p = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
            base = float(np.log(p / (1 - p)))

        model = GBDTModel(
            problem=problem, base_prediction=base, learning_rate=cfg.learning_rate
        )
        system = self.system.scaled_to(table.n_rows)
        scores = np.full(table.n_rows, base, dtype=np.float64)
        per_round: list[float] = []
        for round_index in range(cfg.n_rounds):
            if problem is ProblemKind.REGRESSION:
                negative_gradient = y - scores
            else:
                negative_gradient = y - 1.0 / (1.0 + np.exp(-scores))
            round_table = _gradient_table(table, negative_gradient)
            tree_config = TreeConfig(
                max_depth=cfg.max_depth,
                tau_leaf=cfg.tau_leaf,
                column_sampling=(
                    ColumnSampling.ALL
                    if cfg.column_ratio >= 1.0
                    else ColumnSampling.RATIO
                ),
                column_ratio=cfg.column_ratio,
                seed=cfg.seed * 1_000_003 + round_index,
            )
            report = TreeServer(system).fit(
                round_table, [decision_tree_job("round", tree_config)]
            )
            tree = report.tree("round")
            model.trees.append(tree)
            per_round.append(report.sim_seconds)
            scores += cfg.learning_rate * tree.predict_values(round_table)
        return GBDTReport(
            model=model,
            sim_seconds=float(sum(per_round)),
            per_round_seconds=per_round,
        )
