"""Forest models: prediction over ensembles of trees.

A forest for ``k``-class classification returns, per row, the average of
the class PMF vectors returned by all its trees (the deep-forest convention
of Section VII); the predicted label is the argmax.  Regression forests
average per-tree predictions.  The same averaging honours depth truncation
and the missing/unseen early-stop of each member tree.  Prediction runs on
the flat kernel (:mod:`repro.core.flat`), compiled once per forest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.flat import compiled_predictor
from ..core.tree import DecisionTree
from ..data.schema import ProblemKind
from ..data.table import DataTable


@dataclass
class ForestModel:
    """A trained bag of trees (random forest or extra-trees)."""

    trees: list[DecisionTree]

    def __post_init__(self) -> None:
        if not self.trees:
            raise ValueError("a forest needs at least one tree")
        problems = {t.problem for t in self.trees}
        if len(problems) > 1:
            raise ValueError("trees disagree on problem kind")

    @property
    def problem(self) -> ProblemKind:
        """Problem kind shared by all member trees."""
        return self.trees[0].problem

    @property
    def n_classes(self) -> int:
        """Target cardinality (0 for regression)."""
        return self.trees[0].n_classes

    @property
    def n_trees(self) -> int:
        """Ensemble size."""
        return len(self.trees)

    def predict_proba(
        self, table: DataTable, max_depth: int | None = None
    ) -> np.ndarray:
        """Average class PMFs over all trees, shape ``(n_rows, n_classes)``."""
        return compiled_predictor(self).predict_proba(table, max_depth)

    def predict_values(
        self, table: DataTable, max_depth: int | None = None
    ) -> np.ndarray:
        """Average regression predictions over all trees."""
        return compiled_predictor(self).predict_values(table, max_depth)

    def predict(
        self, table: DataTable, max_depth: int | None = None
    ) -> np.ndarray:
        """Predicted labels (classification) or values (regression)."""
        return compiled_predictor(self).predict(table, max_depth)

    def total_nodes(self) -> int:
        """Total node count across all trees (model-size diagnostics)."""
        return sum(tree.n_nodes for tree in self.trees)
