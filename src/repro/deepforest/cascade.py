"""Cascade forest (CF): stacked forest layers on re-represented features.

The second phase of a deep forest (paper Fig. 11): layer 0 trains on the
re-representation from the smallest MGS window; each later layer trains on
the previous layer's output PMFs concatenated with the MGS features of the
next window size (cycled).  The layer prediction averages its forests' PMF
outputs; the paper's experiment reports test accuracy after every layer
(Table VII, CF0extract .. CF5extract).

Layers are *sequentially dependent* — exactly the staged-job dependency the
TreeServer master supports — but each layer's forests train concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import TreeConfig, TreeKind
from ..core.flat import compiled_predictor
from ..data.schema import ColumnKind, ColumnSpec, ProblemKind, TableSchema
from ..data.table import DataTable
from .backend import TrainedForest


@dataclass(frozen=True)
class CascadeConfig:
    """Cascade hyperparameters (paper: 6 layers, 2 RFs of 20 trees each).

    ``max_depth=None`` reproduces the paper's CF setting (``d_max`` is
    unbounded in the CF stage, which is why training accuracy is 100%).
    """

    n_layers: int = 6
    n_forests: int = 2
    trees_per_forest: int = 20
    max_depth: int | None = None
    #: The paper found extra-trees hurt CF accuracy and used RFs only.
    forest_kinds: tuple[TreeKind, ...] = (TreeKind.DECISION,)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_layers < 1 or self.n_forests < 1:
            raise ValueError("cascade needs >= 1 layer and >= 1 forest")


def features_to_table(
    features: np.ndarray, labels: np.ndarray, n_classes: int
) -> DataTable:
    """Wrap a dense feature matrix as a numeric classification table."""
    n, d = features.shape
    schema = TableSchema(
        tuple(ColumnSpec(f"f{i}", ColumnKind.NUMERIC) for i in range(d)),
        ColumnSpec(
            "label", ColumnKind.CATEGORICAL, tuple(f"c{i}" for i in range(n_classes))
        ),
        ProblemKind.CLASSIFICATION,
    )
    return DataTable(
        schema,
        [np.ascontiguousarray(features[:, i]) for i in range(d)],
        labels.astype(np.int32),
    )


@dataclass
class CascadeLayer:
    """One trained CF layer."""

    index: int
    grain_window: int
    forests: list[TrainedForest] = field(default_factory=list)

    @property
    def train_seconds(self) -> float:
        """Total (simulated) training seconds of this layer."""
        return sum(f.train_seconds for f in self.forests)

    def output(self, features: np.ndarray) -> np.ndarray:
        """Layer output: concatenated per-forest PMFs, ``(n, F * k)``."""
        return np.concatenate(
            [
                compiled_predictor(t.forest).predict_proba_matrix(features)
                for t in self.forests
            ],
            axis=1,
        )


class CascadeForest:
    """Trains and applies the cascade layers."""

    def __init__(self, config: CascadeConfig, backend) -> None:
        self.config = config
        self.backend = backend
        self.layers: list[CascadeLayer] = []
        self.n_classes = 0

    def layer_input(
        self,
        layer_index: int,
        grain_features: dict[int, np.ndarray],
        previous_output: np.ndarray | None,
    ) -> tuple[np.ndarray, int]:
        """Features feeding one layer: MGS grain (cycled) + previous PMFs."""
        windows = sorted(grain_features)
        window = windows[layer_index % len(windows)]
        grain = grain_features[window]
        if previous_output is None:
            return grain, window
        return np.concatenate([grain, previous_output], axis=1), window

    def fit_layer(
        self,
        layer_index: int,
        grain_features: dict[int, np.ndarray],
        labels: np.ndarray,
        n_classes: int,
        previous_output: np.ndarray | None,
    ) -> tuple[CascadeLayer, np.ndarray]:
        """Train one layer; returns it plus its output on the training set."""
        self.n_classes = n_classes
        cfg = self.config
        features, window = self.layer_input(
            layer_index, grain_features, previous_output
        )
        table = features_to_table(features, labels, n_classes)
        layer = CascadeLayer(index=layer_index, grain_window=window)
        for f in range(cfg.n_forests):
            kind = cfg.forest_kinds[f % len(cfg.forest_kinds)]
            tree_config = TreeConfig(
                max_depth=cfg.max_depth,
                tree_kind=kind,
                seed=cfg.seed * 104729 + layer_index * 127 + f,
            )
            layer.forests.append(
                self.backend.train_forest(
                    table,
                    cfg.trees_per_forest,
                    tree_config,
                    seed=cfg.seed * 37 + layer_index * 11 + f,
                )
            )
        self.layers.append(layer)
        return layer, layer.output(features)

    def predict_proba_per_layer(
        self, grain_features: dict[int, np.ndarray]
    ) -> list[np.ndarray]:
        """PMF predictions after each layer (Table VII accuracy column):
        the average of the layer's forests' PMFs."""
        outputs: list[np.ndarray] = []
        previous: np.ndarray | None = None
        for layer in self.layers:
            features, _ = self.layer_input(
                layer.index, grain_features, previous
            )
            previous = layer.output(features)
            outputs.append(
                previous.reshape(
                    len(features), len(layer.forests), self.n_classes
                ).mean(axis=1)
            )
        return outputs

    def predict(self, grain_features: dict[int, np.ndarray]) -> np.ndarray:
        """Final prediction: argmax of the last layer's averaged PMFs."""
        if not self.layers:
            raise RuntimeError("cascade not fitted")
        return np.argmax(self.predict_proba_per_layer(grain_features)[-1], axis=1)
