"""Experiment harness: run each system on a dataset, score and time it.

Every benchmark in ``benchmarks/`` is a thin parameter sweep over these
runners.  A run returns an :class:`ExperimentRow` carrying the simulated
training seconds, the paper's quality metric (accuracy, or RMSE for the
regression dataset) on a held-out test split, and the system's run metrics
— the same columns the paper's tables print.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..baselines.planet import PlanetConfig, PlanetTrainer
from ..baselines.xgboost_like import XGBoostConfig, XGBoostTrainer
from ..core.config import ColumnSampling, SystemConfig, TreeConfig
from ..core.jobs import decision_tree_job, random_forest_job
from ..core.server import TreeServer
from ..data.schema import ProblemKind
from ..data.table import DataTable
from ..datasets.registry import dataset_spec
from ..datasets.synthetic import train_test
from .metrics import accuracy, rmse


@dataclass
class ExperimentRow:
    """One (system, dataset, configuration) measurement."""

    system: str
    dataset: str
    sim_seconds: float
    quality: float
    quality_metric: str  # "accuracy" | "rmse"
    params: dict[str, object] = field(default_factory=dict)
    cpu_percent: float | None = None
    send_mbps: float | None = None
    peak_memory_mb: float | None = None

    def quality_str(self) -> str:
        """Paper-style rendering: percent for accuracy, plain for RMSE."""
        if self.quality_metric == "accuracy":
            return f"{self.quality * 100:.2f}%"
        return f"{self.quality:.4f}"


def load_dataset(
    name: str, small: bool = False, test_fraction: float = 0.25
) -> tuple[DataTable, DataTable]:
    """Train/test split of a registry dataset."""
    return train_test(dataset_spec(name, small=small), test_fraction)


def _score(table: DataTable, y_pred) -> tuple[float, str]:
    if table.problem is ProblemKind.CLASSIFICATION:
        return accuracy(table.target, y_pred), "accuracy"
    return rmse(table.target, y_pred), "rmse"


def run_treeserver(
    dataset: str,
    train: DataTable,
    test: DataTable,
    tree_config: TreeConfig | None = None,
    n_trees: int = 1,
    system: SystemConfig | None = None,
    seed: int = 0,
) -> ExperimentRow:
    """Train a decision tree (``n_trees == 1``) or random forest on the
    simulated TreeServer deployment."""
    cfg = tree_config or TreeConfig()
    sys_cfg = (system or SystemConfig()).scaled_to(train.n_rows)
    if n_trees == 1:
        job = decision_tree_job("model", cfg)
    else:
        job = random_forest_job("model", n_trees, cfg, seed=seed)
    report = TreeServer(sys_cfg).fit(train, [job])
    model = report.forest("model") if n_trees > 1 else report.tree("model")
    quality, metric = _score(test, model.predict(test))
    return ExperimentRow(
        system="TreeServer",
        dataset=dataset,
        sim_seconds=report.sim_seconds,
        quality=quality,
        quality_metric=metric,
        params={"n_trees": n_trees, "workers": sys_cfg.n_workers,
                "compers": sys_cfg.compers_per_worker},
        cpu_percent=report.cluster.avg_worker_cpu_percent,
        send_mbps=report.cluster.avg_worker_send_mbps,
        peak_memory_mb=report.cluster.avg_peak_memory_bytes / 1e6,
    )


def run_mllib(
    dataset: str,
    train: DataTable,
    test: DataTable,
    tree_config: TreeConfig | None = None,
    n_trees: int = 1,
    planet_config: PlanetConfig | None = None,
    single_thread: bool = False,
    seed: int = 0,
) -> ExperimentRow:
    """Train with the PLANET/MLlib-style baseline (parallel or 1-thread)."""
    from dataclasses import replace

    cfg = tree_config or TreeConfig()
    if n_trees > 1 and cfg.column_sampling is ColumnSampling.ALL:
        # Forests use sqrt(|A|) columns per tree (paper Section VIII),
        # mirroring random_forest_job's normalization.
        cfg = replace(cfg, column_sampling=ColumnSampling.SQRT, seed=seed)
    planet = planet_config or PlanetConfig()
    if single_thread:
        planet = planet.single_thread()
    report = PlanetTrainer(planet).fit(train, cfg, n_trees=n_trees, seed=seed)
    model = report.forest() if n_trees > 1 else report.tree()
    quality, metric = _score(test, model.predict(test))
    name = "MLlib (Single Thread)" if single_thread else "MLlib (Parallel)"
    return ExperimentRow(
        system=name,
        dataset=dataset,
        sim_seconds=report.sim_seconds,
        quality=quality,
        quality_metric=metric,
        params={"n_trees": n_trees, "max_bins": planet.max_bins},
    )


def run_xgboost(
    dataset: str,
    train: DataTable,
    test: DataTable,
    xgb_config: XGBoostConfig | None = None,
) -> ExperimentRow:
    """Train with the XGBoost-style boosting baseline."""
    cfg = xgb_config or XGBoostConfig()
    report = XGBoostTrainer(cfg).fit(train)
    quality, metric = _score(test, report.model.predict(test))
    return ExperimentRow(
        system="XGBoost",
        dataset=dataset,
        sim_seconds=report.sim_seconds,
        quality=quality,
        quality_metric=metric,
        params={"n_rounds": cfg.n_rounds, "max_depth": cfg.max_depth},
    )
