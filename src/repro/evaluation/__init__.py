"""Experiment metrics, runners and paper-style table rendering."""

from .harness import (
    ExperimentRow,
    load_dataset,
    run_mllib,
    run_treeserver,
    run_xgboost,
)
from .model_selection import (
    Candidate,
    CandidateResult,
    GridSearchResult,
    expand_grid,
    grid_search,
)
from .metrics import accuracy, pmf_accuracy, rmse, score
from .tables import ComparisonTable, format_table, sweep_table

__all__ = [
    "Candidate",
    "CandidateResult",
    "ComparisonTable",
    "GridSearchResult",
    "ExperimentRow",
    "accuracy",
    "expand_grid",
    "format_table",
    "grid_search",
    "load_dataset",
    "pmf_accuracy",
    "rmse",
    "run_mllib",
    "run_treeserver",
    "run_xgboost",
    "score",
    "sweep_table",
]
