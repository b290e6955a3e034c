"""The paper's primary contribution: exact tree training, the node-centric
task engine, hybrid scheduling, delegate-worker row maintenance and the
Section VI load balancer."""

from .builder import train_tree
from .config import ColumnSampling, SystemConfig, TreeConfig, TreeKind
from .impurity import Impurity
from .kernel import build_subtree
from .persistence import (
    load_model_hdfs,
    load_model_local,
    save_model_hdfs,
    save_model_local,
)
from .jobs import (
    TrainingJob,
    decision_tree_job,
    extra_trees_job,
    random_forest_job,
    staged_job,
)
from .server import RunReport, TreeServer
from .splits import CandidateSplit, best_split_for_column
from .tree import DecisionTree, TreeNode, trees_equal

__all__ = [
    "CandidateSplit",
    "ColumnSampling",
    "DecisionTree",
    "Impurity",
    "RunReport",
    "SystemConfig",
    "TrainingJob",
    "TreeConfig",
    "TreeKind",
    "TreeNode",
    "TreeServer",
    "best_split_for_column",
    "build_subtree",
    "decision_tree_job",
    "extra_trees_job",
    "load_model_hdfs",
    "load_model_local",
    "save_model_hdfs",
    "save_model_local",
    "random_forest_job",
    "staged_job",
    "train_tree",
    "trees_equal",
]
