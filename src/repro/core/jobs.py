"""Training job specifications.

Users submit *jobs* to the master (paper Fig. 2): a decision tree, a random
forest, an extra-trees forest — each disassembled into individual trees for
training.  Jobs may have *stages* with sequential dependencies: trees of
stage ``s + 1`` become eligible only when every tree of stage ``s`` has been
constructed (the boosting / deep-forest-layer dependency of Section III's
Tree Scheduling).  Trees within a stage, and across independent jobs, train
concurrently subject to the ``n_pool`` cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .config import ColumnSampling, TreeConfig, TreeKind


@dataclass(frozen=True)
class TreeRequest:
    """One tree to train (its config carries the per-tree seed)."""

    config: TreeConfig


@dataclass
class JobStage:
    """A group of mutually independent trees."""

    trees: list[TreeRequest]

    def __post_init__(self) -> None:
        if not self.trees:
            raise ValueError("a job stage needs at least one tree")


@dataclass
class TrainingJob:
    """A named model-training job: one or more sequential stages.

    ``bootstrap_rows`` turns on per-tree bootstrap row sampling (off by
    default; the paper's forests randomize attribute subsets only).
    """

    name: str
    stages: list[JobStage]
    bootstrap_rows: bool = False
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError(f"job {self.name!r} has no stages")

    @property
    def n_trees(self) -> int:
        """Total tree count across all stages."""
        return sum(len(stage.trees) for stage in self.stages)


def decision_tree_job(
    name: str, config: TreeConfig | None = None
) -> TrainingJob:
    """A single decision tree trained on all columns (paper Table II(a))."""
    cfg = config or TreeConfig()
    return TrainingJob(name=name, stages=[JobStage([TreeRequest(cfg)])])


def random_forest_job(
    name: str,
    n_trees: int,
    config: TreeConfig | None = None,
    seed: int = 0,
    bootstrap_rows: bool = False,
) -> TrainingJob:
    """A random forest: ``n`` independent trees, each on a random
    ``sqrt(|A|)``-sized attribute subset (paper Section VIII defaults).

    Pass a ``config`` with ``column_sampling=ColumnSampling.RATIO`` to
    reproduce the Table VIII(c,d) column-ratio sweeps instead.
    """
    if n_trees < 1:
        raise ValueError("a forest needs at least one tree")
    base = config or TreeConfig(column_sampling=ColumnSampling.SQRT)
    if base.column_sampling is ColumnSampling.ALL:
        base = replace(base, column_sampling=ColumnSampling.SQRT)
    trees = [
        TreeRequest(base.with_seed(seed * 1_000_003 + i)) for i in range(n_trees)
    ]
    return TrainingJob(
        name=name, stages=[JobStage(trees)], bootstrap_rows=bootstrap_rows
    )


def extra_trees_job(
    name: str,
    n_trees: int,
    config: TreeConfig | None = None,
    seed: int = 0,
) -> TrainingJob:
    """A completely-random-trees forest (paper Appendix F)."""
    base = config or TreeConfig()
    base = replace(
        base, column_sampling=ColumnSampling.ALL, tree_kind=TreeKind.EXTRA
    )
    trees = [
        TreeRequest(base.with_seed(seed * 1_000_003 + i)) for i in range(n_trees)
    ]
    return TrainingJob(name=name, stages=[JobStage(trees)])


def staged_job(
    name: str, stage_tree_lists: list[list[TreeConfig]]
) -> TrainingJob:
    """A job with explicit sequential stages (boosting-style dependency)."""
    stages = [
        JobStage([TreeRequest(cfg) for cfg in configs])
        for configs in stage_tree_lists
    ]
    return TrainingJob(name=name, stages=stages)
