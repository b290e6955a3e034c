"""PLANET / Spark-MLlib-style baseline: row-partitioned, level-synchronous,
histogram-approximate tree training.

This is the comparison system of the paper's Tables II, IV, V and VI.  It
reproduces both axes on which TreeServer beats MLlib:

* **Approximation** — numeric splits are chosen among ``maxBins`` equi-depth
  candidates (computed once up front, as MLlib's ``findSplits`` does), so
  the trained model differs slightly from the exact one.  Categorical
  attributes are handled exactly (MLlib does not bin small-arity
  categoricals).  The *model* produced here is real — accuracy rows in the
  benchmark tables come from actually predicting with it.
* **Execution model** — training proceeds level-by-level over row-partitioned
  data: every iteration is a full pass over the table (each machine scans
  its row block and builds per-node statistics), histograms are aggregated
  at the driver, and each iteration pays a fixed Spark-stage overhead.
  Upper levels are therefore IO-bound with CPUs underutilized — exactly the
  behaviour the paper's Introduction criticizes.  The time ledger charges
  these costs against the same :class:`~repro.cluster.CostModel` constants
  the TreeServer simulation uses, so simulated seconds are comparable.

MLlib's random forests batch nodes of several trees into one iteration
bounded by memory (``node_group_size`` here), which this trainer models too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..cluster.cost import CostModel
from ..core.builder import NodeStats, sample_candidate_columns, should_stop
from ..core.config import ColumnSampling, TreeConfig
from ..core.histogram import (
    best_binned_numeric_split,
    bin_indices,
    equi_depth_thresholds,
)
from ..core.splits import (
    CandidateSplit,
    best_split_for_column,
    route_training_rows,
)
from ..core.tree import DecisionTree, TreeNode
from ..data.schema import ColumnKind, ProblemKind
from ..data.table import DataTable


@dataclass(frozen=True)
class PlanetConfig:
    """Deployment knobs of the MLlib-style baseline."""

    max_bins: int = 32
    n_machines: int = 15
    threads_per_machine: int = 10
    #: Fixed per-iteration job overhead (Spark stage scheduling, task
    #: launch, shuffle setup).  Local single-process mode is much cheaper.
    stage_overhead_seconds: float = 0.02
    #: Nodes whose statistics fit in one iteration (the maxMemoryInMB
    #: analogue: ~256 MB over a few KB of per-node statistics allows
    #: thousands of nodes per pass).
    node_group_size: int = 4096
    #: Ops per (row, column) statistic update in the JVM row-iterator scan.
    #: Calibrated against the paper's fairness experiment: single-threaded
    #: MLlib is comparable to single-threaded TreeServer, whose exact scan
    #: costs ~``log2(n)`` ops per value — so the binned row-wise update is
    #: charged a similar per-value constant.
    row_scan_ops_per_value: float = 12.0
    #: Executor-side ops per histogram entry for serialization and
    #: treeAggregate merging — CPU work that scales with threads (this is
    #: why the paper's MLlib shows thread scaling even when network bytes
    #: do not shrink).
    hist_merge_ops_per_entry: float = 25.0
    #: Effective multiples of one histogram payload crossing the bottleneck
    #: link during treeAggregate plus the broadcast of split decisions.
    aggregation_fanin_factor: float = 3.0

    def single_thread(self) -> "PlanetConfig":
        """The paper's *MLlib (Single Thread)* configuration.

        One machine, one thread, local-mode overheads, no histogram
        shipping (everything is in one JVM).
        """
        return PlanetConfig(
            max_bins=self.max_bins,
            n_machines=1,
            threads_per_machine=1,
            stage_overhead_seconds=0.001,
            node_group_size=self.node_group_size,
            row_scan_ops_per_value=self.row_scan_ops_per_value,
            hist_merge_ops_per_entry=0.0,  # everything stays in one JVM
            aggregation_fanin_factor=0.0,
        )


@dataclass
class _NodeWork:
    """One examined node, as the cost ledger sees it."""

    level: int
    n_rows: int
    n_columns: int


@dataclass
class PlanetReport:
    """Trained model plus the simulated time breakdown."""

    trees: list[DecisionTree]
    sim_seconds: float
    n_iterations: int
    scan_seconds: float
    comm_seconds: float
    overhead_seconds: float
    nodes_examined: int

    def forest(self):
        """Trees wrapped as a :class:`repro.ensemble.ForestModel`."""
        from ..ensemble.forest import ForestModel

        return ForestModel(self.trees)

    def tree(self) -> DecisionTree:
        """The single tree of a one-tree run."""
        if len(self.trees) != 1:
            raise ValueError(f"run trained {len(self.trees)} trees")
        return self.trees[0]


class PlanetTrainer:
    """Level-synchronous approximate trainer with a simulated-time ledger."""

    def __init__(
        self, config: PlanetConfig | None = None, cost: CostModel | None = None
    ) -> None:
        self.config = config or PlanetConfig()
        self.cost = cost or CostModel()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def fit(
        self,
        table: DataTable,
        tree_config: TreeConfig | None = None,
        n_trees: int = 1,
        seed: int = 0,
    ) -> PlanetReport:
        """Train ``n_trees`` trees (sharing one node queue, as MLlib does)."""
        if n_trees < 1:
            raise ValueError("need at least one tree")
        base = tree_config or TreeConfig()
        if n_trees > 1 and base.column_sampling is ColumnSampling.ALL:
            # Forests use sqrt(|A|) columns per tree (paper Section VIII);
            # normalize exactly as TreeServer's random_forest_job does.
            base = replace(
                base, column_sampling=ColumnSampling.SQRT, seed=base.seed or seed
            )
        thresholds, bins = self._find_splits(table)
        work: list[_NodeWork] = []
        trees = []
        for i in range(n_trees):
            config = base.with_seed(base.seed * 1_000_003 + i) if n_trees > 1 else base
            trees.append(self._train_tree(table, config, thresholds, bins, work, i))
        ledger = self._ledger(table, work)
        return PlanetReport(trees=trees, **ledger)

    # ------------------------------------------------------------------
    # split candidates (findSplits)
    # ------------------------------------------------------------------
    def _find_splits(
        self, table: DataTable
    ) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
        thresholds: dict[int, np.ndarray] = {}
        bins: dict[int, np.ndarray] = {}
        for idx in table.schema.numeric_indices():
            t = equi_depth_thresholds(table.column(idx), self.config.max_bins)
            thresholds[idx] = t
            bins[idx] = bin_indices(table.column(idx), t)
        return thresholds, bins

    # ------------------------------------------------------------------
    # model construction (level-synchronous, real computation)
    # ------------------------------------------------------------------
    def _train_tree(
        self,
        table: DataTable,
        config: TreeConfig,
        thresholds: dict[int, np.ndarray],
        bins: dict[int, np.ndarray],
        work: list[_NodeWork],
        tree_id: int,
    ) -> DecisionTree:
        candidates = sample_candidate_columns(config, table.n_columns)
        criterion = config.resolved_criterion(
            table.problem is ProblemKind.CLASSIFICATION
        )
        root_ids = np.arange(table.n_rows, dtype=np.int64)
        frontier: list[tuple[int, np.ndarray, TreeNode | None, str]] = [
            (1, root_ids, None, "")
        ]
        root_holder: list[TreeNode] = []
        while frontier:
            next_frontier: list[tuple[int, np.ndarray, TreeNode | None, str]] = []
            for path, ids, parent, side in frontier:
                depth = path.bit_length() - 1
                stats = NodeStats.of_labels(
                    table.target[ids], table.problem, table.n_classes
                )
                node = TreeNode(
                    node_id=path,
                    depth=depth,
                    n_rows=stats.n_rows,
                    prediction=stats.prediction(),
                )
                if parent is None:
                    root_holder.append(node)
                else:
                    setattr(parent, side, node)
                work.append(
                    _NodeWork(
                        level=depth, n_rows=stats.n_rows, n_columns=len(candidates)
                    )
                )
                if should_stop(stats, depth, config):
                    continue
                split = self._best_approx_split(
                    table, ids, candidates, criterion, thresholds, bins
                )
                parent_imp = stats.impurity(criterion)
                if (
                    split is None
                    or split.n_left == 0
                    or split.n_right == 0
                    or split.score >= parent_imp - config.min_impurity_decrease
                ):
                    continue
                node.split = split
                go_left = route_training_rows(
                    table.column(split.column)[ids], split
                )
                next_frontier.append((2 * path, ids[go_left], node, "left"))
                next_frontier.append((2 * path + 1, ids[~go_left], node, "right"))
            frontier = next_frontier
        return DecisionTree(
            root=root_holder[0],
            problem=table.problem,
            n_classes=table.n_classes,
            tree_id=tree_id,
        )

    def _best_approx_split(
        self,
        table: DataTable,
        ids: np.ndarray,
        candidates: tuple[int, ...],
        criterion,
        thresholds: dict[int, np.ndarray],
        bins: dict[int, np.ndarray],
    ) -> CandidateSplit | None:
        y = table.target[ids]
        best: CandidateSplit | None = None
        for col in candidates:
            spec = table.column_spec(col)
            if spec.kind is ColumnKind.NUMERIC:
                split = best_binned_numeric_split(
                    col,
                    bins[col][ids],
                    thresholds[col],
                    y,
                    criterion,
                    table.n_classes,
                )
            else:
                split = best_split_for_column(
                    col,
                    spec.kind,
                    table.column(col)[ids],
                    y,
                    criterion,
                    table.n_classes,
                    spec.n_categories,
                )
            if split is None:
                continue
            if best is None or split.sort_key() < best.sort_key():
                best = split
        return best

    # ------------------------------------------------------------------
    # simulated-time ledger
    # ------------------------------------------------------------------
    def _ledger(self, table: DataTable, work: list[_NodeWork]) -> dict:
        """Charge the level-synchronous execution against the cost model.

        Iterations pull nodes level-by-level (across trees), up to
        ``node_group_size`` per iteration.  Each iteration pays:

        * a full row-block pass on every machine (reading + routing every
          row, whether or not its node is in the group) — the IO-bound term;
        * per-node statistic building over the node's rows and columns;
        * histogram shipping: ``machines * nodes * cols * bins * stat_width``
          bytes into the driver NIC;
        * driver-side split selection;
        * a fixed stage overhead.
        """
        cfg = self.config
        cost = self.cost
        cores = cfg.n_machines * cfg.threads_per_machine
        stat_width = max(2, table.n_classes) if table.n_classes else 3

        by_level: dict[int, list[_NodeWork]] = {}
        for item in work:
            by_level.setdefault(item.level, []).append(item)

        scan = comm = overhead = 0.0
        iterations = 0
        for level in sorted(by_level):
            nodes = by_level[level]
            for start in range(0, len(nodes), cfg.node_group_size):
                group = nodes[start : start + cfg.node_group_size]
                iterations += 1
                # Full pass over the row blocks (read + node routing).
                pass_ops = table.n_rows * 2.0
                # Statistic updates for the grouped nodes (row-wise JVM scan),
                # plus executor-side histogram serialization and treeAggregate
                # merging — both thread-parallel CPU work.
                hist_entries = sum(
                    n.n_columns * cfg.max_bins * stat_width for n in group
                )
                stat_ops = cfg.row_scan_ops_per_value * sum(
                    n.n_rows * n.n_columns for n in group
                )
                merge_ops = cfg.hist_merge_ops_per_entry * hist_entries
                scan += cost.compute_seconds(pass_ops + stat_ops + merge_ops) / cores
                hist_bytes = cfg.aggregation_fanin_factor * hist_entries * 8
                comm += hist_bytes / cost.bandwidth_bytes_per_second
                comm += cost.compute_seconds(hist_entries)  # driver select
                overhead += cfg.stage_overhead_seconds
        return {
            "sim_seconds": scan + comm + overhead,
            "n_iterations": iterations,
            "scan_seconds": scan,
            "comm_seconds": comm,
            "overhead_seconds": overhead,
            "nodes_examined": len(work),
        }
