"""Model hyperparameters and TreeServer system parameters.

Two distinct configuration objects, mirroring the paper's separation:

* :class:`TreeConfig` — *model* hyperparameters a user submits with a
  training job (``d_max``, ``tau_leaf``, impurity, column ratio, tree type —
  the per-job boxes in Fig. 2).
* :class:`SystemConfig` — *system* tuning knobs of the TreeServer deployment
  (``tau_D``, ``tau_dfs``, ``n_pool``, column replication ``k``, machine and
  comper counts — Section III "Task Scheduling" and Section VIII defaults).

The paper's defaults are ``tau_D = 10_000``, ``tau_dfs = 80_000``,
``n_pool = 200``, ``k = 2``, 15 machines × 10 compers; those run against
datasets of up to 54 M rows.  Our synthetic datasets are hundreds of times
smaller, so :meth:`SystemConfig.scaled_to` derives proportional thresholds —
the *ratios* between ``tau_D``, ``tau_dfs`` and the dataset size are what the
scheduling behaviour depends on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .impurity import Impurity


class TreeKind(enum.Enum):
    """Tree flavour: exact CART-style tree or completely-random extra-tree."""

    DECISION = "decision"
    EXTRA = "extra"


#: Split-search modes accepted by ``TreeConfig.split_mode`` (and the
#: ``repro train --split-mode`` flag).  ``"exact"`` is the paper's exact
#: per-boundary scan; ``"hist"`` scores equi-depth histogram prefix cuts
#: (PLANET / MLlib ``maxBins`` style, see :mod:`repro.core.histogram`) so
#: column-task workers scan O(bins) cuts instead of every boundary and
#: subtree gathers ship small bin codes instead of float64 columns.
SPLIT_MODES = ("exact", "hist")


class ColumnSampling(enum.Enum):
    """How the candidate attribute set ``C`` is drawn for each tree."""

    ALL = "all"  # |C| = |A| (single decision trees in the paper)
    SQRT = "sqrt"  # |C| = sqrt(|A|) (random forests in the paper)
    RATIO = "ratio"  # |C| = ratio * |A| (Table VIII(c,d) sweeps)


@dataclass(frozen=True)
class TreeConfig:
    """Hyperparameters of a single tree (or every tree of an ensemble job).

    The one place a tree's training is configured: it travels inside every
    task plan, so every backend trains what is written here, and nothing
    at the runtime or CLI level overrides it (CLI flags only fill it in).

    Parameters
    ----------
    max_depth:
        The paper's ``d_max``; ``None`` means unbounded (deep-forest CF
        stage trains with ``d_max = infinity``).
    tau_leaf:
        Stop splitting when ``|D_x| <= tau_leaf`` (default 1, as in the
        paper's experiments).
    criterion:
        Impurity function; ``None`` selects the paper default (Gini for
        classification, variance for regression).
    column_sampling / column_ratio:
        Strategy for drawing the candidate set ``C`` per tree.
    tree_kind:
        Exact decision tree or completely-random extra-tree.
    min_impurity_decrease:
        A node is split only if the weighted child impurity improves on the
        parent impurity by more than this (exact trees only; extra-trees
        always split when a valid random split exists).
    seed:
        Seed for all per-tree randomness (column sampling, extra-tree
        thresholds).  Per-node randomness is derived from ``(seed, node
        path)`` so serial and distributed training draw identical values.
    split_mode:
        ``"exact"`` (default — the paper's exact per-boundary scan) or
        ``"hist"`` (equi-depth histogram prefix cuts over at most
        ``max_bins`` buckets, thresholds computed once per column over
        the full table at training start).  Applies to numeric columns
        of decision trees; categorical splits and extra-trees draws stay
        exact in either mode.  On columns with at most ``max_bins``
        distinct values, hist mode reproduces the exact tree
        bit-identically (see docs/RUNTIME.md, "Split modes").
    max_bins:
        Maximum histogram bucket count per numeric column in hist mode
        (MLlib's ``maxBins``; default 32, must be >= 2).  Ignored in
        exact mode.
    """

    max_depth: int | None = 10
    tau_leaf: int = 1
    criterion: Impurity | None = None
    column_sampling: ColumnSampling = ColumnSampling.ALL
    column_ratio: float = 1.0
    tree_kind: TreeKind = TreeKind.DECISION
    min_impurity_decrease: float = 1e-12
    seed: int = 0
    split_mode: str = "exact"
    max_bins: int = 32

    def __post_init__(self) -> None:
        if self.split_mode not in SPLIT_MODES:
            raise ValueError(
                f"unknown split_mode {self.split_mode!r}; expected one of "
                f"{SPLIT_MODES}"
            )
        if self.max_bins < 2:
            raise ValueError(
                f"max_bins must be >= 2, got {self.max_bins!r}"
            )

    def resolved_criterion(self, is_classification: bool) -> Impurity:
        """The criterion to use, applying the paper's defaults.

        A configured criterion that does not fit the problem kind (Gini
        or entropy on a regression table, variance on a classification
        one) raises ``ValueError``.
        """
        if self.criterion is None:
            return Impurity.GINI if is_classification else Impurity.VARIANCE
        if self.criterion.is_classification != is_classification:
            kind = "classification" if is_classification else "regression"
            raise ValueError(
                f"criterion {self.criterion.value!r} does not fit a {kind} "
                f"problem (criterion=None picks the {kind} default)"
            )
        return self.criterion

    def n_candidate_columns(self, n_columns: int) -> int:
        """Size of ``C`` under the configured sampling strategy."""
        if self.column_sampling is ColumnSampling.ALL:
            return n_columns
        if self.column_sampling is ColumnSampling.SQRT:
            return max(1, int(round(math.sqrt(n_columns))))
        return max(1, int(round(self.column_ratio * n_columns)))

    def with_seed(self, seed: int) -> "TreeConfig":
        """Copy of this config with a different seed (per-tree in forests)."""
        return replace(self, seed=seed)


@dataclass(frozen=True)
class SystemConfig:
    """TreeServer deployment parameters (Section III defaults).

    ``tau_subtree`` is the paper's ``tau_D`` (renamed to avoid clashing with
    the data table ``D``): nodes with ``|D_x| <= tau_subtree`` become
    CPU-bound subtree-tasks.  Nodes with ``|D_x| <= tau_dfs`` are inserted at
    the *head* of the plan deque (depth-first); larger nodes are appended at
    the tail (breadth-first).
    """

    n_workers: int = 15
    compers_per_worker: int = 10
    tau_subtree: int = 10_000
    tau_dfs: int = 80_000
    n_pool: int = 200
    column_replication: int = 2  # the paper's k
    #: B_plan insertion policy: "hybrid" (the paper's head/tail rule),
    #: "fifo" (pure breadth-first) or "lifo" (pure depth-first).  The
    #: alternatives exist for the scheduling ablation benchmark.
    scheduling_policy: str = "hybrid"
    # Simulated hardware (see repro.cluster.CostModel for semantics).
    core_ops_per_second: float = 25e6
    bandwidth_bytes_per_second: float = 125e6  # 1 GigE
    network_latency_seconds: float = 5e-4

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("need at least one worker")
        if self.compers_per_worker < 1:
            raise ValueError("need at least one comper per worker")
        if self.tau_dfs < self.tau_subtree:
            raise ValueError("tau_dfs must be >= tau_subtree (paper Fig. 4)")
        if self.column_replication < 1:
            raise ValueError("column replication k must be >= 1")
        if self.n_pool < 1:
            raise ValueError("n_pool must be >= 1")
        if self.scheduling_policy not in ("hybrid", "fifo", "lifo"):
            raise ValueError(
                f"unknown scheduling policy {self.scheduling_policy!r}"
            )

    #: Reference dataset size the paper tuned its thresholds against
    #: (tau_D = 10k and tau_dfs = 80k on multi-million-row tables; the
    #: operative ratios are roughly |D| / tau_D ~ 500 and tau_dfs / tau_D = 8).
    PAPER_REFERENCE_ROWS = 5_000_000

    def scaled_to(self, n_rows: int) -> "SystemConfig":
        """Derive thresholds proportional to a (smaller) dataset size.

        Keeps ``tau_dfs / tau_subtree = 8`` and ``n_rows / tau_subtree ~ 500``
        as in the paper's default setting, with floors so tiny test datasets
        still exercise both task types.
        """
        scale = n_rows / self.PAPER_REFERENCE_ROWS
        tau_subtree = max(32, int(round(self.tau_subtree * scale)))
        tau_dfs = max(tau_subtree, int(round(self.tau_dfs * scale)))
        return replace(self, tau_subtree=tau_subtree, tau_dfs=tau_dfs)
