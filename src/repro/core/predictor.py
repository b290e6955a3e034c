"""Distributed batch prediction — the paper's second row-parallel job.

After a deep-forest layer's forests are trained and saved to HDFS, "we let
every machine load all the forests from HDFS, and then conduct tree
traversal for its assigned portion of images" (Section VII).  This module
implements that job over the simulated substrate:

* every worker loads the model from the simulated DFS (connection + byte
  costs charged) — **once per content hash**: repeat jobs against a model
  the worker pool already holds hit the serving registry and skip the
  load entirely (``cache_hit`` in the report);
* rows are partitioned across workers' row-groups; each worker traverses
  every tree for its rows (real predictions, simulated compute time);
* results are gathered (byte cost to the collecting machine).

The returned predictions are exactly the model's predictions — computed for
real through the model's flat-array kernel (:mod:`repro.core.flat`, the one
the registry entry holds); the report carries the simulated per-phase
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.cost import CostModel
from ..data.table import DataTable
from ..ensemble.forest import ForestModel
from ..hdfs.filesystem import SimHdfs
from .config import SystemConfig
from .persistence import model_fingerprint_hdfs, save_model_hdfs


@dataclass
class PredictReport:
    """Simulated-time breakdown of one distributed prediction job."""

    predictions: np.ndarray
    sim_seconds: float
    model_load_seconds: float
    traversal_seconds: float
    gather_seconds: float
    model_bytes: int
    #: Whether the worker pool already held this model (registry hit) —
    #: when True no DFS bytes or connections were charged for the load.
    cache_hit: bool = False


def model_size_bytes(model: ForestModel, cost: CostModel) -> int:
    """Serialized model size under the cost model's per-node estimate."""
    return cost.control_bytes + cost.node_bytes * model.total_nodes()


def distributed_predict(
    model: ForestModel,
    table: DataTable,
    system: SystemConfig | None = None,
    cost: CostModel | None = None,
    charge_model_load: bool = True,
) -> PredictReport:
    """Predict a table on the simulated cluster (row-parallel).

    The real predictions come from the model's own flat kernel; the
    simulated time follows the paper's workflow: broadcast-style model
    load to every worker from the DFS (serialized at the DFS-side NIC,
    skipped when ``charge_model_load`` is False because the pool already
    holds the model), parallel traversal of each worker's row partition,
    then gathering the outputs.
    """
    system = system or SystemConfig()
    cost = cost or CostModel(
        ops_per_second=system.core_ops_per_second,
        bandwidth_bytes_per_second=system.bandwidth_bytes_per_second,
        latency_seconds=system.network_latency_seconds,
    )

    predictions = model.predict(table)

    # Simulated time.
    m_bytes = model_size_bytes(model, cost)
    if charge_model_load:
        # Every worker pulls the model; the DFS side serializes the sends.
        load = (
            system.n_workers * m_bytes / cost.bandwidth_bytes_per_second
            + system.n_workers * cost.hdfs_connection_seconds
        )
    else:
        load = 0.0
    total_traversal_ops = 0.0
    for tree in model.trees:
        total_traversal_ops += table.n_rows * max(1, tree.depth)
    cores = system.n_workers * system.compers_per_worker
    traversal = cost.compute_seconds(total_traversal_ops) / cores
    out_bytes = table.n_rows * cost.value_bytes
    gather = out_bytes / cost.bandwidth_bytes_per_second
    return PredictReport(
        predictions=predictions,
        sim_seconds=load + traversal + gather,
        model_load_seconds=load,
        traversal_seconds=traversal,
        gather_seconds=gather,
        model_bytes=m_bytes,
        cache_hit=not charge_model_load,
    )


def predict_from_hdfs(
    fs: SimHdfs,
    model_path: str,
    table: DataTable,
    system: SystemConfig | None = None,
    registry=None,
) -> PredictReport:
    """Run distributed prediction against a DFS-saved model.

    The model is resolved through the serving registry keyed by the
    content hash of its persisted files: the first job per content pays
    the full broadcast load (bytes + DFS connections) and compiles the
    flat-array kernel; repeat jobs reuse both, so only traversal and
    gather time are charged (``report.cache_hit``).
    """
    from ..serving.registry import default_registry

    registry = default_registry() if registry is None else registry
    key = model_fingerprint_hdfs(fs, model_path)
    entry = registry.get(key)
    cache_hit = entry is not None
    if entry is None:
        from .persistence import load_model_hdfs

        entry = registry.put(key, load_model_hdfs(fs, model_path))
    return distributed_predict(
        entry.model,
        table,
        system,
        charge_model_load=not cache_hit,
    )


def publish_and_predict(
    fs: SimHdfs,
    model_path: str,
    name: str,
    model: ForestModel,
    table: DataTable,
    system: SystemConfig | None = None,
    registry=None,
) -> PredictReport:
    """The full Section VII loop: save the trained forests to the DFS, then
    run the row-parallel prediction job against them."""
    save_model_hdfs(fs, model_path, name, model.trees)
    return predict_from_hdfs(fs, model_path, table, system, registry)
