"""Inference serving: registry, server, fleet, gateway.

Training-side modules keep the paper's node-centric ``TreeNode`` objects —
they are what the master grafts subtree-task results onto.  Every model
predicts through one flat-array kernel, :mod:`repro.core.flat`
(:class:`FlatTree` / :class:`FlatForest` / :class:`BatchPredictor`; the
layout step that "Breadth-first, Depth-next" and the GPU-boosting line of
work identify as the key to hardware-speed traversal; opt-in
``quantize=True`` compacts arrays to float32/int16 within
:data:`QUANTIZE_ATOL`).  This package serves that kernel:

* :mod:`registry` — content-hash keyed, thread-safe cache of compiled
  models, so repeated prediction jobs stop reloading and recompiling;
* :mod:`server` — an in-process micro-batching :class:`PredictionServer`
  with a bounded queue;
* :mod:`stats` — each layer's counter record and the one reduction,
  :func:`serving_report`, that turns them into a :class:`ServingReport`;
* :mod:`shm_model` — compiled models as shared-memory images
  (:class:`SharedCompiledModel`): publish once, map everywhere;
* :mod:`fleet` — :class:`ServingFleet`, N OS worker processes serving
  contiguous shards of every micro-batch from the shared image, with hot
  model swap, respawn-on-death and hedged re-dispatch of straggling shards
  (``PredictionServer(n_workers=N)``);
* :mod:`admission` — per-client token-bucket quotas with a bounded async
  waiting room (backpressure before rejection);
* :mod:`gateway` — the asyncio HTTP/JSON :class:`Gateway` over one
  server: admission control, hot swap/rollback endpoints
  (``repro serve --http``).
"""

from ..core.flat import (
    QUANTIZE_ATOL,
    QUANTIZE_MIN_AGREEMENT,
    BatchPredictor,
    FlatForest,
    FlatTree,
    compile_forest,
    compile_tree,
)
from .admission import (
    AdmissionController,
    QuotaConfig,
    ThrottledError,
    TokenBucket,
)
from .fleet import (
    FleetClosedError,
    FleetError,
    FleetWorkerError,
    ServingFleet,
)
from .gateway import Gateway, GatewayConfig, GatewayThread
from .registry import (
    ModelRegistry,
    RegistryEntry,
    default_registry,
    load_compiled_hdfs,
    load_compiled_local,
    quantized_key,
)
from .server import PredictionServer, ServerConfig
from .shm_model import AttachedModel, SharedCompiledModel, flat_fingerprint
from .stats import GatewayStats, ServingReport, ServingStats, serving_report

__all__ = [
    "AdmissionController",
    "AttachedModel",
    "BatchPredictor",
    "FlatForest",
    "FlatTree",
    "FleetClosedError",
    "FleetError",
    "FleetWorkerError",
    "Gateway",
    "GatewayConfig",
    "GatewayStats",
    "GatewayThread",
    "ModelRegistry",
    "PredictionServer",
    "QuotaConfig",
    "ThrottledError",
    "TokenBucket",
    "QUANTIZE_ATOL",
    "QUANTIZE_MIN_AGREEMENT",
    "RegistryEntry",
    "ServerConfig",
    "ServingFleet",
    "ServingReport",
    "ServingStats",
    "SharedCompiledModel",
    "compile_forest",
    "compile_tree",
    "default_registry",
    "flat_fingerprint",
    "load_compiled_hdfs",
    "load_compiled_local",
    "quantized_key",
    "serving_report",
]
