"""Inference serving: flat-array tree kernels, registry, server, fleet.

Training-side modules keep the paper's node-centric ``TreeNode`` objects —
they are what the master grafts subtree-task results onto.  Serving has the
opposite access pattern: millions of rows descend a *frozen* tree, so this
package compiles trained models into contiguous structure-of-arrays form
(the layout step that "Breadth-first, Depth-next" and the GPU-boosting line
of work identify as the key to hardware-speed traversal) and serves them:

* :mod:`compiler` — flatten ``DecisionTree`` / ``ForestModel`` / cascade
  forests into :class:`FlatTree` / :class:`FlatForest` /
  :class:`CompiledCascade` arrays, exact parity with node-based descent;
  opt-in ``quantize=True`` compacts arrays to float32/int16 within the
  :data:`~repro.serving.compiler.QUANTIZE_ATOL` tolerance;
* :mod:`batch` — one level-synchronous kernel descending all rows through
  all trees of a forest together (``predict`` / ``predict_proba`` /
  truncated-depth prediction);
* :mod:`registry` — content-hash keyed, thread-safe cache of compiled
  models, so repeated prediction jobs stop reloading and recompiling;
* :mod:`server` — an in-process micro-batching :class:`PredictionServer`
  with a bounded queue and latency/throughput counters;
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

from .admission import (
    AdmissionController,
    QuotaConfig,
    ThrottledError,
    TokenBucket,
)

from .batch import BatchPredictor
from .compiler import (
    QUANTIZE_ATOL,
    QUANTIZE_MIN_AGREEMENT,
    CompiledCascade,
    FlatForest,
    FlatTree,
    compile_cascade,
    compile_forest,
    compile_tree,
)
from .fleet import (
    FleetClosedError,
    FleetError,
    FleetWorkerError,
    ServingFleet,
)
from .gateway import (
    Gateway,
    GatewayConfig,
    GatewayStats,
    GatewayThread,
)
from .registry import (
    ModelRegistry,
    RegistryEntry,
    default_registry,
    load_compiled_hdfs,
    load_compiled_local,
    quantized_key,
)
from .server import (
    PredictionServer,
    ServerConfig,
    ServingReport,
    ServingStats,
)
from .shm_model import AttachedModel, SharedCompiledModel, flat_fingerprint

__all__ = [
    "AdmissionController",
    "AttachedModel",
    "BatchPredictor",
    "CompiledCascade",
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
    "compile_cascade",
    "compile_forest",
    "compile_tree",
    "default_registry",
    "flat_fingerprint",
    "load_compiled_hdfs",
    "load_compiled_local",
    "quantized_key",
]
