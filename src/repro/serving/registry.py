"""Model registry: a content-addressed cache of compiled models.

The paper's batch-prediction job has every worker "load all the forests
from HDFS" (Section VII) — and before this subsystem existed, this
reproduction re-did that load (and would have re-done the flattening) on
*every* ``predict`` call.  The registry fixes both: compiled models are
cached under a SHA-256 **content hash of the persisted form** (see
``core/persistence.py``), so

* a model published twice under different names or paths still hits the
  same cache line;
* the simulated DFS byte/connection costs of a model load are charged only
  the first time a worker pool sees that content (``core/predictor.py``);
* ``repro predict`` / ``repro serve`` and the distributed predictor score
  a stored model without reloading or recompiling it per call.

Eviction is LRU under two independent bounds: a compiled-**byte** budget
(``max_bytes`` — the bound that matters operationally, since entries can
differ by orders of magnitude in size) and an optional entry-count cap
(``capacity``).  The most recent entry is never evicted, so one oversized
model still serves (and is simply not retained alongside anything else).
Serving deployments pin a handful of hot models; a cold model is one
reload away.

The registry is **thread-safe**: the serving fleet's parent process hits
it from the caller thread (hot swaps), the dispatcher thread (compile on
first submit) and the collector thread (stats), so every lookup/insert/
eviction runs under one re-entrant lock.  ``get_or_compile`` holds the
lock across its whole read-compile-insert sequence — compilation is
serialized on purpose, because two racing threads compiling the same
content hash would both pay the flattening cost and one result would be
thrown away.  Registries are per-process; fleet workers never share one
(they attach compiled images by shm name instead).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from ..core.flat import (
    BatchPredictor,
    FlatForest,
    compile_forest,
    compiled_predictor,
)
from ..core.persistence import (
    fingerprint_trees,
    load_model_hdfs,
    load_model_local,
    model_fingerprint_hdfs,
    model_fingerprint_local,
)
from ..core.tree import DecisionTree
from ..ensemble.forest import ForestModel
from ..hdfs.filesystem import SimHdfs

#: Default number of compiled models an in-process registry pins.
DEFAULT_CAPACITY = 8


@dataclass
class RegistryEntry:
    """One cached model: source trees plus their compiled form.

    On the exact line ``predictor`` is the model's own
    (:func:`~repro.core.flat.compiled_predictor`), so a model predicted
    directly and through the registry is compiled once.
    """

    key: str
    model: ForestModel | DecisionTree
    predictor: BatchPredictor

    @property
    def compiled(self) -> FlatForest:
        """The compiled arrays behind :attr:`predictor`."""
        return self.predictor.forest

    @property
    def n_trees(self) -> int:
        """Ensemble size of the cached model."""
        return self.compiled.n_trees

    @property
    def quantized(self) -> bool:
        """Whether the compiled form uses compact quantized arrays."""
        return self.compiled.quantized

    def nbytes(self) -> int:
        """Bytes held by the compiled arrays (cache accounting)."""
        return self.compiled.nbytes()


@dataclass
class RegistryStats:
    """Hit/miss counters surfaced in serving reports."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    compiled_nodes: int = 0
    #: Compiled bytes of evicted entries (byte-budget pressure indicator).
    bytes_evicted: int = 0
    #: High-water mark of resident compiled bytes.
    peak_bytes: int = 0


#: Cache-key suffix separating a model's quantized compiled form from its
#: exact one — same source trees, different arrays, so they must never
#: share a cache line.
QUANTIZED_KEY_SUFFIX = "+q32"


def quantized_key(key: str, quantize: bool) -> str:
    """The registry key of ``key``'s exact or quantized compiled form."""
    return key + QUANTIZED_KEY_SUFFIX if quantize else key


class ModelRegistry:
    """LRU cache of compiled models keyed by persisted-form content hash.

    ``max_bytes`` bounds the total compiled bytes resident (the accounting
    unit that tracks real memory); ``capacity`` optionally also bounds the
    entry count (``None`` disables it).  Either bound evicts least
    recently used first, but never the entry just inserted.

    All operations are safe to call from multiple threads (one re-entrant
    lock; see the module docstring for why compilation stays inside it).
    """

    def __init__(
        self,
        capacity: int | None = DEFAULT_CAPACITY,
        max_bytes: int | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("registry capacity must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("registry max_bytes must be >= 1")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.stats = RegistryStats()
        self._entries: "OrderedDict[str, RegistryEntry]" = OrderedDict()
        self._total_bytes = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[str]:
        """Cached fingerprints, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def total_bytes(self) -> int:
        """Compiled bytes currently resident across all entries."""
        with self._lock:
            return self._total_bytes

    def clear(self) -> None:
        """Drop every cached model (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._total_bytes = 0

    # ------------------------------------------------------------------
    def get(self, key: str) -> RegistryEntry | None:
        """Cache lookup; refreshes LRU position and counts hit/miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(
        self,
        key: str,
        model: ForestModel | DecisionTree,
        quantize: bool = False,
    ) -> RegistryEntry:
        """Compile and cache a model under ``key``, evicting LRU overflow.

        The whole compile-insert-evict sequence runs under the registry
        lock: hit/miss counters, ``_total_bytes`` and the LRU order stay
        mutually consistent no matter how many threads race, and two
        threads can never both compile the same key (the second blocks,
        then replaces — same arrays, no corruption).
        """
        with self._lock:
            predictor = (
                BatchPredictor(compile_forest(model, quantize=True))
                if quantize
                else compiled_predictor(model)
            )
            entry = RegistryEntry(key=key, model=model, predictor=predictor)
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._total_bytes -= previous.nbytes()
            self._entries[key] = entry
            self._total_bytes += entry.nbytes()
            self.stats.compiled_nodes += entry.compiled.total_nodes()
            self.stats.peak_bytes = max(
                self.stats.peak_bytes, self._total_bytes
            )
            while len(self._entries) > 1 and self._over_budget():
                _, evicted = self._entries.popitem(last=False)
                self._total_bytes -= evicted.nbytes()
                self.stats.evictions += 1
                self.stats.bytes_evicted += evicted.nbytes()
            return entry

    def _over_budget(self) -> bool:
        """Whether either retention bound is currently exceeded."""
        if self.capacity is not None and len(self._entries) > self.capacity:
            return True
        return (
            self.max_bytes is not None and self._total_bytes > self.max_bytes
        )

    def get_or_compile(
        self,
        model: ForestModel | DecisionTree,
        key: str | None = None,
        quantize: bool = False,
    ) -> tuple[RegistryEntry, bool]:
        """Return the cached entry for an in-memory model, compiling once.

        The key defaults to the model's persisted-form fingerprint, so the
        same trees arriving as objects, local files or DFS files all share
        one cache line; ``quantize=True`` selects the separate quantized
        line (:func:`quantized_key`).  Returns ``(entry, was_cache_hit)``.
        Atomic under the registry lock — concurrent callers with the same
        content get the same entry and exactly one compilation happens.
        """
        if key is None:
            key = fingerprint_trees(getattr(model, "trees", [model]))
        key = quantized_key(key, quantize)
        with self._lock:
            entry = self.get(key)
            if entry is not None:
                return entry, True
            return self.put(key, model, quantize=quantize), False


#: Process-wide registry used when callers don't bring their own.
_DEFAULT = ModelRegistry()


def default_registry() -> ModelRegistry:
    """The process-wide default registry instance."""
    return _DEFAULT


# ----------------------------------------------------------------------
# cached loaders over the two persisted forms
# ----------------------------------------------------------------------
def load_compiled_local(
    directory: str | Path, registry: ModelRegistry | None = None
) -> tuple[RegistryEntry, bool]:
    """Load + compile a locally saved model through the registry.

    Hashes the stored bytes first; on a hit the JSON is never parsed and
    nothing is recompiled.  Returns ``(entry, was_cache_hit)``.
    """
    registry = default_registry() if registry is None else registry
    key = model_fingerprint_local(directory)
    entry = registry.get(key)
    if entry is not None:
        return entry, True
    return registry.put(key, load_model_local(directory)), False


def load_compiled_hdfs(
    fs: SimHdfs, base_path: str, registry: ModelRegistry | None = None
) -> tuple[RegistryEntry, bool]:
    """Load + compile a DFS-saved model through the registry."""
    registry = default_registry() if registry is None else registry
    key = model_fingerprint_hdfs(fs, base_path)
    entry = registry.get(key)
    if entry is not None:
        return entry, True
    return registry.put(key, load_model_hdfs(fs, base_path)), False
