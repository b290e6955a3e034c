"""Compiled models as shared-memory images: map a model, never copy it.

The serving fleet's whole bet — the compact-layout argument of the
GPU-boosting line of work, and the Block-distributed GBT rule of keeping
the big arrays stationary — is that a compiled :class:`FlatForest` is
just a bag of immutable NumPy arrays, so N worker processes should *map*
one copy instead of each unpickling their own.  This module is that
seam:

* :func:`flat_fingerprint` — content hash of a compiled forest's arrays,
  used when a caller publishes an already-compiled model (node-based
  models hash via their persisted form in ``core/persistence.py``);
* :class:`SharedCompiledModel` — a picklable handle describing one
  compiled forest living in a single shared-memory segment
  (:class:`~repro.data.shm.SharedArrayPack`).  The publisher creates it
  once; every fleet worker :meth:`~SharedCompiledModel.attach`\\ es and
  gets a read-only zero-copy :class:`FlatForest` plus a ready
  :class:`~repro.core.flat.BatchPredictor`.

Lifecycle matches the rest of the shm layer: the creator (the fleet
parent) owns the segment and is the only side that ``unlink``\\ s;
workers only ``close`` their attachments.  On Linux an unlink while a
worker is still mapped is safe — the mapping stays valid until the
worker detaches — so hot swaps never wait on stragglers.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.flat import TREE_ARRAYS, BatchPredictor, FlatForest, unstack_trees
from ..data.schema import ProblemKind
from ..data.shm import AttachedPack, SharedArrayPack, new_run_prefix


def flat_fingerprint(flat: FlatForest) -> str:
    """SHA-256 content hash of a compiled forest's arrays and metadata.

    Covers every array's dtype, shape and bytes plus the forest-level
    metadata, so the exact and quantized compilations of the same trees
    hash differently (their arrays differ), matching the registry's
    separate cache lines.
    """
    digest = hashlib.sha256()
    digest.update(
        f"{flat.problem.value}|{flat.n_classes}|{flat.n_trees}".encode()
    )
    for tree in flat.trees:
        digest.update(f"|{tree.tree_id}|{int(tree.quantized)}".encode())
        for attr in TREE_ARRAYS:
            array = getattr(tree, attr)
            digest.update(f"|{attr}:{array.dtype}:{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class AttachedModel:
    """One worker's read-only view of a published compiled model.

    ``forest`` aliases the shared segment (zero copies); ``predictor``
    is the vectorized kernel over it, adding only index-sized private
    arrays.  ``nbytes`` is the mapped payload — the number the fleet's
    ``shm_bytes_mapped`` counter reports, and the number that proves
    nothing was copied.
    """

    def __init__(
        self,
        key: str,
        forest: FlatForest,
        attachment: AttachedPack,
    ) -> None:
        self.key = key
        self.forest = forest
        self.predictor = BatchPredictor(forest)
        self.nbytes = attachment.nbytes
        self._attachment = attachment

    def close(self) -> None:
        """Unmap the shared segment (idempotent); the views die with it."""
        self._attachment.close()


class SharedCompiledModel:
    """A picklable description of a compiled model living in shm.

    Create once in the publisher (:meth:`create` packs the forest's
    stacked arrays into one named segment), ship the handle to workers by value
    (a few hundred bytes regardless of model size), :meth:`attach`
    there.  The creator — and only the creator — calls :meth:`unlink`
    when the model is retired.
    """

    def __init__(
        self,
        key: str,
        pack: SharedArrayPack,
        problem: ProblemKind,
        n_classes: int,
        tree_ids: list[int],
        node_counts: list[int],
        cat_counts: list[int],
        quantized: bool,
    ) -> None:
        self.key = key
        self.pack = pack
        self.problem = problem
        self.n_classes = n_classes
        self.tree_ids = tree_ids
        self.node_counts = node_counts
        self.cat_counts = cat_counts
        self.quantized = quantized

    # -- lifecycle ------------------------------------------------------
    @classmethod
    def create(
        cls, flat: FlatForest, key: str, prefix: str | None = None
    ) -> "SharedCompiledModel":
        """Publish ``flat`` as one shared-memory segment.

        ``key`` is the model's content hash (registry key); ``prefix``
        defaults to a fresh collision-safe segment name under the
        repo-wide shm prefix, so leak checks and crash sweeps see fleet
        models exactly like every other segment.
        """
        segment_name = f"{prefix or new_run_prefix()}-model"
        pack = SharedArrayPack.create(
            [(attr, flat.stacked[attr]) for attr in TREE_ARRAYS], segment_name
        )
        return cls(
            key=key,
            pack=pack,
            problem=flat.problem,
            n_classes=flat.n_classes,
            tree_ids=[tree.tree_id for tree in flat.trees],
            node_counts=flat.node_counts,
            cat_counts=flat.cat_counts,
            quantized=flat.quantized,
        )

    def attach(self) -> AttachedModel:
        """Map the segment and rebuild the forest as read-only views."""
        attachment = self.pack.attach()
        try:
            trees = unstack_trees(
                attachment.arrays,
                self.node_counts,
                self.cat_counts,
                self.tree_ids,
                self.problem,
                self.n_classes,
                self.quantized,
            )
            forest = FlatForest(
                trees=trees,
                problem=self.problem,
                n_classes=self.n_classes,
                stacked=attachment.arrays,
            )
        except BaseException:
            attachment.close()
            raise
        return AttachedModel(self.key, forest, attachment)

    def unlink(self) -> None:
        """Destroy the segment (creator only; idempotent)."""
        self.pack.unlink()

    # -- introspection --------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Payload bytes of the packed model image."""
        return self.pack.nbytes

    @property
    def n_trees(self) -> int:
        """Ensemble size of the published model."""
        return len(self.tree_ids)

    def segment_names(self) -> list[str]:
        """The (single) segment name this handle describes."""
        return [self.pack.segment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedCompiledModel(key={self.key[:12]}..., "
            f"trees={self.n_trees}, nbytes={self.nbytes}, "
            f"quantized={self.quantized})"
        )
