"""Column-major in-memory data table.

The :class:`DataTable` is the substrate every trainer in this repository
consumes.  It is deliberately column-major — a plain list of NumPy arrays,
one per attribute — because TreeServer's central design decision is to
partition data *by columns* so a single machine can hold an entire attribute
and compute its exact best split without communication (paper Section I/III).

Missing values follow the schema conventions: ``NaN`` in numeric columns and
code ``-1`` in categorical columns.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .schema import ColumnKind, ColumnSpec, ProblemKind, TableSchema

#: Sentinel code for a missing categorical value.
MISSING_CODE: int = -1


@dataclass
class DataTable:
    """A typed, column-major table of ``n`` rows.

    Attributes
    ----------
    schema:
        Column and target descriptions.
    columns:
        One array per feature column: ``float64`` for numeric columns,
        ``int32`` codes for categorical columns.
    target:
        The ``Y`` column: ``float64`` for regression, ``int32`` class codes
        for classification.
    """

    schema: TableSchema
    columns: list[np.ndarray]
    target: np.ndarray

    def __post_init__(self) -> None:
        if len(self.columns) != self.schema.n_columns:
            raise ValueError(
                f"schema declares {self.schema.n_columns} columns, "
                f"got {len(self.columns)} arrays"
            )
        n = len(self.target)
        for spec, arr in zip(self.schema.columns, self.columns):
            if len(arr) != n:
                raise ValueError(f"column {spec.name!r} length {len(arr)} != {n}")
        self.columns = [
            self._coerce(spec, arr)
            for spec, arr in zip(self.schema.columns, self.columns)
        ]
        self.target = self._coerce(self.schema.target, self.target)

    @staticmethod
    def _coerce(spec: ColumnSpec, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        if spec.kind is ColumnKind.NUMERIC:
            return np.ascontiguousarray(arr, dtype=np.float64)
        codes = np.ascontiguousarray(arr, dtype=np.int32)
        if spec.n_categories and codes.size:
            hi = int(codes.max())
            if hi >= spec.n_categories:
                raise ValueError(
                    f"column {spec.name!r} has code {hi} but only "
                    f"{spec.n_categories} categories"
                )
            if int(codes.min()) < MISSING_CODE:
                raise ValueError(f"column {spec.name!r} has code below -1")
        return codes

    # ------------------------------------------------------------------
    # basic shape accessors
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of rows ``n``."""
        return len(self.target)

    @property
    def n_columns(self) -> int:
        """Number of feature columns."""
        return len(self.columns)

    @property
    def problem(self) -> ProblemKind:
        """Shortcut to the schema's problem kind."""
        return self.schema.problem

    @property
    def n_classes(self) -> int:
        """Number of target classes (0 for regression)."""
        return self.schema.n_classes

    def column(self, index: int) -> np.ndarray:
        """Return the full array of feature column ``index``."""
        return self.columns[index]

    def column_spec(self, index: int) -> ColumnSpec:
        """Return the spec of feature column ``index``."""
        return self.schema.columns[index]

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def take(self, row_ids: np.ndarray | Sequence[int]) -> "DataTable":
        """Materialize the sub-table ``D_x`` for a row-id set ``I_x``.

        This is what a subtree-task's key worker does after pulling the
        requested rows of every candidate column (paper Fig. 3(b)).
        """
        idx = np.asarray(row_ids, dtype=np.int64)
        return DataTable(
            schema=self.schema,
            columns=[c[idx] for c in self.columns],
            target=self.target[idx],
        )

    def row(self, i: int) -> list[float | int]:
        """Return row ``i`` as a list of raw feature values (for prediction)."""
        return [c[i] for c in self.columns]

    def rows(self) -> Iterable[list[float | int]]:
        """Iterate over rows as value lists."""
        for i in range(self.n_rows):
            yield self.row(i)

    def select_columns(self, indices: Sequence[int]) -> "DataTable":
        """Return a table restricted to the given feature columns.

        Used when a tree is trained on a sampled attribute subset ``C``.
        """
        specs = tuple(self.schema.columns[i] for i in indices)
        schema = TableSchema(specs, self.schema.target, self.schema.problem)
        return DataTable(schema, [self.columns[i] for i in indices], self.target)

    def split_train_test(
        self, test_fraction: float, seed: int = 0
    ) -> tuple["DataTable", "DataTable"]:
        """Deterministically shuffle and split into train/test tables."""
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.n_rows)
        n_test = max(1, int(round(self.n_rows * test_fraction)))
        test_ids, train_ids = perm[:n_test], perm[n_test:]
        return self.take(train_ids), self.take(test_ids)

    # ------------------------------------------------------------------
    # bookkeeping used by the simulated cluster's memory accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Total payload bytes across all columns plus the target."""
        return int(sum(c.nbytes for c in self.columns) + self.target.nbytes)

    def missing_mask(self, index: int) -> np.ndarray:
        """Boolean mask of missing entries in feature column ``index``."""
        spec = self.schema.columns[index]
        col = self.columns[index]
        if spec.kind is ColumnKind.NUMERIC:
            return np.isnan(col)
        return col == MISSING_CODE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataTable(rows={self.n_rows}, cols={self.n_columns}, "
            f"problem={self.problem.value})"
        )


def table_fingerprint(table: DataTable) -> str:
    """Content hash of a table: schema shape plus every payload byte.

    The socket backend's rendezvous handshake compares this hash between
    the master and each dialing worker — exact distributed training is
    only meaningful when every machine holds byte-identical data, and a
    mismatched CSV or encoding difference should fail loudly at join
    time, not as a silently different model.  Hashes cover dtype and
    schema metadata as well as raw bytes, so e.g. the same values as
    ``float32`` vs ``float64`` fingerprint differently.
    """
    h = hashlib.sha256()
    h.update(f"{table.problem.value}|{table.n_classes}|".encode())
    for spec, arr in zip(table.schema.columns, table.columns):
        h.update(
            f"{spec.name}|{spec.kind.value}|{spec.n_categories}|"
            f"{arr.dtype.str}|".encode()
        )
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(f"target|{table.target.dtype.str}|".encode())
    h.update(np.ascontiguousarray(table.target).tobytes())
    return h.hexdigest()
