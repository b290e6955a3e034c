"""Column and table schemas for the tabular data substrate.

TreeServer is data-type transparent: the system infers, for every column,
whether it is *numeric* (ordinal, split with ``A_i <= v``) or *categorical*
(split with ``A_i in S_l``), and dispatches the matching exact split-search
algorithm (paper Appendix B).  The schema layer records that decision once so
every component — the serial builder, the distributed engine, the baselines
and the simulated HDFS layout — agrees on how each column is encoded.

Encodings used throughout the repository:

* numeric columns are ``float64`` arrays; ``NaN`` marks a missing value;
* categorical columns are ``int32`` code arrays indexing a category list;
  code ``-1`` marks a missing value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence


class ColumnKind(enum.Enum):
    """How a column's values are interpreted when searching for splits."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


class ProblemKind(enum.Enum):
    """The learning problem the target column defines."""

    CLASSIFICATION = "classification"
    REGRESSION = "regression"


@dataclass(frozen=True)
class ColumnSpec:
    """Static description of one column.

    Parameters
    ----------
    name:
        Human readable column name (``A1`` ... in the paper's notation).
    kind:
        Whether the column is numeric or categorical.
    categories:
        For categorical columns, the ordered list of category labels; the
        integer code of a value is its position in this tuple.  Empty for
        numeric columns.
    """

    name: str
    kind: ColumnKind
    categories: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is ColumnKind.NUMERIC and self.categories:
            raise ValueError(f"numeric column {self.name!r} cannot list categories")

    @property
    def n_categories(self) -> int:
        """Number of distinct categories (0 for numeric columns)."""
        return len(self.categories)

    def code_of(self, label: str) -> int:
        """Return the integer code of a category label, or -1 if unseen."""
        try:
            return self.categories.index(label)
        except ValueError:
            return -1


@dataclass(frozen=True)
class TableSchema:
    """Schema of a full data table: feature columns plus one target column.

    The target column ``Y`` is carried separately from the feature columns
    because TreeServer replicates ``Y`` on every worker machine while feature
    columns are partitioned (paper Section III).
    """

    columns: tuple[ColumnSpec, ...]
    target: ColumnSpec
    problem: ProblemKind = ProblemKind.CLASSIFICATION

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns] + [self.target.name]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")
        if self.problem is ProblemKind.REGRESSION:
            if self.target.kind is not ColumnKind.NUMERIC:
                raise ValueError("regression target must be numeric")
        elif self.target.kind is not ColumnKind.CATEGORICAL:
            raise ValueError("classification target must be categorical")

    @property
    def n_columns(self) -> int:
        """Number of feature columns (the paper's ``m - 1``)."""
        return len(self.columns)

    @property
    def n_classes(self) -> int:
        """Number of target classes (0 for regression)."""
        if self.problem is ProblemKind.REGRESSION:
            return 0
        return self.target.n_categories

    def column_index(self, name: str) -> int:
        """Return the position of a feature column by name."""
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise KeyError(f"no feature column named {name!r}")

    def numeric_indices(self) -> list[int]:
        """Indices of all numeric feature columns."""
        return [i for i, c in enumerate(self.columns) if c.kind is ColumnKind.NUMERIC]

    def categorical_indices(self) -> list[int]:
        """Indices of all categorical feature columns."""
        return [
            i for i, c in enumerate(self.columns) if c.kind is ColumnKind.CATEGORICAL
        ]


@dataclass
class SchemaBuilder:
    """Incremental helper for constructing a :class:`TableSchema`.

    Used by the synthetic dataset generators and the CSV reader, both of
    which discover columns one at a time.
    """

    problem: ProblemKind = ProblemKind.CLASSIFICATION
    _columns: list[ColumnSpec] = field(default_factory=list)
    _target: ColumnSpec | None = None

    def add_numeric(self, name: str) -> "SchemaBuilder":
        """Append a numeric feature column."""
        self._columns.append(ColumnSpec(name, ColumnKind.NUMERIC))
        return self

    def add_categorical(self, name: str, categories: Sequence[str]) -> "SchemaBuilder":
        """Append a categorical feature column with the given category list."""
        self._columns.append(
            ColumnSpec(name, ColumnKind.CATEGORICAL, tuple(categories))
        )
        return self

    def set_target_classes(self, name: str, classes: Sequence[str]) -> "SchemaBuilder":
        """Declare a categorical (classification) target column."""
        self._target = ColumnSpec(name, ColumnKind.CATEGORICAL, tuple(classes))
        self.problem = ProblemKind.CLASSIFICATION
        return self

    def build(self) -> TableSchema:
        """Finalize and validate the schema."""
        if self._target is None:
            raise ValueError("schema has no target column")
        return TableSchema(tuple(self._columns), self._target, self.problem)
