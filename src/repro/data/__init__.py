"""Tabular data substrate: typed column-major tables, schemas and CSV IO."""

from .io import read_csv, table_to_csv_text, write_csv
from .preprocess import cleanse, drop_sparse_columns, fill_missing, join_tables
from .schema import (
    ColumnKind,
    ColumnSpec,
    ProblemKind,
    SchemaBuilder,
    TableSchema,
)
from .shm import (
    AttachedPack,
    PackedArraySpec,
    SharedArrayPack,
    SharedTableHandle,
    ShmArena,
    ShmSlice,
)
from .table import MISSING_CODE, DataTable

__all__ = [
    "AttachedPack",
    "ColumnKind",
    "ColumnSpec",
    "DataTable",
    "MISSING_CODE",
    "PackedArraySpec",
    "ProblemKind",
    "SchemaBuilder",
    "SharedArrayPack",
    "SharedTableHandle",
    "ShmArena",
    "ShmSlice",
    "cleanse",
    "drop_sparse_columns",
    "fill_missing",
    "join_tables",
    "TableSchema",
    "read_csv",
    "table_to_csv_text",
    "write_csv",
]
