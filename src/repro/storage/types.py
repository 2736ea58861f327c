"""Column data types and the in-memory column vector.

The engine is vectorized: every operator consumes and produces
:class:`ColumnVector` objects (a numpy array plus an optional null mask).
``DataType`` is the logical type system shared by the catalog, the SQL
binder, and the columnar file format.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class DataType(enum.Enum):
    """Logical column types supported by the reproduction.

    The set matches what the TPC-H-style workloads need; DECIMAL is carried
    as float64 (sufficient for the scheduling/pricing experiments, which do
    not depend on exact decimal arithmetic).
    """

    BOOLEAN = "boolean"
    INT = "int"
    BIGINT = "bigint"
    DOUBLE = "double"
    VARCHAR = "varchar"
    DATE = "date"  # days since 1970-01-01, stored as int32

    @property
    def numpy_dtype(self) -> np.dtype:
        """The physical numpy dtype backing this logical type."""
        return _NUMPY_DTYPES[self]

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT, DataType.BIGINT, DataType.DOUBLE)

    @property
    def is_orderable(self) -> bool:
        """Whether <, >, BETWEEN, MIN/MAX make sense for this type."""
        return self is not DataType.BOOLEAN

    @staticmethod
    def from_string(name: str) -> "DataType":
        """Parse a type name as written in SQL/DDL (case-insensitive)."""
        normalized = name.strip().lower()
        aliases = {
            "integer": "int",
            "long": "bigint",
            "float": "double",
            "real": "double",
            "decimal": "double",
            "string": "varchar",
            "text": "varchar",
            "char": "varchar",
            "bool": "boolean",
        }
        normalized = aliases.get(normalized, normalized)
        try:
            return DataType(normalized)
        except ValueError:
            raise ValueError(f"unknown data type: {name!r}") from None


_NUMPY_DTYPES: dict[DataType, np.dtype] = {
    DataType.BOOLEAN: np.dtype(np.bool_),
    DataType.INT: np.dtype(np.int32),
    DataType.BIGINT: np.dtype(np.int64),
    DataType.DOUBLE: np.dtype(np.float64),
    DataType.VARCHAR: np.dtype(object),
    DataType.DATE: np.dtype(np.int32),
}


@dataclass
class ColumnVector:
    """A typed column of values with an optional validity mask.

    Attributes:
        dtype: Logical type of the column.
        data: Backing numpy array (``object`` dtype for VARCHAR).
        nulls: Boolean array, True where the value is NULL; ``None`` means
            no nulls anywhere (the common fast path).
        codes: Dictionary codes carried from a DICT-encoded chunk, with
            ``dictionary[codes[i]] == data[i]`` for every row (NULL slots
            included).  ``take``/``filter``/``slice``/``concat_all`` carry
            them, so the engine can key rows by code without touching the
            strings; any vector built another way has none.
        dictionary: The distinct values ``codes`` index (``object`` array).
    """

    dtype: DataType
    data: np.ndarray
    nulls: np.ndarray | None = field(default=None)
    codes: np.ndarray | None = field(default=None, compare=False, repr=False)
    dictionary: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.nulls is not None and len(self.nulls) != len(self.data):
            raise ValueError("null mask length must match data length")

    def __len__(self) -> int:
        return len(self.data)

    @property
    def null_count(self) -> int:
        return 0 if self.nulls is None else int(self.nulls.sum())

    def has_nulls(self) -> bool:
        return self.nulls is not None and bool(self.nulls.any())

    @staticmethod
    def from_values(dtype: DataType, values: list) -> "ColumnVector":
        """Build a vector from a Python list; ``None`` entries become NULLs."""
        null_flags = np.array([value is None for value in values], dtype=bool)
        if dtype is DataType.VARCHAR:
            data = np.array(
                ["" if value is None else str(value) for value in values],
                dtype=object,
            )
        else:
            filler: object = False if dtype is DataType.BOOLEAN else 0
            data = np.array(
                [filler if value is None else value for value in values],
                dtype=dtype.numpy_dtype,
            )
        nulls = null_flags if null_flags.any() else None
        return ColumnVector(dtype, data, nulls)

    def to_values(self) -> list:
        """Convert back to a Python list with ``None`` for NULLs."""
        raw = self.data.tolist()
        if self.nulls is None:
            return raw
        return [None if null else value for value, null in zip(raw, self.nulls)]

    def _rows(self, selector) -> "ColumnVector":
        """The rows ``selector`` (indices, mask or slice) picks, codes too."""
        nulls = None if self.nulls is None else self.nulls[selector]
        codes = None if self.codes is None else self.codes[selector]
        return ColumnVector(
            self.dtype, self.data[selector], nulls, codes, self.dictionary
        )

    def take(self, indices: np.ndarray) -> "ColumnVector":
        """Gather rows by integer index (the join/sort building block)."""
        return self._rows(indices)

    def filter(self, mask: np.ndarray) -> "ColumnVector":
        """Keep rows where ``mask`` is True."""
        return self._rows(mask)

    def slice(self, start: int, stop: int) -> "ColumnVector":
        return self._rows(slice(start, stop))

    def concat(self, other: "ColumnVector") -> "ColumnVector":
        """Append ``other`` below this vector (dtypes must match)."""
        return ColumnVector.concat_all([self, other])

    @staticmethod
    def concat_all(vectors: "list[ColumnVector]") -> "ColumnVector":
        """Concatenate many vectors in one pass (dtypes must match).

        A single ``np.concatenate`` allocates the result once, so merging
        n pieces is O(total rows) — the pairwise ``concat`` loop it
        replaces re-copied every previously merged row and was O(n²).
        Dictionary codes survive when every piece has them: the pieces'
        dictionaries merge in first-appearance order.
        """
        if not vectors:
            raise ValueError("concat_all needs at least one vector")
        first = vectors[0]
        for vector in vectors[1:]:
            if vector.dtype is not first.dtype:
                raise ValueError(
                    f"dtype mismatch: {first.dtype} vs {vector.dtype}"
                )
        if len(vectors) == 1:
            return first
        data = np.concatenate([vector.data for vector in vectors])
        if all(vector.nulls is None for vector in vectors):
            nulls = None
        else:
            nulls = np.concatenate(
                [
                    vector.nulls
                    if vector.nulls is not None
                    else np.zeros(len(vector.data), dtype=bool)
                    for vector in vectors
                ]
            )
        if any(vector.codes is None for vector in vectors):
            return ColumnVector(first.dtype, data, nulls)
        return ColumnVector(first.dtype, data, nulls, *_merge_dictionaries(vectors))

    def nbytes(self) -> int:
        """Approximate in-memory size; VARCHAR counts UTF-8 payload."""
        if self.dtype is DataType.VARCHAR:
            payload = sum(len(str(value).encode("utf-8")) for value in self.data)
            return payload + 4 * len(self.data)  # offsets
        size = int(self.data.nbytes)
        if self.nulls is not None:
            size += int(self.nulls.nbytes)
        return size


def _merge_dictionaries(
    vectors: "list[ColumnVector]",
) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, dictionary)`` of dictionary-coded pieces stacked in order.

    Pieces sliced from one chunk share its dictionary object and need no
    remapping (the common case: a breaker re-assembling one row group's
    batches); otherwise each distinct dictionary is remapped once into the
    merged one — O(dictionary entries), never O(rows) string work.
    """
    first = vectors[0].dictionary
    if all(vector.dictionary is first for vector in vectors):
        return np.concatenate([vector.codes for vector in vectors]), first
    positions: dict = {}
    remaps: dict[int, np.ndarray] = {}
    parts = []
    for vector in vectors:
        remap = remaps.get(id(vector.dictionary))
        if remap is None:
            values = vector.dictionary.tolist()
            remap = np.fromiter(
                (positions.setdefault(value, len(positions)) for value in values),
                dtype=np.int32,
                count=len(values),
            )
            remaps[id(vector.dictionary)] = remap
        parts.append(remap[vector.codes])
    return np.concatenate(parts), np.array(list(positions), dtype=object)


def date_to_days(iso_date: str) -> int:
    """Convert 'YYYY-MM-DD' to days since the Unix epoch."""
    import datetime as _dt

    delta = _dt.date.fromisoformat(iso_date) - _dt.date(1970, 1, 1)
    return delta.days


def days_to_date(days: int) -> str:
    """Convert days since the Unix epoch back to 'YYYY-MM-DD'."""
    import datetime as _dt

    return (_dt.date(1970, 1, 1) + _dt.timedelta(days=int(days))).isoformat()
