"""Column-chunk encodings and statistics (the Pixels format's core).

A column chunk is the unit of storage: one column within one row group.
Chunks carry zone-map statistics (min/max/null-count) that the reader uses
to skip row groups whose value range cannot satisfy a predicate — the
mechanism that makes bytes-*scanned* (what the paper bills on) smaller than
bytes stored.

Three encodings are implemented, mirroring the Pixels format's essentials:

* ``PLAIN`` — raw little-endian values; VARCHAR as int32 offsets + UTF-8.
* ``RLE`` — run-length (run, value) pairs for integer-like columns.
* ``DICT`` — dictionary codes for low-cardinality VARCHAR columns; the
  decoded :class:`~repro.storage.types.ColumnVector` carries the codes and
  dictionary alongside the values.

Encoding selection is automatic per chunk (:func:`choose_encoding`) and is
recorded in the file footer so readers round-trip losslessly.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import CorruptFileError
from repro.storage.types import ColumnVector, DataType


class Encoding(enum.Enum):
    """Physical encodings a column chunk may use."""

    PLAIN = "plain"
    RLE = "rle"
    DICT = "dict"


@dataclass(frozen=True)
class ColumnChunkStats:
    """Zone-map statistics for one column chunk.

    ``min_value``/``max_value`` are None when every row is NULL or the type
    is not orderable; they are Python scalars (int/float/str) otherwise.
    """

    num_rows: int
    null_count: int
    min_value: object | None
    max_value: object | None

    def might_contain_range(self, low: object | None, high: object | None) -> bool:
        """Whether rows in [low, high] may exist in this chunk.

        ``None`` bounds are open.  A True result means "cannot rule out";
        False is a proof the chunk holds no matching row, so it may be
        skipped without reading it.
        """
        if self.min_value is None or self.max_value is None:
            return self.null_count < self.num_rows and low is None and high is None
        if low is not None and _less_than(self.max_value, low):
            return False
        if high is not None and _less_than(high, self.min_value):
            return False
        return True


def _less_than(a: object, b: object) -> bool:
    return a < b  # type: ignore[operator]


def compute_stats(vector: ColumnVector) -> ColumnChunkStats:
    """Compute zone-map statistics for ``vector``."""
    num_rows = len(vector)
    null_count = vector.null_count
    if num_rows == null_count or num_rows == 0:
        return ColumnChunkStats(num_rows, null_count, None, None)
    if vector.nulls is not None:
        valid = vector.data[~vector.nulls]
    else:
        valid = vector.data
    if vector.dtype is DataType.BOOLEAN:
        return ColumnChunkStats(num_rows, null_count, None, None)
    if vector.dtype is DataType.VARCHAR:
        as_str = [str(value) for value in valid]
        return ColumnChunkStats(num_rows, null_count, min(as_str), max(as_str))
    min_value = valid.min()
    max_value = valid.max()
    if vector.dtype is DataType.DOUBLE:
        return ColumnChunkStats(num_rows, null_count, float(min_value), float(max_value))
    return ColumnChunkStats(num_rows, null_count, int(min_value), int(max_value))


def choose_encoding(vector: ColumnVector) -> Encoding:
    """Pick the cheapest encoding for ``vector`` with simple heuristics.

    Integer-like columns whose average run length exceeds 4 use RLE;
    VARCHAR columns with < 50 % distinct values use DICT; everything else
    is PLAIN.  (The thresholds only affect size, never correctness — the
    round-trip property tests exercise all three paths explicitly.)
    """
    if len(vector) == 0:
        return Encoding.PLAIN
    if vector.dtype in (DataType.INT, DataType.BIGINT, DataType.DATE):
        data = vector.data
        if len(data) >= 8:
            changes = int(np.count_nonzero(np.diff(data))) + 1
            if len(data) / changes > 4.0:
                return Encoding.RLE
        return Encoding.PLAIN
    if vector.dtype is DataType.VARCHAR:
        distinct = len(set(vector.data.tolist()))
        if distinct <= max(1, len(vector) // 2):
            return Encoding.DICT
        return Encoding.PLAIN
    return Encoding.PLAIN


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def encode_chunk(vector: ColumnVector, encoding: Encoding) -> bytes:
    """Serialize ``vector`` with ``encoding``; the null mask travels inline."""
    null_blob = _encode_nulls(vector)
    if encoding is Encoding.PLAIN:
        payload = _encode_plain(vector)
    elif encoding is Encoding.RLE:
        payload = _encode_rle(vector)
    elif encoding is Encoding.DICT:
        payload = _encode_dict(vector)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown encoding {encoding}")
    header = struct.pack("<II", len(vector), len(null_blob))
    return header + null_blob + payload


def decode_chunk(blob: bytes, dtype: DataType, encoding: Encoding) -> ColumnVector:
    """Inverse of :func:`encode_chunk`."""
    if len(blob) < 8:
        raise CorruptFileError("column chunk too short for header")
    num_rows, null_len = struct.unpack_from("<II", blob, 0)
    offset = 8
    nulls = _decode_nulls(blob[offset : offset + null_len], num_rows)
    offset += null_len
    payload = blob[offset:]
    if encoding is Encoding.PLAIN:
        data = _decode_plain(payload, dtype, num_rows)
    elif encoding is Encoding.RLE:
        data = _decode_rle(payload, dtype, num_rows)
    elif encoding is Encoding.DICT:
        codes, dictionary = _decode_dict(payload, num_rows)
        return ColumnVector(dtype, dictionary[codes], nulls, codes, dictionary)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown encoding {encoding}")
    return ColumnVector(dtype, data, nulls)


def _encode_nulls(vector: ColumnVector) -> bytes:
    if vector.nulls is None or not vector.nulls.any():
        return b""
    return np.packbits(vector.nulls).tobytes()


def _decode_nulls(blob: bytes, num_rows: int) -> np.ndarray | None:
    if not blob:
        return None
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=num_rows)
    return bits.astype(bool)


def _encode_strings(values: list[str]) -> bytes:
    # Encode each value exactly once; the length vector reuses the encoded
    # bytes instead of re-encoding (this is the hot path of VARCHAR writes).
    encoded = [value.encode("utf-8") for value in values]
    lengths = np.fromiter(
        (len(blob) for blob in encoded), dtype=np.int32, count=len(encoded)
    )
    return struct.pack("<I", len(values)) + lengths.tobytes() + b"".join(encoded)


def _decode_strings(blob: bytes) -> list[str]:
    if len(blob) < 4:
        raise CorruptFileError("string block too short")
    (count,) = struct.unpack_from("<I", blob, 0)
    lengths = np.frombuffer(blob, dtype=np.int32, count=count, offset=4)
    # Vectorized offset arithmetic (cumsum) instead of a running counter
    # with per-item int() casts; slicing stays on byte boundaries so
    # multi-byte UTF-8 values decode exactly as written.
    ends = (np.cumsum(lengths, dtype=np.int64) + (4 + 4 * count)).tolist()
    starts = [4 + 4 * count] + ends[:-1]
    return [blob[start:end].decode("utf-8") for start, end in zip(starts, ends)]


def _encode_plain(vector: ColumnVector) -> bytes:
    if vector.dtype is DataType.VARCHAR:
        return _encode_strings([str(value) for value in vector.data])
    if vector.dtype is DataType.BOOLEAN:
        return vector.data.astype(np.uint8).tobytes()
    return np.ascontiguousarray(vector.data).tobytes()


def _decode_plain(blob: bytes, dtype: DataType, num_rows: int) -> np.ndarray:
    if dtype is DataType.VARCHAR:
        return np.array(_decode_strings(blob), dtype=object)
    if dtype is DataType.BOOLEAN:
        return np.frombuffer(blob, dtype=np.uint8, count=num_rows).astype(bool)
    return np.frombuffer(blob, dtype=dtype.numpy_dtype, count=num_rows).copy()


def _encode_rle(vector: ColumnVector) -> bytes:
    data = vector.data
    if len(data) == 0:
        return struct.pack("<I", 0)
    boundaries = np.flatnonzero(np.diff(data)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(data)]])
    runs = (ends - starts).astype(np.int32)
    values = data[starts].astype(np.int64)
    return struct.pack("<I", len(runs)) + runs.tobytes() + values.tobytes()


def _decode_rle(blob: bytes, dtype: DataType, num_rows: int) -> np.ndarray:
    (num_runs,) = struct.unpack_from("<I", blob, 0)
    runs = np.frombuffer(blob, dtype=np.int32, count=num_runs, offset=4)
    values = np.frombuffer(
        blob, dtype=np.int64, count=num_runs, offset=4 + 4 * num_runs
    )
    data = np.repeat(values, runs).astype(dtype.numpy_dtype)
    if len(data) != num_rows:
        raise CorruptFileError(
            f"RLE chunk decoded {len(data)} rows, expected {num_rows}"
        )
    return data


def _encode_dict(vector: ColumnVector) -> bytes:
    # Vectorized dictionary build.  The on-disk dictionary order is
    # first-appearance (what the old setdefault loop produced), so sorted
    # np.unique output is remapped through argsort(first_index) — the blob
    # stays byte-identical to the loop encoding.
    values = np.array([str(value) for value in vector.data], dtype=object)
    uniques, first, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    remap = np.empty(len(uniques), dtype=np.int32)
    remap[order] = np.arange(len(uniques), dtype=np.int32)
    codes = remap[inverse.reshape(-1)]
    dict_blob = _encode_strings(uniques[order].tolist())
    return struct.pack("<I", len(dict_blob)) + dict_blob + codes.tobytes()


def _decode_dict(blob: bytes, num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, dictionary)``; the vector keeps both next to the decoded
    values so the engine can group and join by code."""
    (dict_len,) = struct.unpack_from("<I", blob, 0)
    dictionary = _decode_strings(blob[4 : 4 + dict_len])
    codes = np.frombuffer(blob, dtype=np.int32, count=num_rows, offset=4 + dict_len)
    return codes, np.array(dictionary, dtype=object)
