"""Vectorized physical operators.

One function per logical node type, all operating on whole
:class:`~repro.storage.table.TableData` batches.  Every operator that
matches keys — join, semi/anti join, GROUP BY, DISTINCT, COUNT(DISTINCT),
MIN/MAX and sort — keys rows by integer codes from one encoder,
:func:`column_codes`, never by per-row Python tuples or fixed-width string
copies.  NULL is one extra code per column.

* **Equality codes** (``ordered=False``) are all that grouping, DISTINCT,
  COUNT(DISTINCT) and joins need: groups are numbered by first appearance
  afterwards, so the code order never shows.  VARCHAR values are
  hash-factorized without sorting, and narrow integer ranges are their own
  codes.
* **Rank codes** (``ordered=True``) are codes of the column's *sorted*
  distinct values; they order every dtype exactly in int64 and serve sort,
  top-N and MIN/MAX only.
* **Joins** encode each left/right key column pair as one stacked vector,
  so equal values get equal codes on both sides; multi-column keys combine
  per column and are renumbered densely before they could overflow.  The
  build side is a stable argsort of the right codes with ``bincount``/
  ``cumsum`` run offsets, the probe a ``np.repeat``; output order is left
  row order, then matching right rows in ascending index.  NULL and NaN
  keys match nothing.
* **Carried dictionary codes**: vectors decoded from DICT-encoded chunks
  keep their storage codes and dictionary (merged across row groups by
  ``ColumnVector.concat_all``), and :func:`column_codes` uses them as they
  are — O(rows) numpy, no string work.  Vectors built by expressions have
  no codes and take the hash path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.engine.expr import mask_from_predicate
from repro.engine.plan import AggFunc, AggSpec
from repro.storage.table import TableData
from repro.storage.types import ColumnVector, DataType


# ---------------------------------------------------------------------------
# Key encoding shared by join / aggregate / distinct / sort
# ---------------------------------------------------------------------------

#: Combined multi-column codes are renumbered densely before they could
#: pass this bound, so ``code * cardinality + next`` never overflows int64.
_MAX_COMBINED_CODE = 1 << 62


def _code_range_limit(num_rows: int) -> int:
    """Most distinct codes a key may use for ``num_rows`` rows before it is
    renumbered densely (bounds the arrays that codes index)."""
    return 4 * num_rows + 65536


def _factorize(values: np.ndarray, ordered: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, uniques)``: int64 codes with ``uniques[codes[i]] == values[i]``.

    ``uniques`` holds distinct values (possibly some that no row has).  With
    ``ordered`` it is sorted ascending, so codes are ranks; otherwise only
    equality of codes means anything.
    """
    if values.dtype == object:
        # Hash factorization: dictionary lookups, no fixed-width string copy.
        items = values.tolist()
        uniques = list(dict.fromkeys(items))
        if ordered:
            uniques.sort()
        position = dict(zip(uniques, range(len(uniques))))
        codes = np.fromiter(
            map(position.__getitem__, items), dtype=np.int64, count=len(items)
        )
        return codes, np.array(uniques, dtype=object)
    if values.dtype.kind in "iu" and len(values):
        # A narrow integer range is its own order-preserving code: O(rows).
        low = int(values.min())
        span = int(values.max()) - low + 1
        if span <= _code_range_limit(len(values)):
            codes = values.astype(np.int64) - low
            return codes, np.arange(low, low + span, dtype=values.dtype)
    uniques, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64), uniques


def column_codes(
    vector: ColumnVector, *, ordered: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Encode a column as dense integer codes.

    Returns ``(codes, uniques)`` where ``uniques[codes[i]]`` is row i's
    value and NULL rows get code ``len(uniques)``, so NULLs group together
    and, with ``ordered``, sort last (SQL GROUP BY and NULLS LAST).

    ``ordered=False`` gives equality codes — all GROUP BY, DISTINCT,
    COUNT(DISTINCT) and joins need.  ``ordered=True`` gives rank codes
    (``uniques`` sorted) for sort, top-N and MIN/MAX.  Dictionary codes
    carried from storage are used as they are (ranked through the sorted
    dictionary when ordered, unless the dictionary outnumbers the rows);
    other vectors go through :func:`_factorize`.
    """
    if vector.codes is not None and (
        not ordered or len(vector.dictionary) <= len(vector.codes)
    ):
        codes, uniques = vector.codes.astype(np.int64), vector.dictionary
        if ordered:
            order = np.argsort(uniques, kind="stable")
            rank = np.empty(len(order), dtype=np.int64)
            rank[order] = np.arange(len(order))
            codes, uniques = rank[codes], uniques[order]
    else:
        codes, uniques = _factorize(vector.data, ordered)
    if vector.nulls is not None:
        codes[vector.nulls] = len(uniques)
    return codes, uniques


def _densify(codes: np.ndarray) -> tuple[np.ndarray, int]:
    uniques, inverse = np.unique(codes, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64), len(uniques)


def _key_codes(vectors: list[ColumnVector], max_code: int) -> tuple[np.ndarray, int]:
    """One equality code per row over several key columns.

    Returns ``(codes, bound)`` with every code in ``[0, bound)`` and
    ``bound <= max_code``: the combined code is renumbered densely
    whenever the next column (or the result) would pass ``max_code``.
    """
    combined = np.zeros(len(vectors[0]), dtype=np.int64)
    bound = 1
    for vector in vectors:
        codes, uniques = column_codes(vector, ordered=False)
        cardinality = len(uniques) + 1
        if bound * cardinality > _MAX_COMBINED_CODE:
            combined, bound = _densify(combined)
        combined = combined * cardinality + codes
        bound *= cardinality
    if bound > max_code:
        combined, bound = _densify(combined)
    return combined, bound


def combined_group_codes(
    table: TableData, key_columns: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Combine multiple key columns into one group id per row.

    Returns ``(group_ids, first_row_index)``: dense group ids in
    [0, num_groups) and, per group, the index of its first row in input
    order (used to materialize key output values).
    """
    num_rows = table.num_rows
    if not key_columns:
        return np.zeros(num_rows, dtype=np.int64), np.zeros(
            min(num_rows, 1), dtype=np.int64
        )
    combined, bound = _key_codes(
        [table.column(name) for name in key_columns], _code_range_limit(num_rows)
    )
    # First row of each code, then groups numbered by first appearance so
    # output order is deterministic — O(rows + bound), no sort of the rows.
    first = np.full(bound, num_rows, dtype=np.int64)
    np.minimum.at(first, combined, np.arange(num_rows))
    present = np.flatnonzero(first < num_rows)
    order = np.argsort(first[present])
    group_of_code = np.empty(bound, dtype=np.int64)
    group_of_code[present[order]] = np.arange(len(order))
    return group_of_code[combined], first[present[order]]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def execute_aggregate(
    table: TableData, group_keys: list[str], aggregates: list[AggSpec]
) -> TableData:
    """Hash aggregation with SQL NULL semantics.

    NULL inputs are ignored by every aggregate; COUNT(*) counts rows; an
    empty input with no GROUP BY produces the SQL-standard single row
    (count 0, other aggregates NULL).
    """
    num_rows = table.num_rows
    if group_keys:
        group_ids, first_rows = combined_group_codes(table, group_keys)
        num_groups = len(first_rows)
    else:
        group_ids = np.zeros(num_rows, dtype=np.int64)
        num_groups = 1
        first_rows = np.zeros(0, dtype=np.int64)
    columns: dict[str, ColumnVector] = {}
    for key in group_keys:
        columns[key] = table.column(key).take(first_rows)
    for spec in aggregates:
        columns[spec.output] = _compute_aggregate(
            table, spec, group_ids, num_groups
        )
    return TableData(columns)


def _valid_mask(vector: ColumnVector) -> np.ndarray:
    if vector.nulls is None:
        return np.ones(len(vector), dtype=bool)
    return ~vector.nulls


def _compute_aggregate(
    table: TableData, spec: AggSpec, group_ids: np.ndarray, num_groups: int
) -> ColumnVector:
    if spec.func is AggFunc.COUNT and spec.input_column is None:
        counts = np.bincount(group_ids, minlength=num_groups)
        return ColumnVector(DataType.BIGINT, counts.astype(np.int64))
    assert spec.input_column is not None
    vector = table.column(spec.input_column)
    valid = _valid_mask(vector)
    valid_groups = group_ids[valid]
    if spec.func is AggFunc.COUNT:
        if spec.distinct:
            return _count_distinct(vector, valid, valid_groups, num_groups)
        counts = np.bincount(valid_groups, minlength=num_groups)
        return ColumnVector(DataType.BIGINT, counts.astype(np.int64))
    counts = np.bincount(valid_groups, minlength=num_groups)
    empty = counts == 0
    nulls = empty if empty.any() else None
    if spec.func in (AggFunc.SUM, AggFunc.AVG):
        values = vector.data[valid].astype(np.float64)
        sums = np.bincount(valid_groups, weights=values, minlength=num_groups)
        if spec.func is AggFunc.AVG:
            with np.errstate(invalid="ignore", divide="ignore"):
                data = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
            return ColumnVector(DataType.DOUBLE, data, nulls)
        data = sums.astype(spec.dtype.numpy_dtype)
        return ColumnVector(spec.dtype, data, nulls)
    if spec.func in (AggFunc.MIN, AggFunc.MAX):
        return _min_max(vector, spec, valid, valid_groups, num_groups, nulls)
    raise ExecutionError(f"unsupported aggregate {spec.func}")  # pragma: no cover


def _count_distinct(
    vector: ColumnVector,
    valid: np.ndarray,
    valid_groups: np.ndarray,
    num_groups: int,
) -> ColumnVector:
    if len(vector) == 0 or not valid.any():
        return ColumnVector(
            DataType.BIGINT, np.zeros(num_groups, dtype=np.int64)
        )
    codes, uniques = column_codes(vector, ordered=False)
    width = len(uniques)  # non-NULL codes are below it
    pairs = valid_groups.astype(np.int64) * width + codes[valid]
    bound = num_groups * width
    if bound <= _code_range_limit(len(pairs)):
        seen = np.zeros(bound, dtype=bool)
        seen[pairs] = True
        distinct_pairs = np.flatnonzero(seen)
    else:
        distinct_pairs = np.unique(pairs)
    counts = np.bincount(distinct_pairs // width, minlength=num_groups)
    return ColumnVector(DataType.BIGINT, counts.astype(np.int64))


def _min_max(
    vector: ColumnVector,
    spec: AggSpec,
    valid: np.ndarray,
    valid_groups: np.ndarray,
    num_groups: int,
    nulls: np.ndarray | None,
) -> ColumnVector:
    codes, uniques = column_codes(vector, ordered=True)
    valid_codes = codes[valid]
    if spec.func is AggFunc.MIN:
        best = np.full(num_groups, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(best, valid_groups, valid_codes)
    else:
        best = np.full(num_groups, -1, dtype=np.int64)
        np.maximum.at(best, valid_groups, valid_codes)
    safe = np.clip(best, 0, max(len(uniques) - 1, 0))
    if len(uniques) == 0:
        data = np.zeros(num_groups, dtype=spec.dtype.numpy_dtype)
        if spec.dtype is DataType.VARCHAR:
            data = np.array([""] * num_groups, dtype=object)
        return ColumnVector(
            spec.dtype, data, np.ones(num_groups, dtype=bool)
        )
    data = uniques[safe]
    if spec.dtype is DataType.VARCHAR:
        data = np.asarray(data, dtype=object)
    else:
        data = data.astype(spec.dtype.numpy_dtype)
    return ColumnVector(spec.dtype, data, nulls)


# ---------------------------------------------------------------------------
# Partial -> final aggregation (morsel-parallel breakers)
# ---------------------------------------------------------------------------


def aggregate_supports_partial(
    aggregates: list[AggSpec], input_types: dict[str, DataType]
) -> bool:
    """Whether partial->final decomposition is *bit-identical* to one pass.

    COUNT / MIN / MAX always are (integer counters; codes-based extrema).
    SUM and AVG are only admitted over integral inputs: their accumulators
    are exact in float64 there, so any grouping of the additions produces
    the same value.  DOUBLE accumulation is order-sensitive (float addition
    is non-associative) and DISTINCT needs global value sets — both fall
    back to gather mode, where the coordinator runs the one-pass kernel
    over morsel-ordered batches and is trivially identical.
    """
    for spec in aggregates:
        if spec.distinct:
            return False
        if spec.func is AggFunc.COUNT:
            continue
        if spec.func in (AggFunc.MIN, AggFunc.MAX):
            continue
        if spec.input_column is None:
            return False
        input_dtype = input_types.get(spec.input_column)
        if input_dtype is None or input_dtype is DataType.DOUBLE:
            return False
    return True


def _partial_specs(aggregates: list[AggSpec]) -> list[AggSpec]:
    specs: list[AggSpec] = []
    for spec in aggregates:
        if spec.func is AggFunc.AVG:
            specs.append(
                AggSpec(
                    AggFunc.SUM,
                    spec.input_column,
                    spec.output + "__psum",
                    dtype=DataType.DOUBLE,
                )
            )
            specs.append(
                AggSpec(AggFunc.COUNT, spec.input_column, spec.output + "__pcount")
            )
        elif spec.func is AggFunc.COUNT:
            specs.append(AggSpec(AggFunc.COUNT, spec.input_column, spec.output))
        else:
            specs.append(
                AggSpec(spec.func, spec.input_column, spec.output, dtype=spec.dtype)
            )
    return specs


def partial_aggregate(
    table: TableData, group_keys: list[str], aggregates: list[AggSpec]
) -> TableData:
    """One morsel's aggregation state as a table (the worker-side phase).

    COUNT becomes per-group counts, SUM/MIN/MAX their per-group partials,
    and AVG splits into an exact (sum, count) pair — everything
    :func:`final_aggregate` can merge without losing bit-identity.
    """
    return execute_aggregate(table, group_keys, _partial_specs(aggregates))


def final_aggregate(
    partials: TableData, group_keys: list[str], aggregates: list[AggSpec]
) -> TableData:
    """Merge concatenated partial states (the coordinator-side phase).

    ``partials`` must be the morsel partial tables concatenated in morsel
    order: group output order is first appearance, which then matches the
    sequential single-pass order exactly.
    """
    merge_specs: list[AggSpec] = []
    for spec in aggregates:
        if spec.func is AggFunc.AVG:
            merge_specs.append(
                AggSpec(
                    AggFunc.SUM,
                    spec.output + "__psum",
                    spec.output + "__psum",
                    dtype=DataType.DOUBLE,
                )
            )
            merge_specs.append(
                AggSpec(
                    AggFunc.SUM,
                    spec.output + "__pcount",
                    spec.output + "__pcount",
                    dtype=DataType.BIGINT,
                )
            )
        elif spec.func in (AggFunc.COUNT, AggFunc.SUM):
            merge_specs.append(
                AggSpec(AggFunc.SUM, spec.output, spec.output, dtype=spec.dtype)
            )
        else:
            merge_specs.append(
                AggSpec(spec.func, spec.output, spec.output, dtype=spec.dtype)
            )
    merged = execute_aggregate(partials, group_keys, merge_specs)
    columns: dict[str, ColumnVector] = {}
    for key in group_keys:
        columns[key] = merged.column(key)
    for spec in aggregates:
        if spec.func is AggFunc.AVG:
            sums = merged.column(spec.output + "__psum").data.astype(np.float64)
            counts = merged.column(spec.output + "__pcount").data.astype(np.int64)
            # The same division as the one-pass kernel, on exact operands.
            with np.errstate(invalid="ignore", divide="ignore"):
                data = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
            empty = counts == 0
            columns[spec.output] = ColumnVector(
                DataType.DOUBLE, data, empty if empty.any() else None
            )
        elif spec.func is AggFunc.COUNT:
            # Groups absent from every partial cannot occur; counts of 0
            # (all-NULL inputs) are valid zeros, never NULL.
            vector = merged.column(spec.output)
            data = vector.data.astype(np.int64)
            if vector.nulls is not None:
                data = np.where(vector.nulls, 0, data)
            columns[spec.output] = ColumnVector(DataType.BIGINT, data)
        else:
            columns[spec.output] = merged.column(spec.output)
    return TableData(columns)


# ---------------------------------------------------------------------------
# Join
# ---------------------------------------------------------------------------


def execute_hash_join(
    left: TableData,
    right: TableData,
    left_keys: list[str],
    right_keys: list[str],
    is_left_join: bool,
    residual_mask=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute matching row index pairs for an equi join.

    Returns ``(left_indices, right_indices)``.  NULL keys never match.
    With no keys, produces the cross product (used for comma joins whose
    condition lives in WHERE).  The caller applies residual predicates and
    LEFT-join null padding — see :func:`join_tables`.
    """
    if not left_keys:
        left_indices = np.repeat(np.arange(left.num_rows), right.num_rows)
        right_indices = np.tile(np.arange(right.num_rows), left.num_rows)
        return left_indices, right_indices
    left_codes, right_codes, num_codes = _joint_key_codes(
        left, right, left_keys, right_keys
    )
    build_rows = np.flatnonzero(right_codes >= 0)
    build_codes = right_codes[build_rows]
    # Build: right rows grouped by code, ascending row index within a code
    # (stable sort), each code's run located by bincount/cumsum.
    build_rows = build_rows[np.argsort(build_codes, kind="stable")]
    counts = np.bincount(build_codes, minlength=num_codes)
    starts = np.cumsum(counts) - counts
    # Probe: each left row repeated once per match, in left row order.
    probe_rows = np.flatnonzero(left_codes >= 0)
    probe_codes = left_codes[probe_rows]
    matches = counts[probe_codes]
    left_indices = np.repeat(probe_rows, matches)
    run_offsets = np.arange(len(left_indices)) - np.repeat(
        np.cumsum(matches) - matches, matches
    )
    right_indices = build_rows[np.repeat(starts[probe_codes], matches) + run_offsets]
    return left_indices.astype(np.int64, copy=False), right_indices


def _joint_key_codes(
    left: TableData,
    right: TableData,
    left_keys: list[str],
    right_keys: list[str],
) -> tuple[np.ndarray, np.ndarray, int]:
    """Equality codes for both join sides from one shared encoding.

    Each key column pair is encoded as a single stacked vector (left rows,
    then right rows), so equal values get equal codes on both sides.
    Returns ``(left_codes, right_codes, bound)`` with codes in
    ``[0, bound)``; rows that can match nothing — a NULL or NaN in any key
    — get code -1.
    """
    stacked: list[ColumnVector] = []
    matchable = np.ones(left.num_rows + right.num_rows, dtype=bool)
    for left_name, right_name in zip(left_keys, right_keys):
        left_vector, right_vector = left.column(left_name), right.column(right_name)
        if left_vector.dtype is right_vector.dtype:
            vector = ColumnVector.concat_all([left_vector, right_vector])
        else:  # INT/BIGINT/DOUBLE: numpy promotes to the common type
            data = np.concatenate([left_vector.data, right_vector.data])
            nulls = np.concatenate(
                [~_valid_mask(left_vector), ~_valid_mask(right_vector)]
            )
            dtype = DataType.DOUBLE if data.dtype.kind == "f" else DataType.BIGINT
            vector = ColumnVector(dtype, data, nulls)
        matchable &= _valid_mask(vector)
        if vector.data.dtype.kind == "f":
            matchable &= ~np.isnan(vector.data)  # NaN = NaN is not true
        stacked.append(vector)
    codes, bound = _key_codes(stacked, _code_range_limit(len(matchable)))
    codes[~matchable] = -1
    return codes[: left.num_rows], codes[left.num_rows :], bound


def join_tables(
    left: TableData,
    right: TableData,
    left_indices: np.ndarray,
    right_indices: np.ndarray,
    is_left_join: bool,
    residual=None,
) -> TableData:
    """Materialize join output from index pairs, applying the residual
    predicate and, for LEFT joins, null-padding unmatched left rows."""
    left_part = left.take(left_indices)
    right_part = right.take(right_indices)
    combined = TableData({**left_part.columns, **right_part.columns})
    if residual is not None and combined.num_rows:
        mask = mask_from_predicate(residual.evaluate(combined))
        combined = combined.filter(mask)
        left_indices = left_indices[mask]
    if not is_left_join:
        return combined
    matched = np.zeros(left.num_rows, dtype=bool)
    matched[left_indices] = True
    unmatched = np.flatnonzero(~matched)
    if len(unmatched) == 0:
        return combined
    left_missing = left.take(unmatched)
    null_right = TableData(
        {
            name: _all_null_vector(vector.dtype, len(unmatched))
            for name, vector in right.columns.items()
        }
    )
    padding = TableData({**left_missing.columns, **null_right.columns})
    return combined.concat(padding)


def _all_null_vector(dtype: DataType, count: int) -> ColumnVector:
    if dtype is DataType.VARCHAR:
        data = np.array([""] * count, dtype=object)
    else:
        data = np.zeros(count, dtype=dtype.numpy_dtype)
    return ColumnVector(dtype, data, np.ones(count, dtype=bool))


def execute_semi_anti_join(
    left: TableData,
    right: TableData,
    left_keys: list[str],
    right_keys: list[str],
    anti: bool,
) -> TableData:
    """Semi join (IN subquery) / anti join (NOT IN subquery).

    SQL NULL semantics are honoured:

    * a NULL left key never matches — excluded from both semi and anti
      results (``x IN S`` / ``x NOT IN S`` are UNKNOWN for NULL x, except
      over an empty S);
    * an empty subquery result makes NOT IN pass every row (even NULL x,
      since ``x NOT IN ()`` is TRUE);
    * a NULL among the subquery's values makes NOT IN pass no rows at all
      (each comparison is at best UNKNOWN).
    """
    if left.num_rows == 0:
        return left
    if anti and right.num_rows == 0:
        return left  # x NOT IN (empty) is TRUE for every x
    if anti and not _keys_valid(right, right_keys).all():
        return left.slice(0, 0)  # any NULL in S poisons NOT IN entirely
    left_codes, right_codes, num_codes = _joint_key_codes(
        left, right, left_keys, right_keys
    )
    counts = np.bincount(right_codes[right_codes >= 0], minlength=num_codes)
    matchable = left_codes >= 0
    matches = np.zeros(left.num_rows, dtype=bool)
    matches[matchable] = counts[left_codes[matchable]] > 0
    if anti:
        return left.filter(_keys_valid(left, left_keys) & ~matches)
    return left.filter(matches)


def _keys_valid(table: TableData, keys: list[str]) -> np.ndarray:
    """Rows whose key columns are all non-NULL."""
    valid = np.ones(table.num_rows, dtype=bool)
    for name in keys:
        valid &= _valid_mask(table.column(name))
    return valid


def execute_union_all(
    tables: list[TableData], schema: list[tuple[str, DataType]]
) -> TableData:
    """Concatenate branch outputs positionally under the first branch's
    column names (numeric branches are promoted to the output type)."""
    from repro.engine.expr import BoundCast, BoundColumn

    aligned: list[TableData] = []
    for table in tables:
        columns: dict[str, ColumnVector] = {}
        for (out_name, out_type), in_name in zip(schema, table.column_names):
            vector = table.column(in_name)
            if vector.dtype is not out_type:
                vector = BoundCast(
                    BoundColumn(in_name, vector.dtype), out_type
                ).evaluate(table)
            columns[out_name] = vector
        aligned.append(TableData(columns))
    return TableData.concat_all(aligned)


# ---------------------------------------------------------------------------
# Sort / distinct / limit
# ---------------------------------------------------------------------------


def _sort_codes(vector: ColumnVector, ascending: bool) -> np.ndarray:
    """Integer sort keys for one column: dense rank codes with NULLs last.

    Staying in int64 end to end matters: the previous implementation cast
    codes to float64, which collapses ranks above 2^53 — a silent mis-sort
    once a column has that many distinct values.  Codes are ranks of the
    column's sorted uniques, so they order *every* dtype exactly (floats
    included); descending negates the codes and NULLs are pinned to the
    int64 maximum so they sort last in both directions.
    """
    codes, _ = column_codes(vector, ordered=True)
    keys = -codes if not ascending else codes.copy()
    if vector.nulls is not None:
        keys[vector.nulls] = np.iinfo(np.int64).max
    return keys


def execute_sort(
    table: TableData, keys: list[tuple[str, bool]]
) -> TableData:
    """Stable multi-key sort; NULLs last for both directions."""
    if table.num_rows == 0:
        return table
    key_arrays = [
        _sort_codes(table.column(name), ascending) for name, ascending in keys
    ]
    # np.lexsort is stable and treats its *last* key as primary.
    indices = np.lexsort(tuple(reversed(key_arrays)))
    return table.take(indices)


def execute_top_n(
    table: TableData,
    keys: list[tuple[str, bool]],
    limit: int | None,
    offset: int = 0,
) -> TableData:
    """``ORDER BY … LIMIT k`` without fully sorting the input.

    Partial selection via ``np.argpartition`` on the primary sort key keeps
    every row that can possibly rank in the top ``limit + offset`` (ties at
    the boundary included), then only those candidates are sorted.  The
    candidates are gathered in input order and the final sort is stable, so
    the result is bit-identical to ``execute_limit(execute_sort(...))``.
    """
    num_rows = table.num_rows
    n = (limit or 0) + offset
    if limit is None or num_rows == 0 or n >= num_rows:
        return execute_limit(execute_sort(table, keys), limit, offset)
    if n == 0:
        return table.slice(0, 0)
    primary = _sort_codes(table.column(keys[0][0]), keys[0][1])
    boundary = primary[np.argpartition(primary, n - 1)[n - 1]]
    candidates = np.flatnonzero(primary <= boundary)  # ascending input order
    key_arrays = [
        _sort_codes(table.column(name), ascending)[candidates]
        for name, ascending in keys
    ]
    order = np.lexsort(tuple(reversed(key_arrays)))
    return table.take(candidates[order[offset:n]])


def execute_distinct(table: TableData) -> TableData:
    """Drop duplicate rows, keeping first occurrences in input order."""
    if table.num_rows == 0 or not table.columns:
        return table
    _, first_rows = combined_group_codes(table, table.column_names)
    return table.take(first_rows)


def execute_limit(table: TableData, limit: int | None, offset: int) -> TableData:
    start = min(offset, table.num_rows)
    stop = table.num_rows if limit is None else min(start + limit, table.num_rows)
    return table.slice(start, stop)
