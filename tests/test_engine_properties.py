"""Property-based engine tests: the SQL engine vs a Python reference.

Hypothesis generates random small tables and random (filter, aggregate,
sort) query fragments; the engine's answer must match a straightforward
pure-Python evaluation.  This guards the vectorized operators' null
semantics and ordering rules against whole classes of inputs rather than
hand-picked cases.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import QueryExecutor
from repro.engine.optimizer import Optimizer
from repro.engine.planner import Planner
from repro.engine.source import InMemorySource
from repro.storage.catalog import Catalog, ColumnMeta
from repro.storage.table import TableData
from repro.storage.types import DataType

ROW = st.tuples(
    st.one_of(st.integers(-50, 50), st.none()),
    st.one_of(st.sampled_from(["a", "b", "c", "dd"]), st.none()),
    st.one_of(
        st.floats(
            min_value=-100, max_value=100, allow_nan=False, width=32
        ),
        st.none(),
    ),
)
ROWS = st.lists(ROW, min_size=0, max_size=60)

SCHEMA = [
    ("k", DataType.INT),
    ("s", DataType.VARCHAR),
    ("v", DataType.DOUBLE),
]


def engine_for(rows):
    catalog = Catalog()
    catalog.create_schema("p")
    catalog.create_table(
        "p",
        "t",
        [
            ColumnMeta("k", DataType.INT),
            ColumnMeta("s", DataType.VARCHAR),
            ColumnMeta("v", DataType.DOUBLE),
        ],
    )
    source = InMemorySource({("p", "t"): TableData.from_rows(SCHEMA, rows)})
    planner = Planner(catalog, "p")
    optimizer = Optimizer()
    executor = QueryExecutor(source)

    def run(sql):
        return executor.execute(optimizer.optimize(planner.plan_sql(sql))).rows()

    return run


def approx_rows(rows):
    return [
        tuple(
            round(value, 6) if isinstance(value, float) else value
            for value in row
        )
        for row in rows
    ]


class TestFilterProperties:
    @settings(max_examples=50, deadline=None)
    @given(ROWS, st.integers(-50, 50))
    def test_filter_matches_reference(self, rows, threshold):
        run = engine_for(rows)
        got = run(f"SELECT k FROM t WHERE k > {threshold}")
        expected = [(k,) for k, _, _ in rows if k is not None and k > threshold]
        assert sorted(got) == sorted(expected)

    @settings(max_examples=50, deadline=None)
    @given(ROWS)
    def test_is_null_partitions_rows(self, rows):
        run = engine_for(rows)
        nulls = run("SELECT count(*) FROM t WHERE k IS NULL")[0][0]
        not_nulls = run("SELECT count(*) FROM t WHERE k IS NOT NULL")[0][0]
        assert nulls + not_nulls == len(rows)

    @settings(max_examples=50, deadline=None)
    @given(ROWS, st.integers(-50, 0), st.integers(0, 50))
    def test_between_equals_two_comparisons(self, rows, low, high):
        run = engine_for(rows)
        between = run(f"SELECT count(*) FROM t WHERE k BETWEEN {low} AND {high}")
        two = run(f"SELECT count(*) FROM t WHERE k >= {low} AND k <= {high}")
        assert between == two

    @settings(max_examples=50, deadline=None)
    @given(ROWS)
    def test_complement_splits_non_null(self, rows):
        """WHERE p and WHERE NOT p partition the rows where p is not NULL."""
        run = engine_for(rows)
        positive = run("SELECT count(*) FROM t WHERE k > 0")[0][0]
        negative = run("SELECT count(*) FROM t WHERE NOT (k > 0)")[0][0]
        non_null = run("SELECT count(*) FROM t WHERE k IS NOT NULL")[0][0]
        assert positive + negative == non_null


class TestAggregateProperties:
    @settings(max_examples=50, deadline=None)
    @given(ROWS)
    def test_global_aggregates_match_reference(self, rows):
        run = engine_for(rows)
        (count, total, low, high) = run(
            "SELECT count(v), sum(v), min(v), max(v) FROM t"
        )[0]
        values = [v for _, _, v in rows if v is not None]
        assert count == len(values)
        if values:
            assert total == pytest.approx(math.fsum(values), abs=1e-6)
            assert low == pytest.approx(min(values))
            assert high == pytest.approx(max(values))
        else:
            assert total is None and low is None and high is None

    @settings(max_examples=50, deadline=None)
    @given(ROWS)
    def test_group_counts_sum_to_total(self, rows):
        run = engine_for(rows)
        groups = run("SELECT s, count(*) FROM t GROUP BY s")
        assert sum(count for _, count in groups) == len(rows)
        # One group per distinct value (NULL forms its own group).
        distinct = {s for _, s, _ in rows}
        assert len(groups) == len(distinct)

    @settings(max_examples=50, deadline=None)
    @given(ROWS)
    def test_count_distinct_matches_reference(self, rows):
        run = engine_for(rows)
        got = run("SELECT count(DISTINCT s) FROM t")[0][0]
        assert got == len({s for _, s, _ in rows if s is not None})

    @settings(max_examples=50, deadline=None)
    @given(ROWS)
    def test_avg_is_sum_over_count(self, rows):
        run = engine_for(rows)
        avg, total, count = run("SELECT avg(v), sum(v), count(v) FROM t")[0]
        if count == 0:
            assert avg is None
        else:
            assert avg == pytest.approx(total / count)

    @settings(max_examples=50, deadline=None)
    @given(ROWS)
    def test_group_sums_match_reference(self, rows):
        run = engine_for(rows)
        got = {
            s: total for s, total in run("SELECT s, sum(k) FROM t GROUP BY s")
        }
        expected: dict = {}
        for k, s, _ in rows:
            expected.setdefault(s, [])
            if k is not None:
                expected[s].append(k)
        for s, ks in expected.items():
            if ks:
                assert got[s] == sum(ks)
            else:
                assert got[s] is None


class TestSortDistinctProperties:
    @settings(max_examples=50, deadline=None)
    @given(ROWS)
    def test_sort_is_ordered_nulls_last(self, rows):
        run = engine_for(rows)
        got = [row[0] for row in run("SELECT k FROM t ORDER BY k")]
        non_null = [value for value in got if value is not None]
        assert non_null == sorted(non_null)
        first_null = next(
            (i for i, value in enumerate(got) if value is None), len(got)
        )
        assert all(value is None for value in got[first_null:])

    @settings(max_examples=50, deadline=None)
    @given(ROWS)
    def test_sort_desc_reverses_non_null_order(self, rows):
        run = engine_for(rows)
        asc = [r[0] for r in run("SELECT k FROM t ORDER BY k") if r[0] is not None]
        desc = [
            r[0] for r in run("SELECT k FROM t ORDER BY k DESC") if r[0] is not None
        ]
        assert desc == list(reversed(asc))

    @settings(max_examples=50, deadline=None)
    @given(ROWS)
    def test_sort_preserves_multiset(self, rows):
        run = engine_for(rows)
        unsorted_rows = run("SELECT k, s, v FROM t")
        sorted_rows = run("SELECT k, s, v FROM t ORDER BY s, k DESC")
        assert sorted(approx_rows(unsorted_rows), key=repr) == sorted(
            approx_rows(sorted_rows), key=repr
        )

    @settings(max_examples=50, deadline=None)
    @given(ROWS)
    def test_distinct_removes_exactly_duplicates(self, rows):
        run = engine_for(rows)
        got = run("SELECT DISTINCT s FROM t")
        flattened = [row[0] for row in got]
        assert len(flattened) == len(set(flattened))
        assert set(flattened) == {s for _, s, _ in rows}

    @settings(max_examples=50, deadline=None)
    @given(ROWS, st.integers(0, 10), st.integers(0, 10))
    def test_limit_offset_slice_semantics(self, rows, limit, offset):
        run = engine_for(rows)
        everything = run("SELECT k FROM t ORDER BY k")
        window = run(f"SELECT k FROM t ORDER BY k LIMIT {limit} OFFSET {offset}")
        assert window == everything[offset : offset + limit]


class TestJoinProperties:
    @settings(max_examples=40, deadline=None)
    @given(ROWS, ROWS)
    def test_self_join_count_matches_reference(self, left_rows, right_rows):
        catalog = Catalog()
        catalog.create_schema("p")
        for name in ("l", "r"):
            catalog.create_table(
                "p", name,
                [
                    ColumnMeta("k", DataType.INT),
                    ColumnMeta("s", DataType.VARCHAR),
                    ColumnMeta("v", DataType.DOUBLE),
                ],
            )
        source = InMemorySource(
            {
                ("p", "l"): TableData.from_rows(SCHEMA, left_rows),
                ("p", "r"): TableData.from_rows(SCHEMA, right_rows),
            }
        )
        executor = QueryExecutor(source)
        planner = Planner(catalog, "p")
        plan = Optimizer().optimize(
            planner.plan_sql(
                "SELECT count(*) FROM l JOIN r ON l.k = r.k"
            )
        )
        got = executor.execute(plan).rows()[0][0]
        from collections import Counter

        left_counts = Counter(k for k, _, _ in left_rows if k is not None)
        right_counts = Counter(k for k, _, _ in right_rows if k is not None)
        expected = sum(
            count * right_counts[key] for key, count in left_counts.items()
        )
        assert got == expected


# ---------------------------------------------------------------------------
# Join kernels vs a nested-loop reference (contents *and* row order)
# ---------------------------------------------------------------------------

KEY_VALUES = {
    DataType.INT: st.integers(-3, 3),
    DataType.BIGINT: st.integers(-3, 3),
    DataType.VARCHAR: st.sampled_from(["a", "b", "", "ab"]),
    DataType.DOUBLE: st.sampled_from([0.0, -0.0, 1.0, -2.0, 2.5, math.nan, math.inf]),
}

#: (left key types, right key types); mixed numeric pairs are legal join keys.
KEY_SHAPES = [
    ([DataType.INT], [DataType.INT]),
    ([DataType.INT], [DataType.BIGINT]),
    ([DataType.VARCHAR], [DataType.VARCHAR]),
    ([DataType.DOUBLE], [DataType.DOUBLE]),
    ([DataType.BIGINT], [DataType.DOUBLE]),
    ([DataType.INT, DataType.VARCHAR], [DataType.BIGINT, DataType.VARCHAR]),
    ([DataType.DOUBLE, DataType.INT], [DataType.DOUBLE, DataType.INT]),
]


def _key_rows(dtypes):
    values = [st.one_of(KEY_VALUES[dtype], st.none()) for dtype in dtypes]
    return st.lists(st.tuples(*values), max_size=25)


JOIN_INPUTS = st.sampled_from(KEY_SHAPES).flatmap(
    lambda shape: st.tuples(st.just(shape), _key_rows(shape[0]), _key_rows(shape[1]))
)


def _join_side(prefix, dtypes, key_rows):
    """Key columns ``<prefix>0..`` plus a payload ``<prefix>p`` = row index."""
    schema = [(f"{prefix}{i}", dtype) for i, dtype in enumerate(dtypes)]
    schema.append((f"{prefix}p", DataType.BIGINT))
    rows = [tuple(keys) + (index,) for index, keys in enumerate(key_rows)]
    names = [name for name, _ in schema[:-1]]
    return TableData.from_rows(schema, rows), names


def _keys_equal(left, right):
    """SQL equality of key tuples: NULL and NaN never match anything."""
    return all(
        a is not None and b is not None and a == b for a, b in zip(left, right)
    )


def _normalized(rows):
    return [
        tuple("NaN" if isinstance(v, float) and math.isnan(v) else v for v in row)
        for row in rows
    ]


class TestJoinKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(JOIN_INPUTS)
    def test_inner_pairs_match_nested_loop_in_order(self, inputs):
        from repro.engine.physical import execute_hash_join

        (left_types, right_types), left_keys, right_keys = inputs
        left, left_names = _join_side("l", left_types, left_keys)
        right, right_names = _join_side("r", right_types, right_keys)
        left_indices, right_indices = execute_hash_join(
            left, right, left_names, right_names, False
        )
        expected = [
            (i, j)
            for i, lk in enumerate(left_keys)
            for j, rk in enumerate(right_keys)
            if _keys_equal(lk, rk)
        ]
        assert list(zip(left_indices.tolist(), right_indices.tolist())) == expected

    @settings(max_examples=100, deadline=None)
    @given(JOIN_INPUTS)
    def test_left_join_residual_and_null_padding(self, inputs):
        from repro.engine.expr import BoundColumn, BoundComparison
        from repro.engine.physical import execute_hash_join, join_tables

        (left_types, right_types), left_keys, right_keys = inputs
        left, left_names = _join_side("l", left_types, left_keys)
        right, right_names = _join_side("r", right_types, right_keys)
        residual = BoundComparison(
            "<=",
            BoundColumn("lp", DataType.BIGINT),
            BoundColumn("rp", DataType.BIGINT),
        )
        left_indices, right_indices = execute_hash_join(
            left, right, left_names, right_names, True
        )
        got = join_tables(
            left, right, left_indices, right_indices, True, residual
        ).to_rows()
        left_rows, right_rows = left.to_rows(), right.to_rows()
        pairs = [
            (i, j)
            for i, lk in enumerate(left_keys)
            for j, rk in enumerate(right_keys)
            if _keys_equal(lk, rk) and i <= j
        ]
        matched = {i for i, _ in pairs}
        padding = (None,) * len(right.column_names)
        expected = [left_rows[i] + right_rows[j] for i, j in pairs] + [
            row + padding for i, row in enumerate(left_rows) if i not in matched
        ]
        assert _normalized(got) == _normalized(expected)

    @settings(max_examples=150, deadline=None)
    @given(JOIN_INPUTS.filter(lambda inputs: len(inputs[0][0]) == 1), st.booleans())
    def test_semi_anti_join_match_reference(self, inputs, anti):
        from repro.engine.physical import execute_semi_anti_join

        (left_types, right_types), left_keys, right_keys = inputs
        left, left_names = _join_side("l", left_types, left_keys)
        right, right_names = _join_side("r", right_types, right_keys)
        got = execute_semi_anti_join(left, right, left_names, right_names, anti)
        left_rows = left.to_rows()
        found = [any(_keys_equal(lk, rk) for rk in right_keys) for lk in left_keys]
        if not anti:
            expected = [row for row, hit in zip(left_rows, found) if hit]
        elif not right_keys:
            expected = left_rows  # x NOT IN (empty) holds even for NULL x
        elif any(rk[0] is None for rk in right_keys):
            expected = []  # a NULL in the subquery makes NOT IN unknown
        else:
            expected = [
                row
                for row, lk, hit in zip(left_rows, left_keys, found)
                if lk[0] is not None and not hit
            ]
        assert _normalized(got.to_rows()) == _normalized(expected)
