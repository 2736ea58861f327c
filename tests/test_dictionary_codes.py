"""Dictionary codes carried from DICT-encoded chunks into the engine.

A VARCHAR column whose row groups carry different dictionaries (some
overlapping, some disjoint, with NULLs) must give the same results and the
same EXPLAIN ANALYZE whether the engine keys its rows by the stored codes
or by the decoded strings.  The code-free run patches chunk decoding to
drop the codes, so both runs read the same bytes and only the key path
differs.  Every comparison runs at ``REPRO_WORKERS`` 1 and 4 and at batch
sizes 1 and the default.
"""

import pytest

from repro.engine import physical
from repro.engine.batch import DEFAULT_BATCH_SIZE
from repro.engine.executor import QueryExecutor
from repro.engine.optimizer import Optimizer
from repro.engine.planner import Planner
from repro.engine.source import ObjectStoreSource
from repro.obs.explain import render_analyzed_plan
from repro.storage import file_format
from repro.storage.catalog import Catalog, ColumnMeta
from repro.storage.columnar import Encoding
from repro.storage.file_format import PixelsReader
from repro.storage.object_store import ObjectStore
from repro.storage.table import TableData, TableReader, TableWriter
from repro.storage.types import ColumnVector, DataType

ROWS_PER_GROUP = 8

#: One list per row group.  Each has at most half as many distinct values
#: as rows, so the writer DICT-encodes it; NULL slots store "".
DICT_GROUPS = [
    ["b", "a", "b", None, "a", "a", "b", "b"],
    ["c", "b", "c", "c", None, "b", "b", "c"],  # overlaps the first
    ["x", "y", "x", "y", "x", "y", "x", "y"],  # disjoint from both
    [None, None, "a", "y", "a", "y", "a", None],  # overlaps two groups
]
#: The same plus a group of distinct values, which the writer stores PLAIN:
#: concatenating it with coded groups must fall back to the hash path.
MIXED_GROUPS = DICT_GROUPS[:2] + [["p", "q", "r", "s", "t", "u", "v", "w"]] + DICT_GROUPS[2:]

SCHEMA = [("s", DataType.VARCHAR), ("k", DataType.BIGINT), ("g", DataType.INT)]

QUERIES = [
    "SELECT s, COUNT(*) AS n, SUM(k) AS total FROM t GROUP BY s",
    "SELECT g, s, COUNT(*) AS n FROM t GROUP BY g, s",
    "SELECT DISTINCT s FROM t",
    "SELECT COUNT(DISTINCT s) AS d FROM t",
    "SELECT g, COUNT(DISTINCT s) AS d FROM t GROUP BY g",
    "SELECT MIN(s) AS lo, MAX(s) AS hi FROM t",
    "SELECT g, MIN(s) AS lo, MAX(s) AS hi FROM t GROUP BY g",
    "SELECT s, k FROM t ORDER BY s, k",
    "SELECT s, k FROM t ORDER BY s DESC, k LIMIT 5",
    "SELECT k FROM t WHERE s IN (SELECT s FROM t WHERE g = 1)",
]

CONFIGS = [(workers, batch) for workers in (1, 4) for batch in (1, DEFAULT_BATCH_SIZE)]


def _rows(groups):
    values = [value for group in groups for value in group]
    return [(value, index, index % 3) for index, value in enumerate(values)]


def _setup(groups):
    store = ObjectStore()
    store.create_bucket("wh")
    TableWriter(store, "wh", "p/t", rows_per_group=ROWS_PER_GROUP).write(
        TableData.from_rows(SCHEMA, _rows(groups))
    )
    catalog = Catalog()
    catalog.create_schema("p")
    catalog.create_table(
        "p", "t", [ColumnMeta(name, dtype) for name, dtype in SCHEMA],
        bucket="wh", prefix="p/t",
    )
    return store, catalog


def _run(groups, sql, monkeypatch, workers, batch_size):
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    store, catalog = _setup(groups)
    plan = Optimizer().optimize(Planner(catalog, "p").plan_sql(sql))
    executor = QueryExecutor(ObjectStoreSource(store), batch_size=batch_size)
    result = executor.execute(plan, analyze=True)
    rendered = render_analyzed_plan(plan, result.profile, result.stats)
    return result.column_names, result.rows(), rendered


def _without_codes(monkeypatch):
    decode = file_format.decode_chunk

    def decode_plain(blob, dtype, encoding):
        vector = decode(blob, dtype, encoding)
        return ColumnVector(vector.dtype, vector.data, vector.nulls)

    monkeypatch.setattr(file_format, "decode_chunk", decode_plain)


class TestStoredDictionaries:
    def test_groups_hold_distinct_dict_dictionaries(self):
        store, _ = _setup(DICT_GROUPS)
        (key,) = TableReader(store, "wh", "p/t").file_keys()
        reader = PixelsReader(store, "wh", key)
        encodings = {group.chunks["s"].encoding for group in reader.footer.row_groups}
        assert encodings == {Encoding.DICT}
        dictionaries = [
            tuple(vector["s"].dictionary.tolist())
            for vector in reader.iter_groups(columns=["s"])
        ]
        assert len(set(dictionaries)) == len(DICT_GROUPS)
        merged = reader.read(columns=["s"])["s"]
        assert merged.codes is not None
        assert merged.dictionary[merged.codes].tolist() == merged.data.tolist()

    def test_mixed_encodings_drop_codes_on_concat(self):
        store, _ = _setup(MIXED_GROUPS)
        (key,) = TableReader(store, "wh", "p/t").file_keys()
        reader = PixelsReader(store, "wh", key)
        encodings = [group.chunks["s"].encoding for group in reader.footer.row_groups]
        assert Encoding.PLAIN in encodings and Encoding.DICT in encodings
        assert reader.read(columns=["s"])["s"].codes is None


class TestCodedKeysMatchDecodedKeys:
    @pytest.mark.parametrize("groups", [DICT_GROUPS, MIXED_GROUPS], ids=["dict", "mixed"])
    @pytest.mark.parametrize("sql", QUERIES)
    def test_results_and_explain_identical(self, groups, sql, monkeypatch):
        coded = [_run(groups, sql, monkeypatch, *config) for config in CONFIGS]
        with monkeypatch.context() as patch:
            _without_codes(patch)
            decoded = [_run(groups, sql, patch, *config) for config in CONFIGS]
        for config, with_codes, without_codes in zip(CONFIGS, coded, decoded):
            assert with_codes == without_codes, config
        # Rows never depend on workers or batch size; the plan text depends
        # on the batch size (batch counts) but never on the worker count.
        assert all(run[:2] == coded[0][:2] for run in coded)
        assert coded[0][2] == coded[2][2] and coded[1][2] == coded[3][2]

    def test_grouping_reads_the_stored_codes(self, monkeypatch):
        seen = []
        encode = physical.column_codes

        def spy(vector, **kwargs):
            seen.append(vector.codes is not None)
            return encode(vector, **kwargs)

        monkeypatch.setattr(physical, "column_codes", spy)
        _run(DICT_GROUPS, QUERIES[0], monkeypatch, 1, DEFAULT_BATCH_SIZE)
        assert any(seen)
