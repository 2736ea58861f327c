"""Morsel-driven parallel execution benchmark (engine support measurement).

Measures what the morsel driver actually buys in the paper's disaggregated
setting: overlap of object-store GET round trips across row-group morsels.
The production :class:`~repro.storage.object_store.ObjectStore` models GET
latency arithmetically (so accounting stays deterministic); here a store
subclass *really blocks* for a scaled-down round trip per ranged GET, and
the scan/filter/agg suite is timed at 1 vs 4 workers.

Two things are recorded:

* ``metrics`` (gated exactly by the perf gate): per-query rows, billed
  bytes, GET counts, and a result checksum — all asserted identical
  between the sequential and parallel runs, which is the worker-count
  invariance contract.
* ``meta`` (ungated, machine-dependent): the measured wall-clock speedup
  at 4 workers, asserted >= 1.5x here so a scheduling regression that
  serializes morsels fails the bench even though wall time is never gated.
"""

import hashlib
import time

import numpy as np

from common import bench_record, report
from repro.engine.executor import QueryExecutor
from repro.engine.optimizer import Optimizer
from repro.engine.planner import Planner
from repro.engine.source import ObjectStoreSource
from repro.storage.catalog import Catalog, ColumnMeta
from repro.storage.object_store import ObjectStore
from repro.storage.table import TableData, TableWriter
from repro.storage.types import ColumnVector, DataType

NUM_ROWS = 200_000
ROWS_PER_FILE = 50_000
ROWS_PER_GROUP = 6_250  # -> 32 row groups = 32 morsels
GET_SLEEP_S = 0.008  # emulated object-store GET round trip (scaled down)
PARALLEL_WORKERS = 4
MIN_SPEEDUP = 1.5
REPEATS = 2  # wall-time samples per (query, worker-count); min is kept

QUERIES = {
    "scan": "SELECT COUNT(*) AS n, SUM(k) AS s FROM metrics",
    "filter": "SELECT COUNT(*) AS n, MAX(k) AS m FROM metrics WHERE v > 0.5",
    "agg": (
        "SELECT g, COUNT(*) AS n, SUM(w) AS s, MIN(k) AS lo, MAX(k) AS hi "
        "FROM metrics WHERE v > 0.2 GROUP BY g"
    ),
}


class LatencyStore(ObjectStore):
    """Object store whose ranged GETs block for a real round trip.

    Sleeping (instead of spinning) matters: it is what lets worker threads
    overlap in-flight GETs, exactly like concurrent requests against S3 —
    so the measured speedup reflects latency hiding, not CPU parallelism,
    and holds even on a single-core runner.
    """

    def read_range(self, bucket, key, start=0, length=None):
        payload = super().read_range(bucket, key, start, length)
        time.sleep(GET_SLEEP_S)
        return payload


def _environment():
    rng = np.random.default_rng(42)
    store = LatencyStore()
    store.create_bucket("bench")
    keys = np.arange(NUM_ROWS, dtype=np.int64)
    table = TableData(
        {
            "k": ColumnVector(DataType.BIGINT, keys),
            "g": ColumnVector(DataType.BIGINT, (keys * 2654435761) % 100),
            "v": ColumnVector(DataType.DOUBLE, rng.random(NUM_ROWS)),
            "w": ColumnVector(
                DataType.BIGINT,
                rng.integers(0, 1000, NUM_ROWS, dtype=np.int64),
            ),
        }
    )
    TableWriter(
        store,
        "bench",
        "metrics",
        rows_per_file=ROWS_PER_FILE,
        rows_per_group=ROWS_PER_GROUP,
    ).write(table)
    catalog = Catalog()
    catalog.create_schema("bench", comment="parallel-execution micro table")
    catalog.create_table(
        "bench",
        "metrics",
        [
            ColumnMeta("k", DataType.BIGINT, "row key"),
            ColumnMeta("g", DataType.BIGINT, "group key (100 groups)"),
            ColumnMeta("v", DataType.DOUBLE, "uniform value"),
            ColumnMeta("w", DataType.BIGINT, "weight"),
        ],
        bucket="bench",
        prefix="metrics",
    )
    return store, Planner(catalog, "bench"), Optimizer()


def _timed_run(store, plan, workers):
    """One execution at ``workers``; returns (result, gets, wall_seconds)."""
    before_gets = store.metrics.get_requests
    executor = QueryExecutor(
        ObjectStoreSource(store), workers=workers, batch_size=ROWS_PER_GROUP
    )
    started = time.perf_counter()
    result = executor.execute(plan)
    wall = time.perf_counter() - started
    return result, store.metrics.get_requests - before_gets, wall


def _checksum(result) -> str:
    payload = repr((result.column_names, result.rows())).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def test_morsel_parallel_speedup():
    store, planner, optimizer = _environment()
    meta = {
        "workers": PARALLEL_WORKERS,
        "morsels": NUM_ROWS // ROWS_PER_GROUP,
        "get_sleep_s": GET_SLEEP_S,
    }

    def run():
        observed = {}
        for name, sql in QUERIES.items():
            plan = optimizer.optimize(planner.plan_sql(sql))
            sequential = parallel = None
            seq_walls, par_walls = [], []
            for _ in range(REPEATS):
                sequential, seq_gets, wall = _timed_run(store, plan, 1)
                seq_walls.append(wall)
            for _ in range(REPEATS):
                parallel, par_gets, wall = _timed_run(
                    store, plan, PARALLEL_WORKERS
                )
                par_walls.append(wall)
            # Worker-count invariance: same rows, same billing basis,
            # same GET count — parallelism must be unobservable except
            # in wall time.
            assert parallel.rows() == sequential.rows(), name
            assert parallel.stats.bytes_scanned == sequential.stats.bytes_scanned
            assert par_gets == seq_gets, name
            observed[name] = {
                "rows_produced": sequential.stats.rows_produced,
                "rows_scanned": sequential.stats.rows_scanned,
                "bytes_scanned": sequential.stats.bytes_scanned,
                "get_requests": seq_gets,
                "checksum": _checksum(sequential),
            }
            # min: the latency floor is the honest sample for sleep-bound
            # timings; scheduler noise only ever adds.
            meta[f"seq_wall_s_{name}"] = round(min(seq_walls), 4)
            meta[f"par_wall_s_{name}"] = round(min(par_walls), 4)
            meta[f"speedup_{name}"] = round(min(seq_walls) / min(par_walls), 3)
        suite_seq = sum(meta[f"seq_wall_s_{name}"] for name in QUERIES)
        suite_par = sum(meta[f"par_wall_s_{name}"] for name in QUERIES)
        meta["speedup_suite"] = round(suite_seq / suite_par, 3)
        return observed

    observed = bench_record(
        "engine_parallel", run, lambda result: result, rounds=2, meta=meta
    )
    suite_speedup = meta["speedup_suite"]
    # Only deterministic figures go into the committed report; wall times
    # and speedups vary per run and live in the record's "meta" section
    # (results/bench_engine_parallel.json, not committed).
    report(
        "engine_parallel: morsel-driven scan speedup",
        [
            f"{name}: {observed[name]['get_requests']} GETs, "
            f"{observed[name]['rows_scanned']} rows scanned, "
            f"{observed[name]['rows_produced']} rows out, identical at 1 and "
            f"{PARALLEL_WORKERS} workers"
            for name in QUERIES
        ]
        + [
            f"suite speedup at {PARALLEL_WORKERS} workers: gated >= {MIN_SPEEDUP}x; "
            "wall times in results/bench_engine_parallel.json (meta)"
        ],
    )
    assert suite_speedup >= MIN_SPEEDUP, (
        f"morsel parallelism regressed: {suite_speedup:.2f}x < {MIN_SPEEDUP}x "
        f"at {PARALLEL_WORKERS} workers"
    )
