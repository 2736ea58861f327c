"""Regenerate ``expected_digests.json``: the committed expected results.

Runs every member of each workload's query universe (see
``workloads.py``) once and stores the digest of its rows, plus the fixed
NL question sets with the digest of each gold SQL answer and whether the
text-to-SQL service answers the question correctly.  Run it from the
repository root only when the workloads change, never to make a failing
check pass:

    PYTHONPATH=src python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from digests import EXPECTED_PATH, rows_digest, text_key  # noqa: E402
from harness import run_until_terminal  # noqa: E402
from repro import PixelsDB, ServiceLevel  # noqa: E402
from repro.errors import PixelsError  # noqa: E402
from repro.nl2sql import Nl2SqlBenchmark  # noqa: E402
import workloads as W  # noqa: E402


def load(tables: dict) -> PixelsDB:
    db = PixelsDB(seed=0)
    for schema, schema_tables in tables.items():
        db.load_tables(schema, schema_tables)
    return db


def execute(db: PixelsDB, schema: str, sql: str) -> list[tuple]:
    query = db.submit(schema, sql, ServiceLevel.IMMEDIATE)
    run_until_terminal(db, query, step_s=60.0)
    if query.status.value != "finished":
        raise PixelsError(f"query failed: {query.error}: {sql}")
    return query.result_rows()


def universe_digests(db: PixelsDB, queries: list[tuple[str, str]]) -> dict[str, str]:
    return {text_key(sql): rows_digest(execute(db, schema, sql)) for schema, sql in queries}


def nl_cases(db: PixelsDB, schemas: list[str]) -> list[dict]:
    cases = []
    for schema in schemas:
        bench = Nl2SqlBenchmark(db.catalog.schema(schema), seed=W.NL_CASE_SEED)
        for case in bench.generate(W.NL_CASES_PER_SCHEMA):
            gold = rows_digest(execute(db, schema, case.gold_sql))
            try:
                answered = rows_digest(execute(db, schema, db.ask(schema, case.question)))
            except PixelsError:
                answered = None
            cases.append(
                {
                    "key": text_key(case.question),
                    "schema": schema,
                    "question": case.question,
                    "gold_digest": gold,
                    "answerable": answered == gold,
                }
            )
    return cases


def main() -> None:
    analyst = load(W.analyst_tables())
    fleet = load(W.fleet_tables())
    expected = {
        "analyst": universe_digests(analyst, W.analyst_sql_universe()),
        "fleet": universe_digests(fleet, [("tpch", sql) for sql in W.fleet_sql_universe()]),
        "nl": {
            "analyst": nl_cases(analyst, ["tpch", "weblogs"]),
            "fleet": nl_cases(fleet, ["tpch"]),
        },
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for name in ("analyst", "fleet"):
        cases = expected["nl"][name]
        answerable = sum(case["answerable"] for case in cases)
        print(f"{name}: {len(expected[name])} SQL digests, NL {answerable}/{len(cases)} answerable")


if __name__ == "__main__":
    main()
