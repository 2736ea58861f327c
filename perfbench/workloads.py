"""Inputs of the three benchmark workloads, generated from the workload seed.

Data never depends on the seed: every workload loads the same generated
tables, so the expected result of each query text is fixed and its digest
can be committed (``expected_digests.json``).  The seed picks *which*
queries run and *when*: every query text is drawn from a finite universe
(a template times its literal choices), and ``make_digests.py`` stores a
digest for every member of that universe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.core import ServiceLevel
from repro.core.scheduler import SessionSpec
from repro.workloads import LogsGenerator, TpchGenerator
from repro.workloads.arrivals import diurnal_arrivals, spike_arrivals, steady_arrivals

#: Fixed data-generation seeds: the tables are the same for every workload seed.
TPCH_DATA_SEED = 42
LOGS_DATA_SEED = 7
ANALYST_TPCH_SCALE = 1.0
ANALYST_LOG_ROWS = 100_000
FLEET_TPCH_SCALE = 0.1

#: Seed of the fixed NL question set (Nl2SqlBenchmark cases).
NL_CASE_SEED = 17
NL_CASES_PER_SCHEMA = 60


def analyst_tables() -> dict[str, list]:
    """schema -> generated tables of ``analyst_session``."""
    return {
        "tpch": TpchGenerator(scale=ANALYST_TPCH_SCALE, seed=TPCH_DATA_SEED).tables(),
        "weblogs": [LogsGenerator(num_rows=ANALYST_LOG_ROWS, seed=LOGS_DATA_SEED).table()],
    }


def fleet_tables() -> dict[str, list]:
    """schema -> generated tables of both fleet workloads."""
    return {"tpch": TpchGenerator(scale=FLEET_TPCH_SCALE, seed=TPCH_DATA_SEED).tables()}


# -- query universes ---------------------------------------------------------------


@dataclass(frozen=True)
class Template:
    """One query class: a format string and the choices for each literal."""

    name: str
    schema: str
    text: str
    choices: tuple[tuple, ...]

    def instances(self) -> list[str]:
        return [self.text.format(*combo) for combo in itertools.product(*self.choices)]

    def draw(self, rng: np.random.Generator) -> str:
        return self.text.format(*(c[int(rng.integers(0, len(c)))] for c in self.choices))

    def sample(self, rng: np.random.Generator, count: int) -> list[str]:
        """``count`` distinct instances (fewer if the universe is smaller)."""
        instances = self.instances()
        picks = rng.choice(len(instances), size=min(count, len(instances)), replace=False)
        return [instances[int(i)] for i in picks]


SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
SHIP_MODES = ("AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK")
YEARS = (1993, 1994, 1995, 1996, 1997)
MONTHS = tuple(f"{year}-{month:02d}" for year in YEARS for month in range(1, 13))

# The TPCH_QUERIES / LOGS_QUERIES templates of repro.workloads with their
# literals (dates, segments, thresholds, limits) turned into parameters.
ANALYST_TEMPLATES: tuple[Template, ...] = (
    Template(
        "q1_pricing_summary", "tpch",
        "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
        "sum(l_extendedprice) AS sum_base_price, "
        "sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
        "avg(l_quantity) AS avg_qty, count(*) AS count_order "
        "FROM lineitem WHERE l_shipdate <= DATE '{0}' "
        "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
        (tuple(f"1998-{m:02d}-{d:02d}" for m in range(6, 12) for d in (1, 8, 15, 22)),),
    ),
    Template(
        "q3_shipping_priority", "tpch",
        "SELECT o.o_orderkey, sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue, "
        "o.o_orderdate FROM customer c, orders o, lineitem l "
        "WHERE c.c_mktsegment = '{0}' AND c.c_custkey = o.o_custkey "
        "AND l.l_orderkey = o.o_orderkey AND o.o_orderdate < DATE '{1}-15' "
        "GROUP BY o.o_orderkey, o.o_orderdate "
        "ORDER BY revenue DESC, o_orderdate LIMIT 10",
        (SEGMENTS, MONTHS[12:36]),
    ),
    Template(
        "q5_local_supplier", "tpch",
        "SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue "
        "FROM customer c, orders o, lineitem l, supplier s, nation n, region r "
        "WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey "
        "AND l.l_suppkey = s.s_suppkey AND c.c_nationkey = s.s_nationkey "
        "AND s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey "
        "AND r.r_name = '{0}' AND o.o_orderdate >= DATE '{1}-01-01' "
        "AND o.o_orderdate < DATE '{2}-01-01' "
        "GROUP BY n_name ORDER BY revenue DESC",
        (REGIONS, YEARS[:4], (1998,)),
    ),
    Template(
        "q6_forecast_revenue", "tpch",
        "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem "
        "WHERE l_shipdate >= DATE '{0}-01' AND l_shipdate < DATE '{1}-01-01' "
        "AND l_discount BETWEEN {2} AND l_quantity < {3}",
        (MONTHS[:24], (1998,), ("0.02 AND 0.04", "0.05 AND 0.07", "0.08 AND 0.10"), (24, 30, 40)),
    ),
    Template(
        "q12_shipmode", "tpch",
        "SELECT l.l_shipmode, "
        "sum(CASE WHEN o.o_orderpriority = '1-URGENT' "
        "OR o.o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS high_line_count, "
        "sum(CASE WHEN o.o_orderpriority <> '1-URGENT' "
        "AND o.o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END) AS low_line_count "
        "FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
        "WHERE l.l_shipmode IN ({0}) "
        "AND l.l_shipdate >= DATE '{1}-01-01' AND l.l_shipdate < DATE '{1}-12-31' "
        "GROUP BY l.l_shipmode ORDER BY l.l_shipmode",
        (
            tuple(f"'{a}', '{b}'" for a, b in itertools.combinations(SHIP_MODES, 2)),
            YEARS,
        ),
    ),
    Template(
        "q14_promo_effect", "tpch",
        "SELECT 100.00 * sum(CASE WHEN p.p_type LIKE 'PROMO%' "
        "THEN l.l_extendedprice * (1 - l.l_discount) ELSE 0 END) / "
        "sum(l.l_extendedprice * (1 - l.l_discount)) AS promo_revenue "
        "FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey "
        "WHERE l.l_shipdate >= DATE '{0}-01' AND l.l_shipdate < DATE '{0}-28'",
        (MONTHS,),
    ),
    Template(
        "point_lookup", "tpch",
        "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders "
        "WHERE o_orderkey = {0}",
        (tuple(range(1, 601)),),
    ),
    Template(
        "top_customers", "tpch",
        "SELECT c.c_name, sum(o.o_totalprice) AS total_spent, count(*) AS orders "
        "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
        "WHERE o.o_orderdate >= DATE '{0}-01-01' "
        "GROUP BY c.c_name ORDER BY total_spent DESC LIMIT {1}",
        ((1992,) + YEARS, (5, 10, 15, 20, 25, 30, 40, 50)),
    ),
    Template(
        "error_rate_by_url", "weblogs",
        "SELECT url, count(*) AS errors FROM web_logs "
        "WHERE status >= {0} AND latency_ms > {1} GROUP BY url ORDER BY errors DESC",
        ((400, 403, 404, 500, 503), (0, 5, 10, 20, 40, 80)),
    ),
    Template(
        "top_urls_by_traffic", "weblogs",
        "SELECT url, sum(bytes_sent) AS total_bytes, count(*) AS hits "
        "FROM web_logs WHERE method = '{0}' "
        "GROUP BY url ORDER BY total_bytes DESC LIMIT {1}",
        (("GET", "POST", "PUT", "DELETE"), tuple(range(3, 15))),
    ),
    Template(
        "status_distribution", "weblogs",
        "SELECT status, count(*) AS n FROM web_logs WHERE ts >= {0} "
        "GROUP BY status ORDER BY status",
        (tuple(range(0, 7 * 86400, 6 * 3600)),),
    ),
    Template(
        "slow_requests", "weblogs",
        "SELECT url, avg(latency_ms) AS avg_latency, max(latency_ms) AS worst "
        "FROM web_logs GROUP BY url HAVING avg(latency_ms) > {0} "
        "ORDER BY avg_latency DESC",
        (tuple(range(10, 41)),),
    ),
    Template(
        "hourly_traffic", "weblogs",
        "SELECT CAST(ts / 3600 AS int) % 24 AS hour_of_day, count(*) AS hits "
        "FROM web_logs WHERE status = {0} AND bytes_sent > {1} "
        "GROUP BY CAST(ts / 3600 AS int) % 24 ORDER BY hour_of_day",
        ((200, 301, 304, 400, 403, 404, 500, 503), (0, 250000, 500000, 750000)),
    ),
    Template(
        "bot_share", "weblogs",
        "SELECT agent, count(*) AS hits, count(DISTINCT ip) AS clients "
        "FROM web_logs WHERE bytes_sent > {0} GROUP BY agent ORDER BY hits DESC",
        (tuple(range(0, 1_000_000, 50_000)),),
    ),
)

# Dashboard panels: point lookups and small GROUP BYs on orders/customer.
DASHBOARD_TEMPLATES: tuple[Template, ...] = (
    Template(
        "order_lookup", "tpch",
        "SELECT o_orderkey, o_totalprice, o_orderdate, o_orderstatus FROM orders "
        "WHERE o_orderkey = {0}",
        (tuple(range(1, 301)),),
    ),
    Template(
        "customer_lookup", "tpch",
        "SELECT c_name, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = {0}",
        (tuple(range(1, 151)),),
    ),
    Template(
        "orders_by_status", "tpch",
        "SELECT o_orderstatus, count(*) AS n, sum(o_totalprice) AS total "
        "FROM orders WHERE o_orderdate >= DATE '{0}-01' GROUP BY o_orderstatus",
        (MONTHS,),
    ),
    Template(
        "segment_balance", "tpch",
        "SELECT c_mktsegment, count(*) AS n, avg(c_acctbal) AS balance "
        "FROM customer WHERE c_nationkey = {0} GROUP BY c_mktsegment",
        (tuple(range(25)),),
    ),
    Template(
        "priority_mix", "tpch",
        "SELECT o_orderpriority, count(*) AS n FROM orders "
        "WHERE o_orderstatus = '{0}' AND o_totalprice > {1} "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority",
        (("F", "O", "P"), (0, 50000, 100000, 150000, 200000)),
    ),
)


# -- analyst_session ---------------------------------------------------------------

ANALYST_STEPS = 240
NL_SHARE = 0.3
RELAXED_SHARE = 0.3


@dataclass(frozen=True)
class Step:
    """One analyst action: a template query, or an NL question to ask."""

    query_class: str  # template name, or "nl"
    schema: str
    text: str  # SQL text, or the NL question
    relaxed: bool


def analyst_steps(seed: int, nl_pool: list[dict]) -> list[Step]:
    """The closed-loop analyst session of one round (same for every round).

    The mix is fixed — every template equally often, ``NL_SHARE`` NL
    questions, ``RELAXED_SHARE`` of each class submitted as relaxed — and
    texts are drawn without replacement, so seeds differ only in which
    literals and questions run and in what order, not in how much work or
    how many dollars a round holds.
    """
    rng = np.random.default_rng([seed, 1])
    nl_steps = round(ANALYST_STEPS * NL_SHARE)
    per_template = (ANALYST_STEPS - nl_steps) // len(ANALYST_TEMPLATES)

    def with_levels(query_class: str, schema: str, texts: list[str]) -> list[Step]:
        relaxed = rng.permutation(len(texts)) < round(len(texts) * RELAXED_SHARE)
        return [
            Step(query_class, schema, text, bool(flag))
            for text, flag in zip(texts, relaxed.tolist())
        ]

    steps = []
    for template in ANALYST_TEMPLATES:
        steps += with_levels(template.name, template.schema, template.sample(rng, per_template))
    picks = rng.choice(len(nl_pool), size=nl_steps, replace=nl_steps > len(nl_pool))
    for schema in sorted({nl_pool[int(i)]["schema"] for i in picks}):
        questions = [nl_pool[int(i)]["question"] for i in picks if nl_pool[int(i)]["schema"] == schema]
        steps += with_levels("nl", schema, questions)
    return [steps[i] for i in rng.permutation(len(steps)).tolist()]


# -- fleet_dashboards / fleet_observed ---------------------------------------------

TENANTS = tuple(f"tenant-{i}" for i in range(8))
PROBE_TENANT = "ops-probe"
HORIZON_S = 2 * 3600.0
SLICE_S = 300.0
REFRESHES_PER_SESSION = 2
REFRESH_EVERY_S = 120.0


def _refreshes(start: float) -> tuple[float, ...]:
    return tuple(
        start + k * REFRESH_EVERY_S
        for k in range(REFRESHES_PER_SESSION)
        if start + k * REFRESH_EVERY_S < HORIZON_S
    )


def fleet_sessions(seed: int) -> list[SessionSpec]:
    """Every session of one fleet replay (same for both fleet workloads).
    Arrivals are offsets from the start of the replay."""
    rng = np.random.default_rng([seed, 2])
    # Every tenant's dashboard has one panel per template; its sessions
    # rotate through the panels, so the query mix is the same for every seed.
    panels = {
        tenant: [template.draw(rng) for template in DASHBOARD_TEMPLATES] for tenant in TENANTS
    }
    opened = {tenant: 0 for tenant in TENANTS}
    sessions: list[SessionSpec] = []

    def add(kind: str, tenant: str, level: ServiceLevel, start: float, sql: str, refresh: bool):
        arrivals = _refreshes(start) if refresh else (start,)
        sessions.append(SessionSpec(f"{kind}-{len(sessions)}", tenant, level, arrivals, sql))

    def panel(tenant: str) -> str:
        opened[tenant] += 1
        return panels[tenant][opened[tenant] % len(DASHBOARD_TEMPLATES)]

    for index, start in enumerate(
        diurnal_arrivals(rng, HORIZON_S, peak_rate_per_s=0.13, period_s=HORIZON_S)
    ):
        tenant = TENANTS[index % len(TENANTS)]
        add("bulk", tenant, ServiceLevel.BEST_EFFORT, start, panel(tenant), refresh=True)
    stream = steady_arrivals(rng, HORIZON_S, rate_per_s=0.04)
    burst = spike_arrivals(
        rng, HORIZON_S, base_rate_per_s=0.0, spike_at_s=HORIZON_S / 4,
        spike_queries=100, spike_spread_s=30.0,
    )
    for index, start in enumerate(stream + burst):
        tenant = TENANTS[index % len(TENANTS)]
        add("stream", tenant, ServiceLevel.RELAXED, start, panel(tenant), refresh=True)
    spikes = spike_arrivals(
        rng, HORIZON_S, base_rate_per_s=0.0, spike_at_s=HORIZON_S / 2,
        spike_queries=100, spike_spread_s=20.0,
    )
    for index, start in enumerate(spikes):
        tenant = TENANTS[index % len(TENANTS)]
        add("spike", tenant, ServiceLevel.IMMEDIATE, start, panel(tenant), refresh=False)
    for start in np.arange(120.0, HORIZON_S, 60.0):
        sql = DASHBOARD_TEMPLATES[0].draw(rng)
        add("probe", PROBE_TENANT, ServiceLevel.IMMEDIATE, float(start), sql, refresh=False)
    return sessions


def fleet_sql_universe() -> list[str]:
    return [sql for template in DASHBOARD_TEMPLATES for sql in template.instances()]


def analyst_sql_universe() -> list[tuple[str, str]]:
    return [
        (template.schema, sql)
        for template in ANALYST_TEMPLATES
        for sql in template.instances()
    ]
