"""Drives the three workloads through the public API and records rounds.

One *round* is: set up a fresh :class:`PixelsDB` (timed as ``setup``),
then run the workload's measured phase.  Every round of a run replays the
same seed-derived inputs, so each round's simulated outcome (bills,
on-time ratios, admission verdicts) must be identical; the runner checks
that.  Query results are checked against committed digests after each
measured unit, outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from calib import Calibrator
from digests import DigestCheck, rows_digest
from repro import GuardPolicy, PixelsDB, ServiceLevel, TurboConfig
from repro.core.scheduler import AdmissionPolicy, SessionFleet
from repro.errors import PixelsError
import workloads as W

#: Fleet cost model: MB-scale data modelled at TB scale (see TurboConfig.experiment).
FLEET_DATA_INFLATION = 3000.0
FLEET_ADMISSION = AdmissionPolicy(tenant_quota=400, downgrade_queue_depth=20)
#: Soft budgets above what any tenant spends in one replay: the budget
#: alerts and the spend report run, but admission behaves exactly as in
#: the unobserved twin.
FLEET_TENANT_BUDGET_USD = 1.0
#: Closed-loop dashboard probes per panel class per round.
PROBES_PER_CLASS = 40
#: Simulated-time step while a closed-loop query runs to completion.
PROBE_STEP_S = 1.0


@dataclass
class Round:
    """What one round measured."""

    setup_raw_s: float = 0.0
    setup_cal_s: float = 0.0
    #: query class -> calibrated (and raw) wall seconds of closed-loop queries
    class_cal: dict[str, list[float]] = field(default_factory=dict)
    class_raw: dict[str, list[float]] = field(default_factory=dict)
    #: Wall seconds of the throughput phase, and the terminal queries in it.
    phase_raw_s: float = 0.0
    phase_cal_s: float = 0.0
    phase_queries: int = 0
    attempted: int = 0
    succeeded: int = 0
    errors: list[str] = field(default_factory=list)
    #: Simulated outcome; must be identical across rounds of one run.
    simulated: dict = field(default_factory=dict)
    #: Program-side counters for the per-layer report.
    counters: dict = field(default_factory=dict)
    #: Wall seconds of the whole measured phase and its terminal queries.
    measured_raw_s: float = 0.0
    measured_cal_s: float = 0.0
    terminal: int = 0
    #: Server records whose outcome the round reports.
    queries: list = field(default_factory=list, repr=False)

    def add_unit(self, query_class: str, raw: float, cal: float) -> None:
        self.class_raw.setdefault(query_class, []).append(raw)
        self.class_cal.setdefault(query_class, []).append(cal)

    def verify(self, check: DigestCheck, text: str, query) -> None:
        """Count ``query`` as a success only if it finished with the
        expected result digest; otherwise record why in ``errors``.  A
        failed query, or one still pending or running, is an error too."""
        status = query.status.value
        if status != "finished":
            self.errors.append(f"query {status}: {text[:120]}")
            return
        self.succeeded += check.check(text, query.result_rows())
        self.errors.extend(check.mismatches)
        check.mismatches.clear()


def run_until_terminal(db: PixelsDB, query, step_s: float = PROBE_STEP_S) -> None:
    while not query.status.is_terminal:
        db.run(step_s)


def _simulated_outcome(queries) -> dict:
    """Billing and SLA figures of a set of server records (exact sim outputs)."""
    immediate = [q for q in queries if q.level is ServiceLevel.IMMEDIATE]
    relaxed = [
        q for q in queries if q.level is ServiceLevel.RELAXED and not q.downgraded
    ]
    on_time = sum(1 for q in immediate if q.pending_time_s == 0.0)
    within = sum(
        1
        for q in relaxed
        if q.execution is not None
        and q.execution.started_at is not None
        and q.execution.started_at <= q.grace_deadline
    )
    executions = [q.execution for q in queries if q.execution is not None]
    return {
        "queries": len(queries),
        "immediate": len(immediate),
        "immediate_on_time": on_time,
        "relaxed": len(relaxed),
        "relaxed_within_grace": within,
        "billed_nanodollars": sum(q.price_nanodollars for q in queries),
        "provider_usd": round(sum(e.provider_cost for e in executions), 12),
        "cf_queries": sum(1 for e in executions if e.venue is not None and e.venue.value == "cf"),
        "downgraded": sum(1 for q in queries if q.downgraded),
    }


def storage_snapshot(db: PixelsDB, schemas) -> dict:
    """Cumulative store and VM buffer-pool counters."""
    metrics = db.store.metrics
    pools = [db.coordinator(schema).vm_buffer_pool for schema in schemas]
    return {
        "get_requests": metrics.get_requests,
        "bytes_read": metrics.bytes_read,
        "pool_hits": sum(p.stats.chunk_hits for p in pools),
        "pool_misses": sum(p.stats.chunk_misses for p in pools),
        "pool_evictions": sum(p.stats.chunk_evictions for p in pools),
    }


def layer_counters(db: PixelsDB, schemas, queries, baseline: dict) -> dict:
    """Program-side counts of the measured phase (per-layer report input)."""
    now = storage_snapshot(db, schemas)
    results = [
        q.execution.result
        for q in queries
        if q.execution is not None and q.execution.result is not None
    ]
    return {
        **{key: now[key] - baseline[key] for key in now},
        "rows_scanned": sum(r.stats.rows_scanned for r in results),
        "rows_out": sum(r.num_rows for r in results),
        "vm_queue_waits": sorted(
            q.execution.pending_time_s
            for q in queries
            if q.execution is not None
            and q.execution.venue is not None
            and q.execution.venue.value == "vm"
            and q.execution.pending_time_s is not None
        ),
    }


class Workload:
    """Common round structure; subclasses supply the setup and the phase."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected

    def new_db(self) -> PixelsDB:  # pragma: no cover - abstract
        raise NotImplementedError

    def warm_ups(self, db: PixelsDB) -> list:  # pragma: no cover - abstract
        """One callable per query class, each running one query."""
        raise NotImplementedError

    def measured(self, db: PixelsDB, cal: Calibrator, result: Round) -> None:  # pragma: no cover
        raise NotImplementedError

    def set_up(self, cal: Calibrator, result: Round) -> PixelsDB:
        """Construct, load and warm up a fresh database, timing each piece
        as its own calibrated unit."""

        def timed(action, *args):
            cal.begin()
            value = action(*args)
            raw, calibrated = cal.end()
            result.setup_raw_s += raw
            result.setup_cal_s += calibrated
            return value

        db = timed(self.new_db)
        for schema in self.tables:
            timed(db.load_tables, schema, self.tables[schema])
        for warm_up in self.warm_ups(db):
            timed(warm_up)
        return db

    def run_round(self, cal: Calibrator, on_measured=None) -> tuple[Round, PixelsDB]:
        """Set up (timed) and run the measured phase; ``on_measured`` is
        called between the two."""
        result = Round()
        db = self.set_up(cal, result)
        if on_measured is not None:
            on_measured()
        baseline = storage_snapshot(db, self.tables)
        self.measured(db, cal, result)
        result.counters.update(layer_counters(db, self.tables, result.queries, baseline))
        result.counters.update(result.simulated)
        # Server records reach the whole database; keeping them would hold
        # every earlier round in memory.
        result.queries = []
        return result, db

    def accuracy(self, db: PixelsDB) -> float:
        """Untimed NL execution accuracy over the fixed question set."""
        cases = self.expected["nl"][self.nl_key]
        correct = 0
        for case in cases:
            try:
                sql = db.ask(case["schema"], case["question"])
                query = db.submit(case["schema"], sql, ServiceLevel.IMMEDIATE)
                run_until_terminal(db, query)
            except PixelsError:
                continue
            correct += rows_digest(query.result_rows()) == case["gold_digest"]
        return correct / len(cases)


class AnalystSession(Workload):
    """Closed loop, one client: NL questions and ad-hoc template queries."""

    nl_key = "analyst"

    def __init__(self, seed: int, expected: dict) -> None:
        super().__init__(expected)
        self.tables = W.analyst_tables()
        pool = [case for case in expected["nl"]["analyst"] if case["answerable"]]
        self.steps = W.analyst_steps(seed, pool)
        rng = np.random.default_rng(0)
        self.warm_up_steps = [
            W.Step(t.name, t.schema, t.draw(rng), False) for t in W.ANALYST_TEMPLATES
        ] + [W.Step("nl", pool[0]["schema"], pool[0]["question"], False)]
        self.digests = {
            "sql": DigestCheck(expected["analyst"]),
            "nl": DigestCheck({c["key"]: c["gold_digest"] for c in pool}),
        }

    def new_db(self) -> PixelsDB:
        return PixelsDB(seed=0)

    @staticmethod
    def _run_step(db: PixelsDB, step: W.Step):
        sql = db.ask(step.schema, step.text) if step.query_class == "nl" else step.text
        level = ServiceLevel.RELAXED if step.relaxed else ServiceLevel.IMMEDIATE
        query = db.submit(step.schema, sql, level)
        db.run_to_completion()
        return query

    def warm_ups(self, db: PixelsDB) -> list:
        return [lambda step=step: self._run_step(db, step) for step in self.warm_up_steps]

    def measured(self, db: PixelsDB, cal: Calibrator, result: Round) -> None:
        first = {schema: len(db.query_server(schema).queries) for schema in self.tables}
        for step in self.steps:
            result.attempted += 1
            cal.begin()
            try:
                query = self._run_step(db, step)
            except PixelsError as error:
                cal.end()
                result.errors.append(f"{step.query_class}: {error}")
                continue
            raw, calibrated = cal.end()
            result.add_unit(step.query_class, raw, calibrated)
            result.verify(self.digests["nl" if step.query_class == "nl" else "sql"], step.text, query)
            result.phase_queries += 1
        result.phase_raw_s = sum(sum(v) for v in result.class_raw.values())
        result.phase_cal_s = sum(sum(v) for v in result.class_cal.values())
        measured = [
            q for schema, start in first.items() for q in db.query_server(schema).queries[start:]
        ]
        result.queries = measured
        result.simulated = _simulated_outcome(measured)
        result.simulated["rejected"] = 0
        result.measured_raw_s = result.phase_raw_s
        result.measured_cal_s = result.phase_cal_s
        result.terminal = result.phase_queries


class FleetReplay(Workload):
    """Open loop in simulated time: a multi-tenant dashboard fleet."""

    nl_key = "fleet"

    def __init__(self, seed: int, expected: dict, observe: bool) -> None:
        super().__init__(expected)
        self.observe = observe
        self.tables = W.fleet_tables()
        self.sessions = W.fleet_sessions(seed)
        rng = np.random.default_rng([seed, 3])
        self.probes = [
            (template.name, template.draw(rng))
            for _ in range(PROBES_PER_CLASS)
            for template in W.DASHBOARD_TEMPLATES
        ]
        self.digests = DigestCheck(expected["fleet"])

    def new_db(self) -> PixelsDB:
        kwargs = {}
        if self.observe:
            kwargs = dict(
                observe=True,
                scrape_interval_s=30.0,
                tenant_budgets={t: FLEET_TENANT_BUDGET_USD for t in W.TENANTS},
                guard=GuardPolicy(),
            )
        db = PixelsDB(
            config=TurboConfig.experiment(data_inflation=FLEET_DATA_INFLATION),
            seed=0,
            **kwargs,
        )
        db.query_server("tpch", admission=FLEET_ADMISSION)
        return db

    def warm_ups(self, db: PixelsDB) -> list:
        rng = np.random.default_rng(0)
        return [
            lambda sql=template.draw(rng): run_until_terminal(db, db.submit("tpch", sql))
            for template in W.DASHBOARD_TEMPLATES
        ]

    def measured(self, db: PixelsDB, cal: Calibrator, result: Round) -> None:
        server = db.query_server("tpch")
        # Closed-loop probe: what one dashboard user waits for per panel.
        for query_class, sql in self.probes:
            result.attempted += 1
            cal.begin()
            query = db.submit("tpch", sql, ServiceLevel.IMMEDIATE, tenant=W.PROBE_TENANT)
            run_until_terminal(db, query)
            raw, calibrated = cal.end()
            result.add_unit(query_class, raw, calibrated)
            result.verify(self.digests, sql, query)
        # Open-loop replay, timed in fixed simulated-time slices.
        first = len(server.queries)
        base = db.now
        fleet = SessionFleet(db.sim, server, num_shards=16)
        for spec in self.sessions:
            fleet.add(replace(spec, arrivals=tuple(base + offset for offset in spec.arrivals)))
        fleet.start()
        horizon = base + W.HORIZON_S
        until = base
        while until < horizon:
            until = min(horizon, until + W.SLICE_S)
            cal.begin()
            db.sim.run_until(until)
            raw, calibrated = cal.end()
            result.phase_raw_s += raw
            result.phase_cal_s += calibrated
        cal.begin()
        db.run_to_completion()
        raw, calibrated = cal.end()
        result.phase_raw_s += raw
        result.phase_cal_s += calibrated
        replay = server.queries[first:]
        totals = fleet.totals()
        result.attempted += totals["submitted"] + totals["rejected"]
        result.phase_queries = sum(1 for q in replay if q.status.is_terminal)
        for query in replay:
            result.verify(self.digests, query.sql, query)
        result.queries = replay
        result.simulated = _simulated_outcome(replay)
        admission = server.scheduler_snapshot()["admission"]
        result.simulated["rejected"] = sum(admission["rejected"].values())
        result.measured_raw_s = sum(sum(v) for v in result.class_raw.values()) + result.phase_raw_s
        result.measured_cal_s = sum(sum(v) for v in result.class_cal.values()) + result.phase_cal_s
        result.terminal = len(self.probes) + result.phase_queries
        if self.observe:
            report = db.reconcile()
            if not report.ok:
                result.errors.append(f"reconcile failed: {report}")
            result.counters["timeseries_points"] = len(db.timeseries.points)


def make_workload(name: str, seed: int, expected: dict) -> Workload:
    if name == "analyst_session":
        return AnalystSession(seed, expected)
    if name in ("fleet_dashboards", "fleet_observed"):
        return FleetReplay(seed, expected, observe=name == "fleet_observed")
    raise ValueError(f"unknown workload {name!r}")
