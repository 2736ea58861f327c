"""End-to-end tracing: deterministic exports, span closure on every
termination path, and the zero-cost disabled default."""

import json

from repro import PixelsDB, ServiceLevel
from repro.core import QueryServer, QueryStatus
from repro.obs import Instrumentation
from repro.sim import Simulator
from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.turbo import Coordinator, TurboConfig
from repro.turbo.faults import FaultConfig
from repro.workloads import TpchGenerator, load_dataset

SQL = "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag"


def run_session(observe=True):
    db = PixelsDB(observe=observe, seed=5)
    db.load_tpch("tpch", scale=0.01)
    db.submit("tpch", "SELECT COUNT(*) FROM nation", ServiceLevel.IMMEDIATE)
    db.submit(
        "tpch",
        "SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment",
        ServiceLevel.RELAXED,
    )
    db.submit("tpch", "SELECT COUNT(*) FROM region", ServiceLevel.BEST_EFFORT)
    db.run_to_completion()
    return db


def make_observed_stack(faults=None, seed=3):
    sim = Simulator(seed=seed)
    store = ObjectStore()
    catalog = Catalog()
    load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.02).tables())
    config = TurboConfig.fast()
    obs = Instrumentation.create(clock=lambda: sim.now)
    coordinator = Coordinator(
        sim, config, catalog, store, "tpch", faults=faults, obs=obs
    )
    server = QueryServer(sim, coordinator, config)
    return sim, coordinator, server, obs


def span_names(timeline):
    names = []

    def walk(nodes):
        for node in nodes:
            names.append(node["name"])
            walk(node["children"])

    walk(timeline["spans"])
    return names


class TestDeterminism:
    def test_same_seed_gives_byte_identical_traces(self):
        first = run_session().obs.tracer.export_all_json()
        second = run_session().obs.tracer.export_all_json()
        assert first == second
        assert json.loads(first)  # non-empty, valid JSON

    def test_query_lifecycle_spans_present(self):
        db = run_session()
        timeline = json.loads(db.obs.tracer.export_json("sq-1"))
        names = span_names(timeline)
        for expected in ("query", "submit", "dispatch", "plan", "execute", "scan", "bill"):
            assert expected in names, f"missing span {expected!r}"
        # Every span is closed with a terminal status.
        def statuses(nodes):
            for node in nodes:
                yield node["status"], node["end"]
                yield from statuses(node["children"])

        for status, end in statuses(timeline["spans"]):
            assert status != "open"
            assert end is not None


class TestClosureOnTerminationPaths:
    def test_cancellation_closes_spans_as_cancelled(self):
        sim, coordinator, server, obs = make_observed_stack()
        record = server.submit(SQL, ServiceLevel.IMMEDIATE)
        sim.run_until(0.01)  # dispatched, still executing
        assert server.cancel(record.query_id)
        sim.run_until(60)
        assert record.status is QueryStatus.FAILED
        spans = obs.tracer.spans(record.query_id)
        assert spans and obs.tracer.open_spans(record.query_id) == []
        assert any(span.status == "cancelled" for span in spans)

    def test_cancel_while_held_in_server_queue(self):
        sim, coordinator, server, obs = make_observed_stack()
        # best-effort is held whenever the cluster is not below the low
        # watermark; submit a blocker first.
        server.submit(SQL, ServiceLevel.IMMEDIATE)
        held = server.submit(SQL, ServiceLevel.BEST_EFFORT)
        assert held.status is QueryStatus.PENDING
        assert server.cancel(held.query_id)
        spans = obs.tracer.spans(held.query_id)
        queue_spans = [s for s in spans if s.name == "queue"]
        assert queue_spans and queue_spans[0].status == "cancelled"
        assert obs.tracer.open_spans(held.query_id) == []

    def test_cf_retries_leave_retry_spans(self):
        sim, coordinator, server, obs = make_observed_stack(
            FaultConfig(cf_failure_rate=0.5, max_retries=10)
        )
        for _ in range(4):  # saturate the VM slots
            server.submit(SQL, ServiceLevel.RELAXED)
        record = server.submit(SQL, ServiceLevel.IMMEDIATE)
        sim.run_until(1800)
        assert record.status is QueryStatus.FINISHED
        assert record.execution.retries > 0
        spans = obs.tracer.spans(record.query_id)
        invokes = [s for s in spans if s.name == "cf_invoke"]
        assert len(invokes) == record.execution.retries + 1
        assert [s.status for s in invokes] == ["retry"] * record.execution.retries + ["ok"]
        assert obs.tracer.open_spans(record.query_id) == []

    def test_vm_crash_retry_marks_execute_span(self):
        sim, coordinator, server, obs = make_observed_stack(
            FaultConfig(vm_crash_rate=0.5, max_retries=10)
        )
        records = [server.submit(SQL, ServiceLevel.RELAXED) for _ in range(8)]
        sim.run_until(1800)
        assert all(r.status is QueryStatus.FINISHED for r in records)
        retried = [r for r in records if r.execution.retries > 0]
        assert retried
        for record in retried:
            executes = [
                s for s in obs.tracer.spans(record.query_id) if s.name == "execute"
            ]
            assert sum(1 for s in executes if s.status == "retry") == (
                record.execution.retries
            )
            assert executes[-1].status == "ok"
            assert obs.tracer.open_spans(record.query_id) == []


class TestDisabledDefault:
    def test_observe_off_records_nothing(self):
        db = run_session(observe=False)
        assert db.obs is None

    def test_unobserved_session_builds_no_sink(self, monkeypatch):
        from repro.obs import (
            ActivityRegistry,
            MeterLedger,
            QueryJournal,
            SloTracker,
            SpendAccountant,
            StatementStore,
        )

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built while unobserved")

        for sink in (
            MeterLedger,
            QueryJournal,
            StatementStore,
            SloTracker,
            SpendAccountant,
            ActivityRegistry,
        ):
            monkeypatch.setattr(sink, "__init__", refuse)
        db = run_session(observe=False)
        queries = db.query_server("tpch").queries
        assert [q.status for q in queries] == [QueryStatus.FINISHED] * 3
        assert db.dashboard_text()

    def test_results_identical_with_and_without_observability(self):
        queries_on = run_session(observe=True).query_server("tpch").queries
        queries_off = run_session(observe=False).query_server("tpch").queries
        assert [q.result_rows() for q in queries_on] == [
            q.result_rows() for q in queries_off
        ]
        assert [q.price for q in queries_on] == [q.price for q in queries_off]
        assert [q.price_nanodollars for q in queries_on] == [
            q.price_nanodollars for q in queries_off
        ]


class TestMetricsEndToEnd:
    def test_exposition_covers_the_paper_series(self):
        db = run_session()
        text = db.obs.metrics.render()
        for series in (
            "pixels_queries_submitted_total",
            "pixels_queries_total",
            "pixels_billed_dollars_total",
            "pixels_server_queue_depth",
            "pixels_vm_workers",
            "pixels_vm_queue_depth",
            "pixels_cache_events_total",
            "pixels_logical_bytes_scanned_total",
            "pixels_store_requests_total",
            "pixels_query_pending_seconds_bucket",
        ):
            assert series in text, f"missing series {series!r}"
        assert 'pixels_queries_submitted_total{level="immediate"} 1' in text
        assert 'pixels_queries_total{status="ok",venue="vm"} 3' in text

    def test_watermark_crossings_counted(self):
        from repro.turbo.config import VmConfig
        from repro.turbo.vm_cluster import VmCluster, VmTask

        sim = Simulator()
        obs = Instrumentation.create(clock=lambda: sim.now)
        cluster = VmCluster(
            sim,
            VmConfig(
                min_workers=1,
                max_workers=8,
                slots_per_worker=2,
                scale_out_lag_s=5.0,
                evaluation_interval_s=1.0,
                scale_in_window_s=20.0,
                scale_in_cooldown_s=20.0,
            ),
            obs=obs,
        )
        workers = []
        for index in range(12):  # hold 12 tasks open: far above high watermark
            cluster.submit(
                VmTask(task_id=f"t{index}", on_start=workers.append)
            )
        sim.run_until(10.0)
        counter = obs.metrics.get("pixels_vm_watermark_crossings_total")
        assert counter.value(watermark="high") == cluster.scale_out_events > 0
        # Release everything; after the window + cooldown the cluster
        # scales back in and counts the low-watermark crossing.
        while workers:
            cluster.release(workers.pop())
        sim.run_until(120.0)
        assert counter.value(watermark="low") == cluster.scale_in_events > 0
        assert obs.metrics.get("pixels_vm_workers").value() == 1

    def test_rover_exposes_metrics_and_traces(self):
        from repro.rover import UserStore

        db = run_session()
        users = UserStore()
        users.register("ana", "pw", {"tpch"})
        rover = db.rover(users, "tpch")
        token = rover.login("ana", "pw")
        assert "pixels_queries_total" in rover.metrics(token)
        trace = json.loads(rover.trace(token, "sq-1"))
        assert trace["trace_id"] == "sq-1"
