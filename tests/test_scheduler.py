"""The layered scheduler: WFQ core, admission layer, session shards,
and their integration through the QueryServer façade."""

import pytest

from repro.core import QueryStatus, ServiceLevel
from repro.core.query_server import ServerQuery
from repro.core.scheduler import (
    AdmissionController,
    AdmissionPolicy,
    FairQueue,
    LevelScheduler,
    SessionFleet,
    SessionSpec,
    jain_index,
    shard_of,
)
from repro.errors import QueryRejectedError

HEAVY = "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag"


def _record(query_id, tenant, level=ServiceLevel.RELAXED):
    return ServerQuery(
        query_id=query_id,
        sql="SELECT 1",
        level=level,
        submitted_at=0.0,
        tenant=tenant,
    )


class TestFairQueue:
    def test_single_tenant_degenerates_to_fifo(self):
        queue = FairQueue()
        for i in range(5):
            queue.push(_record(f"q{i}", "solo"))
        order = [queue.pop().query_id for _ in range(5)]
        assert order == [f"q{i}" for i in range(5)]

    def test_equal_shares_interleave_flows(self):
        queue = FairQueue()
        for i in range(4):
            queue.push(_record(f"a{i}", "a"))
        for i in range(4):
            queue.push(_record(f"b{i}", "b"))
        order = [queue.pop().query_id for _ in range(8)]
        # Tenant b arrived second but is not starved behind a's backlog.
        assert order == ["a0", "b0", "a1", "b1", "a2", "b2", "a3", "b3"]

    def test_weighted_shares_bias_dispatch(self):
        queue = FairQueue(shares={"a": 2.0, "b": 1.0})
        for i in range(4):
            queue.push(_record(f"a{i}", "a"))
        for i in range(4):
            queue.push(_record(f"b{i}", "b"))
        first_six = [queue.pop().query_id for _ in range(6)]
        # Share 2:1 → tenant a gets ~2 dispatches for each of b's.
        assert sum(1 for q in first_six if q.startswith("a")) == 4

    def test_remove_is_tombstoned(self):
        queue = FairQueue()
        for i in range(3):
            queue.push(_record(f"q{i}", "t"))
        assert queue.remove("q1") is True
        assert queue.remove("q1") is False
        assert len(queue) == 2
        assert [r.query_id for r in queue.records()] == ["q0", "q2"]
        assert [queue.pop().query_id for _ in range(2)] == ["q0", "q2"]
        assert queue.pop() is None

    def test_depths_by_tenant(self):
        queue = FairQueue()
        queue.push(_record("x", "b"))
        queue.push(_record("y", "a"))
        queue.push(_record("z", "a"))
        assert queue.depths() == {"a": 2, "b": 1}
        assert queue.push(_record("w", "a")) > 0.0  # returns finish tag

    def test_finish_tag_recorded_on_record(self):
        queue = FairQueue()
        record = _record("q", "t")
        tag = queue.push(record)
        assert record.finish_tag == tag


class TestJainIndex:
    def test_perfect_fairness(self):
        assert jain_index([3, 3, 3, 3]) == pytest.approx(1.0)

    def test_total_capture(self):
        assert jain_index([8, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jain_index([]) is None
        assert jain_index([0, 0]) is None


class TestLevelScheduler:
    def test_snapshot_shape(self):
        scheduler = LevelScheduler(shares={"a": 2.0})
        scheduler.push(_record("r1", "a", ServiceLevel.RELAXED))
        scheduler.push(_record("b1", "b", ServiceLevel.BEST_EFFORT))
        scheduler.pop(ServiceLevel.RELAXED)
        snap = scheduler.snapshot()
        assert snap["queues"] == {"relaxed": {}, "best_effort": {"b": 1}}
        assert snap["queue_depths"] == {"relaxed": 0, "best_effort": 1}
        assert snap["dispatched_by_tenant"] == {"a": 1}
        assert snap["fairness"]["jain_dispatched"] == 1.0
        assert snap["shares"] == {"default": 1.0, "a": 2.0}

    def test_claim_counts_as_dispatch(self):
        scheduler = LevelScheduler()
        record = _record("r1", "a", ServiceLevel.RELAXED)
        scheduler.push(record)
        assert scheduler.claim(record) is True
        assert scheduler.claim(record) is False
        assert scheduler.dispatched_by_tenant() == {"a": 1}

    def test_immediate_has_no_hold_queue(self):
        scheduler = LevelScheduler()
        with pytest.raises(ValueError):
            scheduler.queue(ServiceLevel.IMMEDIATE)


class TestAdmissionController:
    def test_default_policy_admits_everything(self):
        controller = AdmissionController()
        for _ in range(1000):
            decision = controller.decide(
                "t", ServiceLevel.RELAXED, tenant_live=999, relaxed_depth=999
            )
            assert decision.action == "admit"
        assert controller.snapshot()["admitted"] == 1000

    def test_tenant_quota_rejects(self):
        controller = AdmissionController(AdmissionPolicy(tenant_quota=2))
        ok = controller.decide("t", ServiceLevel.RELAXED, 1, 0)
        full = controller.decide("t", ServiceLevel.RELAXED, 2, 0)
        assert ok.admitted and full.action == "reject"
        assert full.reason == "tenant_quota"
        assert controller.snapshot()["rejected"] == {"tenant_quota": 1}

    def test_token_bucket_refills_on_sim_clock(self):
        now = {"t": 0.0}
        controller = AdmissionController(
            AdmissionPolicy(tenant_rate_per_s=1.0, tenant_burst=2.0),
            clock=lambda: now["t"],
        )
        verdicts = [
            controller.decide("t", ServiceLevel.IMMEDIATE, 0, 0).action
            for _ in range(3)
        ]
        assert verdicts == ["admit", "admit", "reject"]
        now["t"] = 1.0  # one token refilled
        assert controller.decide("t", ServiceLevel.IMMEDIATE, 0, 0).admitted
        assert not controller.decide("t", ServiceLevel.IMMEDIATE, 0, 0).admitted

    def test_pressure_downgrades_relaxed_only(self):
        controller = AdmissionController(
            AdmissionPolicy(downgrade_queue_depth=3)
        )
        relaxed = controller.decide("t", ServiceLevel.RELAXED, 0, 3)
        assert relaxed.action == "downgrade"
        assert relaxed.level is ServiceLevel.BEST_EFFORT
        assert relaxed.requested is ServiceLevel.RELAXED
        immediate = controller.decide("t", ServiceLevel.IMMEDIATE, 0, 99)
        assert immediate.action == "admit"
        assert immediate.level is ServiceLevel.IMMEDIATE

    def test_over_budget_tenants_downgrade_first(self):
        class FakeSpend:
            enabled = True

            def over_budget(self):
                return ["acme"]

        controller = AdmissionController(
            AdmissionPolicy(downgrade_queue_depth=4, over_budget_fraction=0.25),
            spend=FakeSpend(),
        )
        # Depth 1 is under the general threshold (4) but at acme's
        # reduced threshold (max(1, 4*0.25) = 1).
        acme = controller.decide("acme", ServiceLevel.RELAXED, 0, 1)
        other = controller.decide("other", ServiceLevel.RELAXED, 0, 1)
        assert acme.action == "downgrade" and acme.reason == "over_budget"
        assert other.action == "admit"


class TestSessionShards:
    def test_shard_of_is_deterministic(self):
        assert shard_of("tenant-7", 8) == shard_of("tenant-7", 8)
        assert 0 <= shard_of("anyone", 5) < 5
        with pytest.raises(ValueError):
            shard_of("x", 0)

    def test_same_tenant_same_shard(self):
        class FakeServer:
            def submit(self, *a, **k):
                raise AssertionError("not driven in this test")

        fleet = SessionFleet(sim=None, server=FakeServer(), num_shards=4)
        one = fleet.add(
            SessionSpec("s1", "acme", ServiceLevel.RELAXED, (0.0,), "SELECT 1")
        )
        two = fleet.add(
            SessionSpec("s2", "acme", ServiceLevel.RELAXED, (1.0,), "SELECT 1")
        )
        assert one is two
        assert fleet.num_sessions == 2
        assert one.tenants == ["acme"]

    def test_fleet_drives_sessions_and_counts_rejections(self):
        from repro.sim import Simulator

        class StubServer:
            def __init__(self):
                self.calls = []

            def submit(self, sql, level, result_limit=None, tenant=None,
                       on_finish=None):
                self.calls.append((sql, level, tenant))
                if tenant == "blocked":
                    raise QueryRejectedError("quota")
                record = ServerQuery(
                    query_id=f"q{len(self.calls)}",
                    sql=sql,
                    level=level,
                    submitted_at=0.0,
                    tenant=tenant,
                    requested_level=level,
                )
                return record

        sim = Simulator(seed=1)
        server = StubServer()
        fleet = SessionFleet(sim, server, num_shards=2)
        fleet.add(SessionSpec("s1", "ok", ServiceLevel.RELAXED, (0.0, 1.0), "SELECT 1"))
        fleet.add(SessionSpec("s2", "blocked", ServiceLevel.RELAXED, (0.5,), "SELECT 1"))
        scheduled = fleet.start()
        assert scheduled == 3
        sim.run_until(10)
        totals = fleet.totals()
        assert totals == {"submitted": 2, "rejected": 1, "downgraded": 0}
        assert len(server.calls) == 3
        with pytest.raises(RuntimeError):
            fleet.add(SessionSpec("s3", "late", ServiceLevel.RELAXED, (), "SELECT 1"))


def _observed_env(server_kwargs=None, budgets=None):
    from repro.core import QueryServer
    from repro.obs import Instrumentation
    from repro.sim import Simulator
    from repro.storage.catalog import Catalog
    from repro.storage.object_store import ObjectStore
    from repro.turbo import Coordinator, TurboConfig
    from repro.workloads import TpchGenerator, load_dataset

    sim = Simulator(seed=11)
    store = ObjectStore()
    catalog = Catalog()
    load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.05).tables())
    config = TurboConfig.fast()
    obs = Instrumentation.create(clock=lambda: sim.now, budgets=budgets)
    coordinator = Coordinator(sim, config, catalog, store, "tpch", obs=obs)
    server = QueryServer(
        sim, coordinator, config, **(server_kwargs or {})
    )
    return sim, server


class TestServerIntegration:
    def test_queue_views_are_derived_not_lists(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        assert not hasattr(server, "_relaxed_queue")
        assert not hasattr(server, "_best_effort_queue")
        for _ in range(12):
            server.submit(HEAVY, ServiceLevel.RELAXED)
        held = server.submit(HEAVY, ServiceLevel.RELAXED)
        assert held.dispatched_at is None
        assert server.queued_relaxed >= 1
        assert server.held_queries(ServiceLevel.RELAXED)[0] is not None
        snapshot = server.scheduler_snapshot()
        assert snapshot["queue_depths"]["relaxed"] == server.queued_relaxed
        assert snapshot["admission"]["admitted"] == 13

    def test_immediate_never_queues_behind_backlog(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        for _ in range(20):
            server.submit(HEAVY, ServiceLevel.RELAXED)
        assert server.queued_relaxed > 0  # saturated backlog
        probe = server.submit(HEAVY, ServiceLevel.IMMEDIATE)
        assert probe.dispatched_at == sim.now

    def test_two_tenant_backlog_drains_fairly(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        for i in range(10):
            server.submit(HEAVY, ServiceLevel.RELAXED, tenant="a")
        for i in range(10):
            server.submit(HEAVY, ServiceLevel.RELAXED, tenant="b")
        sim.run_until(3600)
        snapshot = server.scheduler_snapshot()
        dispatched = snapshot["dispatched_by_tenant"]
        if dispatched:  # only hold-queue dispatches count
            assert snapshot["fairness"]["jain_dispatched"] >= 0.9

    def test_quota_rejection_is_clean(self):
        from repro.obs.reconcile import reconcile_server

        sim, server = _observed_env(
            {"admission": AdmissionPolicy(tenant_quota=2)}
        )
        first = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        second = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        with pytest.raises(QueryRejectedError):
            server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        # Another tenant is unaffected by acme's quota.
        other = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="zen")
        sim.run_until(3600)
        assert first.status is QueryStatus.FINISHED
        assert second.status is QueryStatus.FINISHED
        assert other.status is QueryStatus.FINISHED
        # The rejected query left no record, billed nothing, reconciles.
        assert len(server.queries) == 3
        report = reconcile_server(server)
        assert report.ok, report.render()
        rejected = server.scheduler_snapshot()["admission"]["rejected"]
        assert rejected == {"tenant_quota": 1}
        metric = server.obs.metrics.get("pixels_admission_rejections_total")
        assert metric.value(reason="tenant_quota") == 1

    def test_quota_releases_on_completion(self):
        sim, server = _observed_env(
            {"admission": AdmissionPolicy(tenant_quota=1)}
        )
        first = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        sim.run_until(3600)
        assert first.status is QueryStatus.FINISHED
        # The finished query released its quota slot.
        second = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        assert second is not None

    def test_downgraded_query_bills_at_best_effort_rate(self):
        from repro.obs.reconcile import reconcile_server

        sim, server = _observed_env(
            {"admission": AdmissionPolicy(downgrade_queue_depth=1)}
        )
        reference = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="bg")
        backlog = []
        for _ in range(14):
            backlog.append(
                server.submit(HEAVY, ServiceLevel.RELAXED, tenant="bg")
            )
        assert server.queued_relaxed >= 1
        victim = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        assert victim.downgraded
        assert victim.level is ServiceLevel.BEST_EFFORT
        assert victim.requested_level is ServiceLevel.RELAXED
        assert victim.admission.reason == "queue_pressure"
        sim.run_until(7200)
        assert victim.status is QueryStatus.FINISHED
        assert reference.status is QueryStatus.FINISHED
        # Identical scan billed at the best-effort rate: half of relaxed.
        assert victim.price == pytest.approx(reference.price * 0.5)
        report = reconcile_server(server)
        assert report.ok, report.render()
        downgraded = server.scheduler_snapshot()["admission"]["downgraded"]
        assert downgraded["queue_pressure"] >= 1
        metric = server.obs.metrics.get("pixels_admission_downgrades_total")
        assert metric.value(reason="queue_pressure") == downgraded["queue_pressure"]

    def test_over_budget_tenant_downgrades_first(self):
        sim, server = _observed_env(
            {"admission": AdmissionPolicy(
                downgrade_queue_depth=12, over_budget_fraction=0.125
            )},
            budgets={"acme": 1e-9},
        )
        warmup = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        sim.run_until(3600)
        assert warmup.status is QueryStatus.FINISHED
        assert "acme" in server.obs.spend.over_budget()
        for _ in range(13):
            server.submit(HEAVY, ServiceLevel.RELAXED, tenant="bg")
        # Backlog sits between acme's reduced threshold (1) and the
        # general threshold (12).
        assert 1 <= server.queued_relaxed < 12
        over = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        under = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="bg")
        assert over.downgraded and over.admission.reason == "over_budget"
        assert not under.downgraded

    def test_scheduling_decisions_reach_journal_and_spans(self):
        sim, server = _observed_env(
            {"admission": AdmissionPolicy(downgrade_queue_depth=1)}
        )
        for _ in range(15):
            server.submit(HEAVY, ServiceLevel.RELAXED, tenant="bg")
        victim = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        assert victim.downgraded
        journal = server.obs.journal
        records = [
            r for r in journal.records() if r["query_id"] == victim.query_id
        ]
        kinds = [r["event"] for r in records]
        assert "downgrade" in kinds
        queue_records = [r for r in records if r["event"] == "queue"]
        assert queue_records and "share" in queue_records[0]
        assert "finish_tag" in queue_records[0]

    def test_tenant_queue_depth_gauge(self):
        sim, server = _observed_env()
        for _ in range(13):
            server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        held_before = server.queued_relaxed
        assert held_before >= 1
        registry = server.obs.metrics
        registry.collect()
        gauge = registry.get("pixels_scheduler_queue_depth")
        assert gauge.value(tenant="acme", level="relaxed") == held_before
        sim.run_until(3600)
        registry.collect()
        # Drained tenants read back as zero, not a stale depth.
        assert gauge.value(tenant="acme", level="relaxed") == 0
