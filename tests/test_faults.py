"""Failure-injection tests: worker crashes, CF failures, retry semantics."""

import pytest

from repro.core import QueryServer, QueryStatus, ServiceLevel
from repro.sim import Simulator
from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.turbo import Coordinator, TurboConfig
from repro.turbo.coordinator import ExecutionVenue
from repro.turbo.cost import NANOS_PER_DOLLAR
from repro.turbo.faults import FaultConfig, FaultInjector
from repro.workloads import TpchGenerator, load_dataset

SQL = "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag"


def make_stack(faults, seed=3):
    sim = Simulator(seed=seed)
    store = ObjectStore()
    catalog = Catalog()
    load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.02).tables())
    config = TurboConfig.fast()
    coordinator = Coordinator(
        sim, config, catalog, store, "tpch", faults=faults
    )
    server = QueryServer(sim, coordinator, config)
    return sim, coordinator, server


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(vm_crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(cf_failure_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(max_retries=-1)

    def test_injector_counts(self):
        import numpy as np

        injector = FaultInjector(
            FaultConfig(vm_crash_rate=1.0, cf_failure_rate=1.0),
            np.random.default_rng(0),
        )
        assert injector.vm_task_fails()
        assert injector.cf_invocation_fails()
        assert injector.vm_crashes_injected == 1
        assert injector.cf_failures_injected == 1
        assert 0.1 <= injector.failure_point() <= 0.9

    def test_zero_rates_never_fire(self):
        import numpy as np

        injector = FaultInjector(FaultConfig(), np.random.default_rng(0))
        assert not any(injector.vm_task_fails() for _ in range(100))
        assert not any(injector.cf_invocation_fails() for _ in range(100))


class TestVmCrashes:
    def test_query_retries_and_succeeds(self):
        sim, coordinator, server = make_stack(
            FaultConfig(vm_crash_rate=0.5, max_retries=10)
        )
        records = [server.submit(SQL, ServiceLevel.RELAXED) for _ in range(8)]
        sim.run_until(1800)
        assert all(r.status is QueryStatus.FINISHED for r in records)
        assert coordinator.fault_injector.vm_crashes_injected > 0
        assert any(r.execution.retries > 0 for r in records)

    def test_results_correct_despite_crashes(self):
        sim, coordinator, server = make_stack(
            FaultConfig(vm_crash_rate=0.5, max_retries=10)
        )
        clean_sim, clean_coord, clean_server = make_stack(None)
        faulty = server.submit(SQL, ServiceLevel.RELAXED)
        clean = clean_server.submit(SQL, ServiceLevel.RELAXED)
        sim.run_until(1800)
        clean_sim.run_until(1800)
        assert sorted(faulty.result_rows()) == sorted(clean.result_rows())

    def test_certain_crash_exhausts_retries(self):
        sim, coordinator, server = make_stack(
            FaultConfig(vm_crash_rate=1.0, max_retries=2)
        )
        record = server.submit(SQL, ServiceLevel.RELAXED)
        sim.run_until(1800)
        assert record.status is QueryStatus.FAILED
        assert "gave up after 2 retries" in record.error
        assert record.execution.retries == 2

    def test_crashed_worker_is_replaced_by_autoscaler(self):
        sim, coordinator, server = make_stack(
            FaultConfig(vm_crash_rate=1.0, max_retries=0), seed=5
        )
        server.submit(SQL, ServiceLevel.RELAXED)
        sim.run_until(600)
        # The crash retired a worker; the cluster never drops below min.
        assert coordinator.vm_cluster.num_workers >= 1

    def test_partial_work_still_billed(self):
        sim, coordinator, server = make_stack(
            FaultConfig(vm_crash_rate=1.0, max_retries=0)
        )
        record = server.submit(SQL, ServiceLevel.RELAXED)
        sim.run_until(600)
        assert record.status is QueryStatus.FAILED
        assert record.execution.provider_cost > 0


class TestCfFailures:
    def _saturate_then_submit(self, faults):
        sim, coordinator, server = make_stack(faults)
        blockers = [server.submit(SQL, ServiceLevel.RELAXED) for _ in range(4)]
        record = server.submit(SQL, ServiceLevel.IMMEDIATE)
        return sim, coordinator, record

    def test_cf_retry_succeeds(self):
        sim, coordinator, record = self._saturate_then_submit(
            FaultConfig(cf_failure_rate=0.5, max_retries=10)
        )
        sim.run_until(1800)
        assert record.status is QueryStatus.FINISHED
        assert record.execution.venue is ExecutionVenue.CF

    def test_certain_cf_failure_exhausts_retries(self):
        sim, coordinator, record = self._saturate_then_submit(
            FaultConfig(cf_failure_rate=1.0, max_retries=3)
        )
        sim.run_until(1800)
        assert record.status is QueryStatus.FAILED
        assert "CF invocation failed" in record.error

    def test_failed_invocations_are_billed(self):
        sim, coordinator, record = self._saturate_then_submit(
            FaultConfig(cf_failure_rate=1.0, max_retries=2)
        )
        sim.run_until(1800)
        # 3 attempts (1 + 2 retries), each invoiced by the CF service.
        cf_invocations = [
            inv for inv in coordinator.cf_service.invocations
            if inv.query_id == record.query_id
        ]
        assert len(cf_invocations) == 3
        assert coordinator.cf_service.provider_cost() > 0

    def test_deterministic_given_seed(self):
        outcomes = []
        for _ in range(2):
            sim, coordinator, record = self._saturate_then_submit(
                FaultConfig(cf_failure_rate=0.5, max_retries=5)
            )
            sim.run_until(1800)
            outcomes.append((record.status, record.execution.retries))
        assert outcomes[0] == outcomes[1]


class TestProviderChargesUnderFaults:
    """Every attempt — crashed, failed or finished, on either venue — is
    one provider charge and one activity window."""

    @pytest.fixture(scope="class")
    def run(self):
        from repro.obs import Instrumentation

        sim = Simulator(seed=3)
        store = ObjectStore()
        catalog = Catalog()
        load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.02).tables())
        config = TurboConfig.fast()
        obs = Instrumentation.create(clock=lambda: sim.now)
        coordinator = Coordinator(
            sim,
            config,
            catalog,
            store,
            "tpch",
            faults=FaultConfig(vm_crash_rate=0.5, cf_failure_rate=0.5, max_retries=10),
            obs=obs,
        )
        server = QueryServer(sim, coordinator, config)
        windows: dict[str, list[dict]] = {}
        begin_execution = obs.activity.begin_execution

        def record_window(query_id, **window):
            windows.setdefault(query_id, []).append(window)
            begin_execution(query_id, **window)

        obs.activity.begin_execution = record_window
        # Relaxed queries fill the VM slots; the immediate ones behind
        # them are accelerated on CF.
        records = [server.submit(SQL, ServiceLevel.RELAXED) for _ in range(6)]
        records += [server.submit(SQL, ServiceLevel.IMMEDIATE) for _ in range(6)]
        sim.run_until(3600)
        return coordinator, server, obs, records, windows

    def test_both_venues_retried(self, run):
        _, _, _, records, _ = run
        assert all(r.status is QueryStatus.FINISHED for r in records)
        for venue in (ExecutionVenue.VM, ExecutionVenue.CF):
            assert any(
                r.execution.venue is venue and r.execution.retries > 0
                for r in records
            ), venue

    def test_one_provider_charge_per_attempt(self, run):
        _, _, obs, records, _ = run
        for record in records:
            execution = record.execution
            charges = [
                event
                for event in obs.ledger.events_for(record.query_id)
                if event.account == "provider" and event.kind == "charge"
            ]
            assert len(charges) == execution.retries + 1
            assert {event.venue for event in charges} == {execution.venue.value}
            total = sum(event.nanodollars for event in charges)
            expected = round(execution.provider_cost * NANOS_PER_DOLLAR)
            # Each charge rounds its own attempt's cost.
            assert abs(total - expected) <= execution.retries + 1

    def test_ledger_reconciles(self, run):
        from repro.obs.reconcile import reconcile_server

        _, server, _, _, _ = run
        report = reconcile_server(server)
        assert report.ok, report.violations

    def test_attempt_windows(self, run):
        coordinator, _, _, records, windows = run
        for record in records:
            attempts = windows[record.query_id]
            assert len(attempts) == record.execution.retries + 1
            final = attempts[-1]
            if record.execution.venue is ExecutionVenue.VM:
                # A crash is not foreseen: every attempt registers the
                # full estimate of its run.
                for attempt in attempts:
                    full = coordinator.cost_model.vm_execution(attempt["stats"])
                    assert attempt["duration_s"] == full.duration_s
                    assert attempt["merge_at"] is None
            else:
                # A failed invocation's window is its partial run and ends
                # before the merge phase; the successful one carries it.
                assert final["merge_at"] is not None
                for failed in attempts[:-1]:
                    assert failed["merge_at"] is None
                    assert 0 < failed["duration_s"] < final["duration_s"]
