"""``repro.obs`` — end-to-end query observability.

Three pieces, all simulation-clock-aware and deterministic:

* :mod:`repro.obs.tracer` — per-query span trees
  (``submit → queue → dispatch → plan → scan → merge → bill``) with
  venue/cache/price attributes, exportable as byte-stable JSON timelines.
* :mod:`repro.obs.metrics` — a Prometheus-style registry (counters,
  gauges, histograms) fed by hooks in the query server, coordinator, VM
  cluster, CF service, and storage layers.
* :mod:`repro.obs.explain` — the EXPLAIN ANALYZE renderer over the
  executor's per-operator profiles.

:class:`Instrumentation` bundles the live sinks and is what components
thread through their constructors.  Observability off is ``obs is
None``: no sink is built; span handles and metric instruments then come
from the null tracer and registry (:data:`NOOP_TRACER`,
:class:`NoopMetricsRegistry`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.obs.activity import (
    ActivityRegistry,
    GuardDecision,
    GuardPolicy,
    ProjectionGuard,
    ProjectionRecord,
)
from repro.obs.explain import render_analyzed_plan
from repro.obs.flamegraph import render_flamegraph_svg
from repro.obs.profiler import (
    ProfileNode,
    QueryProfile,
    build_query_profile,
    render_folded,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopMetricsRegistry,
)
from repro.obs.fingerprint import Fingerprint, fingerprint, plan_shape_hash
from repro.obs.journal import CapturePolicy, QueryJournal
from repro.obs.ledger import MeterEvent, MeterLedger
from repro.obs.spend import SpendAccountant
from repro.obs.slo import SloObjective, SloRecord, SloTracker
from repro.obs.statements import StatementStore
from repro.obs.tracer import NOOP_SPAN, NOOP_TRACER, ROOT, NoopTracer, Span, Tracer

__all__ = [
    "ActivityRegistry",
    "CapturePolicy",
    "Counter",
    "ROOT",
    "Fingerprint",
    "Gauge",
    "GuardDecision",
    "GuardPolicy",
    "Histogram",
    "Instrumentation",
    "MeterEvent",
    "MeterLedger",
    "MetricsRegistry",
    "NoopMetricsRegistry",
    "NoopTracer",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "ProfileNode",
    "ProjectionGuard",
    "ProjectionRecord",
    "QueryJournal",
    "QueryProfile",
    "SloObjective",
    "SloRecord",
    "SloTracker",
    "Span",
    "SpendAccountant",
    "StatementStore",
    "Tracer",
    "build_query_profile",
    "fingerprint",
    "plan_shape_hash",
    "render_analyzed_plan",
    "render_flamegraph_svg",
    "render_folded",
]


@dataclass
class Instrumentation:
    """The live observability bundle threaded through the system: a
    tracer + metrics registry + SLO tracker + statement store + query
    journal + metering ledger + spend accountant + live activity
    registry.  Observability off is no bundle at all (``obs is None``)."""

    tracer: Tracer
    metrics: MetricsRegistry
    slo: SloTracker
    statements: StatementStore
    journal: QueryJournal
    ledger: MeterLedger
    spend: SpendAccountant
    activity: ActivityRegistry

    @staticmethod
    def create(
        clock: Callable[[], float] | None = None,
        objectives: list[SloObjective] | None = None,
        capture: CapturePolicy | None = None,
        budgets: dict[str, float] | None = None,
    ) -> "Instrumentation":
        """A live bundle; pass the simulator's clock (``lambda: sim.now``)
        so span/journal timestamps are virtual and reproducible.
        ``capture`` overrides the journal's slow-query capture policy;
        ``budgets`` seeds the spend accountant's soft per-tenant budgets
        (tenant → dollars)."""
        ledger = MeterLedger(clock)
        spend = SpendAccountant(budgets)
        ledger.add_listener(spend.on_event)
        statements = StatementStore()
        activity = ActivityRegistry(clock, statements)
        metrics = MetricsRegistry()
        activity.bind_metrics(metrics)
        return Instrumentation(
            Tracer(clock),
            metrics,
            SloTracker(objectives),
            statements,
            QueryJournal(clock, capture),
            ledger,
            spend,
            activity,
        )
