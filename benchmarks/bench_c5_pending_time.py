"""Experiment C5 — service-level pending-time semantics (paper §3.2).

Paper claims, per level:
* Immediate: "guarantees immediate execution" — zero pending time even
  under overload.
* Relaxed: queued in the query server "before a configurable grace
  period (e.g., 5 minutes) expires" — server hold is bounded by the
  grace period.
* Best-of-effort: "no guarantee on the pending time"; executed only when
  concurrency is below the low watermark.
* "Even for a relaxed or best-of-effort query, it may be executed
  immediately if the VM cluster is available" (last ¶ of §3.2).

The bench submits the same query mix at all three levels through an
overload spike and measures pending-time distributions, plus the
idle-cluster fast path.
"""

import dataclasses
import os

import numpy as np
import pytest

from common import (
    export_ledger_audit,
    HEAVY_SQL,
    bench_record,
    format_row,
    report,
    tpch_environment,
    workload_metrics,
    workload_profile,
    write_observability_artifacts,
)
from repro.baselines import run_workload
from repro.baselines.runner import Submission
from repro.core import ServiceLevel
from repro.turbo import TurboConfig

#: Committed ceiling on the bill estimator's mean absolute percentage
#: error over this bench's 47 queries.  The workload repeats one
#: statement, so priors converge fast and the blend should land almost
#: exactly — a MAPE above this means the estimator (or its statement-
#: stats priors) regressed.
PROJECTION_MAPE_THRESHOLD = 0.05


def run_experiment():
    store, catalog = tpch_environment()
    # The paper's grace period is configurable ("e.g., 5 minutes"); this
    # bench tightens it to 60s so the overload spike provably holds some
    # relaxed queries past their deadline — exercising both the forced
    # grace-expiry dispatch AND the journal's tail-based capture of the
    # resulting deadline violations.
    config = dataclasses.replace(TurboConfig.experiment(), grace_period_s=60.0)
    submissions = []
    # Idle-cluster probes first (§3.2 last paragraph); spaced out so
    # each truly sees an idle cluster.
    submissions.append(Submission(1.0, HEAVY_SQL, ServiceLevel.RELAXED))
    submissions.append(Submission(150.0, HEAVY_SQL, ServiceLevel.BEST_EFFORT))
    # Then a spike of 45 queries in ~3 seconds, levels interleaved.
    for index in range(45):
        level = list(ServiceLevel)[index % 3]
        submissions.append(Submission(300.0 + index * 0.07, HEAVY_SQL, level))
    result = run_workload(
        submissions, store, catalog, "tpch", config, observe=True
    )
    return config, result


def c5_metrics(pair):
    """The standard workload metrics plus the estimator's accuracy —
    baselining the MAPE makes estimator drift a perf-gate failure."""
    result = pair[1]
    metrics = workload_metrics(result)
    projection = result.obs.activity.projection_report()
    metrics["projection_queries"] = projection["queries"]
    metrics["projection_mape"] = projection["mape"]
    return metrics


def test_c5_pending_time(benchmark):
    config, result = benchmark.pedantic(
        lambda: bench_record(
            "c5", run_experiment, c5_metrics,
            profile=lambda pair: workload_profile(pair[1]),
        ),
        rounds=1, iterations=1,
    )

    idle_relaxed, idle_best = result.queries[0], result.queries[1]
    spike = result.queries[2:]

    def stats(level):
        pending = [
            q.pending_time_s for q in spike
            if q.level is level and q.pending_time_s is not None
        ]
        return np.mean(pending), np.max(pending)

    # Server-side hold (submission -> dispatch) for relaxed queries.
    relaxed_holds = [
        q.dispatched_at - q.submitted_at
        for q in spike
        if q.level is ServiceLevel.RELAXED and q.dispatched_at is not None
    ]
    lines = [
        format_row("level", "paper bound", "mean pend", "max pend"),
    ]
    bounds = {
        ServiceLevel.IMMEDIATE: "0 (immediate)",
        ServiceLevel.RELAXED: f"server hold <= {config.grace_period_s:.0f}s",
        ServiceLevel.BEST_EFFORT: "unbounded",
    }
    for level in ServiceLevel:
        mean_pending, max_pending = stats(level)
        lines.append(
            format_row(
                level.value, bounds[level],
                f"{mean_pending:.1f}s", f"{max_pending:.1f}s",
            )
        )
    lines += [
        "",
        f"max relaxed server hold: {max(relaxed_holds):.1f}s "
        f"(grace period {config.grace_period_s:.0f}s)",
        f"idle-cluster relaxed pending    : {idle_relaxed.pending_time_s:.1f}s",
        f"idle-cluster best-effort pending: {idle_best.pending_time_s:.1f}s",
    ]
    slo = result.obs.slo.snapshot()["levels"]
    lines += ["", "SLO compliance (pending-time deadlines):"]
    for name in ("immediate", "relaxed", "best_effort"):
        level = slo.get(name, {})
        compliance = level.get("compliance")
        rendered = "-" if compliance is None else f"{100 * compliance:.1f}%"
        lines.append(
            f"  {name:<12} queries={level.get('queries', 0):>3} "
            f"violations={level.get('violations', 0):>3} "
            f"compliance={rendered}"
        )
    written = export_ledger_audit("c5", result)
    written.update(write_observability_artifacts("c5", result, "C5 pending-time semantics"))
    artifacts = sorted(os.path.basename(path) for path in written.values())
    captures = result.obs.journal.captures()
    violating = [
        c for c in captures if "deadline_violation" in c["reasons"]
    ]
    projection = result.obs.activity.projection_report()
    lines += [
        "",
        f"journal captures: {len(captures)} "
        f"({len(violating)} deadline violations)",
        f"bill estimator: {projection['queries']} queries, "
        f"MAPE {projection['mape']:.9f} "
        f"(gate <= {PROJECTION_MAPE_THRESHOLD}), "
        f"sources {projection['by_source']}",
        f"observability artifacts: {artifacts}",
    ]
    report("C5  Pending-time semantics of the three levels, paper §3.2", lines)

    immediate_mean, immediate_max = stats(ServiceLevel.IMMEDIATE)
    relaxed_mean, _ = stats(ServiceLevel.RELAXED)
    best_mean, _ = stats(ServiceLevel.BEST_EFFORT)
    assert immediate_max == 0.0  # §3.2(1): guaranteed immediate execution
    assert max(relaxed_holds) <= config.grace_period_s + config.scheduler_interval_s
    # The levels order as urgency tiers under overload.
    assert immediate_mean < relaxed_mean < best_mean
    # §3.2 last ¶: idle cluster → cheap levels still start (almost) at once.
    assert idle_relaxed.pending_time_s == 0.0
    assert idle_best.pending_time_s <= 1.0
    assert all(q.status.value == "finished" for q in result.queries)
    # SLO view agrees: immediate's zero-pending deadline never violates.
    assert slo["immediate"]["compliance"] == 1.0
    assert slo["immediate"]["violations"] == 0
    # Tail-based capture: every deadline-violating relaxed query arrives
    # in the journal with its full diagnosis attached — the profiler's
    # attribution tree and the time flame graph.
    assert slo["relaxed"]["violations"] > 0
    assert len(violating) == slo["relaxed"]["violations"]
    # Every finished query got an estimated-vs-actual accuracy record,
    # and the estimator's MAPE holds under the committed ceiling.
    assert projection["queries"] == len(result.queries)
    assert projection["mape"] <= PROJECTION_MAPE_THRESHOLD
    for capture in violating:
        assert capture["level"] == "relaxed"
        assert capture["profile"]["children"]  # attribution tree attached
        assert capture["flamegraph_svg"].startswith("<svg")
    # Persist one captured flame graph as a CI artifact.
    flame_path = os.path.join(
        os.path.dirname(__file__), "results", "c5_capture_flame.svg"
    )
    with open(flame_path, "w", encoding="utf-8") as handle:
        handle.write(violating[0]["flamegraph_svg"])
