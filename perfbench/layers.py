"""The traced run's wrap list and the per-layer metrics computed from it."""

from __future__ import annotations

from spans import SpanRecorder, covered_time, self_times, time_excluding
from summary import TooFewSamples, percentile, ratio

#: (module, function or Class.method, span name): public calls into each layer.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("repro.nl2sql.protocol", "CodesService.handle", "nl2sql.translate"),
    ("repro.engine.sql.lexer", "Lexer.tokenize", "frontend.lex"),
    ("repro.engine.sql.parser", "Parser.parse", "frontend.parse"),
    ("repro.engine.planner", "Planner.plan", "frontend.plan"),
    ("repro.engine.optimizer", "Optimizer.optimize", "frontend.optimize"),
    ("repro.engine.executor", "QueryExecutor.execute", "engine.execute"),
    ("repro.engine.physical", "column_codes", "engine.group_codes"),
    ("repro.engine.physical", "combined_group_codes", "engine.group_codes"),
    ("repro.storage.file_format", "decode_chunk", "storage.decode"),
    ("repro.storage.table", "TableWriter.write", "storage.write"),
    ("repro.core.query_server", "QueryServer.submit", "server.submit"),
    ("repro.sim.simulator", "Simulator.run_until", "sim.loop"),
    ("repro.obs.tracer", "Tracer.start", "obs.tracer"),
    ("repro.obs.tracer", "Tracer.end_open", "obs.tracer"),
    ("repro.obs.tracer", "Span.finish", "obs.tracer"),
    ("repro.obs.metrics", "Counter.inc", "obs.metrics"),
    ("repro.obs.metrics", "Counter.set_total", "obs.metrics"),
    ("repro.obs.metrics", "Gauge.set", "obs.metrics"),
    ("repro.obs.metrics", "Gauge.inc", "obs.metrics"),
    ("repro.obs.metrics", "Gauge.dec", "obs.metrics"),
    ("repro.obs.metrics", "Histogram.observe", "obs.metrics"),
    ("repro.obs.timeseries", "ScrapeLoop.scrape", "obs.scrape"),
    ("repro.obs.alerts", "AlertEngine.evaluate", "obs.alerts"),
    ("repro.obs.journal", "QueryJournal.event", "obs.journal"),
    ("repro.obs.journal", "QueryJournal.capture", "obs.journal"),
    ("repro.obs.ledger", "MeterLedger.charge", "obs.ledger"),
    ("repro.obs.ledger", "MeterLedger.charge_query", "obs.ledger"),
    ("repro.obs.ledger", "MeterLedger.void", "obs.ledger"),
    ("repro.obs.statements", "StatementStore.record", "obs.statements"),
    ("repro.core.query_server", "fingerprint", "obs.fingerprint"),
    ("repro.obs.fingerprint", "plan_shape_hash", "obs.fingerprint"),
    ("repro.obs.activity", "ActivityRegistry.begin", "obs.activity"),
    ("repro.obs.activity", "ActivityRegistry.mark_queued", "obs.activity"),
    ("repro.obs.activity", "ActivityRegistry.mark_dispatched", "obs.activity"),
    ("repro.obs.activity", "ActivityRegistry.downgrade", "obs.activity"),
    ("repro.obs.activity", "ActivityRegistry.begin_execution", "obs.activity"),
    ("repro.obs.activity", "ActivityRegistry.finish_billed", "obs.activity"),
    ("repro.obs.activity", "ActivityRegistry.finish_failed", "obs.activity"),
    ("repro.obs.activity", "ActivityRegistry.finish_rejected", "obs.activity"),
    ("repro.obs.activity", "ProjectionGuard.evaluate", "obs.guard"),
    ("repro.obs.slo", "SloTracker.record", "obs.slo"),
)
#: Coordinator.submit also names the query every span under it belongs to.
QUERY_SPANS = (("repro.turbo.coordinator", "Coordinator.submit", "turbo.coordinator", "query_id"),)
COUNTS = (("repro.sim.events", "EventQueue.pop", "sim.events"),)

#: obs.<sink>_ms metrics, each per query from the span of the same name.
OBS_PER_QUERY = (
    "tracer", "metrics", "scrape", "journal", "ledger", "statements",
    "fingerprint", "activity", "guard", "slo",
)

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("nl2sql.translate_ms", "ms/query"),
    ("frontend.lex_parse_ms", "ms/query"),
    ("frontend.plan_ms", "ms/query"),
    ("frontend.optimize_ms", "ms/query"),
    ("frontend.parses_per_query", "count"),
    ("frontend.share", "ratio"),
    ("engine.execute_ms", "ms/query"),
    ("engine.group_codes_ms", "ms/query"),
    ("engine.rows_scanned_per_row_out", "ratio"),
    ("storage.decode_ms", "ms/query"),
    ("storage.get_requests_per_query", "count"),
    ("storage.bytes_read_per_query", "bytes"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.pool_evictions", "count"),
    ("storage.write_ms", "ms/setup"),
    ("turbo.coordinator_ms", "ms/query"),
    ("turbo.cf_share", "ratio"),
    ("turbo.vm_queue_wait_p95_s", "sim_s"),
    ("server.submit_ms", "ms/query"),
    ("scheduler.admission_rejected", "count"),
    ("scheduler.downgraded", "count"),
    ("sim.events", "count"),
    ("sim.loop_us_per_event", "us"),
    *((f"obs.{sink}_ms", "ms/query") for sink in OBS_PER_QUERY),
    ("obs.alerts_ms", "ms/eval"),
    ("obs.timeseries_points", "count"),
    ("host.calibration_us", "us"),
    ("raw.setup_s", "s"),
    ("raw.throughput_qps", "1/s"),
    ("raw.query_wall_geomean_ms", "ms"),
    ("raw.query_wall_p95_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("other.self_ms", "ms/query"),
)


def install(recorder: SpanRecorder) -> None:
    for module_name, path, span_name in SPANS:
        recorder.wrap(module_name, path, span_name)
    for module_name, path, span_name, query_arg in QUERY_SPANS:
        recorder.wrap(module_name, path, span_name, query_arg=query_arg)
    for module_name, path, counter in COUNTS:
        recorder.count(module_name, path, counter)


def per_layer(
    recorder: SpanRecorder,
    measured_from: int,
    traced_wall_s: float,
    traced_queries: int,
    events: int,
    counters: dict,
    vm_waits: list[float],
) -> dict[str, float]:
    """Per-layer metrics of the traced round.

    ``measured_from`` is the index of the first span of the measured
    phase (spans before it belong to set-up); ``traced_wall_s`` is the
    measured phase's wall time and ``traced_queries`` its query count;
    ``counters`` are the program-side counts of one untraced round.
    """
    spans = (recorder.names, recorder.starts, recorder.ends, recorder.parents)
    measured = self_times(*spans, first=measured_from)
    setup = self_times(*spans, stop=measured_from)
    per_query_ms = lambda seconds: ratio(seconds * 1e3, traced_queries)  # noqa: E731
    own = lambda name: measured.get(name, 0.0)  # noqa: E731
    calls = lambda name: sum(  # noqa: E731
        1 for name_ in recorder.names[measured_from:] if name_ == name
    )
    frontend_s = sum(own(n) for n in ("frontend.lex", "frontend.parse", "frontend.plan",
                                      "frontend.optimize"))
    try:
        vm_wait_p95 = percentile(vm_waits, 0.95)
    except TooFewSamples:
        vm_wait_p95 = max(vm_waits, default=0.0)
    queries = counters["queries"]
    metrics = {
        "nl2sql.translate_ms": per_query_ms(own("nl2sql.translate")),
        "frontend.lex_parse_ms": per_query_ms(own("frontend.lex") + own("frontend.parse")),
        "frontend.plan_ms": per_query_ms(own("frontend.plan")),
        "frontend.optimize_ms": per_query_ms(own("frontend.optimize")),
        "frontend.parses_per_query": ratio(calls("frontend.parse"), traced_queries),
        "frontend.share": ratio(frontend_s, traced_wall_s),
        "engine.execute_ms": per_query_ms(
            time_excluding(*spans, "engine.execute", "storage.", first=measured_from)
        ),
        "engine.group_codes_ms": per_query_ms(own("engine.group_codes")),
        "engine.rows_scanned_per_row_out": ratio(counters["rows_scanned"], counters["rows_out"]),
        "storage.decode_ms": per_query_ms(own("storage.decode")),
        "storage.get_requests_per_query": ratio(counters["get_requests"], queries),
        "storage.bytes_read_per_query": ratio(counters["bytes_read"], queries),
        "storage.pool_hit_ratio": ratio(
            counters["pool_hits"], counters["pool_hits"] + counters["pool_misses"]
        ),
        "storage.pool_evictions": counters["pool_evictions"],
        "storage.write_ms": setup.get("storage.write", 0.0) * 1e3,
        "turbo.coordinator_ms": per_query_ms(own("turbo.coordinator")),
        "turbo.cf_share": ratio(counters["cf_queries"], queries),
        "turbo.vm_queue_wait_p95_s": vm_wait_p95,
        "server.submit_ms": per_query_ms(own("server.submit")),
        "scheduler.admission_rejected": counters["rejected"],
        "scheduler.downgraded": counters["downgraded"],
        "sim.events": events,
        "sim.loop_us_per_event": ratio(own("sim.loop") * 1e6, events),
        **{f"obs.{sink}_ms": per_query_ms(own(f"obs.{sink}")) for sink in OBS_PER_QUERY},
        "obs.alerts_ms": ratio(own("obs.alerts") * 1e3, calls("obs.alerts")),
        "obs.timeseries_points": counters.get("timeseries_points", 0),
        "other.self_ms": per_query_ms(
            traced_wall_s - covered_time(recorder.starts, recorder.ends, recorder.parents,
                                         first=measured_from)
        ),
    }
    return metrics
