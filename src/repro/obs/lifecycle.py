"""One observer for a query's lifecycle at the query server.

The :class:`~repro.core.query_server.QueryServer` makes one call per
transition — submitted, rejected, queued, dispatched, downgraded,
cancelled while held, completed — and :class:`QueryObserver` fans it out
to the live sinks of an :class:`~repro.obs.Instrumentation` bundle
(tracer, journal, activity registry, ledger, SLO tracker, statement
store), always in the same order, so span ids and journal sequence
numbers are byte-identical across runs.  The server builds an observer
only when observability is on; otherwise it holds ``None``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import PixelsError
from repro.obs.tracer import ROOT, Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.query_server import ServerQuery
    from repro.obs import Instrumentation
    from repro.obs.activity import GuardDecision
    from repro.obs.fingerprint import Fingerprint
    from repro.turbo.coordinator import QueryExecution
    from repro.turbo.cost import MeterReading


class QueryObserver:
    """Routes a query server's lifecycle transitions to the live sinks.

    It owns the per-query state the sinks correlate on: the open root and
    queue spans and each query's statement fingerprint.  ``pricer`` is
    the server's projection pricing callback (so a projection's terminal
    value equals the bill); ``profiler`` builds a finished query's
    profile for the journal's tail-based capture.
    """

    def __init__(
        self,
        obs: Instrumentation,
        clock: Callable[[], float],
        pricer: Callable,
        profiler: Callable,
    ) -> None:
        self.obs = obs
        self._clock = clock
        self._profiler = profiler
        self._root_spans: dict[str, Span] = {}
        self._queue_spans: dict[str, Span] = {}
        self._fingerprints: dict[str, Fingerprint] = {}
        obs.activity.pricer = pricer

    # -- transitions ----------------------------------------------------------

    def submitted(
        self, record: ServerQuery, fp: Fingerprint, deadline_s: float | None, price_per_tb: float
    ) -> None:
        """The server took ``record`` in (admission may still reject it);
        an admission-layer downgrade is journaled here too."""
        obs, query_id, level = self.obs, record.query_id, record.level.value
        decision = record.admission
        self._fingerprints[query_id] = fp
        obs.activity.begin(
            query_id,
            tenant=record.tenant,
            level=level,
            requested_level=record.requested_level.value,
            fingerprint=fp.id,
            deadline_s=deadline_s,
            admission=decision.action,
        )
        admission_attrs = decision.to_attrs() if decision.action != "admit" else {}
        # price_fraction + deadline_s let traces join SLO records by
        # query id without re-deriving level semantics.
        root = self._root_spans[query_id] = obs.tracer.start(
            query_id,
            "query",
            parent=ROOT,
            level=level,
            sql=record.sql,
            tenant=record.tenant,
            price_fraction=record.level.price_fraction,
            deadline_s=deadline_s,
            fingerprint=fp.id,
            **admission_attrs,
        )
        obs.tracer.start(query_id, "submit", level=level).finish(price_per_tb=price_per_tb)
        obs.journal.event(
            "submit",
            query_id,
            span_id=root.span_id,
            fingerprint=fp.id,
            level=level,
            tenant=record.tenant,
            price_per_tb=price_per_tb,
            deadline_s=deadline_s,
            **admission_attrs,
        )
        if decision.action == "downgrade":
            self._journal(
                record,
                "downgrade",
                reason=decision.reason,
                requested_level=record.requested_level.value,
            )

    def rejected(self, record: ServerQuery, error: str, reason: str) -> None:
        query_id = record.query_id
        self._root_spans.pop(query_id, None)
        self.obs.tracer.end_open(query_id, "error", error=error)
        self._journal(record, "reject", error=error, reason=reason)
        self._fingerprints.pop(query_id, None)
        self.obs.activity.finish_rejected(query_id, reason)

    def queued(self, record: ServerQuery, reason: str, share: float, finish_tag: float) -> None:
        attrs = {"reason": reason, "share": share, "finish_tag": round(finish_tag, 9)}
        self._queue_spans[record.query_id] = self.obs.tracer.start(
            record.query_id, "queue", level=record.level.value, **attrs
        )
        self._journal(record, "queue", **attrs)
        self.obs.activity.mark_queued(record.query_id)

    def dispatched(self, record: ServerQuery, batch: bool = False) -> None:
        """Alone or as a member of a shared-scan batch."""
        batch_attrs = {"batch": True} if batch else {}
        self._close_queue_span(record)
        self.obs.tracer.start(
            record.query_id, "dispatch", level=record.level.value, **batch_attrs
        ).finish()
        held_s = round(self._clock() - record.submitted_at, 9)
        self._journal(record, "dispatch", **batch_attrs, held_s=held_s)
        self.obs.activity.mark_dispatched(record.query_id)

    def downgraded(self, record: ServerQuery, reason: str) -> None:
        """A held query was demoted; ``record.level`` is the new level."""
        self._close_queue_span(record, status="downgraded")
        requested = record.requested_level
        self._journal(
            record,
            "downgrade",
            reason=reason,
            requested_level=requested.value if requested is not None else None,
        )
        self.obs.activity.downgrade(record.query_id, record.level.value, reason)

    def cancelled_held(self, record: ServerQuery) -> None:
        obs, query_id = self.obs, record.query_id
        self._close_queue_span(record, status="cancelled")
        self._journal(record, "cancel", stage="held")
        obs.ledger.void(
            query_id,
            tenant=record.tenant,
            level=record.level.value,
            venue="none",
            span_id=self._root_span_id(query_id),
            reason="cancelled_held",
        )
        self._fingerprints.pop(query_id, None)
        self._root_spans.pop(query_id, None)
        obs.tracer.end_open(query_id, "cancelled", error="cancelled by user")
        obs.activity.finish_cancelled(query_id, "cancelled_held")

    def guard_decided(self, record: ServerQuery, decision: GuardDecision) -> None:
        self._journal(
            record,
            "guard",
            rule=decision.rule,
            action=decision.action,
            applied=decision.applied,
            reason=decision.reason,
        )

    def completed(
        self,
        record: ServerQuery,
        execution: QueryExecution,
        reading: MeterReading | None,
        deadline_s: float | None,
        slack_s: float | None,
        price_per_tb: float,
        data_inflation: float,
    ) -> None:
        """Billed (``reading`` is the bill), failed, or cancelled after
        dispatch."""
        obs, query_id, level = self.obs, record.query_id, record.level.value
        span_id = self._root_span_id(query_id)
        venue = execution.venue.value if execution.venue is not None else "none"
        stats = execution.result.stats if execution.result is not None else None
        if reading is not None:
            obs.ledger.charge_query(
                query_id,
                axes=reading.axes,
                billed_nanodollars=reading.billed_nanodollars,
                tenant=record.tenant,
                level=level,
                venue=venue,
                span_id=span_id,
                bytes_scanned=stats.bytes_scanned,
                data_inflation=data_inflation,
                price_per_tb=price_per_tb,
            )
            if record.pending_time_s is not None:
                obs.slo.record(
                    query_id=query_id,
                    level=level,
                    submitted_at=record.submitted_at,
                    finished_at=self._clock(),
                    deadline_s=deadline_s,
                    actual_s=record.pending_time_s,
                    billed=record.price,
                )
            root = self._root_spans.pop(query_id, None)
            if root is not None:
                obs.tracer.start(
                    query_id,
                    "bill",
                    parent=root,
                    level=level,
                    price=record.price,
                    price_per_tb=price_per_tb,
                    price_fraction=record.level.price_fraction,
                    bytes_scanned=stats.bytes_scanned,
                    deadline_s=deadline_s,
                    slack_s=slack_s,
                ).finish()
            obs.tracer.end_open(query_id, "ok")
            projection = obs.activity.finish_billed(
                query_id, record.price_nanodollars, axes=reading.axes
            )
            if projection is not None:
                # Before the statement record pops the fingerprint.
                self._journal(
                    record,
                    "projection",
                    estimated_nanodollars=projection.estimated_nanodollars,
                    actual_nanodollars=projection.actual_nanodollars,
                    ape=round(projection.ape, 9),
                    source=projection.source,
                )
        else:
            # The coordinator's failure path already closed the trace with
            # an error/cancelled status; this is only the safety net.
            self._root_spans.pop(query_id, None)
            obs.tracer.end_open(query_id, "error", error=execution.error or "")
            if record.cancelled or execution.error == "cancelled by user":
                obs.ledger.void(
                    query_id,
                    tenant=record.tenant,
                    level=level,
                    venue=venue,
                    span_id=span_id,
                    reason="cancelled",
                )
                obs.activity.finish_cancelled(query_id)
            else:
                obs.activity.finish_failed(query_id, execution.error)
        fp = self._fingerprints.pop(query_id, None)
        if fp is not None:
            self._record_statement(record, execution, fp, venue, stats, span_id, slack_s, reading)

    # -- internals ------------------------------------------------------------

    def _root_span_id(self, query_id: str) -> int | None:
        span = self._root_spans.get(query_id)
        return span.span_id if span is not None else None

    def _close_queue_span(self, record: ServerQuery, status: str = "ok") -> None:
        span = self._queue_spans.pop(record.query_id, None)
        if span is not None:
            span.finish(status, held_s=self._clock() - record.submitted_at)

    def _journal(self, record: ServerQuery, event: str, **attrs: object) -> None:
        fp = self._fingerprints.get(record.query_id)
        self.obs.journal.event(
            event,
            record.query_id,
            span_id=self._root_span_id(record.query_id),
            fingerprint=fp.id if fp is not None else None,
            level=record.level.value,
            **attrs,
        )

    def _record_statement(
        self, record, execution, fp, venue, stats, span_id, slack_s, reading
    ) -> None:
        """Fold one completion into the statement store and the journal
        (including the tail-based capture decision)."""
        error = execution.error is not None
        time_s = execution.execution_time_s or 0.0
        pending = record.pending_time_s
        level = record.level.value
        self.obs.statements.record(
            fp,
            level,
            time_s=time_s,
            pending_s=pending or 0.0,
            billed=record.price,
            attribution=reading.attribution if reading is not None else None,
            stats=stats,
            plan_shape=execution.plan_shape,
            error=error,
            tenant=record.tenant,
        )
        journal = self.obs.journal
        attrs: dict[str, object] = {
            "venue": venue,
            "execution_s": round(time_s, 9),
            "pending_s": round(pending, 9) if pending is not None else None,
            "slack_s": round(slack_s, 9) if slack_s is not None else None,
            "billed_dollars": round(record.price, 12),
            "bytes_scanned": stats.bytes_scanned if stats is not None else 0,
            "rows_produced": stats.rows_produced if stats is not None else 0,
            "plan_shape": execution.plan_shape,
        }
        if error:
            attrs["error"] = execution.error
        event = "error" if error else "finish"
        journal.event(
            event, record.query_id, span_id=span_id, fingerprint=fp.id, level=level, **attrs
        )
        reasons = journal.capture_reasons(
            time_s=execution.execution_time_s,
            billed=record.price if not error else None,
            slack_s=slack_s,
            error=error,
            downgraded=record.downgraded,
        )
        if reasons:
            try:
                profile = self._profiler(record.query_id)
            except PixelsError:
                profile = None
            journal.capture(
                record.query_id,
                reasons,
                profile,
                span_id=span_id,
                fingerprint=fp.id,
                level=level,
                slack_s=round(slack_s, 9) if slack_s is not None else None,
                billed_dollars=round(record.price, 12),
            )
