"""Profile diffs: attribute a regression to an operator and a resource.

Two inputs diff cleanly because both carry per-operator *self* values:

* two attribution trees (:class:`~repro.obs.profiler.ProfileNode`, or
  their dict serialization from a journal capture) — per-path deltas of
  virtual time, attributed nanodollars, bytes, and GETs;
* two benchmark records' ``"profile"`` sections (per-operator resource
  totals aggregated over a whole workload run) — what the perf gate
  diffs when a baseline comparison fails, so CI says "Scan regressed in
  bandwidth" instead of "a number changed".

Every delta names a dominant resource: the measured axis (bytes →
bandwidth, GETs → requests, virtual time → compute) with the largest
relative change; when only the attributed dollars moved the resource is
``pricing``.  Ordering is by |nanodollar delta|, then |time delta|, then
path — total and deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.obs.profiler import ProfileNode
from repro.turbo.cost import NANOS_PER_DOLLAR

#: Measured axes a delta can be pinned on, with the resource each one
#: implicates (the same split the cost attribution uses).
_RESOURCE_AXES = (
    ("bytes_scanned", "bandwidth"),
    ("get_requests", "requests"),
    ("time_s", "compute"),
)


# ---------------------------------------------------------------------------
# Tree (de)serialization — journal captures store trees as plain dicts
# ---------------------------------------------------------------------------


def profile_to_dict(node: ProfileNode) -> dict:
    """A ProfileNode subtree as a JSON-ready dict (self values only)."""
    return {
        "name": node.name,
        "kind": node.kind,
        "self_time_s": round(node.self_time_s, 9),
        "bytes_scanned": node.bytes_scanned,
        "get_requests": node.get_requests,
        "footer_gets": node.footer_gets,
        "chunk_gets": node.chunk_gets,
        "rows_out": node.rows_out,
        "morsels": node.morsels,
        "self_nanodollars": node.self_nanodollars,
        "children": [profile_to_dict(child) for child in node.children],
    }


def profile_from_dict(data: dict) -> ProfileNode:
    """Inverse of :func:`profile_to_dict`."""
    return ProfileNode(
        name=data["name"],
        kind=data.get("kind", "operator"),
        self_time_s=data.get("self_time_s", 0.0),
        bytes_scanned=data.get("bytes_scanned", 0),
        get_requests=data.get("get_requests", 0),
        footer_gets=data.get("footer_gets", 0),
        chunk_gets=data.get("chunk_gets", 0),
        rows_out=data.get("rows_out", 0),
        morsels=data.get("morsels", 0),
        self_nanodollars=data.get("self_nanodollars", 0),
        children=[
            profile_from_dict(child) for child in data.get("children", [])
        ],
    )


# ---------------------------------------------------------------------------
# Flattening + deltas
# ---------------------------------------------------------------------------


def _as_node(profile: ProfileNode | dict) -> ProfileNode:
    if isinstance(profile, ProfileNode):
        return profile
    return profile_from_dict(profile)


def flatten_profile(profile: ProfileNode | dict) -> dict[str, dict]:
    """Per-path self totals: ``frame;frame;frame`` → resource dict.

    Identical sibling frames (retried execute spans, repeated operators)
    aggregate, matching the folded-stack view of the same tree.
    """
    totals: dict[str, dict] = {}

    def visit(node: ProfileNode, stack: list[str]) -> None:
        frames = stack + [node.frame()]
        path = ";".join(frames)
        row = totals.setdefault(
            path,
            {
                "time_s": 0.0,
                "nanodollars": 0,
                "bytes_scanned": 0,
                "get_requests": 0,
            },
        )
        row["time_s"] += node.self_time_s
        row["nanodollars"] += node.self_nanodollars
        row["bytes_scanned"] += node.bytes_scanned
        row["get_requests"] += node.get_requests
        for child in node.children:
            visit(child, frames)

    visit(_as_node(profile), [])
    return totals


@dataclass(frozen=True)
class OperatorDelta:
    """One operator path's (or operator name's) regression evidence."""

    path: str
    resource: str  # bandwidth | requests | compute | pricing | none
    time_base_s: float
    time_fresh_s: float
    nanodollars_base: int
    nanodollars_fresh: int
    bytes_base: int
    bytes_fresh: int
    gets_base: int
    gets_fresh: int

    @property
    def time_delta_s(self) -> float:
        return self.time_fresh_s - self.time_base_s

    @property
    def nanodollar_delta(self) -> int:
        return self.nanodollars_fresh - self.nanodollars_base

    @property
    def dollar_delta(self) -> float:
        return self.nanodollar_delta / NANOS_PER_DOLLAR

    @property
    def regressed(self) -> bool:
        return self.nanodollar_delta > 0 or self.time_delta_s > 1e-12


def _relative(base: float, fresh: float) -> float:
    if base == fresh:
        return 0.0
    return abs(fresh - base) / max(abs(base), 1e-12)


def _dominant_resource(row_base: dict, row_fresh: dict) -> str:
    """The measured axis with the largest relative change, mapped to the
    resource it implicates; ``pricing`` when only attributed $ moved."""
    best, best_change = "none", 0.0
    for axis, resource in _RESOURCE_AXES:
        change = _relative(
            float(row_base.get(axis, 0)), float(row_fresh.get(axis, 0))
        )
        if change > best_change:
            best, best_change = resource, change
    if best == "none" and row_base.get("nanodollars", 0) != row_fresh.get(
        "nanodollars", 0
    ):
        best = "pricing"
    return best


_EMPTY_ROW = {
    "time_s": 0.0,
    "nanodollars": 0,
    "bytes_scanned": 0,
    "get_requests": 0,
}


def _diff_tables(
    base: dict[str, dict], fresh: dict[str, dict]
) -> list[OperatorDelta]:
    deltas: list[OperatorDelta] = []
    for path in sorted(set(base) | set(fresh)):
        row_base = base.get(path, _EMPTY_ROW)
        row_fresh = fresh.get(path, _EMPTY_ROW)
        if row_base == row_fresh:
            continue
        deltas.append(
            OperatorDelta(
                path=path,
                resource=_dominant_resource(row_base, row_fresh),
                time_base_s=float(row_base.get("time_s", 0.0)),
                time_fresh_s=float(row_fresh.get("time_s", 0.0)),
                nanodollars_base=int(row_base.get("nanodollars", 0)),
                nanodollars_fresh=int(row_fresh.get("nanodollars", 0)),
                bytes_base=int(row_base.get("bytes_scanned", 0)),
                bytes_fresh=int(row_fresh.get("bytes_scanned", 0)),
                gets_base=int(row_base.get("get_requests", 0)),
                gets_fresh=int(row_fresh.get("get_requests", 0)),
            )
        )
    # Rank by |Δ$| then |Δt|; exact ties break deterministically on the
    # operator name (the path's leaf), then the dominant resource, then
    # the full path — never on dict insertion order.
    deltas.sort(
        key=lambda d: (
            -abs(d.nanodollar_delta),
            -abs(d.time_delta_s),
            d.path.rsplit(";", 1)[-1],
            d.resource,
            d.path,
        )
    )
    return deltas


def diff_profiles(
    base: ProfileNode | dict, fresh: ProfileNode | dict
) -> list[OperatorDelta]:
    """Diff two attribution trees, most-significant delta first."""
    return _diff_tables(flatten_profile(base), flatten_profile(fresh))


def diff_operator_tables(base: dict, fresh: dict) -> list[OperatorDelta]:
    """Diff two benchmark-record ``"profile"`` sections.

    Each section is ``{"operators": {name: {time_s, nanodollars,
    bytes_scanned, get_requests}}}`` — flat per-operator totals rather
    than paths, but the delta/resource logic is identical.
    """
    return _diff_tables(
        dict(base.get("operators", {})), dict(fresh.get("operators", {}))
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_axis(delta: OperatorDelta) -> str:
    if delta.resource == "bandwidth":
        base, fresh = delta.bytes_base, delta.bytes_fresh
        unit = "bytes"
    elif delta.resource == "requests":
        base, fresh = delta.gets_base, delta.gets_fresh
        unit = "GETs"
    else:
        return (
            f"time {delta.time_base_s:.6f}s -> {delta.time_fresh_s:.6f}s "
            f"({delta.time_delta_s:+.6f}s)"
        )
    if base == 0 and fresh != 0:
        return f"{unit} {base} -> {fresh} (new)"
    pct = _relative(base, fresh) * 100 * (1 if fresh >= base else -1)
    return f"{unit} {base} -> {fresh} ({pct:+.1f}%)"


def render_diff(
    deltas: list[OperatorDelta], limit: int = 10, prefix: str = ""
) -> str:
    """Human-readable delta lines: operator, resource, axis, $ movement."""
    lines: list[str] = []
    for delta in deltas[:limit]:
        operator = delta.path.rsplit(";", 1)[-1]
        direction = "regressed" if delta.regressed else "improved"
        lines.append(
            f"{prefix}{operator} {direction} in {delta.resource}: "
            f"{_fmt_axis(delta)}; attributed "
            f"{delta.dollar_delta:+.9f} $"
        )
    if not deltas:
        lines.append(f"{prefix}(no per-operator deltas)")
    return "\n".join(lines)


def export_diff_json(deltas: list[OperatorDelta]) -> str:
    """Byte-stable JSON export of a diff (tooling-facing)."""
    return (
        json.dumps(
            [
                {
                    "path": d.path,
                    "resource": d.resource,
                    "time_s": {"base": round(d.time_base_s, 9), "fresh": round(d.time_fresh_s, 9)},
                    "nanodollars": {"base": d.nanodollars_base, "fresh": d.nanodollars_fresh},
                    "bytes_scanned": {"base": d.bytes_base, "fresh": d.bytes_fresh},
                    "get_requests": {"base": d.gets_base, "fresh": d.gets_fresh},
                }
                for d in deltas
            ],
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
