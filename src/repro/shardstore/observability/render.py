"""Human-readable rendering of traces and metrics (CLI output).

These renderers back ``repro stats`` and ``repro trace`` and the metrics
digest in ``repro campaign`` summaries.  They accept the JSON-able dicts
produced by :meth:`RingRecorder.snapshot` / ``merge_metrics`` so they work
identically on live recorders and on campaign artifacts loaded from disk.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

#: Undotted span names that are background work, not request-plane ops.
_BACKGROUND_SPANS = ("reclaim", "scrub")


def component_of_latency(name: str) -> str:
    """The component a span belongs to (its dotted prefix).

    Undotted names are op-level spans (``put``, ``get``, ``flush``...) and
    group under ``"op"``, except background work (reclamation, scrubbing)
    which stands alone; ``node.*`` spans are the RPC layer.
    """
    if "." not in name:
        return name if name in _BACKGROUND_SPANS else "op"
    return name.split(".", 1)[0]


def render_metrics(metrics: Dict[str, Any]) -> str:
    """Render one metrics snapshot (or merged campaign block) as a table."""
    lines: List[str] = []
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    if counters:
        lines.append(f"{'counter':<36} {'value':>12}")
        lines.append("-" * 49)
        for name in sorted(counters):
            lines.append(f"{name:<36} {counters[name]:>12,}")
        hits = counters.get("cache.hits", 0)
        misses = counters.get("cache.misses", 0)
        if hits or misses:
            rate = hits / max(hits + misses, 1)
            lines.append(f"{'cache hit rate':<36} {rate:>11.1%}")
    if gauges:
        lines.append("")
        lines.append(f"{'gauge':<36} {'last':>6} {'max':>6}")
        lines.append("-" * 50)
        for name in sorted(gauges):
            value = gauges[name]
            last = value.get("last", "-") if isinstance(value, dict) else value
            peak = value.get("max", value) if isinstance(value, dict) else value
            lines.append(f"{name:<36} {last!s:>6} {peak!s:>6}")
    if histograms:
        lines.append("")
        lines.append(
            f"{'histogram':<28} {'count':>8} {'total':>10} {'min':>6} {'max':>6}"
        )
        lines.append("-" * 62)
        for name in sorted(histograms):
            h = histograms[name]
            lines.append(
                f"{name:<28} {h['count']:>8,} {h['total']:>10,} "
                f"{h['min']:>6} {h['max']:>6}"
            )
    if not lines:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)


def render_fault_events(events: Iterable[Dict[str, Any]]) -> str:
    """Render the structured fault-event log."""
    rows = list(events)
    if not rows:
        return "(no fault events)"
    lines = [f"{'tick':>6}  {'id':>3}  {'component':<14} fault / detail"]
    lines.append("-" * 60)
    for event in rows:
        detail = f" -- {event['detail']}" if event.get("detail") else ""
        lines.append(
            f"{event.get('tick', 0):>6}  #{event['id']:<2}  "
            f"{event['component']:<14} {event['fault']}{detail}"
        )
    return "\n".join(lines)


def filter_trace(
    events: Iterable[Dict[str, Any]],
    *,
    component: Optional[str] = None,
    op: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Narrow a trace to one component and/or one op's span subtrees.

    ``component`` keeps entries whose name maps to that component (same
    grouping as the latency breakdown: dotted prefix, or ``op`` for
    undotted request-plane spans).  ``op`` keeps each matching top-level
    span together with everything nested inside it.
    """
    out: List[Dict[str, Any]] = []
    active_depth: Optional[int] = None
    for event in events:
        keep = True
        if op is not None:
            depth = int(event.get("depth", 0))
            if active_depth is None:
                keep = event.get("type") == "span" and event.get("name") == op
                if keep:
                    active_depth = depth
            elif (
                event.get("type") == "end"
                and depth <= active_depth
            ):
                keep = event.get("name") == op and depth == active_depth
                active_depth = None
        if keep and component is not None:
            name = str(event.get("name", ""))
            if component_of_latency(name) != component:
                keep = False
        if keep:
            out.append(event)
    return out


def render_trace(
    events: Iterable[Dict[str, Any]], *, dropped: int = 0
) -> str:
    """Render a trace ring: spans indented by depth, ticks in the margin.

    ``dropped`` is the recorder's ``trace_dropped`` count: how many older
    entries the ring evicted before this snapshot was taken.
    """
    rows = list(events)
    if not rows:
        return "(empty trace)"
    lines: List[str] = []
    if dropped:
        lines.append(
            f"(ring evicted {dropped:,} older entries before this window)"
        )
    for event in rows:
        indent = "  " * int(event.get("depth", 0))
        kind = event.get("type", "event")
        name = event.get("name", "?")
        fields = event.get("fields") or {}
        suffix = ""
        if fields:
            rendered = " ".join(
                f"{key}={fields[key]}" for key in sorted(fields)
            )
            suffix = f" [{rendered}]"
        if kind == "span":
            marker = "+ "
        elif kind == "end":
            marker = "- "
            if event.get("failed"):
                suffix += " FAILED"
        else:
            marker = ". "
        lines.append(f"{event.get('tick', 0):>6}  {indent}{marker}{name}{suffix}")
    return "\n".join(lines)


def render_snapshot(snapshot: Dict[str, Any]) -> str:
    """Full rendering of one recorder snapshot (stats + faults + trace)."""
    sections = [
        render_metrics(snapshot.get("metrics", {})),
        "",
        "fault events:",
        render_fault_events(snapshot.get("fault_events", [])),
        "",
        "trace:",
        render_trace(
            snapshot.get("trace", []),
            dropped=snapshot.get("trace_dropped", 0),
        ),
    ]
    return "\n".join(sections)
