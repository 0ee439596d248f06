"""Prometheus text-format exposition of the metrics registry.

:func:`render_prometheus` turns the JSON-able snapshots the rest of the
observability layer already produces (:meth:`Metrics.snapshot`, merged
campaign blocks) into the Prometheus exposition format (version 0.0.4)
that ``repro metrics-serve`` serves on ``/metrics``.  Stdlib only; nothing
here imports an HTTP server.

Mapping:

* counters   -> ``repro_<name>_total`` (TYPE counter)
* gauges     -> ``repro_<name>`` (last) and ``repro_<name>_peak`` (max)
* histograms -> ``repro_<name>`` (TYPE histogram) with cumulative
  ``_bucket{le=...}`` samples, ``_sum`` and ``_count``
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional

__all__ = ["render_prometheus"]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, namespace: str) -> str:
    return f"{namespace}_{_NAME_OK.sub('_', name)}"


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _bound_key(bound: str) -> float:
    return float("inf") if bound == "inf" else float(bound)


def _histogram_lines(metric: str, snapshot: Dict[str, Any]) -> List[str]:
    """Cumulative ``_bucket``/``_sum``/``_count`` samples for one histogram."""
    lines: List[str] = []
    cumulative = 0
    for bound in sorted(snapshot.get("buckets", {}), key=_bound_key):
        cumulative += snapshot["buckets"][bound]
        if bound == "inf":
            continue
        lines.append(f'{metric}_bucket{{le="{int(bound)}"}} {cumulative}')
    lines.append(f'{metric}_bucket{{le="+Inf"}} {snapshot.get("count", 0)}')
    lines.append(f"{metric}_sum {_format_value(snapshot.get('total', 0))}")
    lines.append(f'{metric}_count {snapshot.get("count", 0)}')
    return lines


def render_prometheus(
    metrics: Optional[Dict[str, Any]],
    *,
    extra_counters: Optional[Dict[str, int]] = None,
    extra_gauges: Optional[Dict[str, float]] = None,
    labeled_counters: Optional[Dict[str, Dict[str, int]]] = None,
    labeled_gauges: Optional[Dict[str, Dict[str, float]]] = None,
    label: str = "node",
    namespace: str = "repro",
) -> str:
    """Render metric snapshots as a Prometheus text-format page.

    ``metrics`` is a :meth:`Metrics.snapshot` dict (or a merged campaign
    block); ``extra_counters`` adds flat name->int counters (e.g.
    ``NodeStats``);
    ``extra_gauges`` adds flat name->float gauges (e.g. the breaker
    states and error rates from ``StorageNode.health_snapshot()``).

    ``labeled_counters`` / ``labeled_gauges`` map a metric name to
    ``{label value -> number}`` and render one sample per label value
    under the ``label`` key (default ``node``) -- the cluster demo uses
    this to break breaker/queue/shed series out per storage node:
    ``repro_cluster_shed_overload_total{node="node2"} 3``.
    """
    lines: List[str] = []
    metrics = metrics or {}

    for name in sorted(labeled_counters or {}):
        metric = _metric_name(name, namespace) + "_total"
        lines.append(
            f"# HELP {metric} Monotonic counter {name} (per {label})"
        )
        lines.append(f"# TYPE {metric} counter")
        for value_key in sorted(labeled_counters[name]):
            lines.append(
                f'{metric}{{{label}="{value_key}"}} '
                f"{_format_value(labeled_counters[name][value_key])}"
            )

    for name in sorted(labeled_gauges or {}):
        metric = _metric_name(name, namespace)
        lines.append(f"# HELP {metric} Gauge {name} (per {label})")
        lines.append(f"# TYPE {metric} gauge")
        for value_key in sorted(labeled_gauges[name]):
            lines.append(
                f'{metric}{{{label}="{value_key}"}} '
                f"{_format_value(labeled_gauges[name][value_key])}"
            )

    counters = dict(metrics.get("counters", {}))
    for name, value in (extra_counters or {}).items():
        counters[name] = value
    for name in sorted(counters):
        metric = _metric_name(name, namespace) + "_total"
        lines.append(f"# HELP {metric} Monotonic counter {name}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(counters[name])}")

    gauges = dict(metrics.get("gauges", {}))
    for name, value in (extra_gauges or {}).items():
        gauges[name] = value
    for name in sorted(gauges):
        value = gauges[name]
        metric = _metric_name(name, namespace)
        last = value.get("last") if isinstance(value, dict) else value
        peak = value.get("max") if isinstance(value, dict) else value
        if last is not None:
            lines.append(f"# HELP {metric} Gauge {name} (last set value)")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(last)}")
        if peak is not None:
            lines.append(f"# HELP {metric}_peak Gauge {name} (peak value)")
            lines.append(f"# TYPE {metric}_peak gauge")
            lines.append(f"{metric}_peak {_format_value(peak)}")

    for name in sorted(metrics.get("histograms", {})):
        metric = _metric_name(name, namespace)
        lines.append(f"# HELP {metric} Distribution of {name}")
        lines.append(f"# TYPE {metric} histogram")
        lines.extend(_histogram_lines(metric, metrics["histograms"][name]))

    return "\n".join(lines) + "\n"
