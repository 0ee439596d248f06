"""Zero-dependency metric primitives: counters, gauges, histograms.

Every value here is a plain int so that snapshots are JSON-able and --
critically for the campaign runner -- deterministic: metrics from a traced
campaign shard must be byte-identical across reruns and worker counts, so
nothing in this module may consult wall-clock time or object identity.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Histogram bucket upper bounds (inclusive), powers of two.  The final
#: bucket is open-ended and keyed ``"inf"`` in snapshots.
HISTOGRAM_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time level; the snapshot keeps the last and peak values."""

    __slots__ = ("last", "max")

    def __init__(self) -> None:
        self.last = 0
        self.max = 0

    def set(self, value: int) -> None:
        self.last = value
        if value > self.max:
            self.max = value

    def snapshot(self) -> Dict[str, int]:
        return {"last": self.last, "max": self.max}


class Histogram:
    """Log-bucketed distribution of integer observations.

    The default bounds suit op/byte counts.  Bounds must be sorted
    ascending; values above the last bound land in the open-ended ``"inf"``
    bucket.
    """

    __slots__ = ("count", "total", "min", "max", "buckets", "bounds")

    def __init__(self, bounds: Sequence[int] = HISTOGRAM_BOUNDS) -> None:
        self.count = 0
        self.total = 0
        self.min = 0
        self.max = 0
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)

    def observe(self, value: int) -> None:
        if self.count == 0 or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += 1
        self.total += value
        # bisect_left finds the first bound >= value (bounds are inclusive
        # upper edges); values past the last bound land in the "inf" bucket.
        self.buckets[bisect_left(self.bounds, value)] += 1

    def snapshot(self) -> Dict[str, Any]:
        buckets = {}
        for index, bound in enumerate(self.bounds):
            if self.buckets[index]:
                buckets[str(bound)] = self.buckets[index]
        if self.buckets[-1]:
            buckets["inf"] = self.buckets[-1]
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }


class Metrics:
    """A named registry of counters/gauges/histograms."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def count(self, name: str, amount: int = 1) -> None:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter()
        counter.add(amount)

    def gauge(self, name: str, value: int) -> None:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge()
        gauge.set(value)

    def observe(self, name: str, value: int) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able snapshot with deterministically sorted names."""
        return {
            "counters": {
                name: self.counters[name].snapshot()
                for name in sorted(self.counters)
            },
            "gauges": {
                name: self.gauges[name].snapshot()
                for name in sorted(self.gauges)
            },
            "histograms": {
                name: self.histograms[name].snapshot()
                for name in sorted(self.histograms)
            },
        }


def _bound_sort_key(bound: str) -> Tuple[bool, int, str]:
    return (bound == "inf", len(bound), bound)


def merge_histogram_snapshots(
    snapshots: Iterable[Dict[str, Any]],
) -> Dict[str, Any]:
    """Merge histogram snapshots (``Histogram.snapshot()`` dicts) bucket-wise.

    Associative and commutative, so per-shard (or per-op-type) histograms
    can be combined in any grouping -- the property the campaign aggregator
    relies on.  Returns an empty-histogram snapshot when nothing is given.
    """
    merged: Optional[Dict[str, Any]] = None
    for snap in snapshots:
        if not snap or not snap.get("count"):
            continue
        if merged is None:
            merged = {
                "count": snap["count"],
                "total": snap["total"],
                "min": snap["min"],
                "max": snap["max"],
                "buckets": dict(snap["buckets"]),
            }
            continue
        merged["min"] = min(merged["min"], snap["min"])
        merged["max"] = max(merged["max"], snap["max"])
        merged["count"] += snap["count"]
        merged["total"] += snap["total"]
        for bound, count in snap["buckets"].items():
            merged["buckets"][bound] = merged["buckets"].get(bound, 0) + count
    if merged is None:
        return {"count": 0, "total": 0, "min": 0, "max": 0, "buckets": {}}
    merged["buckets"] = {
        bound: merged["buckets"][bound]
        for bound in sorted(merged["buckets"], key=_bound_sort_key)
    }
    return merged


def merge_metrics(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-shard metric snapshots into one campaign-level block.

    Counters sum; gauges keep the peak observed anywhere (``last`` is
    meaningless across shards and is dropped); histograms merge bucket-wise
    via :func:`merge_histogram_snapshots`.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, int] = {}
    histogram_parts: Dict[str, List[Dict[str, Any]]] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            peak = value["max"] if isinstance(value, dict) else value
            gauges[name] = max(gauges.get(name, 0), peak)
        for name, value in snap.get("histograms", {}).items():
            histogram_parts.setdefault(name, []).append(value)
    histograms = {
        name: merge_histogram_snapshots(parts)
        for name, parts in histogram_parts.items()
    }
    return {
        "counters": {name: counters[name] for name in sorted(counters)},
        "gauges": {name: {"max": gauges[name]} for name in sorted(gauges)},
        "histograms": {
            name: histograms[name] for name in sorted(histograms)
        },
    }


def counter_value(snapshot: Dict[str, Any], name: str) -> int:
    """Convenience lookup into a :meth:`Metrics.snapshot` dict."""
    return snapshot.get("counters", {}).get(name, 0)


__all__: List[str] = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "merge_metrics",
    "merge_histogram_snapshots",
    "counter_value",
    "HISTOGRAM_BOUNDS",
]
