"""Counters: each count lives on its component's stats dataclass.

A component bumps plain int fields of its own stats object (``DiskStats``,
``SchedulerStats``, ``NodeStats``...); a traced run registers those objects
with its :class:`~repro.shardstore.observability.recorder.RingRecorder`,
whose snapshot sums them.  Nothing here consults wall-clock time or object
identity: metrics from a traced campaign shard must be byte-identical
across reruns and worker counts.
"""

from __future__ import annotations

from dataclasses import field, fields
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple


def exported_as(name: Optional[str]) -> Any:
    """A zero-initialised stats field exported under the full counter name
    ``name`` instead of ``<prefix>.<field>``; ``None``: not a count."""
    return field(default=0, metadata={"counter": name})


def stat_counters(prefix: str, stats: Any) -> Iterator[Tuple[str, int]]:
    """The ``(name, value)`` counts a stats dataclass exports.

    A field is named ``<prefix>.<field>`` unless it was declared with
    :func:`exported_as`.
    """
    for f in fields(stats):
        name = f.metadata.get("counter", f"{prefix}.{f.name}")
        if name is not None:
            yield name, getattr(stats, f.name)


def merge_metrics(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-shard metric snapshots into one campaign-level block:
    counters sum, names sorted."""
    counters: Dict[str, int] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    return {"counters": {name: counters[name] for name in sorted(counters)}}


__all__: List[str] = ["exported_as", "merge_metrics", "stat_counters"]
