"""Observability for the ShardStore: tracing, metrics, fault-event log.

The paper's methodology depends on *seeing why a checker fired*: minimized
failing histories are only half the story without the trace of what the
implementation actually did.  This package is the zero-dependency
instrumentation backbone threaded through every ShardStore component --
op-level spans nesting into IO-scheduler pumps and disk writes, counters
and histograms for the cache/LSM/scheduler/reclamation, and a structured
fault-event log keyed to the Fig. 5 :class:`~repro.shardstore.faults.Fault`
enum so traced campaign artifacts show exactly which injected buggy branch
executed, and when.

The default :data:`NULL_RECORDER` keeps the hot path allocation-free;
pass a :class:`RingRecorder` via ``StoreConfig(recorder=...)`` (or
``repro campaign --trace``) to capture.
"""

from .metrics import (
    HISTOGRAM_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    Metrics,
    counter_value,
    merge_histogram_snapshots,
    merge_metrics,
)
from .journal import (
    GENESIS_CHAIN,
    JOURNAL_VERSION,
    Journal,
    JournalError,
    classify_error,
    digest_bytes,
    digest_keys,
    journal_head,
    read_journal,
    seal_on_signal,
    verify_chain,
)
from .prometheus import render_prometheus
from .recorder import (
    DEFAULT_TRACE_CAPACITY,
    MAX_FAULT_EVENTS,
    NULL_RECORDER,
    NULL_SPAN,
    NullRecorder,
    Recorder,
    RingRecorder,
)
from .render import (
    component_of_latency,
    filter_trace,
    render_fault_events,
    render_metrics,
    render_snapshot,
    render_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "merge_metrics",
    "merge_histogram_snapshots",
    "counter_value",
    "HISTOGRAM_BOUNDS",
    "GENESIS_CHAIN",
    "JOURNAL_VERSION",
    "Journal",
    "JournalError",
    "classify_error",
    "digest_bytes",
    "digest_keys",
    "journal_head",
    "read_journal",
    "seal_on_signal",
    "verify_chain",
    "Recorder",
    "component_of_latency",
    "render_prometheus",
    "NullRecorder",
    "RingRecorder",
    "NULL_RECORDER",
    "NULL_SPAN",
    "DEFAULT_TRACE_CAPACITY",
    "MAX_FAULT_EVENTS",
    "filter_trace",
    "render_metrics",
    "render_fault_events",
    "render_trace",
    "render_snapshot",
]
