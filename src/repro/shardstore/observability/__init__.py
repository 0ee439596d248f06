"""Observability for the ShardStore: tracing, counters, fault-event log.

The paper's methodology depends on *seeing why a checker fired*: minimized
failing histories are only half the story without the trace of what the
implementation actually did.  This package is the zero-dependency
instrumentation backbone threaded through every ShardStore component --
op-level spans nesting into IO-scheduler pumps and disk writes, and a
structured fault-event log keyed to the Fig. 5
:class:`~repro.shardstore.faults.Fault` enum so traced campaign artifacts
show exactly which injected buggy branch executed, and when.

Counts have one home: each component's stats dataclass (``DiskStats``,
``SchedulerStats``, ``NodeStats``...), bumped whether or not anything is
traced.  A :class:`RingRecorder` keeps no second copy; components register
their stats with :meth:`RingRecorder.watch` and a snapshot's
``metrics.counters`` is the sum of what it watches.

The default :data:`NULL_RECORDER` keeps the hot path allocation-free;
pass a :class:`RingRecorder` via ``StoreConfig(recorder=...)`` (or
``repro campaign --trace``) to capture.
"""

from .metrics import exported_as, merge_metrics, stat_counters
from .journal import (
    GENESIS_CHAIN,
    JOURNAL_VERSION,
    Journal,
    JournalEnvelope,
    JournalError,
    classify_error,
    digest_bytes,
    digest_keys,
    read_journal,
    seal_on_signal,
)
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
    "exported_as",
    "merge_metrics",
    "stat_counters",
    "GENESIS_CHAIN",
    "JOURNAL_VERSION",
    "Journal",
    "JournalEnvelope",
    "JournalError",
    "classify_error",
    "digest_bytes",
    "digest_keys",
    "read_journal",
    "seal_on_signal",
    "Recorder",
    "component_of_latency",
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
