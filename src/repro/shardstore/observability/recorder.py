"""Trace recorders: the observability backbone of the ShardStore.

Two implementations of one interface:

* :class:`NullRecorder` -- the default.  Every method is a no-op, ``span``
  returns a shared singleton context manager, and ``enabled`` is ``False``
  so hot paths (disk IO, cache page lookups, scheduler pumps) can skip the
  call entirely with an attribute check.  The hot path stays
  allocation-free when observability is off.
* :class:`RingRecorder` -- a bounded ring buffer of trace events plus a
  :class:`~repro.shardstore.observability.metrics.Metrics` registry and a
  structured fault-event log keyed to the Fig. 5
  :class:`~repro.shardstore.faults.Fault` enum.

Events are stamped with a *logical tick counter*, never wall-clock time:
traced campaign shards must stay byte-identical across reruns and worker
counts (the PR 1 determinism contract), and wall time would break that.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List

from .metrics import Metrics

#: Ring capacity: enough to hold the interesting suffix of a failing
#: sequence without letting long campaigns accumulate unbounded traces.
DEFAULT_TRACE_CAPACITY = 256

#: Fault-event log cap; overflow is counted, never silently dropped.
MAX_FAULT_EVENTS = 1024


class _NullSpan:
    """Shared no-op context manager returned by disabled recorders."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Recorder:
    """Interface (and no-op base) for trace/metric recording.

    Components hold a reference to a recorder and guard instrumentation
    with ``if self.recorder.enabled:`` on hot paths; colder call sites may
    call methods unconditionally since the base implementations are no-ops.
    """

    enabled = False

    def span(self, name: str, **fields: Any) -> Any:
        """Context manager bracketing one operation (nests)."""
        return NULL_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def gauge(self, name: str, value: int) -> None:
        pass

    def observe(self, name: str, value: int) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def fault_event(self, fault: Any, component: str, detail: str = "") -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {}


class NullRecorder(Recorder):
    """The default recorder: records nothing, allocates nothing."""


#: Shared default instance; components fall back to this when no recorder
#: is configured, so ``self.recorder`` is never ``None``.
NULL_RECORDER = NullRecorder()


class _Span:
    """Context manager emitted by :meth:`RingRecorder.span`."""

    __slots__ = ("_recorder", "name")

    def __init__(self, recorder: "RingRecorder", name: str) -> None:
        self._recorder = recorder
        self.name = name

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._recorder._end_span(self.name, failed=exc[0] is not None)
        return False


class RingRecorder(Recorder):
    """Bounded in-memory recorder: trace ring + metrics + fault events."""

    enabled = True

    #: Optional :class:`~repro.shardstore.observability.journal.Journal`
    #: this recorder streams trace entries into (set by
    #: ``Journal.attach_recorder``); class attribute so the hot path pays
    #: one attribute check when no journal is attached.
    journal: Any = None

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        self.capacity = capacity
        self.events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self.metrics = Metrics()
        self.fault_events: List[Dict[str, Any]] = []
        self.fault_events_dropped = 0
        #: Events evicted from the ring by overflow -- surfaced in
        #: ``snapshot()``/``stats``/``trace`` so truncation is never silent.
        self.trace_dropped = 0
        self._tick = 0
        self._depth = 0

    def _emit(self, entry: Dict[str, Any]) -> None:
        self._tick += 1
        entry["tick"] = self._tick
        if len(self.events) == self.capacity:
            self.trace_dropped += 1
            self.metrics.count("trace.dropped")
        self.events.append(entry)
        if self.journal is not None:
            self.journal.on_trace_entry(entry)

    def span(self, name: str, **fields: Any) -> _Span:
        entry: Dict[str, Any] = {"type": "span", "name": name, "depth": self._depth}
        if fields:
            entry["fields"] = fields
        self._emit(entry)
        self._depth += 1
        return _Span(self, name)

    def _end_span(self, name: str, failed: bool = False) -> None:
        self._depth = max(0, self._depth - 1)
        entry: Dict[str, Any] = {"type": "end", "name": name, "depth": self._depth}
        if failed:
            entry["failed"] = True
        self._emit(entry)

    def count(self, name: str, amount: int = 1) -> None:
        self.metrics.count(name, amount)

    def gauge(self, name: str, value: int) -> None:
        self.metrics.gauge(name, value)

    def observe(self, name: str, value: int) -> None:
        self.metrics.observe(name, value)

    def event(self, name: str, **fields: Any) -> None:
        entry: Dict[str, Any] = {
            "type": "event",
            "name": name,
            "depth": self._depth,
        }
        if fields:
            entry["fields"] = fields
        self._emit(entry)

    def fault_event(self, fault: Any, component: str, detail: str = "") -> None:
        """Log one structured fault event keyed to the Fig. 5 catalog.

        ``fault`` is a :class:`repro.shardstore.faults.Fault`; it is stored
        by name/id so the log is JSON-able without the enum.
        """
        self.metrics.count("faults.events")
        if len(self.fault_events) >= MAX_FAULT_EVENTS:
            self.fault_events_dropped += 1
            return
        record = {
            "id": fault.value,
            "fault": fault.name,
            "component": component,
            "detail": detail,
            "tick": self._tick + 1,
        }
        self.fault_events.append(record)
        self.event("fault", fault=fault.name, component=component)

    def trace(self) -> List[Dict[str, Any]]:
        """The ring contents, oldest first (JSON-able copies)."""
        return [dict(entry) for entry in self.events]

    def snapshot(self) -> Dict[str, Any]:
        """Everything the campaign artifact embeds for one traced shard."""
        snap: Dict[str, Any] = {
            "metrics": self.metrics.snapshot(),
            "fault_events": [dict(event) for event in self.fault_events],
            "trace": self.trace(),
        }
        if self.fault_events_dropped:
            snap["fault_events_dropped"] = self.fault_events_dropped
        if self.trace_dropped:
            snap["trace_dropped"] = self.trace_dropped
        return snap
