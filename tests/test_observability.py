"""Tests for the observability layer: recorders, counters, rendering.

The hand-computed cases pin the counters to exact values a human can
re-derive from the workload, so instrumentation drift (double-counting, a
count the recorder misses) fails loudly rather than shifting numbers
silently.
"""

import ast
import pathlib

import pytest

import repro

from repro.shardstore import (
    DiskGeometry,
    Fault,
    KeyNotFoundError,
    NULL_RECORDER,
    RingRecorder,
    StoreConfig,
    StoreSystem,
)
from repro.shardstore.dependency import Dependency, DurabilityTracker
from repro.shardstore.disk import DiskStats, FailureMode, FaultKind, InMemoryDisk
from repro.shardstore.errors import IoError
from repro.shardstore.observability import (
    MAX_FAULT_EVENTS,
    NullRecorder,
    Recorder,
    merge_metrics,
    render_fault_events,
    render_metrics,
    render_snapshot,
    render_trace,
)
from repro.shardstore.scheduler import IoScheduler


def _geometry():
    return DiskGeometry(num_extents=8, extent_size=2048, page_size=128)


def _counters(recorder):
    return recorder.snapshot()["metrics"]["counters"]


class TestDiskCountersHandComputed:
    def test_writes_reads_and_bytes(self):
        recorder = RingRecorder()
        disk = InMemoryDisk(_geometry(), recorder=recorder)
        disk.write(0, 0, b"a" * 100)
        disk.write(0, 100, b"b" * 28)
        disk.read(0, 0, 100)
        counters = _counters(recorder)
        assert counters["disk.writes"] == 2
        assert counters["disk.bytes_written"] == 128
        assert counters["disk.reads"] == 1
        assert counters["disk.bytes_read"] == 100

    def test_reset_counter(self):
        recorder = RingRecorder()
        disk = InMemoryDisk(_geometry(), recorder=recorder)
        disk.write(0, 0, b"x" * 128)
        disk.reset(0)
        disk.reset(1)
        assert _counters(recorder)["disk.resets"] == 2


class TestStoreCountersHandComputed:
    def test_scheduler_issues_every_enqueued_record(self):
        recorder = RingRecorder()
        system = StoreSystem(
            StoreConfig(geometry=_geometry(), recorder=recorder)
        )
        store = system.store
        for i in range(5):
            store.put(b"k%d" % i, b"v" * 40)
        store.drain()
        counters = _counters(recorder)
        enqueued = counters["scheduler.records_enqueued"]
        written = counters["scheduler.records_written"]
        assert enqueued > 0
        assert written == enqueued  # drained: nothing left behind
        assert counters["scheduler.ios_issued"] == counters["disk.writes"]

    def test_cache_hit_on_immediate_reread(self):
        recorder = RingRecorder()
        system = StoreSystem(
            StoreConfig(geometry=_geometry(), recorder=recorder)
        )
        store = system.store
        store.put(b"k", b"v" * 40)
        # The put files no page.  Its frame (26-byte header, 3-byte body
        # header, 1-byte key, 40-byte value, 16-byte trailing uuid: 86
        # bytes) is the first on its extent, inside page 0 of 128 bytes.
        counters = _counters(recorder)
        assert counters.get("cache.hits", 0) == counters.get("cache.misses", 0) == 0
        assert store.get(b"k") == b"v" * 40  # page 0 filled from the scheduler
        counters = _counters(recorder)
        assert (counters.get("cache.hits", 0), counters["cache.misses"]) == (0, 1)
        assert store.get(b"k") == b"v" * 40  # unflushed data served by the cache
        counters = _counters(recorder)
        assert (counters["cache.hits"], counters["cache.misses"]) == (1, 1)

    def test_delete_of_absent_key_traces_a_failed_span(self):
        recorder = RingRecorder()
        system = StoreSystem(
            StoreConfig(geometry=_geometry(), recorder=recorder)
        )
        with pytest.raises(KeyNotFoundError):
            system.store.delete(b"missing")
        ends = [e for e in recorder.trace() if e["type"] == "end"]
        assert ends and ends[-1]["name"] == "delete"
        assert ends[-1].get("failed") is True


class TestRingRecorder:
    def test_spans_nest_and_tick_monotonically(self):
        recorder = RingRecorder()
        with recorder.span("outer", a=1):
            recorder.event("inner-event")
            with recorder.span("inner"):
                pass
        trace = recorder.trace()
        assert [e["type"] for e in trace] == ["span", "event", "span", "end", "end"]
        assert [e["depth"] for e in trace] == [0, 1, 1, 1, 0]
        assert [e["tick"] for e in trace] == [1, 2, 3, 4, 5]

    def test_ring_is_bounded(self):
        recorder = RingRecorder(capacity=8)
        for i in range(100):
            recorder.event("e", i=i)
        trace = recorder.trace()
        assert len(trace) == 8
        assert trace[-1]["fields"]["i"] == 99

    def test_fault_event_log_caps_and_counts_overflow(self):
        recorder = RingRecorder()
        for _ in range(MAX_FAULT_EVENTS + 5):
            recorder.fault_event(Fault.RECLAIM_OFF_BY_ONE)
        snap = recorder.snapshot()
        assert len(snap["fault_events"]) == MAX_FAULT_EVENTS
        assert snap["fault_events_dropped"] == 5
        # The counter keeps the true total even past the log cap.
        assert snap["metrics"]["counters"]["faults.events"] == (
            MAX_FAULT_EVENTS + 5
        )

    def test_fault_event_record_shape(self):
        recorder = RingRecorder()
        recorder.fault_event(Fault.CACHE_NOT_DRAINED_ON_RESET, "detail here")
        (record,) = recorder.snapshot()["fault_events"]
        assert record["id"] == Fault.CACHE_NOT_DRAINED_ON_RESET.value
        assert record["fault"] == "CACHE_NOT_DRAINED_ON_RESET"
        # The component is the Fig. 5 catalog's, looked up, not passed.
        assert record["component"] == "Buffer cache"
        assert record["detail"] == "detail here"

    def test_null_recorder_records_nothing(self):
        recorder = NullRecorder()
        assert not recorder.enabled
        with recorder.span("op"):
            recorder.watch("disk", DiskStats(writes=1))
            recorder.event("e")
            recorder.fault_event(Fault.RECLAIM_OFF_BY_ONE)
        assert recorder.snapshot() == {}

    def test_default_recorder_is_shared_null(self):
        system = StoreSystem(StoreConfig(geometry=_geometry()))
        assert system.store.recorder is NULL_RECORDER


class TestMergeMetrics:
    def test_counters_sum(self):
        a = {"counters": {"c": 3}}
        b = {"counters": {"only-b": 1, "c": 4}}
        merged = merge_metrics([a, b])
        assert merged == {"counters": {"c": 7, "only-b": 1}}
        assert list(merged["counters"]) == ["c", "only-b"]

    def test_empty_snapshots_are_skipped(self):
        merged = merge_metrics([{}, RingRecorder().snapshot()["metrics"]])
        assert merged == {"counters": {}}


class TestRendering:
    def test_render_metrics_includes_cache_hit_rate(self):
        out = render_metrics({"counters": {"cache.hits": 3, "cache.misses": 1}})
        assert "cache hit rate" in out
        assert "75.0%" in out

    def test_render_trace_marks_failed_spans(self):
        recorder = RingRecorder()
        try:
            with recorder.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        out = render_trace(recorder.trace())
        assert "+ boom" in out
        assert "FAILED" in out

    def test_render_fault_events_empty(self):
        assert render_fault_events([]) == "(no fault events)"

    def test_render_snapshot_has_all_sections(self):
        recorder = RingRecorder()
        recorder.watch("disk", DiskStats(writes=2))
        recorder.fault_event(Fault.RECLAIM_OFF_BY_ONE)
        out = render_snapshot(recorder.snapshot())
        assert "disk.writes" in out
        assert "fault events:" in out
        assert "trace:" in out
        assert "RECLAIM_OFF_BY_ONE" in out


class TestStatsAreTheCounters:
    """A snapshot's counters are the watched stats objects summed: no
    second copy to drift from the component's own count."""

    GEOMETRY = DiskGeometry(num_extents=4, extent_size=4096, page_size=128)

    def test_a_torn_write_counts_the_bytes_that_landed(self):
        recorder = RingRecorder()
        disk = InMemoryDisk(self.GEOMETRY, recorder=recorder)
        disk.arm_fault(2, FailureMode.ONCE, kind=FaultKind.TORN_WRITE)
        with pytest.raises(IoError):
            disk.write(2, 0, b"t" * 256)
        assert disk.write_pointer(2) == 128
        counters = _counters(recorder)
        assert counters["disk.bytes_written"] == disk.stats.bytes_written == 128
        assert counters["disk.injected_failures"] == 1
        assert "disk.writes" not in counters  # the write itself failed

    def test_a_torn_writeback_counts_the_pages_it_absorbed(self):
        recorder = RingRecorder()
        disk = InMemoryDisk(self.GEOMETRY, recorder=recorder)
        tracker = DurabilityTracker()
        scheduler = IoScheduler(disk, tracker, recorder=recorder)
        scheduler.append(2, b"p" * 512, Dependency.root(tracker))
        disk.arm_fault(2, FailureMode.ONCE, kind=FaultKind.TORN_WRITE)
        with pytest.raises(IoError):
            scheduler.pump_one(2, coalesce=True)
        # Half the 4-page IO landed: two pages are durable after all.
        assert disk.write_pointer(2) == 256
        assert scheduler.stats.records_written == 2
        assert _counters(recorder)["scheduler.records_written"] == 2
        scheduler.drain()
        counters = _counters(recorder)
        assert counters["scheduler.records_written"] == 4
        assert counters["scheduler.writeback_requeues"] == 1

    def test_a_reboot_keeps_the_old_caches_hits(self):
        recorder = RingRecorder()
        system = StoreSystem(StoreConfig(geometry=_geometry(), recorder=recorder))
        keys = [b"k%d" % i for i in range(4)]
        for key in keys:
            system.store.put(key, b"v" * 40)
        for key in keys * 2:
            system.store.get(key)
        old_cache = system.store.cache
        assert old_cache.hits > 0
        new_store = system.clean_reboot()
        for key in keys * 2:
            assert new_store.get(key) == b"v" * 40
        assert new_store.cache is not old_cache and new_store.cache.hits > 0
        assert _counters(recorder)["cache.hits"] == (
            old_cache.hits + new_store.cache.hits
        )

    def test_nothing_in_src_counts_on_a_recorder(self):
        removed = {"count", "gauge", "observe"}
        for cls in (Recorder, NullRecorder, RingRecorder):
            assert not removed & set(dir(cls)), cls
        root = pathlib.Path(repro.__file__).parent
        calls = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in removed
                ):
                    continue
                owner = node.func.value
                name = owner.attr if isinstance(owner, ast.Attribute) else (
                    owner.id if isinstance(owner, ast.Name) else ""
                )
                if "recorder" in name:
                    calls.append(f"{path.relative_to(root)}:{node.lineno}")
        assert calls == []


class TestTraceSaysEachThingOnce:
    """Each trace entry a deletion relied on to say what the deleted one
    said is pinned here, so a later change cannot delete both copies."""

    @staticmethod
    def _matrix_shard(fault):
        from repro.campaign.fault_matrix import fault_matrix_shards, run_shard
        from repro.campaign.spec import smoke_spec

        shards = fault_matrix_shards(smoke_spec(trace=True), 0)
        return run_shard(next(s for s in shards if s.param("fault") == fault.name))

    def test_a_matrix_shard_says_once_which_fault_it_armed(self):
        result = self._matrix_shard(Fault.RECLAIM_OFF_BY_ONE)
        details = [event["detail"] for event in result.fault_events]
        assert details.count("armed for this shard") == 1
        assert "armed at store construction" not in details
        assert len(result.fault_events) < MAX_FAULT_EVENTS
        # What is left is where the seeded bug fired.
        assert details[0] == "armed for this shard" and len(details) > 1
        assert all("dropped the final payload byte" in d for d in details[1:])

    def test_an_mc_violation_is_told_by_the_failure_detail(self):
        result = self._matrix_shard(Fault.BUFFER_POOL_DEADLOCK)
        (failure,) = result.failures
        assert failure.detail.startswith(
            f"DeadlockError after {result.cases} executions"
        )
        names = [entry["name"] for entry in failure.trace]
        assert names == ["mc.explore", "fault"]

    def test_a_repaired_key_is_the_put_inside_the_scrub_repair(self, monkeypatch):
        from repro.shardstore.scrub import ScrubReport

        recorder = RingRecorder()
        store = StoreSystem(
            StoreConfig(geometry=_geometry(), recorder=recorder)
        ).store
        for i in range(4):
            store.put(b"k%d" % i, bytes([0x41 + i]) * 150)
        # The scrub flags a key whose chunk the normal read path still
        # reads (as a transient misread would), so repair rewrites it.
        monkeypatch.setattr(
            store.scrubber,
            "scrub",
            lambda: ScrubReport(keys_checked=4, bad_keys=[b"k2"]),
        )
        assert store.scrub_repair().repaired == [b"k2"]
        entries = list(recorder.events)
        start = max(
            i
            for i, entry in enumerate(entries)
            if entry["type"] == "span" and entry["name"] == "scrub_repair"
        )
        inside = [
            (entry["type"], entry["name"], entry.get("fields", {}).get("key"))
            for entry in entries[start + 1 :]
            if entry["depth"] == 1
        ]
        assert ("span", "put", repr(b"k2")) in inside
        assert entries[-1]["type"] == "end"
        assert entries[-1]["name"] == "scrub_repair"
