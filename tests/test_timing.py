"""Tests for wall-clock timing: TimingRecorder, percentile math, hot path.

The percentile cases are hand-computed against the power-of-two bucket
bounds so the math (ceil rank, upper-bound answer, min/max clamping) is
pinned to values a human can re-derive.  The hot-path test is the
regression guard for satellite (b): with recording disabled, a 10k-op
loop must never invoke the recorder at all.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterRouter
from repro.shardstore import (
    DiskGeometry,
    NullRecorder,
    RingRecorder,
    StorageNode,
    StoreConfig,
    StoreSystem,
    TimingRecorder,
)
from repro.shardstore.errors import NotFoundError
from repro.shardstore.observability import (
    HISTOGRAM_BOUNDS,
    LATENCY_BOUNDS_NS,
    Histogram,
    component_of_latency,
    merge_histogram_snapshots,
    percentile_from_snapshot,
    percentiles_from_snapshot,
)
from repro.shardstore.observability.recorder import NULL_SPAN


def _snapshot_of(values, bounds=HISTOGRAM_BOUNDS):
    histogram = Histogram(bounds=bounds)
    for value in values:
        histogram.observe(value)
    return histogram.snapshot()


class TestPercentileHandComputed:
    def test_one_through_ten(self):
        # Buckets: 1->{1}, 2->{2}, 4->{3,4}, 8->{5..8}, 16->{9,10}.
        snap = _snapshot_of(range(1, 11))
        assert percentile_from_snapshot(snap, 0.50) == 8  # rank 5 -> bucket 8
        assert percentile_from_snapshot(snap, 0.90) == 10  # rank 9 -> 16, clamp
        assert percentile_from_snapshot(snap, 0.99) == 10  # rank 10
        assert percentiles_from_snapshot(snap) == {
            "p50": 8,
            "p90": 10,
            "p99": 10,
            "p999": 10,
        }

    def test_exact_bucket_boundaries(self):
        snap = _snapshot_of([1, 2, 4])
        assert percentile_from_snapshot(snap, 0.50) == 2  # rank 2 -> bucket 2

    def test_single_observation_clamps_to_value(self):
        # 7 lands in bucket 8; the answer clamps to the observed max.
        snap = _snapshot_of([7])
        assert percentiles_from_snapshot(snap) == {
            "p50": 7,
            "p90": 7,
            "p99": 7,
            "p999": 7,
        }

    def test_clamps_to_min(self):
        # All 5s land in bucket 8; min clamp keeps the answer honest.
        snap = _snapshot_of([5, 5, 5])
        assert percentile_from_snapshot(snap, 0.50) == 5

    def test_inf_bucket_reports_max(self):
        snap = _snapshot_of([20000, 30000])  # beyond the last default bound
        assert snap["buckets"] == {"inf": 2}
        assert percentile_from_snapshot(snap, 0.50) == 30000

    def test_empty_histogram_is_none(self):
        snap = _snapshot_of([])
        assert percentile_from_snapshot(snap, 0.50) is None
        assert percentiles_from_snapshot(snap) == {
            "p50": None,
            "p90": None,
            "p99": None,
            "p999": None,
        }
        assert percentile_from_snapshot({}, 0.5) is None

    def test_quantile_domain_checked(self):
        snap = _snapshot_of([1])
        with pytest.raises(ValueError):
            percentile_from_snapshot(snap, 0.0)
        with pytest.raises(ValueError):
            percentile_from_snapshot(snap, 1.5)

    def test_float_rank_has_no_precision_drift(self):
        # ceil(0.1 * 10) must be exactly 1, not 2 via 1.0000000000000002.
        snap = _snapshot_of(range(1, 11))
        assert percentile_from_snapshot(snap, 0.1) == 1


class TestMergeHistogramSnapshots:
    def test_empty_iterable_yields_zero_snapshot(self):
        assert merge_histogram_snapshots([]) == {
            "count": 0,
            "total": 0,
            "min": 0,
            "max": 0,
            "buckets": {},
        }

    def test_empty_parts_are_identity(self):
        a = _snapshot_of([1, 2, 3])
        zero = _snapshot_of([])
        assert merge_histogram_snapshots([zero, a, zero]) == a

    def test_merge_equals_combined_observation(self):
        a = _snapshot_of([1, 2, 3])
        b = _snapshot_of([100, 200])
        combined = _snapshot_of([1, 2, 3, 100, 200])
        assert merge_histogram_snapshots([a, b]) == combined

    def test_associative_and_commutative(self):
        a = _snapshot_of([1, 2, 3])
        b = _snapshot_of([100, 200])
        c = _snapshot_of([5])
        left = merge_histogram_snapshots(
            [merge_histogram_snapshots([a, b]), c]
        )
        right = merge_histogram_snapshots(
            [a, merge_histogram_snapshots([b, c])]
        )
        flat = merge_histogram_snapshots([a, b, c])
        assert left == right == flat
        assert merge_histogram_snapshots([b, a]) == merge_histogram_snapshots(
            [a, b]
        )

    def test_merge_does_not_mutate_inputs(self):
        a = _snapshot_of([1, 2, 3])
        b = _snapshot_of([2, 4])
        before = {key: dict(a[key]) if key == "buckets" else a[key] for key in a}
        merge_histogram_snapshots([a, b])
        assert a == before

    def test_latency_bounds_merge(self):
        a = _snapshot_of([1500, 3000], bounds=LATENCY_BOUNDS_NS)
        b = _snapshot_of([1_000_000], bounds=LATENCY_BOUNDS_NS)
        merged = merge_histogram_snapshots([a, b])
        assert merged["count"] == 3
        assert merged["min"] == 1500
        assert merged["max"] == 1_000_000


class TestComponentOfLatency:
    @pytest.mark.parametrize(
        "name,component",
        [
            ("put", "op"),
            ("flush", "op"),
            ("bench.put", "bench"),
            ("node.get", "node"),
            ("disk.write", "disk"),
            ("lsm.flush", "lsm"),
            ("cache.fill", "cache"),
            ("scheduler.pump_one", "scheduler"),
            ("reclaim", "reclaim"),
            ("scrub", "scrub"),
        ],
    )
    def test_prefix_grouping(self, name, component):
        assert component_of_latency(name) == component


class TestTimingRecorder:
    def test_timed_section_records_latency_without_ring_events(self):
        recorder = TimingRecorder()
        with recorder.timed("disk.write"):
            pass
        assert recorder.trace() == []
        snap = recorder.latency_snapshot()
        assert list(snap) == ["disk.write"]
        assert snap["disk.write"]["count"] == 1
        assert snap["disk.write"]["p50"] is not None

    def test_span_records_ring_entry_and_latency(self):
        recorder = TimingRecorder()
        with recorder.span("put", key="b'k'"):
            pass
        types = [entry["type"] for entry in recorder.trace()]
        assert types == ["span", "end"]
        assert recorder.latency_snapshot()["put"]["count"] == 1

    def test_failed_span_marks_ring_entry(self):
        recorder = TimingRecorder()
        with pytest.raises(RuntimeError):
            with recorder.span("put"):
                raise RuntimeError("boom")
        assert recorder.trace()[-1].get("failed") is True
        assert recorder.latency_snapshot()["put"]["count"] == 1

    def test_snapshot_stays_wall_clock_free(self):
        # The campaign determinism contract: latency never reaches the
        # artifact-facing snapshot, which keeps RingRecorder's exact shape.
        recorder = TimingRecorder()
        with recorder.timed("disk.write"):
            pass
        with recorder.span("put"):
            pass
        snap = recorder.snapshot()
        assert set(snap) == set(RingRecorder().snapshot())
        assert "latency" not in str(sorted(snap))

    def test_latency_snapshot_sorted_and_uses_latency_bounds(self):
        recorder = TimingRecorder()
        recorder.observe_latency("zzz", 10)
        recorder.observe_latency("aaa", 5000)
        assert list(recorder.latency_snapshot()) == ["aaa", "zzz"]
        assert recorder.latency["aaa"].bounds == LATENCY_BOUNDS_NS

    def test_timing_flags(self):
        assert TimingRecorder().timing is True
        assert RingRecorder().timing is False
        assert NullRecorder().timing is False

    def test_base_recorder_timed_is_the_null_span(self):
        assert RingRecorder().timed("disk.write") is NULL_SPAN
        assert NullRecorder().timed("disk.write") is NULL_SPAN


class _SpyRecorder(NullRecorder):
    """Counts every recorder invocation; guarded hot paths must make none."""

    def __init__(self):
        self.calls = []

    def span(self, name, **fields):
        self.calls.append(("span", name))
        return NULL_SPAN

    def timed(self, name):
        self.calls.append(("timed", name))
        return NULL_SPAN

    def count(self, name, amount=1):
        self.calls.append(("count", name))

    def gauge(self, name, value):
        self.calls.append(("gauge", name))

    def observe(self, name, value):
        self.calls.append(("observe", name))

    def event(self, name, **fields):
        self.calls.append(("event", name))

    def fault_event(self, fault, component, detail=""):
        self.calls.append(("fault_event", component))


class TestHotPathOverhead:
    def test_disabled_recorder_sees_zero_calls_over_10k_ops(self):
        """Satellite (b): with recording off, the request path -- puts,
        gets, deletes, flushes, scheduler pumps, and any reclamation they
        trigger -- must not touch the recorder at all."""
        spy = _SpyRecorder()
        config = StoreConfig(
            geometry=DiskGeometry(
                num_extents=48, extent_size=32768, page_size=512
            ),
            max_chunk_payload=4096,
            memtable_flush_threshold=64,
            buffer_cache_pages=64,
            recorder=spy,
        )
        store = StoreSystem(config).store
        spy.calls.clear()  # setup may legitimately log; the loop may not

        keys = [b"hot-%03d" % index for index in range(32)]
        for key in keys:
            store.put(key, b"v" * 64)
        for index in range(10_000):
            key = keys[index % len(keys)]
            kind = index % 4
            if kind in (0, 1):
                store.put(key, b"v" * 64)
            elif kind == 2:
                store.get(key)
            else:
                store.contains(key)
            if index % 256 == 0:
                store.flush()
        store.flush()
        store.drain()

        assert spy.calls == []

    def test_disabled_recorder_sees_zero_calls_over_a_10k_op_node_loop(self):
        """ROADMAP 2c: the node's routing, admission and breaker layer adds
        no unguarded recorder call on top of the store's."""
        spy = _SpyRecorder()
        node = StorageNode(
            num_disks=3,
            config=StoreConfig(
                geometry=DiskGeometry(
                    num_extents=48, extent_size=32768, page_size=512
                ),
                max_chunk_payload=4096,
                memtable_flush_threshold=64,
                buffer_cache_pages=64,
                recorder=spy,
            ),
        )
        spy.calls.clear()  # setup may legitimately log; the loop may not

        _kv_loop(node, ops=10_000, flush_every=128, drain_every=1024)
        node.flush()
        node.drain()

        assert spy.calls == []

    def test_disabled_recorder_sees_zero_calls_over_a_2k_op_router_loop(self):
        """ROADMAP 2c: quorum fan-out, hinted handoff and anti-entropy on
        top of five nodes, still without touching a disabled recorder."""
        spy = _SpyRecorder()
        router = ClusterRouter(
            ClusterConfig(
                anti_entropy=True,
                geometry=DiskGeometry(
                    num_extents=48, extent_size=32768, page_size=256
                ),
            ),
            recorder=spy,
        )
        spy.calls.clear()

        # The router has no flush/drain of its own (every replica ack
        # drains); a partitioned member makes the loop queue and replay hints.
        _kv_loop(router, ops=500)
        router.partition_node(0)
        _kv_loop(router, ops=500)
        router.heal_partition(0)
        _kv_loop(router, ops=1_000)
        router.settle()

        assert router.stats["hints_replayed"] > 0
        assert spy.calls == []


def _kv_loop(kv, *, ops, flush_every=0, drain_every=0):
    """put/get/delete/contains (and flush/drain, where the system under test
    has them) over 32 keys, as a ``KVNode`` client would issue them."""
    keys = [b"hot-%03d" % index for index in range(32)]
    for key in keys:
        kv.put(key, b"v" * 64)
    for index in range(ops):
        key = keys[index % len(keys)]
        kind = index % 8
        try:
            if kind in (0, 1, 2):
                kv.put(key, b"v" * 64)
            elif kind in (3, 4, 5):
                kv.get(key)
            elif kind == 6:
                kv.contains(key)
            else:
                kv.delete(key)
        except NotFoundError:
            pass  # a get or delete after this key's delete
        if flush_every and (index + 1) % flush_every == 0:
            kv.flush()
        if drain_every and (index + 1) % drain_every == 0:
            kv.drain()
