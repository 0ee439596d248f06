"""Tests for one disk lane alone -- no ``StorageNode`` anywhere.

A :class:`DiskLane` is the small checked component the node is composed
of: everything here drives ``io`` / ``unmetered_io`` / ``locked_io`` /
``admit`` / ``probe`` directly, with scripted callables standing in for
store operations where the outcome has to be exact.
"""

import pytest

from repro.shardstore import DiskGeometry, IoError, StoreConfig, StoreSystem
from repro.shardstore.errors import (
    DeadlineExceededError,
    OverloadedError,
    RetryableError,
)
from repro.shardstore.lane import PROBE_KEY, DiskLane, LaneContext, NodeStats
from repro.shardstore.observability import NULL_RECORDER, RingRecorder
from repro.shardstore.resilience import (
    BACKGROUND_WEIGHT_SHIFT,
    BREAKER_TRIP_FAILURES,
    RETRY_BUDGET_TOKENS,
    SLOW_THRESHOLD_MILLI,
    AdmissionConfig,
    BreakerState,
)


def _lane(*, admission=None, breaker=True, retries=True, recorder=NULL_RECORDER):
    trips = []
    ctx = LaneContext(
        retries=retries,
        breaker=breaker,
        admission=admission,
        recorder=recorder,
        on_trip=trips.append,
    )
    system = StoreSystem(
        StoreConfig(
            geometry=DiskGeometry(num_extents=10, extent_size=2048, page_size=128)
        )
    )
    return DiskLane(0, system, ctx), trips


class _Flaky:
    """A store operation that fails ``failures`` times, then returns ``ok``."""

    def __init__(self, failures, *, transient=True):
        self.failures = failures
        self.transient = transient
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise IoError(f"injected #{self.calls}", transient=self.transient)
        return "ok"


class TestMeteredIo:
    def test_breaker_sees_one_outcome_per_call_however_many_retries(self):
        lane, _ = _lane()
        op = _Flaky(2)  # fails twice, third attempt of the policy succeeds
        assert lane.io(op) == "ok"
        assert op.calls == 3
        assert lane.ctx.stats.retries == 2
        assert list(lane.breaker.health.outcomes) == [True]

        exhausted = _Flaky(99)
        with pytest.raises(RetryableError):
            lane.io(exhausted)
        assert exhausted.calls == 3
        assert list(lane.breaker.health.outcomes) == [True, False]

    def test_transient_outliving_the_policy_is_wrapped_with_its_cause(self):
        lane, _ = _lane()
        with pytest.raises(RetryableError) as info:
            lane.io(_Flaky(99))
        cause = info.value.__cause__
        assert isinstance(cause, IoError) and cause.transient
        assert "injected #3" in str(cause)
        assert "persisted past 3 attempts" in str(info.value)
        assert lane.ctx.stats.wrapped_transients == 1

    def test_permanent_io_error_propagates_as_is_and_is_never_retried(self):
        lane, _ = _lane()
        op = _Flaky(99, transient=False)
        with pytest.raises(IoError) as info:
            lane.io(op)
        assert type(info.value) is IoError and not info.value.transient
        assert op.calls == 1
        assert lane.ctx.stats.retries == 0
        assert lane.ctx.stats.wrapped_transients == 0
        assert list(lane.breaker.health.outcomes) == [False]

    def test_error_trip_reports_to_the_node_once(self):
        lane, trips = _lane()
        for _ in range(BREAKER_TRIP_FAILURES):
            with pytest.raises(RetryableError):
                lane.io(_Flaky(99))
        assert trips == [lane]
        assert lane.breaker.state is BreakerState.OPEN
        assert lane.ctx.stats.breaker_trips == 1
        # The lane only reports; taking the disk out of service is the
        # node's reaction (it needs the routing table).
        assert lane.in_service

    def test_non_io_errors_feed_nothing(self):
        lane, _ = _lane()

        def missing():
            raise KeyError("not an IO outcome")

        with pytest.raises(KeyError):
            lane.io(missing)
        assert not lane.breaker.health.outcomes

    def test_exhausted_retry_budget_stops_retries_and_counts_once(self):
        lane, _ = _lane(admission=AdmissionConfig())
        # Spend all but one token; the lane's clock stands still at 0.
        for _ in range(RETRY_BUDGET_TOKENS - 1):
            assert lane.ctx.retry_budget.acquire(lane.ctx.clock)
        op = _Flaky(99)
        with pytest.raises(RetryableError):
            lane.io(op)
        # One token: the first retry runs, the second is refused.
        assert op.calls == 2
        assert lane.ctx.stats.retries == 1
        assert lane.ctx.stats.retry_budget_exhausted == 1


class TestWrapOnlyAndUnmetered:
    def test_locked_io_never_touches_the_breaker_and_never_retries(self):
        lane, trips = _lane()
        for _ in range(4 * BREAKER_TRIP_FAILURES):
            op = _Flaky(99)
            with pytest.raises(RetryableError) as info:
                lane.locked_io(op)
            assert op.calls == 1
            assert isinstance(info.value.__cause__, IoError)
        assert lane.locked_io(_Flaky(0)) == "ok"
        assert not lane.breaker.health.outcomes
        assert lane.breaker.state is BreakerState.CLOSED
        assert trips == []
        assert lane.ctx.stats.retries == 0
        assert lane.ctx.stats.wrapped_transients == 4 * BREAKER_TRIP_FAILURES

    def test_locked_io_passes_permanent_errors_through(self):
        lane, _ = _lane()
        with pytest.raises(IoError) as info:
            lane.locked_io(_Flaky(99, transient=False))
        assert type(info.value) is IoError
        assert lane.ctx.stats.wrapped_transients == 0

    def test_unmetered_io_feeds_the_breaker_but_not_the_queue(self):
        lane, _ = _lane(admission=AdmissionConfig())
        lane.store.put(b"k", b"v" * 64)
        lane.store.drain()
        assert lane.unmetered_io(lambda: lane.store.get(b"k")) == b"v" * 64
        assert list(lane.breaker.health.outcomes) == [True]
        assert lane.queue.busy_until == 0
        assert lane.queue.ewma.samples == 0


class TestCharging:
    """Same numbers as the old ``StorageNode._charge_units``: reads bill in
    full, writes and resets at ``>> BACKGROUND_WEIGHT_SHIFT``."""

    ADMISSION = AdmissionConfig()

    def _spend(self, lane, *, reads=0, writes=0):
        stats = lane.system.disk.stats

        def burst():
            stats.reads += reads
            stats.writes += writes
            stats.busy_units += (reads + writes) * lane.system.disk.latency_units

        lane.io(burst)

    def test_read_cost_bills_in_full(self):
        lane, _ = _lane(admission=self.ADMISSION)
        self._spend(lane, reads=5)
        assert lane.queue.busy_until == 5

    def test_write_cost_bills_at_the_background_discount(self):
        lane, _ = _lane(admission=self.ADMISSION)
        assert BACKGROUND_WEIGHT_SHIFT == 3
        self._spend(lane, writes=40)
        assert lane.queue.busy_until == 40 >> 3

    def test_mixed_burst_splits_by_read_count_and_disk_latency(self):
        lane, _ = _lane(admission=self.ADMISSION)
        lane.system.disk.set_latency(4)
        self._spend(lane, reads=2, writes=6)  # busy 32: 8 read + 24 write
        assert lane.queue.busy_until == 8 + (24 >> 3)
        # The EWMA sees the undiscounted per-IO cost: 32 units over 8 IOs.
        assert lane.queue.ewma.milli == 1000 + (4000 - 1000) // 4

    def test_a_failed_call_is_still_charged_and_inflight_returns_to_zero(self):
        lane, _ = _lane(admission=self.ADMISSION, retries=False)
        stats = lane.system.disk.stats

        def read_then_fail():
            stats.reads += 3
            stats.busy_units += 3
            assert lane.queue.inflight == 1
            raise IoError("injected")

        with pytest.raises(RetryableError):
            lane.io(read_then_fail)
        assert lane.queue.busy_until == 3
        assert lane.queue.inflight == 0

    def test_pending_cost_is_discounted_too(self):
        lane, _ = _lane(admission=self.ADMISSION)
        for i in range(4):
            lane.store.put(b"k%d" % i, b"v" * 64)
        raw = lane.store.scheduler.pending_cost_units()
        assert raw > 0
        assert lane.pending_cost() == raw >> BACKGROUND_WEIGHT_SHIFT


class TestSlowTrip:
    SLOW = AdmissionConfig()

    def _slow_io(self, lane):
        stats = lane.system.disk.stats

        def one_slow_read():
            stats.reads += 1
            stats.busy_units += 50  # 50,000 milli per IO
            assert 50_000 > SLOW_THRESHOLD_MILLI

        lane.io(one_slow_read)

    def test_sustained_slow_ewma_fires_the_trip_callback_exactly_once(self):
        lane, trips = _lane(admission=self.SLOW)
        for _ in range(10):
            self._slow_io(lane)
        assert trips == [lane]
        assert lane.breaker.state is BreakerState.SLOW
        assert lane.ctx.stats.slow_trips == 1
        assert lane.ctx.stats.breaker_trips == 1

    def test_no_slow_trip_with_the_breaker_disabled(self):
        lane, trips = _lane(admission=self.SLOW, breaker=False)
        for _ in range(10):
            self._slow_io(lane)
        assert trips == []
        assert lane.breaker.state is BreakerState.CLOSED
        assert lane.ctx.stats.slow_trips == 0


class TestAdmitProbeGauges:
    def test_admit_sheds_typed_and_counts_by_kind(self):
        lane, _ = _lane(admission=AdmissionConfig(max_backlog_units=100))
        lane.admit(None)
        lane.queue.busy_until = 50
        with pytest.raises(DeadlineExceededError):
            lane.admit(10)
        lane.queue.busy_until = 100
        with pytest.raises(OverloadedError):
            lane.admit(None)
        stats = lane.ctx.stats
        assert (stats.shed_deadline, stats.shed_overload) == (1, 1)

    def test_admit_is_a_no_op_without_admission(self):
        lane, _ = _lane()
        assert lane.queue is None
        lane.admit(None)
        lane.admit(-5)  # not even validated: there is no deadline plane

    def test_probe_round_trips_the_reserved_key_and_leaves_nothing(self):
        lane, _ = _lane()
        for _ in range(BREAKER_TRIP_FAILURES):
            with pytest.raises(RetryableError):
                lane.io(_Flaky(99))
        assert lane.breaker.state is BreakerState.OPEN
        assert lane.probe() is True
        assert lane.breaker.state is BreakerState.PROBATION
        assert lane.ctx.stats.breaker_probes == 1
        assert not lane.store.contains(PROBE_KEY)


class TestOneCounterPath:
    def test_count_mirrors_every_field_under_its_exported_name(self):
        recorder = RingRecorder()
        lane, _ = _lane(recorder=recorder)
        # The node registers its NodeStats; a lane alone has no node.
        recorder.watch("node", lane.ctx.stats)
        for n, name in enumerate(vars(NodeStats()), start=1):
            setattr(lane.ctx.stats, name, n)
        counters = recorder.snapshot()["metrics"]["counters"]
        snapshot = lane.ctx.stats.snapshot()
        assert len(snapshot) == 18
        assert {k: counters[k] for k in snapshot} == snapshot
        assert snapshot["node.scrub_repaired"] == lane.ctx.stats.repaired
        assert snapshot["node.scrub_quarantined"] == lane.ctx.stats.quarantined
