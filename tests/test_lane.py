"""Tests for one disk lane alone -- no ``StorageNode`` anywhere.

A :class:`DiskLane` is the small checked component the node is composed
of: everything here drives ``io`` / ``unmetered_io`` / ``locked_io`` /
``retry`` / ``admit`` / ``probe`` directly, with scripted callables
standing in for store operations where the outcome has to be exact.
"""

import pytest

from repro.shardstore import (
    DiskGeometry,
    FailureMode,
    IoError,
    StorageNode,
    StoreConfig,
    StoreSystem,
)
from repro.shardstore.config import FIRST_DATA_EXTENT
from repro.shardstore.errors import (
    DeadlineExceededError,
    OverloadedError,
    RetryableError,
)
from repro.shardstore.lane import PROBE_KEY, DiskLane, LaneContext, NodeStats
from repro.shardstore.observability import NULL_RECORDER, RingRecorder
from repro.shardstore.observability.journal import Journal
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
        assert lane.queue.ewma.milli == 1000


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

    def test_tripped_count_follows_slow_and_error_trips_probes_and_resets(self):
        """``LaneContext.tripped`` gates the node's probe scan, so it must
        count exactly the lanes whose breaker is OPEN or SLOW."""
        slow, _ = _lane(admission=self.SLOW)
        erring = DiskLane(1, StoreSystem(slow.system.config), slow.ctx)
        ctx = slow.ctx
        for _ in range(10):
            self._slow_io(slow)
        assert slow.breaker.state is BreakerState.SLOW and ctx.tripped == 1
        for _ in range(BREAKER_TRIP_FAILURES):
            with pytest.raises(RetryableError):
                erring.io(_Flaky(99))
        assert erring.breaker.state is BreakerState.OPEN and ctx.tripped == 2
        # The slow disk is still slow: its probe fails back to SLOW.
        slow.system.disk.set_latency(50)
        assert slow.probe() is False
        assert slow.breaker.state is BreakerState.SLOW and ctx.tripped == 2
        assert erring.probe() is True
        assert erring.breaker.state is BreakerState.PROBATION and ctx.tripped == 1
        slow.fresh_breaker()  # an operator returning the disk
        assert slow.breaker.state is BreakerState.CLOSED and ctx.tripped == 0

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


# ----------------------------------------------------------------------
# Retry and breaker accounting, pinned as a table.  Each row scripts one
# call's failures and lists everything the retry path and the breaker
# leave behind: the attempt count, the counters, the breaker's outcome
# window, the journal's retry notes and the ``retry`` events' fields.
# The lane values were computed before the first attempt moved inline
# (out of the retry loop), and must not move with it.


class _FlakyFirst:
    """Wrap ``fn``: the first ``failures`` calls raise, the rest run it."""

    def __init__(self, fn, failures, *, transient=True):
        self.fn = fn
        self.failures = failures
        self.transient = transient
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls <= self.failures:
            raise IoError(f"injected #{self.calls}", transient=self.transient)
        return self.fn(*args, **kwargs)


def _retry_events(recorder, name):
    return [
        entry["fields"]["attempt"]
        for entry in recorder.events
        if entry["type"] == "event" and entry["name"] == name
    ]


def _outcome(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type is the observation
        return type(exc).__name__
    return "ok"


def _observe_lane(entry, failures, *, transient=True, admission=None, tokens=None, retries=True):
    """One lane call; ``tokens`` leaves that many retry-budget tokens."""
    recorder = RingRecorder()
    notes = []
    ctx = LaneContext(
        retries=retries,
        breaker=True,
        admission=admission,
        recorder=recorder,
        on_trip=lambda lane: None,
        note_retry=lambda: notes.append(1),
    )
    system = StoreSystem(
        StoreConfig(
            geometry=DiskGeometry(num_extents=10, extent_size=2048, page_size=128)
        )
    )
    lane = DiskLane(0, system, ctx)
    if tokens is not None:
        while lane.ctx.retry_budget.tokens > tokens:
            lane.ctx.retry_budget.acquire(lane.ctx.clock)
    op = _FlakyFirst(lambda: "ok", failures, transient=transient)
    outcome = _outcome(lambda: getattr(lane, entry)(op))
    stats = ctx.stats
    return (
        outcome,
        op.calls,
        (stats.retries, stats.retry_budget_exhausted, stats.wrapped_transients),
        list(lane.breaker.health.outcomes),
        len(notes),
        _retry_events(recorder, "node.retry"),
    )


def _observe_store(op_name, failures, *, transient=True):
    """One bare ``ShardStore.put`` / ``get``, journaled and traced; the
    failures are injected into the chunk store beneath it."""
    recorder = RingRecorder()
    journal = Journal()
    system = StoreSystem(
        StoreConfig(
            geometry=DiskGeometry(num_extents=10, extent_size=2048, page_size=128),
            recorder=recorder,
            journal=journal,
        )
    )
    store = system.store
    store.put(b"k", b"v" * 40)
    chunks = store.chunk_store
    name = "put_shard" if op_name == "put" else "get_shard"
    flaky = _FlakyFirst(getattr(chunks, name), failures, transient=transient)
    setattr(chunks, name, flaky)
    if op_name == "put":
        outcome = _outcome(lambda: store.put(b"k", b"w" * 40))
    else:
        outcome = _outcome(lambda: store.get(b"k"))
    record = journal.entries[-1]
    return (
        outcome,
        flaky.calls,
        (record["kind"], record["out"], "retries" in record),
        _retry_events(recorder, "store.retry"),
    )


RETRY_AND_BUDGET = AdmissionConfig()

#: (entry, failures, options) -> (outcome, attempts, (retries,
#: retry_budget_exhausted, wrapped_transients), breaker window, retry
#: notes, node.retry event attempts).
LANE_ACCOUNTING = [
    (("io", 0, {}), ("ok", 1, (0, 0, 0), [True], 0, [])),
    (("io", 1, {}), ("ok", 2, (1, 0, 0), [True], 1, [1])),
    (("io", 2, {}), ("ok", 3, (2, 0, 0), [True], 2, [1, 2])),
    (
        ("io", 3, {}),
        ("RetryableError", 3, (2, 0, 1), [False], 2, [1, 2]),
    ),
    (
        ("io", 99, {"transient": False}),
        ("IoError", 1, (0, 0, 0), [False], 0, []),
    ),
    (
        ("io", 99, {"admission": RETRY_AND_BUDGET, "tokens": 1}),
        ("RetryableError", 2, (1, 1, 1), [False], 1, [1]),
    ),
    (
        ("io", 99, {"admission": RETRY_AND_BUDGET, "tokens": 0}),
        ("RetryableError", 1, (0, 1, 1), [False], 0, []),
    ),
    (
        ("io", 1, {"admission": RETRY_AND_BUDGET}),
        ("ok", 2, (1, 0, 0), [True], 1, [1]),
    ),
    (
        ("io", 1, {"retries": False}),
        ("RetryableError", 1, (0, 0, 1), [False], 0, []),
    ),
    (("unmetered_io", 2, {}), ("ok", 3, (2, 0, 0), [True], 2, [1, 2])),
    (
        ("unmetered_io", 3, {}),
        ("RetryableError", 3, (2, 0, 1), [False], 2, [1, 2]),
    ),
    # ``retry`` is the loop itself: raw errors, and no breaker feed.
    (("retry", 2, {}), ("ok", 3, (2, 0, 0), [], 2, [1, 2])),
    (("retry", 3, {}), ("IoError", 3, (2, 0, 0), [], 2, [1, 2])),
    (
        ("retry", 99, {"transient": False}),
        ("IoError", 1, (0, 0, 0), [], 0, []),
    ),
    (("retry", 1, {"retries": False}), ("IoError", 1, (0, 0, 0), [], 0, [])),
]

#: (op, failures, transient) -> (outcome, attempts, (record kind, record
#: outcome, record has a ``retries`` field), store.retry event attempts).
#: A bare store fails fast: one attempt, transient or not.
STORE_ACCOUNTING = [
    (("put", 0, True), ("ok", 1, ("put", "ok", False), [])),
    (("put", 1, True), ("IoError", 1, ("put", "error:IoError", False), [])),
    (("put", 2, True), ("IoError", 1, ("put", "error:IoError", False), [])),
    (("put", 3, True), ("IoError", 1, ("put", "error:IoError", False), [])),
    (("put", 99, False), ("IoError", 1, ("put", "error:IoError", False), [])),
    (("get", 0, True), ("ok", 1, ("get", "ok", False), [])),
    (("get", 1, True), ("IoError", 1, ("get", "error:IoError", False), [])),
    (("get", 2, True), ("IoError", 1, ("get", "error:IoError", False), [])),
    (("get", 3, True), ("IoError", 1, ("get", "error:IoError", False), [])),
    (("get", 99, False), ("IoError", 1, ("get", "error:IoError", False), [])),
]


class TestRetryAndBreakerAccountingPinned:
    @pytest.mark.parametrize("case, expected", LANE_ACCOUNTING)
    def test_lane_call(self, case, expected):
        entry, failures, options = case
        assert _observe_lane(entry, failures, **options) == expected

    def test_retry_event_names_each_error(self):
        recorder = RingRecorder()
        lane, _ = _lane(recorder=recorder)
        assert lane.retry(_FlakyFirst(lambda: "ok", 2)) == "ok"
        events = [
            (entry["fields"]["attempt"], entry["fields"]["error"])
            for entry in recorder.events
            if entry["type"] == "event" and entry["name"] == "node.retry"
        ]
        assert events == [(1, "injected #1"), (2, "injected #2")]

    @pytest.mark.parametrize("case, expected", STORE_ACCOUNTING)
    def test_store_call(self, case, expected):
        op_name, failures, transient = case
        assert _observe_store(op_name, failures, transient=transient) == expected


def _node_trip_story():
    """Two lanes of a 3-disk node trip at different ops, cool down, fail or
    pass their probes and close again; a transient fault is retried on the
    third.  Returns what the journal, the probes and the counters saw."""
    journal = Journal()
    node = StorageNode(
        num_disks=3,
        config=StoreConfig(
            geometry=DiskGeometry(num_extents=10, extent_size=2048, page_size=128),
            buffer_cache_pages=1,
            journal=journal,
            recorder=RingRecorder(),
        ),
    )
    keys = [b"k%02d" % i for i in range(18)]
    for key in keys:
        node.put(key, b"v" * 24)
    node.flush()
    node.drain()
    on_disk = {d: [k for k in keys if node.route_of(k) == d] for d in range(3)}
    probes = []
    for lane in node.lanes:

        def logged(lane=lane, probe=lane.probe):
            ok = probe()
            probes.append((node.ctx.ops, lane.disk_id, ok))
            return ok

        lane.probe = logged

    def arm(disk_id, mode):
        disk = node.systems[disk_id].disk
        for extent in range(FIRST_DATA_EXTENT, disk.geometry.num_extents):
            disk.arm_fault(extent, mode, writes=False)

    def tick(count):
        for _ in range(count):
            node.contains(keys[0])
            _outcome(lambda: node.put(b"clock-%d" % node.ctx.ops, b"c"))

    # A transient read fault on disk 2: retried once, never fed as failure.
    arm(2, FailureMode.ONCE)
    assert node.get(on_disk[2][0]) == b"v" * 24
    node.systems[2].disk.clear_faults()
    # Disk 0 trips first ...
    arm(0, FailureMode.PERMANENT)
    while node.in_service(0):
        _outcome(lambda: node.get(on_disk[0][0]))
    tick(5)
    node.systems[0].disk.clear_faults()
    # ... disk 1 a few ops later, and stays faulty through its first probe.
    arm(1, FailureMode.PERMANENT)
    while node.in_service(1):
        _outcome(lambda: node.get(on_disk[1][0]))
    tick(20)
    node.systems[1].disk.clear_faults()
    tick(60)
    transitions = [
        (entry["op"], entry["disk"], entry["from"], entry["to"])
        for entry in journal.entries
        if entry.get("kind") == "breaker"
    ]
    retried = [
        (entry["op"], entry["kind"], entry["out"], entry["retries"])
        for entry in journal.entries
        if entry.get("retries")
    ]
    stats = node.stats
    counts = (
        stats.retries,
        stats.wrapped_transients,
        stats.breaker_trips,
        stats.breaker_probes,
        stats.readmissions,
        stats.demotions,
        stats.shards_stranded,
        node.ctx.ops,
    )
    return transitions, probes, retried, counts


class TestTwoLanesTripPinned:
    def test_transitions_probes_and_retry_notes_match_the_pinned_story(self):
        transitions, probes, retried, counts = _node_trip_story()
        # (journal op id, disk, from, to), in journal order.
        assert transitions == [
            (24, 0, "closed", "open"),
            (38, 1, "closed", "open"),
            (55, 0, "open", "half-open"),
            (56, 0, "half-open", "probation"),
            (73, 1, "open", "half-open"),
            (74, 1, "half-open", "open"),
            (107, 1, "open", "half-open"),
            (108, 1, "half-open", "probation"),
            (111, 0, "probation", "closed"),
            (172, 1, "probation", "closed"),
        ]
        # (node op at which the probe ran, disk, passed).
        assert probes == [(40, 0, True), (48, 1, False), (64, 1, True)]
        assert retried == [(21, "get", "ok", 1)]
        # retries, wrapped_transients, breaker_trips, breaker_probes,
        # readmissions, demotions, shards_stranded, node ops.
        assert counts == (1, 0, 2, 3, 2, 2, 15, 112)
