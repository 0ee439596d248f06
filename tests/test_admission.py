"""Tests for the deadline-aware request plane (brownout/overload tolerance).

Unit coverage for the op-clocked admission primitives (integer latency
EWMA, virtual admission queue, retry token bucket) plus end-to-end
StorageNode behaviour: typed sheds, one copy per shard, the SLOW breaker trip,
and the error contract -- node-API entry points only ever raise documented
:class:`ShardStoreError` subclasses, and a shed request provably leaves
the store unchanged.
"""

import random

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
    InvalidRequestError,
    KeyNotFoundError,
    NotFoundError,
    OverloadedError,
    RetryableError,
    ShardStoreError,
)
from repro.shardstore.lane import DiskLane, LaneContext
from repro.shardstore.observability import NULL_RECORDER
from repro.shardstore.resilience import (
    RETRY_BUDGET_TOKENS,
    RETRY_REFILL_UNITS,
    SLOW_THRESHOLD_MILLI,
    SLOW_TRIP_REQUESTS,
    AdmissionConfig,
    BreakerState,
    DiskAdmission,
    LatencyEwma,
    RetryBudget,
)


class TestLatencyEwma:
    def test_integer_trajectory_is_exact(self):
        """Pure floor-division arithmetic: the trajectory is auditable."""
        ewma = LatencyEwma()  # alpha 1/4, from 1000
        assert ewma.update(5000) == 2000  # 1000 + 4000//4
        assert ewma.update(5000) == 2750  # 2000 + 3000//4
        assert ewma.update(1000) == 2312  # 2750 + (-1750)//4 = 2750 - 438
        assert ewma.milli == 2312

    def test_value_is_milli_over_1000(self):
        ewma = LatencyEwma()
        assert ewma.milli == 1000  # one unit per IO: a healthy disk
        ewma.update(7000)
        assert ewma.milli == 2500


def _lane(config):
    """A lane with this admission config: its sheds count in NodeStats."""
    ctx = LaneContext(
        retries=True,
        breaker=True,
        admission=config,
        recorder=NULL_RECORDER,
        on_trip=lambda lane: None,
    )
    system = StoreSystem(
        StoreConfig(
            geometry=DiskGeometry(num_extents=10, extent_size=2048, page_size=128)
        )
    )
    return DiskLane(0, system, ctx)


def _sheds(lane):
    stats = lane.ctx.stats
    return stats.shed_overload, stats.shed_deadline


class TestDiskAdmission:
    CONFIG = AdmissionConfig(deadline_units=32, max_backlog_units=64)

    def test_idle_queue_admits_at_zero_backlog(self):
        queue = DiskAdmission(self.CONFIG)
        assert queue.admit(now=0, deadline=32) == 0
        lane = _lane(self.CONFIG)
        lane.admit(32)
        assert _sheds(lane) == (0, 0)

    def test_backlog_is_busy_beyond_now_plus_pending(self):
        queue = DiskAdmission(self.CONFIG)
        queue.complete(now=0, busy_delta=10, io_delta=2)
        assert queue.backlog_units(now=0) == 10
        assert queue.backlog_units(now=4, pending_cost=3) == 9
        assert queue.backlog_units(now=100) == 0  # clock passed busy_until

    def test_overload_shed_at_queue_bound(self):
        lane = _lane(self.CONFIG)
        lane.queue.complete(now=0, busy_delta=64, io_delta=1)
        with pytest.raises(OverloadedError):
            lane.admit(1000)
        assert _sheds(lane) == (1, 0)
        # Shed strictly before admission: nothing ran past its deadline.
        assert lane.ctx.stats.deadline_violations == 0

    def test_deadline_shed_when_wait_overruns(self):
        lane = _lane(self.CONFIG)
        lane.queue.complete(now=0, busy_delta=40, io_delta=1)
        with pytest.raises(DeadlineExceededError):
            lane.admit(32)
        assert _sheds(lane) == (0, 1)

    def test_no_shedding_config_admits_everything(self):
        config = AdmissionConfig(
            shedding=False, deadline_units=32, max_backlog_units=64
        )
        queue = DiskAdmission(config)
        queue.complete(now=0, busy_delta=500, io_delta=1)
        assert queue.admit(now=0, deadline=32) == 500
        lane = _lane(config)
        lane.queue.complete(now=0, busy_delta=500, io_delta=1)
        lane.admit(32)
        assert _sheds(lane) == (0, 0)
        assert lane.ctx.stats.deadline_violations == 1

    def test_slow_streak_trips_after_consecutive_slow_completions(self):
        assert (SLOW_THRESHOLD_MILLI, SLOW_TRIP_REQUESTS) == (4000, 3)
        queue = DiskAdmission(AdmissionConfig())
        trips = [
            queue.complete(now=0, busy_delta=8, io_delta=1)
            for _ in range(4)
        ]
        # EWMA (alpha 1/4 from 1000) reads 2750, 4062, 5046, 5784 on
        # 8000-milli samples: slow from the 2nd, so the 3rd consecutive
        # slow completion (the 4th sample) is the first to ask for a trip.
        assert trips == [False, False, False, True]
        assert queue.slow_streak == SLOW_TRIP_REQUESTS

    def test_fast_completion_resets_slow_streak(self):
        queue = DiskAdmission(AdmissionConfig())
        queue.complete(now=0, busy_delta=8, io_delta=1)  # EWMA 2750
        queue.complete(now=0, busy_delta=8, io_delta=1)  # EWMA 4062
        assert queue.slow_streak == 1
        queue.complete(now=0, busy_delta=1, io_delta=1)  # EWMA 3296
        assert queue.ewma.milli < SLOW_THRESHOLD_MILLI
        assert queue.slow_streak == 0

    def test_background_charge_override_spares_the_queue(self):
        """charge_units discounts the queue but never the EWMA."""
        queue = DiskAdmission(self.CONFIG)
        queue.complete(now=0, busy_delta=80, io_delta=1, charge_units=10)
        assert queue.busy_until == 10
        assert queue.ewma.milli > 1000  # full 80000-milli sample folded in

    def test_reset_forgets_queue_and_latency_history(self):
        queue = DiskAdmission(self.CONFIG)
        queue.complete(now=0, busy_delta=500, io_delta=1)
        queue.reset(now=7)
        assert queue.busy_until == 7
        assert queue.ewma.milli == 1000
        assert queue.slow_streak == 0


class TestRetryBudget:
    @staticmethod
    def _empty():
        budget = RetryBudget()
        for _ in range(RETRY_BUDGET_TOKENS):
            assert budget.acquire(0)
        return budget

    def test_starts_full_and_spends_to_empty(self):
        budget = self._empty()
        assert not budget.acquire(0)
        assert budget.tokens == 0
        # Spent through a lane context, the refusal counts in NodeStats.
        ctx = _lane(AdmissionConfig()).ctx
        assert all(ctx.retry_token() for _ in range(RETRY_BUDGET_TOKENS))
        assert RETRY_BUDGET_TOKENS == 8
        assert not ctx.retry_token()
        assert ctx.stats.retry_budget_exhausted == 1

    def test_refills_one_token_per_refill_units(self):
        budget = self._empty()
        assert not budget.acquire(RETRY_REFILL_UNITS - 1)
        assert budget.acquire(RETRY_REFILL_UNITS)  # one token refilled
        assert not budget.acquire(RETRY_REFILL_UNITS + 1)

    def test_refill_caps_at_capacity(self):
        budget = RetryBudget()
        budget.acquire(0)
        assert budget.acquire(1000 * RETRY_REFILL_UNITS)
        # Capped at capacity, then spent one.
        assert budget.tokens == RETRY_BUDGET_TOKENS - 1


class TestAdmissionConfig:
    def test_no_shedding_keeps_accounting_only(self):
        config = AdmissionConfig(shedding=False, deadline_units=96)
        assert not config.shedding
        assert config.deadline_units == 96

    def test_default_is_shedding(self):
        assert AdmissionConfig().shedding


def _node(admission=None, num_disks=3):
    return StorageNode(
        num_disks=num_disks,
        config=StoreConfig(
            geometry=DiskGeometry(
                num_extents=10, extent_size=2048, page_size=128
            )
        ),
        admission=admission,
    )


#: Storm-scale limits: small enough that a held clock or a slowed disk
#: sheds within a test-sized op sequence.
STORM = AdmissionConfig(deadline_units=64, max_backlog_units=128)


class TestNodeAdmission:
    def test_healthy_traffic_never_sheds(self):
        node = _node(admission=AdmissionConfig())
        for i in range(40):
            node.put(b"k%d" % i, b"v" * 48)
            assert node.get(b"k%d" % i) == b"v" * 48
        assert node.stats.shed_overload == 0
        assert node.stats.shed_deadline == 0
        assert node.stats.deadline_violations == 0

    def test_admission_disabled_by_default(self):
        node = _node()
        assert node.admission is None
        node.put(b"k", b"v")
        assert node.ctx.clock == 0  # the virtual clock never advances

    def test_burst_with_slow_disks_sheds_typed_errors(self):
        node = _node(admission=STORM)
        for system in node.systems:
            system.disk.set_latency(8)
        node.hold_arrivals(200)
        sheds = 0
        for i in range(80):
            try:
                node.put(b"burst-%d" % i, b"v" * 64)
            except (OverloadedError, DeadlineExceededError):
                sheds += 1
        assert sheds > 0
        assert (
            node.stats.shed_overload + node.stats.shed_deadline == sheds
        )

    def test_advance_clock_drains_the_backlog(self):
        node = _node(admission=STORM)
        for system in node.systems:
            system.disk.set_latency(8)
        node.hold_arrivals(200)
        for i in range(80):
            try:
                node.put(b"burst-%d" % i, b"v" * 64)
            except (OverloadedError, DeadlineExceededError):
                pass
        node.advance_clock(STORM.max_backlog_units * 4)
        for system in node.systems:
            system.disk.set_latency(1)
        node.put(b"after-storm", b"ok")  # must not shed
        assert node.get(b"after-storm") == b"ok"

    def test_nonpositive_deadline_rejected(self):
        node = _node(admission=STORM)
        node.put(b"k", b"v")
        with pytest.raises(InvalidRequestError):
            node.put(b"k", b"v2", deadline=0)
        with pytest.raises(InvalidRequestError):
            node.get(b"k", deadline=-1)

    def test_hold_arrivals_rejects_negative(self):
        node = _node(admission=STORM)
        with pytest.raises(InvalidRequestError):
            node.hold_arrivals(-1)
        with pytest.raises(InvalidRequestError):
            node.advance_clock(-1)

    def test_sustained_slow_disk_trips_slow_breaker(self):
        node = _node(admission=STORM)
        for system in node.systems:
            system.disk.set_latency(8)
        for i in range(60):
            try:
                # Drain forces the queued writeback onto the slow medium;
                # its measured per-IO cost is what feeds the latency EWMA.
                node.put(b"slow-%d" % i, b"v" * 64)
                node.drain()
            except (OverloadedError, DeadlineExceededError):
                pass
            # Stop at the first trip: every demotion moves more puts onto
            # fewer small disks, and nothing here compacts them.
            if node.stats.slow_trips:
                break
        assert node.stats.slow_trips > 0
        states = [node.breaker_state(d) for d in range(node.num_disks)]
        assert any(
            state in (BreakerState.SLOW, BreakerState.HALF_OPEN)
            for state in states
        )

    def test_shed_get_raises(self):
        """A shed get is a typed failure, like a shed put: the node holds
        one copy of each shard, and reading another is the router's job."""
        config = AdmissionConfig()
        node = _node(admission=config)
        node.put(b"hot", b"payload")
        primary = node.route_of(b"hot")
        node.lanes[primary].queue.busy_until = (
            node.ctx.clock + config.max_backlog_units * 2
        )
        with pytest.raises(OverloadedError):
            node.get(b"hot")
        assert node.stats.shed_overload == 1

    @pytest.mark.parametrize("bulk_delete_first", [False, True])
    def test_shed_get_never_serves_a_stale_copy(self, bulk_delete_first):
        """``bulk_create`` overwrites a key in place; a shed read of it
        must fail typed, never answer with the value it replaced."""
        node = _node(admission=STORM)
        node.put(b"k", b"v1")
        if bulk_delete_first:
            node.bulk_delete([b"k"])
        node.bulk_create([(b"k", b"v2")])
        primary = node.route_of(b"k")
        node.lanes[primary].queue.busy_until = (
            node.ctx.clock + STORM.max_backlog_units * 2
        )
        with pytest.raises((OverloadedError, DeadlineExceededError)):
            node.get(b"k")

    def test_each_key_is_stored_on_its_routed_disk_only(self):
        node = _node(admission=STORM)
        keys = [b"one-%d" % i for i in range(20)]
        for key in keys:
            node.put(key, b"v" * 16)
        for key in keys:
            holders = [
                lane.disk_id for lane in node.lanes if key in lane.store.keys()
            ]
            assert holders == [node.route_of(key)], key

    def test_no_shedding_counts_deadline_violations(self):
        node = _node(
            admission=AdmissionConfig(
                shedding=False, deadline_units=64, max_backlog_units=128
            )
        )
        for system in node.systems:
            system.disk.set_latency(8)
        node.hold_arrivals(200)
        for i in range(80):
            node.put(b"burst-%d" % i, b"v" * 64)  # nothing sheds
        assert node.stats.shed_overload == 0
        assert node.stats.shed_deadline == 0
        assert node.stats.deadline_violations > 0

    def test_every_lane_has_an_idle_queue_after_a_put(self):
        node = _node(admission=STORM)
        node.put(b"k", b"v")
        for lane in node.lanes:
            assert lane.queue is not None
            assert lane.queue.inflight == 0
        assert node.ctx.retry_budget.tokens == RETRY_BUDGET_TOKENS

    def test_a_two_disk_node_is_idle_with_a_full_retry_budget(self):
        node = _node(admission=AdmissionConfig(), num_disks=2)
        node.put(b"k", b"v")
        assert len(node.lanes) == 2
        for lane in node.lanes:
            assert lane.queue.inflight == 0
        assert node.stats.shed_overload == node.stats.shed_deadline == 0
        assert node.stats.puts == 1  # admitted
        assert node.ctx.retry_budget.tokens == RETRY_BUDGET_TOKENS

    def test_shed_counters_start_at_zero_and_no_replica_counter_exists(self):
        node = _node(admission=AdmissionConfig())
        node.put(b"k", b"v")
        snapshot = node.stats.snapshot()
        for counter in (
            "node.shed_overload",
            "node.shed_deadline",
            "node.slow_trips",
            "node.deadline_violations",
            "node.retry_budget_exhausted",
        ):
            assert snapshot[counter] == 0
        # The node keeps one copy per shard: no replica counters.
        for gone in ("node.hedges", "node.replica_writes", "node.replica_failures"):
            assert gone not in snapshot


class TestShedErrorContract:
    """Satellite: the typed-shed guarantee at every node-API entry point.

    1. A shed request raises *only* :class:`OverloadedError` or
       :class:`DeadlineExceededError` -- never a raw transient
       :class:`IoError`, and never a stall.
    2. A shed fires before any substrate IO, so the store state (and the
       conformance model tracking it) is provably unchanged.
    """

    ALLOWED = (
        OverloadedError,
        DeadlineExceededError,
        RetryableError,
        NotFoundError,
        KeyNotFoundError,
    )

    def test_shed_put_leaves_key_absent(self):
        node = _node(admission=STORM)
        # Saturate every queue so the next put sheds wherever it routes.
        for queue in (lane.queue for lane in node.lanes):
            queue.busy_until = node.ctx.clock + STORM.max_backlog_units * 2
        with pytest.raises((OverloadedError, DeadlineExceededError)):
            node.put(b"never-stored", b"v")
        node.advance_clock(STORM.max_backlog_units * 4)
        with pytest.raises(NotFoundError):
            node.get(b"never-stored")
        assert node.contains(b"never-stored") is False

    def test_shed_delete_leaves_key_readable(self):
        node = _node(admission=STORM)
        node.put(b"keep", b"payload")
        for queue in (lane.queue for lane in node.lanes):
            queue.busy_until = node.ctx.clock + STORM.max_backlog_units * 2
        with pytest.raises((OverloadedError, DeadlineExceededError)):
            node.delete(b"keep")
        node.advance_clock(STORM.max_backlog_units * 4)
        assert node.get(b"keep") == b"payload"

    @pytest.mark.parametrize("seed", range(4))
    def test_only_documented_errors_escape_a_storm(self, seed):
        """Randomized storm: slow disks, bursts, transient IO faults.

        Any exception other than the documented typed set -- most
        importantly a raw transient ``IoError`` leaking through the
        retry/shed machinery -- fails the test by propagating.
        """
        rng = random.Random(seed)
        node = _node(admission=STORM)
        live = {}
        for step in range(200):
            if step == 40:  # the brownout sets in
                for system in node.systems:
                    system.disk.set_latency(rng.choice((4, 6, 8)))
            if step == 140:  # and heals
                for system in node.systems:
                    system.disk.set_latency(1)
                node.advance_clock(STORM.max_backlog_units * 2)
            if rng.random() < 0.1:
                node.hold_arrivals(rng.choice((8, 16)))
            if rng.random() < 0.05:
                disk = node.systems[rng.randrange(node.num_disks)].disk
                disk.arm_fault(
                    rng.randrange(
                        FIRST_DATA_EXTENT, disk.geometry.num_extents
                    ),
                    FailureMode.ONCE,
                )
            key = b"k%d" % rng.randrange(12)
            op = rng.randrange(3)
            try:
                if op == 0:
                    node.put(key, b"v" * rng.randrange(1, 48))
                    live[key] = True
                elif op == 1:
                    node.get(key)
                else:
                    node.delete(key)
                    live.pop(key, None)
            except self.ALLOWED:
                continue
            except IoError as exc:  # pragma: no cover - the contract breach
                pytest.fail(
                    f"raw IoError leaked from the node API: {exc!r}"
                )
        # Settlement: the node still serves healthy traffic afterwards.
        node.advance_clock(STORM.max_backlog_units * 4)
        node.put(b"settled", b"ok")
        assert node.get(b"settled") == b"ok"

    def test_every_escape_is_a_shardstore_error(self):
        """The blanket contract: one catchable base type for harnesses."""
        node = _node(admission=STORM)
        for system in node.systems:
            system.disk.set_latency(8)
        node.hold_arrivals(300)
        for i in range(100):
            try:
                node.put(b"x%d" % i, b"v" * 64)
                node.get(b"x%d" % i)
            except ShardStoreError:
                continue
