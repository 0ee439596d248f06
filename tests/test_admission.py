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
from repro.shardstore.resilience import (
    AdmissionConfig,
    BreakerConfig,
    BreakerState,
    DiskAdmission,
    LatencyEwma,
    RetryBudget,
    RetryPolicy,
)


class TestLatencyEwma:
    def test_integer_trajectory_is_exact(self):
        """Pure floor-division arithmetic: the trajectory is auditable."""
        ewma = LatencyEwma(alpha_num=1, alpha_den=4, initial_milli=1000)
        assert ewma.update(5000) == 2000  # 1000 + 4000//4
        assert ewma.update(5000) == 2750  # 2000 + 3000//4
        assert ewma.update(1000) == 2312  # 2750 + (-1750)//4 = 2750 - 438
        assert ewma.samples == 3

    def test_value_is_milli_over_1000(self):
        ewma = LatencyEwma(initial_milli=2500)
        assert ewma.value == 2.5

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            LatencyEwma(alpha_num=0)
        with pytest.raises(ValueError):
            LatencyEwma(alpha_num=5, alpha_den=4)


class TestDiskAdmission:
    CONFIG = AdmissionConfig(deadline_units=32, max_backlog_units=64)

    def test_idle_queue_admits_at_zero_backlog(self):
        queue = DiskAdmission(self.CONFIG)
        assert queue.admit(now=0, deadline=32) == 0
        assert queue.admitted == 1

    def test_backlog_is_busy_beyond_now_plus_pending(self):
        queue = DiskAdmission(self.CONFIG)
        queue.complete(now=0, busy_delta=10, io_delta=2)
        assert queue.backlog_units(now=0) == 10
        assert queue.backlog_units(now=4, pending_cost=3) == 9
        assert queue.backlog_units(now=100) == 0  # clock passed busy_until

    def test_overload_shed_at_queue_bound(self):
        queue = DiskAdmission(self.CONFIG)
        queue.complete(now=0, busy_delta=64, io_delta=1)
        with pytest.raises(OverloadedError):
            queue.admit(now=0, deadline=1000)
        assert queue.shed_overload == 1
        assert queue.admitted == 0  # shed strictly before admission

    def test_deadline_shed_when_wait_overruns(self):
        queue = DiskAdmission(self.CONFIG)
        queue.complete(now=0, busy_delta=40, io_delta=1)
        with pytest.raises(DeadlineExceededError):
            queue.admit(now=0, deadline=32)
        assert queue.shed_deadline == 1

    def test_no_shedding_config_admits_everything(self):
        queue = DiskAdmission(
            AdmissionConfig(
                shedding=False, deadline_units=32, max_backlog_units=64
            )
        )
        queue.complete(now=0, busy_delta=500, io_delta=1)
        assert queue.admit(now=0, deadline=32) == 500
        assert queue.shed_overload == queue.shed_deadline == 0

    def test_slow_streak_trips_after_consecutive_slow_completions(self):
        config = AdmissionConfig(
            slow_threshold_milli=4000, slow_trip_requests=3
        )
        queue = DiskAdmission(config)
        trips = [
            queue.complete(now=0, busy_delta=8, io_delta=1)
            for _ in range(4)
        ]
        # EWMA (alpha 1/4 from 1000) crosses 4000 on the 3rd 8000-milli
        # sample; the streak then needs 3 consecutive slow completions.
        assert trips.count(True) >= 1
        assert queue.slow_streak >= config.slow_trip_requests

    def test_fast_completion_resets_slow_streak(self):
        queue = DiskAdmission(AdmissionConfig(slow_threshold_milli=2000))
        queue.complete(now=0, busy_delta=100, io_delta=1)
        assert queue.slow_streak == 1
        big = DiskAdmission(AdmissionConfig(slow_threshold_milli=200000))
        big.complete(now=0, busy_delta=100, io_delta=1)
        assert big.slow_streak == 0

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
        assert queue.ewma.samples == 0
        assert queue.slow_streak == 0


class TestRetryBudget:
    def test_starts_full_and_spends_to_empty(self):
        budget = RetryBudget(capacity=2, refill_units=16)
        assert budget.acquire(0) and budget.acquire(0)
        assert not budget.acquire(0)
        assert budget.spent == 2
        assert budget.denied == 1

    def test_refills_one_token_per_refill_units(self):
        budget = RetryBudget(capacity=2, refill_units=16)
        budget.acquire(0), budget.acquire(0)
        assert not budget.acquire(15)
        assert budget.acquire(16)  # one token refilled
        assert not budget.acquire(17)

    def test_refill_caps_at_capacity(self):
        budget = RetryBudget(capacity=3, refill_units=4)
        budget.acquire(0)
        assert budget.acquire(1000)
        assert budget.tokens == 2  # capped at 3, then spent 1

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            RetryBudget(capacity=-1, refill_units=4)
        with pytest.raises(ValueError):
            RetryBudget(capacity=4, refill_units=0)


class TestAdmissionConfig:
    def test_no_shedding_keeps_accounting_only(self):
        config = AdmissionConfig(shedding=False, deadline_units=96)
        assert not config.shedding
        assert config.deadline_units == 96

    def test_default_is_shedding(self):
        assert AdmissionConfig().shedding


def _node(admission=None, breaker=None, num_disks=3):
    return StorageNode(
        num_disks=num_disks,
        config=StoreConfig(
            geometry=DiskGeometry(
                num_extents=10, extent_size=2048, page_size=128
            )
        ),
        retry_policy=RetryPolicy(),
        breaker=breaker or BreakerConfig(),
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
        node = _node(
            admission=STORM,
            breaker=BreakerConfig(
                window=8, trip_failures=3, cooldown_ops=64, probation_ops=4
            ),
        )
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

    def test_health_snapshot_exports_queue_gauges(self):
        node = _node(admission=STORM)
        node.put(b"k", b"v")
        gauges = node.health_snapshot()["gauges"]
        for disk_id in range(node.num_disks):
            for name in (
                "queue_backlog_units",
                "queue_depth",
                "latency_ewma",
                "inflight",
            ):
                assert f"node.disk{disk_id}.{name}" in gauges
        assert "node.retry_budget_tokens" in gauges


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
        node = _node(
            admission=STORM,
            breaker=BreakerConfig(
                window=8, trip_failures=3, cooldown_ops=16, probation_ops=4
            ),
        )
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
