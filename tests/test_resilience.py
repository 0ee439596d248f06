"""Unit tests for the resilience primitives and the self-healing node.

Covers the tolerance side of the section 4.4 failure-injection contract:
bounded retry-with-backoff, the per-disk sliding-window health view, the
op-clocked circuit breaker state machine, and -- end to end -- a
StorageNode tripping its breaker on a faulty disk, demoting it, probing
after cooldown, and re-admitting it through probation back to CLOSED.
"""

import pytest

from repro.shardstore import (
    DiskGeometry,
    FailureMode,
    IoError,
    RetryableError,
    StorageNode,
    StoreConfig,
)
from repro.shardstore.config import FIRST_DATA_EXTENT
from repro.shardstore.resilience import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    DiskHealth,
    RetryPolicy,
)


class TestRetryPolicy:
    def test_backoff_units_grow_and_cap(self):
        policy = RetryPolicy(
            backoff_start=1, backoff_multiplier=2, backoff_cap=8
        )
        assert [policy.backoff_units(n) for n in range(6)] == [
            0, 1, 2, 4, 8, 8,
        ]

    def test_transient_error_is_retried_to_success(self):
        policy = RetryPolicy(max_attempts=3)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise IoError("flaky", transient=True)
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3

    def test_budget_exhaustion_reraises_final_error(self):
        policy = RetryPolicy(max_attempts=2)
        attempts = []

        def always_fails():
            attempts.append(1)
            raise IoError("still down", transient=True)

        with pytest.raises(IoError, match="still down"):
            policy.call(always_fails)
        assert len(attempts) == 2

    def test_non_transient_error_is_never_retried(self):
        policy = RetryPolicy(max_attempts=5)
        attempts = []

        def hard_fail():
            attempts.append(1)
            raise IoError("dead region", transient=False)

        with pytest.raises(IoError):
            policy.call(hard_fail)
        assert len(attempts) == 1

    def test_disabled_policy_never_retries(self):
        policy = RetryPolicy.disabled()
        assert not policy.enabled
        attempts = []

        def flaky():
            attempts.append(1)
            raise IoError("flaky", transient=True)

        with pytest.raises(IoError):
            policy.call(flaky)
        assert len(attempts) == 1

    def test_on_retry_sees_attempt_backoff_and_error(self):
        policy = RetryPolicy(max_attempts=3, backoff_start=2)
        seen = []

        def flaky():
            if len(seen) < 2:
                raise IoError("flaky", transient=True)
            return "done"

        policy.call(
            flaky, on_retry=lambda n, units, exc: seen.append((n, units))
        )
        assert seen == [(1, 2), (2, 4)]


class TestDiskHealth:
    def test_window_slides(self):
        health = DiskHealth(window=3)
        for ok in (False, False, True, True):
            health.record(ok)
        assert len(health.outcomes) == 3
        assert health.recent_failures() == 1
        assert health.total_errors == 2
        assert health.total_successes == 2

    def test_error_rate_is_zero_when_idle(self):
        assert DiskHealth().error_rate() == 0.0

    def test_error_rate_over_recent_window(self):
        health = DiskHealth(window=4)
        for ok in (False, True, False, True):
            health.record(ok)
        assert health.error_rate() == pytest.approx(0.5)


class TestCircuitBreakerStateMachine:
    def _breaker(self, **overrides):
        defaults = dict(
            window=8, trip_failures=3, cooldown_ops=4, probation_ops=2
        )
        defaults.update(overrides)
        return CircuitBreaker(BreakerConfig(**defaults))

    def test_trips_after_threshold_failures(self):
        breaker = self._breaker()
        assert not breaker.record_failure(1)
        assert not breaker.record_failure(2)
        assert breaker.record_failure(3)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1

    def test_successes_keep_breaker_closed(self):
        breaker = self._breaker()
        for op in range(20):
            breaker.record_success(op)
        assert breaker.state is BreakerState.CLOSED

    def test_probe_waits_out_the_cooldown(self):
        breaker = self._breaker()
        for op in (1, 2, 3):
            breaker.record_failure(op)
        assert not breaker.should_probe(5)
        assert breaker.should_probe(7)

    def test_successful_probe_enters_probation_then_closes(self):
        breaker = self._breaker()
        for op in (1, 2, 3):
            breaker.record_failure(op)
        breaker.begin_probe()
        breaker.on_probe(True, 10)
        assert breaker.state is BreakerState.PROBATION
        assert breaker.readmissions == 1
        breaker.record_success(11)
        assert breaker.state is BreakerState.PROBATION
        breaker.record_success(12)
        assert breaker.state is BreakerState.CLOSED

    def test_failed_probe_restarts_cooldown(self):
        breaker = self._breaker()
        for op in (1, 2, 3):
            breaker.record_failure(op)
        breaker.begin_probe()
        breaker.on_probe(False, 9)
        assert breaker.state is BreakerState.OPEN
        assert breaker.tripped_at_op == 9
        assert not breaker.should_probe(10)

    def test_probation_error_retrips_immediately(self):
        breaker = self._breaker()
        for op in (1, 2, 3):
            breaker.record_failure(op)
        breaker.begin_probe()
        breaker.on_probe(True, 10)
        assert breaker.record_failure(11)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2

    def test_disabled_breaker_never_trips(self):
        breaker = CircuitBreaker(BreakerConfig.disabled())
        for op in range(10):
            assert not breaker.record_failure(op)
        assert breaker.state is BreakerState.CLOSED
        assert not breaker.should_probe(1_000)


class TestNodeSelfHealing:
    """End-to-end breaker lifecycle on a real StorageNode.

    A disk with permanent faults armed on every data extent trips its
    breaker and is demoted; once the faults clear (the cable is reseated),
    the op-clocked cooldown expires, the probe succeeds, and the disk is
    re-admitted on probation and finally closes -- all without wall time.
    """

    BREAKER = BreakerConfig(
        window=8, trip_failures=2, cooldown_ops=4, probation_ops=2
    )

    def _node(self):
        return StorageNode(
            num_disks=3,
            config=StoreConfig(
                geometry=DiskGeometry(
                    num_extents=10, extent_size=2048, page_size=128
                )
            ),
            retry_policy=RetryPolicy(),
            breaker=self.BREAKER,
        )

    @staticmethod
    def _arm_all(node, disk_id):
        disk = node.systems[disk_id].disk
        for extent in range(FIRST_DATA_EXTENT, disk.geometry.num_extents):
            disk.arm_fault(extent, FailureMode.PERMANENT)

    @staticmethod
    def _keys_for(node, disk_id, count, prefix=b"victim"):
        """Fresh keys that steer to ``disk_id`` on an all-healthy node.

        ``prefix`` must differ between calls: keys migrated off a demoted
        disk stay routed to their new home, so reusing a key would not
        exercise ``disk_id`` again.
        """
        from repro.shardstore.rpc import _steer

        keys, i = [], 0
        while len(keys) < count:
            key = b"%s-%d" % (prefix, i)
            if _steer(key, node.num_disks) == disk_id:
                keys.append(key)
            i += 1
        return keys

    def _trip(self, node, victim):
        """Buffer writes onto the victim, then drain until the breaker trips.

        Puts land in the write-back cache, so the armed faults only fire
        when a drain pushes the queue at the disk; each failed drain feeds
        the victim's breaker one error.
        """
        self._arm_all(node, victim)
        for key in self._keys_for(node, victim, 2):
            node.put(key, b"v" * 64)
        # The drain that trips the breaker does not raise: the demotion
        # already re-homed the disk's shards, so the node made progress.
        for _ in range(4 * self.BREAKER.trip_failures):
            if not node.in_service(victim):
                break
            try:
                node.drain()
            except (RetryableError, IoError):
                pass
        assert not node.in_service(victim)
        assert node.stats.breaker_trips == 1

    def test_breaker_trips_and_demotes_faulty_disk(self):
        node = self._node()
        victim = 1
        self._trip(node, victim)
        assert node.breaker_state(victim) is BreakerState.OPEN
        assert not node.in_service(victim)
        assert node.stats.breaker_trips == 1
        assert node.stats.demotions == 1
        # Writes re-steer away from the demoted disk and succeed.
        node.put(b"resteered", b"v")
        assert node.get(b"resteered") == b"v"

    def test_cleared_disk_is_probed_and_readmitted(self):
        node = self._node()
        victim = 1
        self._trip(node, victim)
        # The operator reseats the cable: faults clear, breaker unaware.
        node.systems[victim].disk.clear_faults()
        # Clean traffic advances the op clock through the cooldown; the
        # probe fires from _tick and re-admits the disk on probation.
        for i in range(self.BREAKER.cooldown_ops + 1):
            node.put(b"clock-%d" % i, b"v")
        assert node.in_service(victim)
        assert not node.degraded(victim)
        assert node.stats.breaker_probes >= 1
        assert node.stats.readmissions == 1
        assert node.breaker_state(victim) in (
            BreakerState.PROBATION,
            BreakerState.CLOSED,
        )
        # Clean IO on the re-admitted disk closes the breaker for good.
        for key in self._keys_for(
            node, victim, self.BREAKER.probation_ops, prefix=b"fresh"
        ):
            node.put(key, b"w")
            assert node.get(key) == b"w"
        assert node.breaker_state(victim) is BreakerState.CLOSED

    def test_still_faulty_disk_fails_probe_and_stays_out(self):
        node = self._node()
        victim = 1
        self._trip(node, victim)
        # Faults stay armed: every probe must fail and restart cooldown.
        for i in range(4 * self.BREAKER.cooldown_ops):
            node.put(b"tick-%d" % i, b"v")
        assert not node.in_service(victim)
        assert node.stats.breaker_probes >= 1
        assert node.stats.readmissions == 0
        assert node.breaker_state(victim) is BreakerState.OPEN

    def test_disabled_breaker_leaves_faulty_disk_in_service(self):
        node = StorageNode(
            num_disks=3,
            config=StoreConfig(
                geometry=DiskGeometry(
                    num_extents=10, extent_size=2048, page_size=128
                )
            ),
            retry_policy=RetryPolicy(),
            breaker=BreakerConfig.disabled(),
        )
        victim = 1
        self._arm_all(node, victim)
        for key in self._keys_for(node, victim, 2):
            node.put(key, b"v" * 64)
        failures = 0
        for _ in range(6):
            try:
                node.drain()
            except (RetryableError, IoError):
                failures += 1
        assert failures >= 3
        assert node.in_service(victim)  # nobody pulled it
        assert node.stats.breaker_trips == 0

    def test_a_fresh_node_is_closed_in_service_and_uncounted(self):
        node = self._node()
        node.put(b"k", b"v")
        for disk_id in range(node.num_disks):
            assert node.breaker_state(disk_id) is BreakerState.CLOSED
            assert node.lanes[disk_id].breaker.health.error_rate() == 0
            assert node.in_service(disk_id)
            assert not node.degraded(disk_id)
        snapshot = node.stats.snapshot()
        for counter in (
            "node.retries",
            "node.breaker_trips",
            "node.readmissions",
            "node.scrub_repaired",
            "node.scrub_quarantined",
        ):
            assert snapshot[counter] == 0
