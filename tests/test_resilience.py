"""Unit tests for the resilience primitives and the self-healing node.

Covers the tolerance side of the section 4.4 failure-injection contract:
the per-disk sliding-window health view, the op-clocked circuit breaker
state machine, and -- end to end -- a StorageNode tripping its breaker on
a faulty disk, demoting it, probing after cooldown, and re-admitting it
through probation back to CLOSED.  The retry loop itself is
``DiskLane.retry``, pinned in ``tests/test_lane.py``.
"""

import dataclasses

import repro.shardstore as shardstore
from repro.cluster import ClusterConfig
from repro.shardstore import (
    DiskGeometry,
    FailureMode,
    NULL_RECORDER,
    IoError,
    RetryableError,
    RingRecorder,
    StorageNode,
    StoreConfig,
    resilience,
)
from repro.shardstore.config import FIRST_DATA_EXTENT
from repro.shardstore.resilience import (
    BREAKER_COOLDOWN_OPS,
    BREAKER_PROBATION_OPS,
    BREAKER_TRIP_FAILURES,
    BREAKER_WINDOW,
    AdmissionConfig,
    BreakerState,
    CircuitBreaker,
    DiskHealth,
)


class TestDiskHealth:
    def test_window_slides(self):
        health = DiskHealth()
        outcomes = [False, False] + [True] * (BREAKER_WINDOW - 1)
        for ok in outcomes:
            health.outcomes.append(ok)
        # The first failure slid out of the window; the second is still in.
        assert len(health.outcomes) == BREAKER_WINDOW
        assert health.recent_failures() == 1
        health.reset_window()
        assert health.recent_failures() == 0


def _tripped(breaker):
    """Fail ``breaker`` until it trips; returns the op of the trip."""
    for op in range(1, BREAKER_TRIP_FAILURES):
        assert not breaker.record_failure(op)
    assert breaker.record_failure(BREAKER_TRIP_FAILURES)
    return BREAKER_TRIP_FAILURES


class TestCircuitBreakerStateMachine:
    def test_trips_after_threshold_failures(self):
        breaker = CircuitBreaker()
        _tripped(breaker)
        assert breaker.state is BreakerState.OPEN

    def test_successes_keep_breaker_closed(self):
        breaker = CircuitBreaker()
        for op in range(2 * BREAKER_WINDOW):
            breaker.record_success(op)
        assert breaker.state is BreakerState.CLOSED

    def test_probe_waits_out_the_cooldown(self):
        breaker = CircuitBreaker()
        tripped = _tripped(breaker)
        assert not breaker.should_probe(tripped + BREAKER_COOLDOWN_OPS - 1)
        assert breaker.should_probe(tripped + BREAKER_COOLDOWN_OPS)

    def test_successful_probe_enters_probation_then_closes(self):
        breaker = CircuitBreaker()
        op = _tripped(breaker) + BREAKER_COOLDOWN_OPS
        breaker.begin_probe()
        breaker.on_probe(True, op)
        assert breaker.state is BreakerState.PROBATION
        for _ in range(BREAKER_PROBATION_OPS - 1):
            op += 1
            breaker.record_success(op)
            assert breaker.state is BreakerState.PROBATION
        breaker.record_success(op + 1)
        assert breaker.state is BreakerState.CLOSED

    def test_failed_probe_restarts_cooldown(self):
        breaker = CircuitBreaker()
        op = _tripped(breaker) + BREAKER_COOLDOWN_OPS
        breaker.begin_probe()
        breaker.on_probe(False, op)
        assert breaker.state is BreakerState.OPEN
        assert breaker.tripped_at_op == op
        assert not breaker.should_probe(op + 1)

    def test_probation_error_retrips_immediately(self):
        breaker = CircuitBreaker()
        op = _tripped(breaker) + BREAKER_COOLDOWN_OPS
        breaker.begin_probe()
        breaker.on_probe(True, op)
        assert breaker.record_failure(op + 1)
        assert breaker.state is BreakerState.OPEN
        assert breaker.tripped_at_op == op + 1

    def test_disabled_breaker_never_trips(self):
        breaker = CircuitBreaker(enabled=False)
        for op in range(2 * BREAKER_WINDOW):
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

    def _node(self, recorder=NULL_RECORDER):
        return StorageNode(
            num_disks=3,
            config=StoreConfig(
                geometry=DiskGeometry(
                    num_extents=10, extent_size=2048, page_size=128
                ),
                recorder=recorder,
            ),
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
        for _ in range(4 * BREAKER_TRIP_FAILURES):
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
        for i in range(BREAKER_COOLDOWN_OPS + 1):
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
            node, victim, BREAKER_PROBATION_OPS, prefix=b"fresh"
        ):
            node.put(key, b"w")
            assert node.get(key) == b"w"
        assert node.breaker_state(victim) is BreakerState.CLOSED

    def test_a_traced_readmission_is_the_probe_that_passed(self):
        """The trace tells a readmission by its passing probe alone."""
        recorder = RingRecorder()
        node = self._node(recorder)
        victim = 1
        self._trip(node, victim)
        node.systems[victim].disk.clear_faults()
        for i in range(BREAKER_COOLDOWN_OPS + 1):
            node.put(b"clock-%d" % i, b"v")
        assert node.stats.readmissions == 1
        probes = [
            entry["fields"]
            for entry in recorder.events
            if entry["type"] == "event" and entry["name"] == "node.breaker_probe"
        ]
        assert probes == [{"disk": victim, "ok": True}]

    def test_still_faulty_disk_fails_probe_and_stays_out(self):
        node = self._node()
        victim = 1
        self._trip(node, victim)
        # Faults stay armed: every probe must fail and restart cooldown.
        for i in range(4 * BREAKER_COOLDOWN_OPS):
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
            breaker=False,
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
            assert node.lanes[disk_id].breaker.health.recent_failures() == 0
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


class TestOneValuePerKnob:
    """Resilience tuning is module constants, not configuration, and the
    breaker's counts live once, in ``NodeStats``."""

    def test_admission_config_is_the_slo_and_the_shedding_switch(self):
        fields = [field.name for field in dataclasses.fields(AdmissionConfig)]
        assert fields == ["shedding", "deadline_units", "max_backlog_units"]

    def test_no_breaker_or_retry_config_class_is_exported(self):
        for module in (resilience, shardstore):
            for name in ("BreakerConfig", "RetryPolicy"):
                assert not hasattr(module, name), (module.__name__, name)

    def test_retrying_exists_once(self):
        """The lane is the one retry site: a bare store fails fast."""
        assert "retries" not in {f.name for f in dataclasses.fields(StoreConfig)}
        assert not hasattr(resilience, "call_with_retries")
        assert not hasattr(shardstore.ShardStore, "_retry_after")

    def test_anti_entropy_budgets_are_not_cluster_config(self):
        names = {field.name for field in dataclasses.fields(ClusterConfig)}
        assert not names & {"anti_entropy_buckets", "anti_entropy_repairs"}

    def test_breaker_and_health_keep_no_counts(self):
        breaker = CircuitBreaker()
        op = _tripped(breaker) + BREAKER_COOLDOWN_OPS
        breaker.begin_probe()
        breaker.on_probe(True, op)
        breaker.trip_slow(op + 1)
        for name in ("trips", "slow_trips", "probes", "readmissions"):
            assert not hasattr(breaker, name), name
        for name in ("total_errors", "total_successes", "error_rate"):
            assert not hasattr(breaker.health, name), name
