"""Unit tests for the storage-node RPC/control-plane layer."""

import dataclasses

import pytest

from repro.shardstore import (
    AdmissionConfig,
    BreakerConfig,
    DiskGeometry,
    FailureMode,
    Fault,
    FaultSet,
    InvalidRequestError,
    IoError,
    KeyNotFoundError,
    NotFoundError,
    RetryPolicy,
    StorageNode,
    StoreConfig,
    rpc,
)
from repro.shardstore.config import FIRST_DATA_EXTENT
from repro.shardstore.errors import DeadlineExceededError, RetryableError
from repro.shardstore.observability import RingRecorder
from repro.shardstore.rpc import PROBE_KEY


def _node(num_disks=3, faults=None):
    config = StoreConfig(
        geometry=DiskGeometry(num_extents=10, extent_size=2048, page_size=128),
        faults=faults or FaultSet.none(),
    )
    return StorageNode(num_disks=num_disks, config=config)


class TestRequestPlane:
    def test_put_get_roundtrip(self):
        node = _node()
        node.put(b"shard", b"data" * 20)
        assert node.get(b"shard") == b"data" * 20

    def test_get_unknown_shard(self):
        node = _node()
        with pytest.raises(NotFoundError):
            node.get(b"nope")

    def test_delete_removes_routing(self):
        node = _node()
        node.put(b"shard", b"v")
        node.delete(b"shard")
        with pytest.raises(NotFoundError):
            node.get(b"shard")

    def test_delete_unknown_raises(self):
        node = _node()
        with pytest.raises(KeyNotFoundError):
            node.delete(b"nope")

    def test_steering_spreads_shards(self):
        node = _node(num_disks=3)
        for i in range(30):
            node.put(b"shard-%d" % i, b"v")
        used = {
            disk_id
            for disk_id in range(3)
            if node.systems[disk_id].store.keys()
        }
        assert len(used) == 3

    def test_steering_is_sticky(self):
        node = _node()
        node.put(b"shard", b"one")
        target = node._shard_map[b"shard"]
        node.put(b"shard", b"two")
        assert node._shard_map[b"shard"] == target
        assert node.get(b"shard") == b"two"


class TestControlPlane:
    def test_remove_disk_migrates_shards(self):
        node = _node()
        for i in range(12):
            node.put(b"shard-%d" % i, bytes([i]) * 40)
        victim = next(
            d for d in range(3) if node.systems[d].store.keys()
        )
        migrated = node.remove_disk(victim)
        assert migrated > 0
        assert not node.in_service(victim)
        for i in range(12):
            assert node.get(b"shard-%d" % i) == bytes([i]) * 40

    def test_cannot_remove_last_disk(self):
        node = _node(num_disks=1)
        with pytest.raises(InvalidRequestError):
            node.remove_disk(0)

    def test_cannot_remove_twice(self):
        node = _node()
        node.remove_disk(0)
        with pytest.raises(InvalidRequestError):
            node.remove_disk(0)

    def test_return_disk_roundtrip(self):
        node = _node()
        for i in range(9):
            node.put(b"shard-%d" % i, bytes([i]) * 30)
        node.remove_disk(1)
        node.return_disk(1)
        assert node.in_service(1)
        for i in range(9):
            assert node.get(b"shard-%d" % i) == bytes([i]) * 30

    def test_return_in_service_disk_rejected(self):
        node = _node()
        with pytest.raises(InvalidRequestError):
            node.return_disk(0)

    def test_puts_avoid_removed_disk(self):
        node = _node()
        node.remove_disk(0)
        for i in range(10):
            node.put(b"after-%d" % i, b"v")
        assert not node.systems[0].store.keys() or all(
            not key.startswith(b"after-")
            for key in node.systems[0].store.keys()
        )

    def test_fault4_resurrects_stale_routing(self):
        """Issue #4: returning a disk restores its stale shard routing."""
        node = _node(faults=FaultSet.only(Fault.DISK_RETURN_DROPS_SHARDS))
        for i in range(12):
            node.put(b"shard-%d" % i, b"old")
        victim = next(d for d in range(3) if node.systems[d].store.keys())
        stale_keys = list(node.systems[victim].store.keys())
        node.remove_disk(victim)
        # Overwrite one of the victim's shards while it is away.
        target_key = stale_keys[0]
        node.put(target_key, b"new")
        node.return_disk(victim)
        assert node.get(target_key) == b"old", "stale data resurfaces: bug #4"

    def test_correct_return_keeps_migrated_routing(self):
        node = _node()
        for i in range(12):
            node.put(b"shard-%d" % i, b"old")
        victim = next(d for d in range(3) if node.systems[d].store.keys())
        target_key = node.systems[victim].store.keys()[0]
        node.remove_disk(victim)
        node.put(target_key, b"new")
        node.return_disk(victim)
        assert node.get(target_key) == b"new"


class TestBulkOps:
    def test_bulk_create_and_list(self):
        node = _node()
        created = node.bulk_create([(b"a", b"1"), (b"b", b"2")])
        assert created == 2
        assert node.keys() == [b"a", b"b"]

    def test_bulk_delete(self):
        node = _node()
        node.bulk_create([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
        deleted = node.bulk_delete([b"a", b"c", b"zz"])
        assert deleted == 2
        assert node.keys() == [b"b"]

    def test_list_empty(self):
        assert _node().keys() == []


class TestValidation:
    def test_zero_disks_rejected(self):
        with pytest.raises(InvalidRequestError):
            StorageNode(num_disks=0)

    def test_bad_disk_id_rejected(self):
        node = _node()
        with pytest.raises(InvalidRequestError):
            node.remove_disk(9)

    def test_every_config_field_reaches_every_disk(self):
        # A field-by-field copy silently drops fields added after it was
        # written; walking dataclasses.fields covers every future field too.
        base = StoreConfig(
            superblock_flush_cadence=7,
            buffer_cache_pages=96,
            seed=40,
            retry_policy=RetryPolicy(),
        )
        node = StorageNode(num_disks=3, config=base)
        for disk_id, system in enumerate(node.systems):
            for field in dataclasses.fields(StoreConfig):
                got = getattr(system.config, field.name)
                if field.name == "seed":
                    assert got == 40 + disk_id + 1
                elif field.name == "retry_policy":
                    assert got is None  # the node retries, not the store
                else:
                    assert got == getattr(base, field.name), field.name


class TestReservedProbeKey:
    """``PROBE_KEY`` belongs to the lanes' readmission probe.  A client
    shard stored under it used to be overwritten and deleted by the next
    probe, leaving ``contains()`` True and ``get()`` raising."""

    BREAKER = BreakerConfig(window=8, trip_failures=2, cooldown_ops=4, probation_ops=2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: n.put(PROBE_KEY, b"v"),
            lambda n: n.get(PROBE_KEY),
            lambda n: n.delete(PROBE_KEY),
            lambda n: n.contains(PROBE_KEY),
            lambda n: n.migrate_shard(PROBE_KEY, 0),
            lambda n: n.bulk_create([(b"ok", b"1"), (PROBE_KEY, b"2")]),
            lambda n: n.bulk_delete([b"ok", PROBE_KEY]),
        ],
    )
    def test_rejected_at_the_rpc_boundary(self, call):
        node = _node()
        node.put(b"ok", b"kept")
        with pytest.raises(InvalidRequestError, match="reserved"):
            call(node)
        assert node.keys() == [b"ok"] and node.get(b"ok") == b"kept"

    def test_readmission_probe_cannot_clobber_a_stranded_client_shard(self):
        """The data-loss sequence: a shard stranded on a degraded disk
        (permanent read faults, so demotion cannot migrate it) must come
        back intact once the faults clear and the probe readmits the disk."""
        node = StorageNode(
            num_disks=3,
            config=StoreConfig(
                geometry=DiskGeometry(num_extents=10, extent_size=2048, page_size=128),
                buffer_cache_pages=1,
            ),
            breaker=self.BREAKER,
        )
        with pytest.raises(InvalidRequestError):
            node.put(PROBE_KEY, b"client data")  # the collision itself
        # The nearest a client can get: an ordinary key on the same disk.
        victim = rpc._steer(PROBE_KEY, node.num_disks)
        key = next(
            k for k in (b"shard-%d" % i for i in range(64))
            if rpc._steer(k, node.num_disks) == victim
        )
        node.put(key, b"client data")
        node.flush()
        node.drain()
        disk = node.systems[victim].disk
        for extent in range(FIRST_DATA_EXTENT, disk.geometry.num_extents):
            disk.arm_fault(extent, FailureMode.PERMANENT, writes=False)
        for _ in range(self.BREAKER.trip_failures):
            with pytest.raises(IoError):
                node.get(key)
        assert node.degraded(victim) and node.route_of(key) == victim
        assert node.stats.shards_stranded == 1
        disk.clear_faults()
        for i in range(self.BREAKER.cooldown_ops + 2):
            node.put(b"clock-%d" % i, b"v")
        assert node.in_service(victim) and node.stats.readmissions == 1
        assert node.get(key) == b"client data"
        assert not node.systems[victim].store.contains(PROBE_KEY)
        assert PROBE_KEY not in node.keys()


class TestOneCounterPath:
    """Every ``NodeStats`` field reaches a live recorder under its exported
    name -- including the ones that used to bump the dataclass only."""

    ADMISSION = AdmissionConfig(deadline_units=64, max_backlog_units=128)
    BREAKER = TestReservedProbeKey.BREAKER

    def test_recorder_and_node_stats_agree_on_every_counter(self):
        recorder = RingRecorder()
        node = StorageNode(
            num_disks=3,
            config=StoreConfig(
                geometry=DiskGeometry(num_extents=10, extent_size=2048, page_size=128),
                buffer_cache_pages=1,
                recorder=recorder,
            ),
            breaker=self.BREAKER,
            admission=self.ADMISSION,
        )
        keys = [b"k%d" % i for i in range(9)]
        for key in keys:
            node.put(key, b"v" * 32)
        node.flush()
        node.drain()
        node.delete(keys.pop())
        hot = keys[0]
        victim = node.route_of(hot)
        queue = node.lanes[victim].queue

        # A shed get and a shed put both raise their typed error.
        queue.busy_until = node.ctx.clock + self.ADMISSION.max_backlog_units
        with pytest.raises(DeadlineExceededError):
            node.get(hot)
        with pytest.raises(DeadlineExceededError):
            node.put(hot, b"late")
        node.advance_clock(10 * self.ADMISSION.max_backlog_units)

        # A drain that keeps failing transiently: retried, then wrapped.
        def failing_drain():
            raise IoError("injected drain failure", transient=True)

        store = node.lanes[victim].store
        store.drain = failing_drain
        with pytest.raises(RetryableError):
            node.drain()
        del store.drain

        # Permanent read faults: breaker trip, demotion, stranded shards.
        node.migrate_shard(keys[1], (node.route_of(keys[1]) + 1) % 3)
        disk = node.systems[victim].disk
        for extent in range(FIRST_DATA_EXTENT, disk.geometry.num_extents):
            disk.arm_fault(extent, FailureMode.PERMANENT, writes=False)
        for _ in range(self.BREAKER.trip_failures):
            if node.in_service(victim):
                with pytest.raises(IoError):
                    node.get(hot)
        disk.clear_faults()
        for i in range(self.BREAKER.cooldown_ops + 2):
            node.put(b"clock-%d" % i, b"v")
        node.scrub_repair_all()

        stats = node.stats
        for name in (
            "puts", "gets", "deletes", "migrations", "retries",
            "wrapped_transients", "breaker_trips", "breaker_probes",
            "readmissions", "demotions", "shards_stranded", "shed_deadline",
        ):  # fmt: skip
            assert getattr(stats, name) > 0, name
        counters = recorder.snapshot()["metrics"]["counters"]
        snapshot = stats.snapshot()
        assert len(snapshot) == 18
        assert {n: counters.get(n, 0) for n in snapshot} == snapshot
        assert {"node.scrub_repaired", "node.scrub_quarantined"} <= set(snapshot)
