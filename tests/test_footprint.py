"""Footprint: memory and recovery cost follow the data, not the capacity.

The substrate is O(bytes written) for the disk, O(bytes pending) for the
scheduler's write-back shadow, O(appends pending) for its queue and
O(records lost in crashes) for the durability tracker; nothing is
O(capacity) or O(records ever written).
"""

import random
import sys
import tracemalloc

from repro.shardstore import (
    DiskGeometry,
    InMemoryDisk,
    RebootType,
    StoreConfig,
    StoreSystem,
)
from repro.shardstore.dependency import Dependency, DurabilityTracker
from repro.shardstore.scheduler import IoScheduler

#: The cost ladder's per-disk shape: 32 MiB of capacity.
GEOMETRY = DiskGeometry(128, 262144, 512)
MIB = 1 << 20


class TestStoreFootprint:
    def test_memory_follows_bytes_written(self, monkeypatch):
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            system = StoreSystem(StoreConfig(geometry=GEOMETRY, seed=1))
            fresh = tracemalloc.get_traced_memory()[0] - baseline
            rng = random.Random(1)
            keys = set()
            for i in range(2_000):
                key = b"k-%05d" % rng.randrange(500)
                keys.add(key)
                system.store.put(key, rng.randbytes(256))
                if i % 128 == 0:
                    system.store.flush()
            system.store.flush()
            system.store.drain()
            loaded = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert fresh < MIB
        written = sum(
            system.disk.write_pointer(e) for e in range(GEOMETRY.num_extents)
        )
        assert 0 < written < loaded < 3 * written
        assert system.store.scheduler._shadow == {}
        # Everything allocated has settled: the tracker is one integer.
        tracker = system.tracker
        assert tracker.durable_count == tracker.snapshot()[0] > 2_000
        assert not tracker._durable_above and not tracker._lost

        steps = ["construct"]  # then each recovery step, as its hook fires
        reading_steps = set()
        real_read = system.disk.read

        def spy(extent, offset, length):
            reading_steps.add(steps[-1])
            return real_read(extent, offset, length)

        monkeypatch.setattr(system.disk, "read", spy)
        store = system.dirty_reboot(RebootType(pump=0), recovery_hook=steps.append)
        # Scheduler construction, drop_pending, superblock decoding and
        # pointer adoption read nothing: only the seal scan of the log
        # extents and the index loading its runs touch the medium.
        assert reading_steps == {"seal", "index"}
        assert set(store.keys()) == keys


class TestSchedulerFootprint:
    """The write-back queue holds one record per pending append, however
    many pages it spans; ids and durability stay per page."""

    #: The cost ladder's ``node-ingest`` disk shape.
    INGEST = DiskGeometry(64, 65536, 512)

    def _scheduler(self):
        tracker = DurabilityTracker()
        disk = InMemoryDisk(self.INGEST)
        return tracker, IoScheduler(disk, tracker, random.Random(0))

    def test_one_record_per_pending_append(self):
        tracker, scheduler = self._scheduler()
        root = Dependency.root(tracker)
        _, dep = scheduler.append(2, bytes(10 * 512), root)
        assert len(scheduler._queues[2]) == 1
        assert scheduler.pending_count == len(dep.record_ids()) == 10
        for n in range(1, 31):  # unaligned multi-page appends
            scheduler.append(3, bytes(700 + 37 * n), root)
            assert len(scheduler._queues[3]) == n
        scheduler.flush_coalesced()
        assert dep.is_persistent() and not scheduler._queues

    def test_pending_bookkeeping_per_append_is_bounded(self):
        """Appends the size of a superblock record (2,304 B: 5 pages, every
        second one unaligned): what the scheduler keeps per pending append,
        beyond the payload bytes in its write-back tail, is one record
        (~180 B; a record and a memoryview per page came to ~1,850 B)."""
        tracker, scheduler = self._scheduler()
        root = Dependency.root(tracker)
        payloads = [bytes([n % 256]) * 2304 for n in range(600)]
        extents = range(2, self.INGEST.num_extents)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n, payload in enumerate(payloads):
                scheduler.append(extents[n % len(extents)], payload, root)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        tails = sum(sys.getsizeof(tail) for _, tail in scheduler._shadow.values())
        assert scheduler.pending_count == 5 * len(payloads)
        assert (grown - tails) / len(payloads) < 320


class TestTrackerFootprint:
    WINDOW = 16

    def test_sparse_set_stays_bounded_across_crashes(self):
        """Allocate / mark in the scheduler's pattern -- ids settle out of
        order within a reordering window, a crash loses whatever is still
        outstanding -- against a plain set as the reference."""
        rng = random.Random(5)
        tracker = DurabilityTracker()
        durable = set()  # the reference: the unbounded set this replaced
        outstanding = []
        lost_total = 0
        for cycle in range(100_000):
            outstanding.append(tracker.allocate())
            flush = cycle % self.WINDOW == 0  # nothing stays pending for long
            if flush or rng.random() < 0.3:
                rng.shuffle(outstanding)
                keep = 0 if flush else rng.randrange(len(outstanding) + 1)
                batch, outstanding = outstanding[keep:], outstanding[:keep]
                if rng.random() < 0.5:
                    tracker.mark_durable_many(batch)
                else:
                    for record_id in batch:
                        tracker.mark_durable(record_id)
                durable.update(batch)
            if cycle % 997 == 0:  # a crash: drop_pending reports the lost ids
                tracker.mark_lost(outstanding)
                lost_total += len(outstanding)
                outstanding = []
            assert len(tracker._durable_above) <= self.WINDOW
            if cycle % 1_000 == 0:
                next_id = tracker.snapshot()[0]
                probes = [rng.randrange(next_id) for _ in range(50)]
                probes += range(max(0, next_id - 40), next_id + 2)
                assert all(tracker.is_durable(p) == (p in durable) for p in probes)
                for group in (probes[:3], probes[10:12], probes[-45:-40], []):
                    assert tracker.all_durable(group) == durable.issuperset(group)
                assert tracker.durable_count == len(durable)
        assert len(tracker._lost) == lost_total < 2_000
        snap = tracker.snapshot()
        tracker.mark_durable_many(outstanding)
        tracker.mark_lost([tracker.allocate()])
        tracker.restore(snap)
        assert tracker.durable_count == len(durable)
        assert not any(tracker.is_durable(r) for r in outstanding)
