"""Tests for writeback coalescing (the Fig. 2 scheduler optimisation)."""

import random

import pytest

from repro.shardstore import DiskGeometry, InMemoryDisk, StoreConfig, StoreSystem
from repro.shardstore.disk import FailureMode, FaultKind
from repro.shardstore.errors import IoError
from repro.shardstore.dependency import Dependency, DurabilityTracker
from repro.shardstore.scheduler import IoScheduler


def _scheduler():
    disk = InMemoryDisk(DiskGeometry(num_extents=6, extent_size=2048, page_size=128))
    tracker = DurabilityTracker()
    return disk, tracker, IoScheduler(disk, tracker, random.Random(0))


class TestCoalescedPump:
    def test_contiguous_appends_merge_into_one_io(self):
        disk, tracker, scheduler = _scheduler()
        deps = [
            scheduler.append(4, bytes([i]) * 100, Dependency.root(tracker))[1]
            for i in range(3)
        ]
        assert scheduler.pump_one(coalesce=True)
        assert disk.stats.writes == 1, "three appends, one device IO"
        assert all(dep.is_persistent() for dep in deps)
        assert disk.read(4, 0, 300) == b"\x00" * 100 + b"\x01" * 100 + b"\x02" * 100

    def test_coalescing_stops_at_unsatisfied_dependency(self):
        disk, tracker, scheduler = _scheduler()
        _, first = scheduler.append(4, b"a" * 100, Dependency.root(tracker))
        blocker = Dependency.on_records(tracker, [tracker.allocate()])
        scheduler.append(4, b"b" * 100, blocker)
        assert scheduler.pump_one(coalesce=True)
        assert disk.write_pointer(4) == 100, "the gated record must wait"

    def test_record_joins_the_io_of_what_it_depends_on(self):
        # Fig. 2: a run chunk ordered after data on its own extent is
        # written back in the same IO as that data.
        disk, tracker, scheduler = _scheduler()
        _, data = scheduler.append(4, b"d" * 200, Dependency.root(tracker))
        _, run = scheduler.append(4, b"r" * 100, data)
        assert scheduler.pump_one(coalesce=True)
        assert disk.stats.writes == 1
        assert run.is_persistent()

    def test_pending_dependency_on_another_extent_still_gates(self):
        disk, tracker, scheduler = _scheduler()
        _, other = scheduler.append(5, b"o" * 100, Dependency.root(tracker))
        _, data = scheduler.append(4, b"d" * 100, Dependency.root(tracker))
        scheduler.append(4, b"r" * 100, data.and_(other))
        assert scheduler.pump_one(4, coalesce=True)
        assert disk.write_pointer(4) == 100, "the run waits for extent 5"

    def test_torn_io_keeps_a_dependent_record_behind_its_dependency(self):
        disk, tracker, scheduler = _scheduler()
        _, data = scheduler.append(4, b"d" * 300, Dependency.root(tracker))
        _, run = scheduler.append(4, b"r" * 100, data)
        disk.arm_fault(4, FailureMode.ONCE, reads=False, kind=FaultKind.TORN_WRITE)
        with pytest.raises(IoError):
            scheduler.pump_one(coalesce=True)
        assert disk.write_pointer(4) == 200
        assert not data.is_persistent() and not run.is_persistent()
        assert scheduler.pump_one(coalesce=True)
        assert run.is_persistent()
        assert disk.read(4, 0, 400) == b"d" * 300 + b"r" * 100

    def test_coalescing_stops_at_reset(self):
        disk, tracker, scheduler = _scheduler()
        scheduler.append(4, b"a" * 100, Dependency.root(tracker))
        scheduler.reset(4, Dependency.root(tracker))
        scheduler.append(4, b"b" * 50, Dependency.root(tracker))
        assert scheduler.pump_one(coalesce=True)  # the append alone
        assert disk.write_pointer(4) == 100
        assert scheduler.pump_one(coalesce=True)  # the reset alone
        assert disk.write_pointer(4) == 0
        assert scheduler.pump_one(coalesce=True)
        assert disk.read(4, 0, 50) == b"b" * 50

    def test_result_identical_with_and_without_coalescing(self):
        def run(coalesce: bool):
            disk, tracker, scheduler = _scheduler()
            for i in range(6):
                scheduler.append(4, bytes([i]) * 90, Dependency.root(tracker))
            scheduler.append(5, b"x" * 200, Dependency.root(tracker))
            while scheduler.pump_one(coalesce=coalesce):
                pass
            return disk.snapshot()

        assert run(True) == run(False)

    def test_io_count_reduction(self):
        def io_count(coalesce: bool) -> int:
            disk, tracker, scheduler = _scheduler()
            for i in range(8):
                scheduler.append(4, bytes([i]) * 120, Dependency.root(tracker))
            while scheduler.pump_one(coalesce=coalesce):
                pass
            return disk.stats.writes

        assert io_count(True) < io_count(False)


class TestFlushCoalesced:
    def test_flush_coalesced_drains_everything(self):
        disk, tracker, scheduler = _scheduler()
        deps = []
        for extent in (3, 4, 5):
            for i in range(4):
                deps.append(
                    scheduler.append(
                        extent, bytes([i]) * 100, Dependency.root(tracker)
                    )[1]
                )
        scheduler.reset(3, Dependency.root(tracker))
        scheduler.flush_coalesced()
        assert scheduler.pending_count == 0
        assert all(dep.is_persistent() for dep in deps)
        assert disk.write_pointer(3) == 0, "the reset pumped too"
        assert disk.read(4, 0, 400) == b"".join(
            bytes([i]) * 100 for i in range(4)
        )

    def test_batch_window_bounds_records_per_io(self):
        def writes(window):
            disk, tracker, scheduler = _scheduler()
            for i in range(8):
                scheduler.append(4, bytes([i]) * 128, Dependency.root(tracker))
            scheduler.flush_coalesced(batch_pages=window)
            return disk.stats.writes

        # 8 one-page records: a 2-page window needs 4 IOs, a wide window 1.
        assert writes(2) == 4
        assert writes(64) == 1

    def test_constructor_window_is_the_default(self):
        disk = InMemoryDisk(
            DiskGeometry(num_extents=6, extent_size=2048, page_size=128)
        )
        tracker = DurabilityTracker()
        scheduler = IoScheduler(disk, tracker, random.Random(0), batch_pages=2)
        for i in range(8):
            scheduler.append(4, bytes([i]) * 128, Dependency.root(tracker))
        scheduler.flush_coalesced()
        assert disk.stats.writes == 4

    def test_identical_disk_state_vs_drain(self):
        def run(coalesced: bool):
            disk, tracker, scheduler = _scheduler()
            for i in range(6):
                scheduler.append(4, bytes([i]) * 90, Dependency.root(tracker))
            scheduler.append(5, b"y" * 300, Dependency.root(tracker))
            if coalesced:
                scheduler.flush_coalesced()
            else:
                scheduler.drain()
            return disk.snapshot()

        assert run(True) == run(False)


class TestPendingCounters:
    def test_counters_track_queues_incrementally(self):
        disk, tracker, scheduler = _scheduler()
        scheduler.append(4, b"a" * 300, Dependency.root(tracker))  # 3 pages
        scheduler.append(5, b"b" * 100, Dependency.root(tracker))
        scheduler.reset(4, Dependency.root(tracker))
        assert scheduler.pending_count == 5
        assert scheduler.pending_count_for(4) == 4
        assert scheduler.pending_count_for(5) == 1
        while scheduler.pump_one():
            pass
        assert scheduler.pending_count == 0
        assert scheduler.pending_count_for(4) == 0

    def test_counters_survive_snapshot_restore(self):
        disk, tracker, scheduler = _scheduler()
        scheduler.append(4, b"a" * 300, Dependency.root(tracker))
        scheduler.append(5, b"b" * 100, Dependency.root(tracker))
        snap = scheduler.snapshot()
        disk_snap = disk.snapshot()
        tracker_snap = tracker.snapshot()
        while scheduler.pump_one():
            pass
        assert scheduler.pending_count == 0
        scheduler.restore(snap)
        disk.restore(disk_snap)
        tracker.restore(tracker_snap)
        assert scheduler.pending_count == 4
        assert scheduler.pending_count_for(4) == 3
        assert scheduler.pending_count_for(5) == 1
        scheduler.flush_coalesced()
        assert scheduler.pending_count == 0

    def test_drop_pending_zeroes_counters(self):
        disk, tracker, scheduler = _scheduler()
        scheduler.append(4, b"a" * 300, Dependency.root(tracker))
        scheduler.reset(5, Dependency.root(tracker))
        dropped = scheduler.drop_pending()
        assert dropped == 4
        assert scheduler.pending_count == 0
        assert scheduler.pending_count_for(4) == 0
        assert scheduler.pending_count_for(5) == 0


class TestStoreLevel:
    def test_store_roundtrip_unaffected(self):
        system = StoreSystem(
            StoreConfig(
                geometry=DiskGeometry(num_extents=12, extent_size=4096, page_size=128)
            )
        )
        store = system.store
        for i in range(8):
            store.put(b"k%d" % i, bytes([i]) * 300)
        while store.scheduler.pump_one(coalesce=True):
            pass
        store.flush_index()
        store.flush_superblock()
        while store.scheduler.pump_one(coalesce=True):
            pass
        store = system.clean_reboot()
        for i in range(8):
            assert store.get(b"k%d" % i) == bytes([i]) * 300
