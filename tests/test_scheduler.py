"""Unit tests for the soft-updates IO scheduler."""

import random

import pytest

from repro.shardstore import (
    DiskGeometry,
    ExtentError,
    FailureMode,
    FaultKind,
    InMemoryDisk,
    IoError,
)
from repro.shardstore.dependency import Dependency, DurabilityTracker
from repro.shardstore.scheduler import IoScheduler


@pytest.fixture
def system():
    disk = InMemoryDisk(DiskGeometry(num_extents=6, extent_size=1024, page_size=128))
    tracker = DurabilityTracker()
    scheduler = IoScheduler(disk, tracker, random.Random(0))
    return disk, tracker, scheduler


def _root(tracker):
    return Dependency.root(tracker)


class TestAppend:
    def test_append_returns_offset_and_dep(self, system):
        disk, tracker, scheduler = system
        offset, dep = scheduler.append(2, b"hello", _root(tracker))
        assert offset == 0
        assert not dep.is_persistent()
        assert scheduler.soft_pointer(2) == 5

    def test_appends_are_sequential_per_extent(self, system):
        _, tracker, scheduler = system
        off1, _ = scheduler.append(2, b"abc", _root(tracker))
        off2, _ = scheduler.append(2, b"defg", _root(tracker))
        assert (off1, off2) == (0, 3)

    def test_page_splitting(self, system):
        """One logical append spanning pages becomes several records."""
        _, tracker, scheduler = system
        _, dep = scheduler.append(2, b"x" * 300, _root(tracker))
        # 300 bytes from offset 0 with 128-byte pages -> 3 records.
        assert len(dep.record_ids()) == 3

    def test_split_honours_misaligned_start(self, system):
        _, tracker, scheduler = system
        scheduler.append(2, b"x" * 100, _root(tracker))
        _, dep = scheduler.append(2, b"y" * 100, _root(tracker))
        # 100..200 crosses one boundary -> 2 records.
        assert len(dep.record_ids()) == 2

    def test_empty_append_rejected(self, system):
        _, tracker, scheduler = system
        with pytest.raises(ExtentError):
            scheduler.append(2, b"", _root(tracker))

    def test_overrun_rejected(self, system):
        _, tracker, scheduler = system
        with pytest.raises(ExtentError):
            scheduler.append(2, b"x" * 2000, _root(tracker))


class TestWriteback:
    def test_drain_makes_durable(self, system):
        disk, tracker, scheduler = system
        _, dep = scheduler.append(2, b"payload", _root(tracker))
        scheduler.drain()
        assert dep.is_persistent()
        assert disk.read(2, 0, 7) == b"payload"

    def test_dependency_ordering_enforced(self, system):
        disk, tracker, scheduler = system
        _, dep_a = scheduler.append(2, b"first", _root(tracker))
        _, dep_b = scheduler.append(3, b"second", dep_a)
        # Only extent 2's record is eligible until dep_a persists.
        assert scheduler.eligible_extents() == [2]
        assert scheduler.pump_one()
        assert dep_a.is_persistent()
        assert scheduler.eligible_extents() == [3]

    def test_fifo_within_extent(self, system):
        disk, tracker, scheduler = system
        scheduler.append(2, b"a" * 128, _root(tracker))
        scheduler.append(2, b"b" * 128, _root(tracker))
        scheduler.pump(1)
        assert disk.read(2, 0, 128) == b"a" * 128
        assert disk.write_pointer(2) == 128

    def test_pump_respects_budget(self, system):
        _, tracker, scheduler = system
        scheduler.append(2, b"x" * 500, _root(tracker))
        assert scheduler.pump(2) == 2
        assert scheduler.pending_count == 2  # 4 page records total

    def test_torn_append_prefix_persistence(self, system):
        """A crash can persist a prefix of an append's pages (section 5)."""
        disk, tracker, scheduler = system
        _, dep = scheduler.append(2, b"z" * 300, _root(tracker))
        scheduler.pump(1)
        scheduler.drop_pending()
        assert disk.write_pointer(2) == 128  # first page only
        assert not dep.is_persistent()

    def test_drain_raises_on_unsatisfiable_dependency(self, system):
        from repro.shardstore.dependency import FutureCell

        _, tracker, scheduler = system
        cell = FutureCell("never")
        scheduler.append(2, b"stuck", Dependency.on_future(tracker, cell))
        with pytest.raises(IoError):
            scheduler.drain()


class TestReads:
    def test_read_overlays_pending_data(self, system):
        _, tracker, scheduler = system
        scheduler.append(2, b"pending!", _root(tracker))
        assert scheduler.read(2, 0, 8) == b"pending!"

    def test_read_mixes_durable_and_pending(self, system):
        disk, tracker, scheduler = system
        scheduler.append(2, b"a" * 128, _root(tracker))
        scheduler.drain()
        scheduler.append(2, b"b" * 64, _root(tracker))
        assert scheduler.read(2, 100, 60) == b"a" * 28 + b"b" * 32

    def test_read_beyond_soft_pointer_forbidden(self, system):
        _, tracker, scheduler = system
        scheduler.append(2, b"abc", _root(tracker))
        with pytest.raises(ExtentError):
            scheduler.read(2, 0, 4)


class TestReset:
    def test_reset_zeroes_soft_pointer_immediately(self, system):
        _, tracker, scheduler = system
        scheduler.append(2, b"old", _root(tracker))
        scheduler.reset(2, _root(tracker))
        assert scheduler.soft_pointer(2) == 0

    def test_appends_after_reset_restart_at_zero(self, system):
        disk, tracker, scheduler = system
        scheduler.append(2, b"old data", _root(tracker))
        scheduler.reset(2, _root(tracker))
        offset, _ = scheduler.append(2, b"new", _root(tracker))
        assert offset == 0
        scheduler.drain()
        assert disk.read(2, 0, 3) == b"new"
        assert disk.reset_count(2) == 1

    def test_reset_waits_for_dependency(self, system):
        disk, tracker, scheduler = system
        _, dep = scheduler.append(3, b"evacuated copy", _root(tracker))
        scheduler.append(2, b"victim", _root(tracker))
        scheduler.pump(1)  # persist either 2 or 3 first per rng; force both:
        scheduler.drain()
        reset_dep = scheduler.reset(2, dep)
        scheduler.drain()
        assert reset_dep.is_persistent()
        assert disk.write_pointer(2) == 0


class TestCrashAndRecoverySupport:
    def test_drop_pending_discards_queue(self, system):
        disk, tracker, scheduler = system
        scheduler.append(2, b"will be lost", _root(tracker))
        lost = scheduler.drop_pending()
        assert lost == 1
        assert scheduler.pending_count == 0
        assert scheduler.soft_pointer(2) == 0
        assert disk.write_pointer(2) == 0

    def test_sync_soft_pointer_truncates(self, system):
        disk, tracker, scheduler = system
        scheduler.append(2, b"x" * 200, _root(tracker))
        scheduler.drain()
        scheduler.sync_soft_pointer(2, 100)
        assert scheduler.soft_pointer(2) == 100
        assert disk.write_pointer(2) == 100

    def test_settle_extent_clears_pending(self, system):
        _, tracker, scheduler = system
        scheduler.append(2, b"a" * 300, _root(tracker))
        assert scheduler.settle_extent(2)
        assert scheduler.pending_count == 0

    def test_settle_reports_stuck(self, system):
        from repro.shardstore.dependency import FutureCell

        _, tracker, scheduler = system
        cell = FutureCell("never")
        scheduler.append(2, b"stuck", Dependency.on_future(tracker, cell))
        assert not scheduler.settle_extent(2)

    def test_snapshot_restore_roundtrip(self, system):
        disk, tracker, scheduler = system
        scheduler.append(2, b"kept", _root(tracker))
        snap = scheduler.snapshot()
        disk_snap = disk.snapshot()
        tracker_snap = tracker.snapshot()
        scheduler.drain()
        scheduler.append(3, b"extra", _root(tracker))
        scheduler.restore(snap)
        disk.restore(disk_snap)
        tracker.restore(tracker_snap)
        assert scheduler.pending_count == 1
        assert scheduler.read(2, 0, 4) == b"kept"


class TestDeterminism:
    def test_same_seed_same_writeback_order(self):
        def run(seed):
            disk = InMemoryDisk(DiskGeometry(num_extents=6, extent_size=1024, page_size=128))
            tracker = DurabilityTracker()
            scheduler = IoScheduler(disk, tracker, random.Random(seed))
            for extent in (2, 3, 4, 5):
                scheduler.append(extent, bytes([extent]) * 64, Dependency.root(tracker))
            order = []
            while scheduler.pump_one():
                order.append(tracker.durable_count)
            return disk.snapshot()

        assert run(7) == run(7)


# ----------------------------------------------------------------------
# the write-back shadow is a pending-only tail; the full mirror it replaced
# survives here as the reference


class _FullMirror:
    """The shadow as it was before it became a tail: a full-size copy of
    every extent, refilled from the medium at construction, ``drop_pending``
    and ``sync_soft_pointer``.  Kept only as the reference ``read`` is
    compared against; it peeks at the medium without issuing IOs."""

    def __init__(self, disk, scheduler):
        self.disk = disk
        self.scheduler = scheduler
        self.size = disk.geometry.extent_size
        extents = range(disk.geometry.num_extents)
        self.soft = [disk.write_pointer(e) for e in extents]
        self.shadow = [self._durable_image(e) for e in extents]

    def _durable_image(self, extent):
        data, hard, _ = self.disk.snapshot()[extent]
        return bytearray(data[:hard].ljust(self.size, b"\0"))

    def append(self, extent, data):
        offset = self.soft[extent]
        self.shadow[extent][offset : offset + len(data)] = data
        self.soft[extent] = offset + len(data)

    def reset(self, extent):
        self.soft[extent] = 0
        self.shadow[extent] = bytearray(self.size)

    def refill(self, extent):
        self.soft[extent] = self.disk.write_pointer(extent)
        self.shadow[extent] = self._durable_image(extent)

    def read(self, extent, offset, length):
        if length < 0 or offset < 0:
            raise ExtentError("negative read bounds")
        soft = self.soft[extent]
        if offset + length > soft:
            raise ExtentError(
                f"read beyond soft write pointer on extent {extent}: "
                f"[{offset}, {offset + length}) > {soft}"
            )
        hard = self.disk.write_pointer(extent)
        if offset >= hard or self.scheduler._has_pending_reset(extent):
            return bytes(self.shadow[extent][offset : offset + length])
        durable_end = min(offset + length, hard)
        out = self.disk.snapshot()[extent][0][offset:durable_end]
        if durable_end < offset + length:
            out += bytes(self.shadow[extent][durable_end : offset + length])
        return out

    def snapshot(self):
        return list(self.soft), [bytes(s) for s in self.shadow]

    def restore(self, snap):
        self.soft = list(snap[0])
        self.shadow = [bytearray(s) for s in snap[1]]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ExtentError as exc:
        return ("ExtentError", str(exc))


class TestTailShadowAgainstFullMirror:
    GEOMETRY = DiskGeometry(num_extents=5, extent_size=1024, page_size=128)

    def _assert_reads_agree(self, rng, scheduler, mirror):
        for extent in range(self.GEOMETRY.num_extents):
            soft = scheduler.soft_pointer(extent)
            assert soft == mirror.soft[extent]
            probes = [(0, soft), (0, soft + 1), (-1, 1), (0, -1), (soft, 0)]
            for _ in range(4):
                offset = rng.randrange(soft + 2)
                probes.append((offset, rng.randrange(soft + 2 - offset)))
            for offset, length in probes:
                assert _outcome(scheduler.read, extent, offset, length) == _outcome(
                    mirror.read, extent, offset, length
                ), (extent, offset, length)
            # The tail exists only while the extent has pending records.
            if not scheduler.pending_count_for(extent):
                assert extent not in scheduler._shadow

    @pytest.mark.parametrize("seed", range(40))
    def test_random_histories_read_like_the_full_mirror(self, seed):
        rng = random.Random(seed)
        geometry = self.GEOMETRY
        disk = InMemoryDisk(geometry)
        tracker = DurabilityTracker()
        scheduler = IoScheduler(disk, tracker, random.Random(seed))
        mirror = _FullMirror(disk, scheduler)
        deps = [Dependency.root(tracker)]
        saved = None
        for _ in range(150):
            extent = rng.randrange(geometry.num_extents)
            step = rng.choice(
                ["append"] * 6
                + ["pump", "pump-coalesced"] * 3
                + ["reset", "fault", "torn", "drop", "sync", "snapshot", "restore"]
            )
            if step == "append":
                data = rng.randbytes(rng.choice([1, 40, 128, 300]))
                try:
                    _, dep = scheduler.append(extent, data, rng.choice(deps[-3:]))
                except ExtentError:
                    assert len(data) > scheduler.free_bytes(extent)
                else:
                    mirror.append(extent, data)
                    deps.append(dep)
            elif step == "reset":
                deps.append(scheduler.reset(extent, rng.choice(deps[-3:])))
                mirror.reset(extent)
            elif step in ("pump", "pump-coalesced"):
                try:
                    scheduler.pump_one(coalesce=step == "pump-coalesced")
                except IoError:
                    # Armed write fault: the records were requeued -- a torn
                    # one trimmed in place, and snapshots share the record
                    # objects, so an older snapshot does not survive this.
                    saved = None
            elif step in ("fault", "torn"):
                kind = FaultKind.TORN_WRITE if step == "torn" else FaultKind.IO_ERROR
                disk.arm_fault(extent, FailureMode.ONCE, reads=False, kind=kind)
            elif step == "drop":
                reads = disk.stats.reads
                scheduler.drop_pending()
                assert disk.stats.reads == reads and not scheduler._shadow
                for e in range(geometry.num_extents):
                    mirror.refill(e)
                deps = [Dependency.root(tracker)]
            elif step == "sync":
                if scheduler.pending_count_for(extent):
                    continue  # recovery only adopts pointers on a quiet extent
                reads = disk.stats.reads
                scheduler.sync_soft_pointer(
                    extent, rng.randrange(geometry.extent_size + 1)
                )
                assert disk.stats.reads == reads
                mirror.refill(extent)
            elif step == "snapshot":
                saved = (
                    scheduler.snapshot(),
                    disk.snapshot(),
                    tracker.snapshot(),
                    mirror.snapshot(),
                    list(deps),
                )
            elif saved is not None:
                scheduler.restore(saved[0])
                disk.restore(saved[1])
                tracker.restore(saved[2])
                mirror.restore(saved[3])
                deps = list(saved[4])
            self._assert_reads_agree(rng, scheduler, mirror)

    def test_constructing_a_scheduler_reads_nothing(self):
        disk = InMemoryDisk(self.GEOMETRY)
        disk.write(2, 0, b"durable")
        disk.arm_fault(2, FailureMode.ONCE, writes=False)
        scheduler = IoScheduler(disk, DurabilityTracker(), random.Random(0))
        assert disk.stats.reads == 0 and disk.has_armed_fault(2)
        assert scheduler.soft_pointer(2) == 7 and not scheduler._shadow

    def test_failed_writeback_keeps_the_tail_until_the_retry_lands(self):
        disk = InMemoryDisk(self.GEOMETRY)
        tracker = DurabilityTracker()
        scheduler = IoScheduler(disk, tracker, random.Random(0))
        scheduler.append(2, b"x" * 100, Dependency.root(tracker))
        disk.arm_fault(2, FailureMode.ONCE, reads=False, kind=FaultKind.TORN_WRITE)
        with pytest.raises(IoError):
            scheduler.pump_one(2)
        assert disk.write_pointer(2) == 50 and scheduler.pending_count_for(2) == 1
        assert scheduler.read(2, 0, 100) == b"x" * 100  # 50 durable + 50 tail
        scheduler.drain()
        assert 2 not in scheduler._shadow
        assert scheduler.read(2, 0, 100) == b"x" * 100
