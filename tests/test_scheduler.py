"""Unit tests for the soft-updates IO scheduler."""

import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.shardstore import (
    DiskGeometry,
    ExtentError,
    FailureMode,
    FaultKind,
    InMemoryDisk,
    IoError,
)
from repro.shardstore.dependency import (
    Dependency,
    DurabilityTracker,
    FutureCell,
    RecordInfo,
)
from repro.shardstore.observability import NULL_RECORDER, Recorder, RingRecorder
from repro.shardstore.scheduler import (
    DEFAULT_BATCH_PAGES,
    Buffer,
    IoScheduler,
    SchedulerStats,
)


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

    def test_snapshot_survives_a_torn_writeback(self):
        """Snapshots share queued records, so requeueing a torn record must
        not edit it: the restored history ends like one that never failed."""

        def history(fail):
            disk = InMemoryDisk(
                DiskGeometry(num_extents=4, extent_size=1024, page_size=128)
            )
            tracker = DurabilityTracker()
            scheduler = IoScheduler(disk, tracker, random.Random(0))
            _, dep = scheduler.append(1, bytes(range(150)) * 2, _root(tracker))
            saved = scheduler.snapshot(), disk.snapshot(), tracker.snapshot()
            if fail:
                disk.arm_fault(
                    1, FailureMode.ONCE, reads=False, kind=FaultKind.TORN_WRITE
                )
                with pytest.raises(IoError):
                    scheduler.pump_one(1)
                assert disk.write_pointer(1) == 64
                scheduler.restore(saved[0])
                disk.restore(saved[1])
                tracker.restore(saved[2])
            scheduler.drain()
            assert dep.is_persistent()
            return disk.snapshot()

        assert history(fail=True) == history(fail=False)


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
                    pass  # armed write fault: the records were requeued
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


# ----------------------------------------------------------------------
# the queue holds one record per append; the per-page queue it replaced
# survives here as the reference (one record and one memoryview per page
# segment, built at append time)


class _PageRecord:

    __slots__ = ("record_id", "extent", "offset", "data", "dep", "kind", "label")

    def __init__(
        self,
        record_id: int,
        extent: int,
        offset: int,  # meaningless for resets
        data: Buffer,  # empty for resets; may be a memoryview (zero-copy)
        dep: Dependency,
        kind: str,  # "write" or "reset"
        label: str,
    ) -> None:
        self.record_id = record_id
        self.extent = extent
        self.offset = offset
        self.data = data
        self.dep = dep
        self.kind = kind
        self.label = label


class _PerPageScheduler:

    def __init__(
        self,
        disk: InMemoryDisk,
        tracker: DurabilityTracker,
        rng: Optional[random.Random] = None,
        recorder: Recorder = NULL_RECORDER,
        batch_pages: int = DEFAULT_BATCH_PAGES,
    ) -> None:
        self.disk = disk
        self.tracker = tracker
        self.rng = rng or random.Random(0)
        self.recorder = recorder
        self.batch_pages = batch_pages
        self.stats = SchedulerStats()
        if recorder.enabled:
            recorder.watch("scheduler", self.stats)
        # Per-extent FIFO queues of pending records.
        self._queues: Dict[int, List[_PageRecord]] = {}
        # Incremental tallies so the hot queries (admission-control backlog
        # estimates, per-read reset checks, drain loops) are O(1) instead of
        # rescanning every queue.
        self._pending_total = 0
        self._pending_per_extent: Dict[int, int] = {}
        self._pending_resets: Dict[int, int] = {}
        self._soft_pointer: List[int] = [
            disk.write_pointer(e) for e in range(disk.geometry.num_extents)
        ]
        # The write-back shadow: per extent with pending records, the tail
        # ``(base, bytes of [base, soft))`` of appended-but-not-durable data.
        # ``base`` is the hard pointer when the tail was created (0 under a
        # pending reset), so readable = durable prefix + pending tail and the
        # shadow costs memory for what is pending, not for what is stored.
        self._shadow: Dict[int, Tuple[int, bytearray]] = {}

    # ------------------------------------------------------------------
    # client API

    def soft_pointer(self, extent: int) -> int:
        return self._soft_pointer[extent]

    def free_bytes(self, extent: int) -> int:
        return self.disk.geometry.extent_size - self._soft_pointer[extent]

    def append(
        self, extent: int, data: Buffer, dep: Dependency, label: str = ""
    ) -> Tuple[int, Dependency]:
        length = len(data)
        if not length:
            raise ExtentError("empty append")
        offset = self._soft_pointer[extent]
        if offset + length > self.disk.geometry.extent_size:
            raise ExtentError(
                f"append of {length} bytes overruns extent {extent} "
                f"(soft pointer {offset})"
            )
        page = self.disk.geometry.page_size
        queue = self._queues.get(extent)
        if queue is None:
            queue = self._queues[extent] = []
        record_info = self.tracker.record_info  # None unless capturing
        first_seg_end = min(length, (offset // page + 1) * page - offset)
        if first_seg_end == length:
            # Fast path: the whole append lands inside one page segment.
            record_id = self.tracker.allocate()
            queue.append(
                _PageRecord(record_id, extent, offset, data, dep, "write", label)
            )
            if record_info is not None:
                record_info[record_id] = RecordInfo(
                    record_id, label or f"append@{extent}", extent, offset, length, dep
                )
            record_ids: List[int] = [record_id]
        else:
            # Page-granular segments as zero-copy memoryview slices; one
            # contiguous id range per logical append (group commit keeps
            # dependency bookkeeping amortised across the batch).
            view = memoryview(data)
            bounds: List[Tuple[int, int]] = []
            cursor = 0
            seg_end = first_seg_end
            while cursor < length:
                bounds.append((cursor, seg_end))
                cursor = seg_end
                seg_end = min(length, seg_end + page)
            id_range = self.tracker.allocate_range(len(bounds))
            record_ids = list(id_range)
            for record_id, (start, end) in zip(id_range, bounds):
                queue.append(
                    _PageRecord(
                        record_id,
                        extent,
                        offset + start,
                        view[start:end],
                        dep,
                        "write",
                        label,
                    )
                )
                if record_info is not None:
                    record_info[record_id] = RecordInfo(
                        record_id,
                        label or f"append@{extent}",
                        extent,
                        offset + start,
                        end - start,
                        dep,
                    )
        count = len(record_ids)
        self.stats.records_enqueued += count
        self._pending_total += count
        self._pending_per_extent[extent] = (
            self._pending_per_extent.get(extent, 0) + count
        )
        tail = self._shadow.get(extent)
        if tail is None:
            self._shadow[extent] = (offset, bytearray(data))
        else:
            tail[1].extend(data)
        self._soft_pointer[extent] = offset + length
        return offset, Dependency.on_records(self.tracker, record_ids)

    def reset(self, extent: int, dep: Dependency, label: str = "") -> Dependency:
        record_id = self.tracker.allocate()
        record = _PageRecord(record_id, extent, 0, b"", dep, "reset", label)
        if self.tracker.record_info is not None:
            self.tracker.record_info[record_id] = RecordInfo(
                record_id=record_id,
                label=label or f"reset@{extent}",
                extent=extent,
                offset=0,
                length=0,
                dep=dep,
                kind="reset",
            )
        self._queues.setdefault(extent, []).append(record)
        self.stats.records_enqueued += 1
        self._pending_total += 1
        self._pending_per_extent[extent] = self._pending_per_extent.get(extent, 0) + 1
        self._pending_resets[extent] = self._pending_resets.get(extent, 0) + 1
        self._soft_pointer[extent] = 0
        self._shadow[extent] = (0, bytearray())
        if self.recorder.enabled:
            self.recorder.event("scheduler.reset_queued", extent=extent)
        return Dependency.on_records(self.tracker, [record_id])

    def read(self, extent: int, offset: int, length: int) -> bytes:
        if length < 0 or offset < 0:
            raise ExtentError("negative read bounds")
        soft = self._soft_pointer[extent]
        end = offset + length
        if end > soft:
            raise ExtentError(
                f"read beyond soft write pointer on extent {extent}: "
                f"[{offset}, {end}) > {soft}"
            )
        # Under a pending reset the durable image is stale: nothing of it is
        # readable and the tail (based at 0) holds everything below soft.
        reset_pending = self._has_pending_reset(extent)
        hard = 0 if reset_pending else self.disk.write_pointer(extent)
        if offset < hard:
            durable_end = min(end, hard)
            out = self.disk.read(extent, offset, durable_end - offset)
        else:
            durable_end = offset
            out = b""
        if durable_end < end:
            base, tail = self._shadow[extent]
            out += tail[durable_end - base : end - base]
        return out

    def _has_pending_reset(self, extent: int) -> bool:
        return self._pending_resets.get(extent, 0) > 0

    # ------------------------------------------------------------------
    # writeback

    @property
    def pending_count(self) -> int:
        return self._pending_total

    def pending_count_for(self, extent: int) -> int:
        return self._pending_per_extent.get(extent, 0)

    def pending_cost_units(self) -> int:
        return self._pending_total * self.disk.latency_units

    def pending_record_ids(self) -> List[int]:
        return [r.record_id for q in self._queues.values() for r in q]

    def eligible_extents(self) -> List[int]:
        out = []
        for extent, queue in self._queues.items():
            if queue and queue[0].dep.is_persistent():
                out.append(extent)
        return sorted(out)

    def pump_one(
        self,
        extent: Optional[int] = None,
        *,
        coalesce: bool = False,
        max_batch: Optional[int] = None,
    ) -> bool:
        eligible = self.eligible_extents()
        if not eligible:
            return False
        if extent is None:
            extent = self.rng.choice(eligible)
        elif extent not in eligible:
            raise ExtentError(f"extent {extent} has no eligible record")
        queue = self._queues[extent]
        record = queue.pop(0)
        self._note_removed(record)
        if coalesce and record.kind == "write":
            window = self.batch_pages if max_batch is None else max_batch
            batch = [record]
            while (
                len(batch) < window
                and queue
                and queue[0].kind == "write"
                and queue[0].offset == batch[-1].offset + len(batch[-1].data)
                and (
                    queue[0].dep.is_persistent()
                    or queue[0].dep.is_persistent_given(
                        {r.record_id for r in batch}
                    )
                )
            ):
                next_record = queue.pop(0)
                self._note_removed(next_record)
                batch.append(next_record)
            if not queue:
                del self._queues[extent]
            if len(batch) > 1:
                merged = b"".join(r.data for r in batch)
                try:
                    self.disk.write(extent, batch[0].offset, merged)
                except IoError:
                    self._requeue_failed(extent, batch)
                    raise
                self.tracker.mark_durable_many(r.record_id for r in batch)
                self._note_written(extent)
                self.stats.records_written += len(batch)
                self.stats.ios_issued += 1
                return True
            self._apply_or_requeue(extent, batch[0])
            return True
        if not queue:
            del self._queues[extent]
        self._apply_or_requeue(extent, record)
        return True

    def _note_removed(self, record: _PageRecord) -> None:
        self._pending_total -= 1
        extent = record.extent
        self._pending_per_extent[extent] -= 1
        if record.kind == "reset":
            self._pending_resets[extent] -= 1

    def _note_written(self, extent: int) -> None:
        if not self._pending_per_extent[extent]:
            del self._shadow[extent]

    def _apply_or_requeue(self, extent: int, record: _PageRecord) -> None:
        try:
            self._apply(record)
        except IoError:
            self._requeue_failed(extent, [record])
            raise

    def _requeue_failed(self, extent: int, records: List[_PageRecord]) -> None:
        hard = self.disk.write_pointer(extent)
        survivors: List[_PageRecord] = []
        for record in records:
            if record.kind == "write":
                end = record.offset + len(record.data)
                if end <= hard:
                    # The medium absorbed this record before the fault fired
                    # (a torn batch): it is durable after all.
                    self.tracker.mark_durable(record.record_id)
                    self.stats.records_written += 1
                    continue
                if record.offset < hard:
                    # The one edit: trim a copy (this was in place, and a
                    # snapshot sharing the record did not survive it).
                    record = _PageRecord(
                        record.record_id,
                        extent,
                        hard,
                        record.data[hard - record.offset :],
                        record.dep,
                        record.kind,
                        record.label,
                    )
                    captured = self.tracker.record_info
                    info = captured.get(record.record_id) if captured else None
                    if info is not None:
                        info.offset = record.offset
                        info.length = len(record.data)
            survivors.append(record)
        if survivors:
            self._queues.setdefault(extent, [])[:0] = survivors
            self._pending_total += len(survivors)
            self._pending_per_extent[extent] = (
                self._pending_per_extent.get(extent, 0) + len(survivors)
            )
            resets = sum(1 for r in survivors if r.kind == "reset")
            if resets:
                self._pending_resets[extent] = (
                    self._pending_resets.get(extent, 0) + resets
                )
        self.stats.writeback_requeues += 1
        if self.recorder.enabled:
            self.recorder.event(
                "scheduler.writeback_requeued", extent=extent, records=len(survivors)
            )

    def _apply(self, record: _PageRecord) -> None:
        if record.kind == "reset":
            self.disk.reset(record.extent)
            self.stats.resets_applied += 1
        else:
            self.disk.write(record.extent, record.offset, record.data)
            self.stats.records_written += 1
        self.stats.ios_issued += 1
        self.tracker.mark_durable(record.record_id)
        self._note_written(record.extent)

    def pump(self, n: int) -> int:
        if not self.recorder.enabled:
            done = 0
            while done < n and self.pump_one():
                done += 1
            return done
        with self.recorder.span("scheduler.pump", budget=n):
            done = 0
            while done < n and self.pump_one():
                done += 1
            return done

    def drain(self) -> None:
        while self._pending_total:
            if not self.pump_one():
                self._raise_stuck()
            # Keep pumping.

    def flush_coalesced(self, batch_pages: Optional[int] = None) -> None:
        while self._pending_total:
            if not self.pump_one(coalesce=True, max_batch=batch_pages):
                self._raise_stuck()

    def _raise_stuck(self) -> None:
        stuck = [
            (r.label or r.kind, r.extent) for q in self._queues.values() for r in q
        ]
        raise IoError(
            f"writeback stuck: {len(stuck)} pending records with "
            f"unsatisfiable dependencies: {stuck[:5]}",
            transient=False,
        )

    def settle_extent(self, extent: int) -> bool:
        while self._pending_per_extent.get(extent, 0):
            if not self.pump_one():
                return False
        return True

    def drop_pending(self) -> int:
        lost = self._pending_total
        self.tracker.mark_lost(self.pending_record_ids())
        self._queues.clear()
        self._pending_total = 0
        self._pending_per_extent.clear()
        self._pending_resets.clear()
        self._shadow.clear()
        for extent in range(self.disk.geometry.num_extents):
            self._soft_pointer[extent] = self.disk.write_pointer(extent)
        return lost

    def sync_soft_pointer(self, extent: int, pointer: int) -> None:
        self.disk.set_write_pointer(extent, pointer)
        self._soft_pointer[extent] = pointer
        self._shadow.pop(extent, None)

    # ------------------------------------------------------------------
    # snapshot / restore (block-level crash-state enumeration)

    def snapshot(self) -> dict:
        return {
            "queues": {e: list(q) for e, q in self._queues.items()},
            "soft": list(self._soft_pointer),
            "shadow": {e: (b, bytes(tail)) for e, (b, tail) in self._shadow.items()},
            "rng": self.rng.getstate(),
        }

    def restore(self, snap: dict) -> None:
        self._queues = {e: list(q) for e, q in snap["queues"].items()}
        self._soft_pointer = list(snap["soft"])
        self._shadow = {
            e: (b, bytearray(tail)) for e, (b, tail) in snap["shadow"].items()
        }
        self.rng.setstate(snap["rng"])
        self._recount_pending()

    def _recount_pending(self) -> None:
        self._pending_total = 0
        self._pending_per_extent = {}
        self._pending_resets = {}
        for extent, queue in self._queues.items():
            self._pending_per_extent[extent] = len(queue)
            self._pending_total += len(queue)
            resets = sum(1 for r in queue if r.kind == "reset")
            if resets:
                self._pending_resets[extent] = resets


class _LoggingDisk(InMemoryDisk):
    """Logs every device IO it is asked for, failed ones included."""

    def __init__(self, geometry, recorder):
        super().__init__(geometry, recorder)
        self.ios = []

    def write(self, extent, offset, data):
        self.ios.append(("write", extent, offset, len(data), bytes(data)))
        super().write(extent, offset, data)

    def reset(self, extent):
        self.ios.append(("reset", extent))
        super().reset(extent)


class _Side:
    """One scheduler with its own disk, tracker, recorder and dependencies."""

    GEOMETRY = DiskGeometry(num_extents=6, extent_size=4096, page_size=128)
    BATCH_PAGES = 4

    def __init__(self, cls, seed):
        self.recorder = RingRecorder()
        self.disk = _LoggingDisk(self.GEOMETRY, self.recorder)
        self.tracker = DurabilityTracker()
        self.scheduler = cls(
            self.disk,
            self.tracker,
            random.Random(seed),
            self.recorder,
            batch_pages=self.BATCH_PAGES,
        )
        self.deps = [Dependency.root(self.tracker)]
        self.cells = []
        self.saved = None

    def run(self, op):
        """Apply one history step; its result or the error it raised."""
        try:
            return self._run(*op)
        except (ExtentError, IoError) as exc:
            return type(exc).__name__, str(exc)

    def _run(self, kind, *args):
        s = self.scheduler
        if kind == "append":
            extent, data, dep, label = args
            offset, out = s.append(extent, data, self.deps[dep], label)
            self.deps.append(out)
            return offset, sorted(out.record_ids())
        if kind == "reset":
            extent, dep = args
            self.deps.append(s.reset(extent, self.deps[dep]))
            return sorted(self.deps[-1].record_ids())
        if kind == "cell":
            self.cells.append(FutureCell("cell"))
            self.deps.append(Dependency.on_future(self.tracker, self.cells[-1]))
            return None
        if kind == "resolve":
            cell, dep = args
            self.cells[cell].resolve(self.deps[dep])
            return None
        if kind == "lose":
            (dep,) = args
            self.tracker.mark_lost(sorted(self.deps[dep].record_ids()))
            return None
        if kind == "pump":
            extent, coalesce, max_batch = args
            return s.pump_one(extent, coalesce=coalesce, max_batch=max_batch)
        if kind == "fault":
            extent, torn, delay = args
            fault = FaultKind.TORN_WRITE if torn else FaultKind.IO_ERROR
            self.disk.arm_fault(
                extent, FailureMode.ONCE, reads=False, kind=fault, delay=delay
            )
            return None
        if kind == "sync":
            extent, pointer = args
            return s.sync_soft_pointer(extent, pointer)
        if kind == "snapshot":
            s_snap = s.snapshot()
            self.saved = (s_snap, self.disk.snapshot(), self.tracker.snapshot())
            self.saved += (list(self.deps),)
            return None
        if kind == "restore":
            s.restore(self.saved[0])
            self.disk.restore(self.saved[1])
            self.tracker.restore(self.saved[2])
            self.deps = list(self.saved[3])
            return None
        if kind == "drop":
            return s.drop_pending()
        if kind == "pump_n":
            return s.pump(*args)
        if kind == "settle":
            return s.settle_extent(*args)
        if kind == "flush":
            return s.flush_coalesced(*args)
        return getattr(s, kind)(*args)  # drain / read

    def observe(self):
        s = self.scheduler
        extents = range(self.GEOMETRY.num_extents)
        return {
            "medium": self.disk.snapshot(),
            "soft": [s.soft_pointer(e) for e in extents],
            "ios": list(self.disk.ios),
            "tracker": self.tracker.snapshot(),
            "stats": s.stats,
            "disk_stats": self.disk.stats,
            "pending": (
                s.pending_count,
                [s.pending_count_for(e) for e in extents],
                s.pending_cost_units(),
            ),
            "ids": s.pending_record_ids(),
            "eligible": s.eligible_extents(),
            "rng": s.rng.getstate(),
            "recorder": self.recorder.snapshot(),
            "persistent": [dep.is_persistent() for dep in self.deps],
            "reads": [
                self.run(("read", e, 0, s.soft_pointer(e))) for e in extents
            ],
        }


def _history_step(rng, reference):
    """Draw one step from the reference side's state."""
    geometry = _Side.GEOMETRY
    extent = rng.randrange(geometry.num_extents)
    step = rng.choice(
        ["append"] * 8
        + ["pump", "pump-coalesced", "pump-pinned"] * 3
        + ["reset", "cell", "resolve", "fault", "pump-n", "drain", "flush"]
        + ["settle", "sync", "drop", "snapshot", "restore"]
    )
    recent = max(0, len(reference.deps) - 4)
    dep = rng.randrange(recent, len(reference.deps)) if rng.random() < 0.7 else 0
    if step == "append":
        size = rng.choice([1, 40, 127, 128, 129, 300, 700, 1100])
        return ("append", extent, rng.randbytes(size), dep, rng.choice(["", "a"]))
    if step == "reset":
        return ("reset", extent, dep)
    if step == "cell":
        return ("cell",)
    if step == "resolve":
        if not reference.cells:
            return ("cell",)
        return ("resolve", rng.randrange(len(reference.cells)), dep)
    if step in ("pump", "pump-coalesced", "pump-pinned"):
        pinned = extent if step == "pump-pinned" else None
        coalesce = step == "pump-coalesced" or (
            pinned is not None and rng.random() < 0.3
        )
        max_batch = rng.choice([None, None, 0, 1, 2, 3, 6]) if coalesce else None
        return ("pump", pinned, coalesce, max_batch)
    if step == "pump-n":
        return ("pump_n", rng.randrange(1, 6))
    if step == "fault":
        return ("fault", extent, rng.random() < 0.6, rng.choice([0, 0, 1]))
    if step == "drain":
        return ("drain",)
    if step == "flush":
        return ("flush", rng.choice([None, 1, 2, 5]))
    if step == "settle":
        return ("settle", extent)
    if step == "sync":
        if reference.scheduler.pending_count_for(extent):
            return ("settle", extent)  # recovery adopts pointers on quiet extents
        return ("sync", extent, rng.randrange(geometry.extent_size + 1))
    if step == "restore" and reference.saved is None:
        return ("snapshot",)
    return (step,)


class TestAppendQueueAgainstPageQueue:
    """Seeded histories through both schedulers: everything observable --
    the medium, pointers, the device IOs, the tracker, scheduler and disk
    stats, pending counts and ids, eligibility, the RNG, the recorder's
    counters (the watched stats summed) and events, stuck-drain texts --
    must be the same after every step."""

    @pytest.mark.parametrize("seed", range(48))
    def test_random_histories_match_the_page_queue(self, seed):
        rng = random.Random(seed)
        reference = _Side(_PerPageScheduler, seed)
        spans = _Side(IoScheduler, seed)
        for index in range(200):
            op = _history_step(rng, reference)
            assert spans.run(op) == reference.run(op), (index, op[0])
            assert spans.observe() == reference.observe(), (index, op[0])

    def test_queue_holds_appends_but_pumps_pages(self):
        side = _Side(IoScheduler, 0)
        scheduler = side.scheduler
        _, dep = scheduler.append(2, b"x" * 1100, side.deps[0])  # 9 pages
        assert len(scheduler._queues[2]) == 1 and scheduler.pending_count == 9
        assert scheduler.pump_one(coalesce=True)  # a 4-page window
        assert side.disk.ios[-1][:4] == ("write", 2, 0, 512)
        assert len(scheduler._queues[2]) == 1 and scheduler.pending_count == 5
        assert scheduler.pump_one()
        assert side.disk.ios[-1][:4] == ("write", 2, 512, 128)
        scheduler.drain()
        assert dep.is_persistent() and len(side.disk.ios) == 6


# ----------------------------------------------------------------------
# a blocked queue head is asked again only once what blocked it changed;
# the full poll it replaced (every head's dependency flattened and asked
# on every call) survives here as the reference


def _flat_persistent(dep):
    if dep.unresolved_futures():
        return False
    return dep.tracker.all_durable(dep.record_ids())


class _FullPollScheduler(IoScheduler):
    def eligible_extents(self):
        return sorted(
            extent
            for extent, queue in self._queues.items()
            if queue and _flat_persistent(queue[0].dep)
        )


def _poll_history_step(rng, reference):
    """``_history_step`` with more future cells, late resolutions and
    snapshot/restore pairs, so that heads wait on cells and on records a
    restore made pending again; and with second resolutions of resolved
    cells and lost records, the two other ways a met dependency can stop
    being met."""
    roll = rng.random()
    recent = max(0, len(reference.deps) - 6)
    if roll < 0.08:
        return ("cell",)
    if roll < 0.18 and reference.cells:
        return (
            "resolve",
            rng.randrange(len(reference.cells)),
            rng.randrange(recent, len(reference.deps)),
        )
    if roll < 0.22:
        return ("restore",) if reference.saved is not None else ("snapshot",)
    resolved = [
        i for i, cell in enumerate(reference.cells) if cell.resolved is not None
    ]
    if roll < 0.26 and resolved:
        return (
            "resolve",
            rng.choice(resolved),
            rng.randrange(recent, len(reference.deps)),
        )
    if roll < 0.28:
        return ("lose", rng.randrange(recent, len(reference.deps)))
    return _history_step(rng, reference)


class TestEligibilityAgainstFullPoll:
    """Seeded histories through the memoising scheduler and the full poll:
    everything ``TestAppendQueueAgainstPageQueue`` observes (eligibility,
    device IOs, the RNG, the medium, the tracker) must be the same after
    every step, every blocker memo still standing must name a dependency
    the full poll finds unmet, and every met memo still standing (stamped
    with the tracker's current epoch) one it finds met."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_histories_match_the_full_poll(self, seed):
        rng = random.Random(seed)
        reference = _Side(_FullPollScheduler, seed)
        memo = _Side(IoScheduler, seed)
        held = met = 0
        for index in range(200):
            op = _poll_history_step(rng, reference)
            assert memo.run(op) == reference.run(op), (index, op[0])
            assert memo.observe() == reference.observe(), (index, op[0])
            epoch = memo.tracker.epoch
            for queue in memo.scheduler._queues.values():
                for record in queue:
                    if record.blocker is not None and record.dep.held_by(
                        record.blocker
                    ):
                        assert not _flat_persistent(record.dep), (index, op[0])
                        held += record is queue[0]
                    if record.met == epoch:
                        assert _flat_persistent(record.dep), (index, op[0])
                        met += record is queue[0]
        assert held, "no head was ever held back by its memo"
        assert met, "no head was ever found met by its memo"

    def test_a_restore_that_rewinds_durability_blocks_the_head_again(self):
        side = _Side(IoScheduler, 0)
        s, tracker = side.scheduler, side.tracker
        _, data = s.append(1, b"d" * 10, side.deps[0])
        s.append(2, b"r" * 10, data)
        side.run(("snapshot",))
        s.pump_one(1)
        assert s.eligible_extents() == [2]
        side.run(("restore",))
        # The head on extent 2 was found eligible, so it kept no memo; the
        # restore made its data pending again, and it is asked afresh.
        assert s.eligible_extents() == [1]
        head = s._queues[2][0]
        assert head.blocker in data.record_ids() and not tracker.is_durable(
            head.blocker
        )

    def test_a_cell_blocker_is_dropped_when_the_cell_resolves(self):
        side = _Side(IoScheduler, 0)
        s = side.scheduler
        cell = FutureCell("late")
        s.append(3, b"x" * 10, Dependency.on_future(side.tracker, cell))
        assert s.eligible_extents() == [] and s._queues[3][0].blocker is cell
        _, other = s.append(4, b"y" * 10, side.deps[0])
        cell.resolve(other)
        assert s.eligible_extents() == [4]
        assert s._queues[3][0].blocker in other.record_ids()
        s.pump_one(4)
        assert s.eligible_extents() == [3] and s._queues[3][0].blocker is None
