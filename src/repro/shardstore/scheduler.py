"""The IO scheduler: soft-updates writeback honouring dependency order.

ShardStore's only path to disk is ``append`` (section 2.2).  Components hand
appends to this scheduler together with an input :class:`Dependency`; the
scheduler's contract is that **an append is not issued to the durable medium
until its input dependency has persisted**.  Between the component and the
medium, every extent therefore has two write pointers:

* the *soft* write pointer -- where the next append will land, tracked here
  in memory and advanced immediately;
* the *hard* write pointer -- how far the durable medium has actually been
  written, advanced only by writeback.

Appends are split into page-sized IO records, so a crash can persist any
*prefix of pages* of a logical append (a torn append -- the enabling
mechanism of the paper's bug #10).  Records for one extent are written back
strictly in FIFO order (extent writes are sequential); across extents the
writeback order is any order consistent with dependencies, chosen by a
seeded RNG so tests are deterministic and the crash-consistency checker can
explore different orders by varying the seed.

Group commit: the production drain paths (:meth:`flush_coalesced`, or
``pump_one(coalesce=True)``) merge runs of contiguous eligible records on
one extent into a single device IO, bounded by a tunable batch window
(``batch_pages``).  Crucially the *enqueue* granularity never changes --
records are always page-sized, so the crash-state space the checker
explores (torn appends included) is identical whether or not the
production path batches.  Coalescing only collapses bookkeeping and device
IOs at writeback time, which is exactly the paper's Fig. 2 optimisation.

Crash semantics: pending records that were never pumped are simply dropped
(:meth:`drop_pending`); whatever subset writeback already applied *is* the
crash state.  The checker in :mod:`repro.core.crash_checker` drives this by
pumping a chosen number of records before crashing, or -- in block-level
mode -- by enumerating every reachable pump prefix via
:meth:`snapshot`/:meth:`restore`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .dependency import Dependency, DurabilityTracker, RecordInfo
from .disk import InMemoryDisk
from .errors import ExtentError, IoError
from .observability import NULL_RECORDER, Recorder

Buffer = Union[bytes, bytearray, memoryview]

#: Default batch window: max page records merged into one device IO by the
#: coalescing drain paths (:attr:`IoScheduler.batch_pages`).
DEFAULT_BATCH_PAGES = 64


class _PendingRecord:
    """One page-granular IO awaiting writeback."""

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


@dataclass
class SchedulerStats:
    records_enqueued: int = 0
    records_written: int = 0
    resets_applied: int = 0
    ios_issued: int = 0  # contiguous same-extent runs merged at drain time
    writeback_requeues: int = 0  # failed writebacks put back for retry


class IoScheduler:
    """Orders writebacks to an :class:`InMemoryDisk` per dependency contract."""

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
        # Per-extent FIFO queues of pending records.
        self._queues: Dict[int, List[_PendingRecord]] = {}
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
        """Queue an append; returns (offset, dependency for this append).

        The returned dependency covers every page of the append; it becomes
        persistent only once all pages are durable on the medium.  ``data``
        may be any buffer (bytes, bytearray, memoryview); multi-page appends
        are segmented with memoryview slices, so no payload bytes are copied
        between here and the device write.
        """
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
                _PendingRecord(record_id, extent, offset, data, dep, "write", label)
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
                    _PendingRecord(
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
        if self.recorder.enabled:
            self.recorder.count("scheduler.records_enqueued", count)
            self.recorder.gauge("scheduler.queue_depth", self._pending_total)
        return offset, Dependency.on_records(self.tracker, record_ids)

    def reset(self, extent: int, dep: Dependency, label: str = "") -> Dependency:
        """Queue an extent reset ordered after ``dep`` persists.

        The soft pointer drops to zero immediately (new appends reuse the
        extent); the durable medium is reset only at writeback time, after
        the input dependency -- typically "all live chunks evacuated and
        re-indexed" -- has persisted.
        """
        record_id = self.tracker.allocate()
        record = _PendingRecord(record_id, extent, 0, b"", dep, "reset", label)
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
            self.recorder.count("scheduler.records_enqueued")
            self.recorder.gauge("scheduler.queue_depth", self._pending_total)
            self.recorder.event("scheduler.reset_queued", extent=extent)
        return Dependency.on_records(self.tracker, [record_id])

    def read(self, extent: int, offset: int, length: int) -> bytes:
        """Read below the soft pointer, overlaying pending data on durable.

        Durable bytes ``[offset, hard)`` are read through the disk (so
        injected read faults fire); pending bytes ``[hard, soft)`` are served
        from the in-memory tail, as they would be from a real write-back
        cache.
        """
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
        """Estimated op-clock units to write back everything pending.

        Each pending record costs one device IO at the disk's current
        ``latency_units``.  The request plane folds this into its admission
        backlog estimate so queued writebacks on a slow disk count against
        new requests' deadlines.
        """
        return self._pending_total * self.disk.latency_units

    def pending_record_ids(self) -> List[int]:
        return [r.record_id for q in self._queues.values() for r in q]

    def eligible_extents(self) -> List[int]:
        """Extents whose head-of-queue record may be issued right now."""
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
        """Write back one eligible record; returns False if none eligible.

        ``extent`` pins the choice (used by the block-level enumerator);
        otherwise the seeded RNG picks among eligible extents.

        With ``coalesce=True``, contiguous eligible write records on the
        chosen extent are merged into one device IO (the paper's Fig. 2:
        "their writebacks can be coalesced into one IO by the scheduler"),
        up to ``max_batch`` records (default: the scheduler's
        ``batch_pages`` window).  Crash-state exploration keeps this off --
        coalescing makes the merged pages atomic, coarsening the reachable
        crash states -- while the production drain path uses it.
        """
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
                and queue[0].dep.is_persistent()
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
                if self.recorder.enabled:
                    self.recorder.count("scheduler.records_written", len(batch))
                    self.recorder.count("scheduler.ios_issued")
                    self.recorder.gauge(
                        "scheduler.queue_depth", self._pending_total
                    )
                return True
            self._apply_or_requeue(extent, batch[0])
            return True
        if not queue:
            del self._queues[extent]
        self._apply_or_requeue(extent, record)
        return True

    def _note_removed(self, record: _PendingRecord) -> None:
        self._pending_total -= 1
        extent = record.extent
        self._pending_per_extent[extent] -= 1
        if record.kind == "reset":
            self._pending_resets[extent] -= 1

    def _note_written(self, extent: int) -> None:
        """A writeback succeeded: with nothing left pending on ``extent``
        every byte below its soft pointer is durable and the tail goes.
        (Not in :meth:`_note_removed`: a failed IO requeues its records.)"""
        if not self._pending_per_extent[extent]:
            del self._shadow[extent]

    def _apply_or_requeue(self, extent: int, record: _PendingRecord) -> None:
        try:
            self._apply(record)
        except IoError:
            self._requeue_failed(extent, [record])
            raise

    def _requeue_failed(self, extent: int, records: List[_PendingRecord]) -> None:
        """Put back records whose writeback failed, trimming any torn prefix.

        A failed IO must not lose the logical append: the record returns to
        the head of its extent queue so a later pump (after the transient
        fault clears, or after a node-level retry) can complete it.  A torn
        write may have durably landed a prefix; the surviving portion of each
        record is trimmed to start at the new hard pointer, and records the
        tear fully absorbed are marked durable after all.
        """
        hard = self.disk.write_pointer(extent)
        survivors: List[_PendingRecord] = []
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
                    record.data = record.data[hard - record.offset :]
                    record.offset = hard
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
            self.recorder.count("scheduler.writeback_requeues")
            self.recorder.event(
                "scheduler.writeback_requeued", extent=extent, records=len(survivors)
            )

    def _apply(self, record: _PendingRecord) -> None:
        if record.kind == "reset":
            self.disk.reset(record.extent)
            self.stats.resets_applied += 1
            if self.recorder.enabled:
                self.recorder.count("scheduler.resets_applied")
        else:
            self.disk.write(record.extent, record.offset, record.data)
            self.stats.records_written += 1
            if self.recorder.enabled:
                self.recorder.count("scheduler.records_written")
        self.stats.ios_issued += 1
        self.tracker.mark_durable(record.record_id)
        self._note_written(record.extent)
        if self.recorder.enabled:
            self.recorder.count("scheduler.ios_issued")
            self.recorder.gauge("scheduler.queue_depth", self._pending_total)

    def pump(self, n: int) -> int:
        """Write back up to ``n`` eligible records; returns how many."""
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
        """Write back everything pending.

        Raises :class:`IoError` if pending records remain but none are
        eligible -- a dependency that can never be satisfied, i.e. a
        forward-progress violation (section 5).
        """
        while self._pending_total:
            if not self.pump_one():
                self._raise_stuck()
            # Keep pumping.

    def flush_coalesced(self, batch_pages: Optional[int] = None) -> None:
        """Drain everything pending with group-commit batching.

        The production flush path: identical final disk state to
        :meth:`drain` (same records, same FIFO order per extent), but runs
        of contiguous eligible records are issued as single device IOs,
        bounded by the ``batch_pages`` window (default: the scheduler's
        ``batch_pages``).  Raises :class:`IoError` when stuck, exactly like
        :meth:`drain`.
        """
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
        """Write back until ``extent`` has no pending records.

        Used by the allocator before reusing a freed extent: claiming an
        extent whose reset is still pending would queue new appends behind
        it, and cross-extent evacuation dependencies could then form a
        writeback cycle.  Pumps any eligible record (progress elsewhere can
        unblock this extent); returns False if writeback gets stuck.
        """
        while self._pending_per_extent.get(extent, 0):
            if not self.pump_one():
                return False
        return True

    def drop_pending(self) -> int:
        """Crash: discard all pending records; returns how many were lost.

        Soft state is resynchronised to the durable medium.  The caller
        (recovery) then overrides pointers from the superblock.
        """
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
        """Recovery adopts a superblock-recovered soft pointer."""
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
