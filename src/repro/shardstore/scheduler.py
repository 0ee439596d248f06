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

The page is the unit of persistence; the append is the unit of queueing.
An append gets one IO record id per page segment (split at the medium's
page boundaries), durability is tracked per id, and writeback issues at
most one page per device IO unless coalescing -- so a crash can persist any
*prefix of pages* of a logical append (a torn append -- the enabling
mechanism of the paper's bug #10).  The queue, though, holds one entry per
append, cut only where a writeback IO ends inside it.  Records for one
extent are written back strictly in FIFO order (extent writes are
sequential); across extents the writeback order is any order consistent
with dependencies, chosen by a seeded RNG so tests are deterministic and
the crash-consistency checker can explore different orders by varying the
seed.

Group commit: the production drain paths (:meth:`flush_coalesced`, or
``pump_one(coalesce=True)``) merge runs of contiguous eligible page segments
on one extent into a single device IO, bounded by a tunable batch window of
``batch_pages`` pages.  The ids, the per-page durability and therefore the
crash-state space the checker explores (torn appends included) are the
same whether or not the production path batches.  Coalescing only
collapses bookkeeping and device IOs at writeback time, which is exactly
the paper's Fig. 2 optimisation.

Crash semantics: pending records that were never pumped are simply dropped
(:meth:`drop_pending`); whatever subset writeback already applied *is* the
crash state.  The checker in :mod:`repro.core.crash_checker` drives this by
pumping a chosen number of records before crashing, or -- in block-level
mode -- by enumerating every reachable pump prefix via
:meth:`snapshot`/:meth:`restore`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .dependency import Dependency, DurabilityTracker, RecordInfo
from .disk import InMemoryDisk
from .errors import ExtentError, IoError
from .observability import NULL_RECORDER, Recorder

Buffer = Union[bytes, bytearray, memoryview]

#: Default batch window: max page segments merged into one device IO by the
#: coalescing drain paths (:attr:`IoScheduler.batch_pages`).
DEFAULT_BATCH_PAGES = 64


class _PendingRecord:
    """One queued append (or reset) awaiting writeback.

    Covers ``pages`` page segments holding the consecutive record ids
    ``first_id ..``; segment boundaries are the medium's page boundaries.
    Never modified once queued (snapshots share records): writeback that
    ends inside one, or a torn write trimming it, builds new ones
    with :meth:`part`.
    """

    __slots__ = (
        "first_id", "pages", "extent", "offset", "data", "dep", "kind", "label"
    )

    def __init__(
        self,
        first_id: int,
        pages: int,
        extent: int,
        offset: int,  # meaningless for resets
        data: Buffer,  # empty for resets; may be a memoryview (zero-copy)
        dep: Dependency,
        kind: str,  # "write" or "reset"
        label: str,
    ) -> None:
        self.first_id = first_id
        self.pages = pages
        self.extent = extent
        self.offset = offset
        self.data = data
        self.dep = dep
        self.kind = kind
        self.label = label

    def ids(self) -> range:
        return range(self.first_id, self.first_id + self.pages)

    def part(self, start: int, end: int, page: int) -> "_PendingRecord":
        """The segments covering bytes ``[start, end)`` of this append, the
        first one trimmed to begin at ``start``."""
        skipped = start // page - self.offset // page
        return _PendingRecord(
            self.first_id + skipped,
            (end - 1) // page - start // page + 1,
            self.extent,
            start,
            memoryview(self.data)[start - self.offset : end - self.offset],
            self.dep,
            self.kind,
            self.label,
        )


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
        may be any buffer (bytes, bytearray, memoryview); it is queued as
        one record with one id per page segment, and sliced (zero-copy) only
        where a writeback IO ends inside it.
        """
        length = len(data)
        if not length:
            raise ExtentError("empty append")
        offset = self._soft_pointer[extent]
        end = offset + length
        if end > self.disk.geometry.extent_size:
            raise ExtentError(
                f"append of {length} bytes overruns extent {extent} "
                f"(soft pointer {offset})"
            )
        page = self.disk.geometry.page_size
        count = (end - 1) // page - offset // page + 1
        record_ids = self.tracker.allocate_range(count)
        queue = self._queues.get(extent)
        if queue is None:
            queue = self._queues[extent] = []
        queue.append(
            _PendingRecord(
                record_ids.start, count, extent, offset, data, dep, "write", label
            )
        )
        record_info = self.tracker.record_info  # None unless capturing
        if record_info is not None:
            start = offset
            for record_id in record_ids:
                seg_end = min(end, (start // page + 1) * page)
                record_info[record_id] = RecordInfo(
                    record_id,
                    label or f"append@{extent}",
                    extent,
                    start,
                    seg_end - start,
                    dep,
                )
                start = seg_end
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
        self._soft_pointer[extent] = end
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
        record = _PendingRecord(record_id, 1, extent, 0, b"", dep, "reset", label)
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
        return [i for q in self._queues.values() for r in q for i in r.ids()]

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
        """Write back one eligible page segment (or reset); returns False if
        none is eligible.

        ``extent`` pins the choice (used by the block-level enumerator);
        otherwise the seeded RNG picks among eligible extents.

        With ``coalesce=True``, contiguous eligible page segments on the
        chosen extent are merged into one device IO (the paper's Fig. 2:
        "their writebacks can be coalesced into one IO by the scheduler"),
        up to ``max_batch`` pages (default: the scheduler's ``batch_pages``
        window).  Crash-state exploration keeps this off -- coalescing makes
        the merged pages atomic, coarsening the reachable crash states --
        while the production drain path uses it.
        """
        eligible = self.eligible_extents()
        if not eligible:
            return False
        if extent is None:
            extent = self.rng.choice(eligible)
        elif extent not in eligible:
            raise ExtentError(f"extent {extent} has no eligible record")
        queue = self._queues[extent]
        if queue[0].kind == "reset":
            record = queue.pop(0)
            self._pending_resets[extent] -= 1
            self._dequeued(extent, queue, 1)
            try:
                self.disk.reset(extent)
            except IoError:
                self._requeue_failed(extent, [record])
                raise
            self.stats.resets_applied += 1
            if self.recorder.enabled:
                self.recorder.count("scheduler.resets_applied")
            self._written(extent, record.ids())
            return True
        window = 1
        if coalesce:
            window = max(1, self.batch_pages if max_batch is None else max_batch)
        # Whole appends while they fit the window; the one the window ends
        # inside is split at that page boundary.
        page = self.disk.geometry.page_size
        offset = end = queue[0].offset
        taken = pages = 0
        split = None
        for record in queue:
            if taken and (
                record.kind != "write"
                or record.offset != end
                or not record.dep.is_persistent()
            ):
                break
            if record.pages > window - pages:
                split = record
                break
            taken += 1
            pages += record.pages
            end = record.offset + len(record.data)
            if pages == window:
                break
        batch = queue[:taken]
        parts = [r.data for r in batch]
        ids = [r.ids() for r in batch]
        if split is not None:
            cut = (split.offset // page + window - pages) * page
            queue[taken] = split.part(cut, split.offset + len(split.data), page)
            parts.append(memoryview(split.data)[: cut - split.offset])
            ids.append(range(split.first_id, split.first_id + window - pages))
            pages = window
        del queue[:taken]
        self._dequeued(extent, queue, pages)
        try:
            self.disk.write(
                extent, offset, parts[0] if len(parts) == 1 else b"".join(parts)
            )
        except IoError:
            if split is not None:
                batch.append(split.part(split.offset, cut, page))
            self._requeue_failed(extent, batch)
            raise
        self.stats.records_written += pages
        if self.recorder.enabled:
            self.recorder.count("scheduler.records_written", pages)
        self._written(extent, itertools.chain.from_iterable(ids))
        return True

    def _dequeued(self, extent: int, queue: List[_PendingRecord], pages: int) -> None:
        self._pending_total -= pages
        self._pending_per_extent[extent] -= pages
        if not queue:
            del self._queues[extent]

    def _written(self, extent: int, record_ids: Iterable[int]) -> None:
        """An IO succeeded: its records are durable, and with nothing left
        pending on ``extent`` every byte below its soft pointer is durable
        and the tail goes.  (Not at dequeue: a failed IO requeues.)"""
        self.tracker.mark_durable_many(record_ids)
        if not self._pending_per_extent[extent]:
            del self._shadow[extent]
        self.stats.ios_issued += 1
        if self.recorder.enabled:
            self.recorder.count("scheduler.ios_issued")
            self.recorder.gauge("scheduler.queue_depth", self._pending_total)

    def _requeue_failed(self, extent: int, records: List[_PendingRecord]) -> None:
        """Put back records whose writeback failed, trimming any torn prefix.

        A failed IO must not lose the logical append: the records return to
        the head of their extent queue so a later pump (after the transient
        fault clears, or after a node-level retry) can complete them.  A torn
        write may have durably landed a prefix: page segments it fully
        absorbed are marked durable after all, and the survivor is a new
        record starting at the new hard pointer, on the same page grid.
        """
        hard = self.disk.write_pointer(extent)
        page = self.disk.geometry.page_size
        survivors: List[_PendingRecord] = []
        for record in records:
            if record.kind == "write" and record.offset < hard:
                end = record.offset + len(record.data)
                absorbed = record.pages
                if end > hard:
                    absorbed = hard // page - record.offset // page
                for record_id in record.ids()[:absorbed]:
                    self.tracker.mark_durable(record_id)
                self.stats.records_written += absorbed
                if end <= hard:
                    continue
                record = record.part(hard, end, page)
                captured = self.tracker.record_info
                info = captured.get(record.first_id) if captured else None
                if info is not None:
                    info.offset = hard
                    info.length = min(end, (hard // page + 1) * page) - hard
            survivors.append(record)
        count = sum(r.pages for r in survivors)
        if survivors:
            self._queues.setdefault(extent, [])[:0] = survivors
            self._pending_total += count
            self._pending_per_extent[extent] = (
                self._pending_per_extent.get(extent, 0) + count
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
                "scheduler.writeback_requeued", extent=extent, records=count
            )

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
            (r.label or r.kind, r.extent)
            for q in self._queues.values()
            for r in q
            for _ in r.ids()
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
            pages = sum(r.pages for r in queue)
            self._pending_per_extent[extent] = pages
            self._pending_total += pages
            resets = sum(1 for r in queue if r.kind == "reset")
            if resets:
                self._pending_resets[extent] = resets
