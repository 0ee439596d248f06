"""Chunk reclamation: the garbage-collection background task.

Reclamation (section 2.1) selects an extent, scans it to find all chunks,
reverse-looks-up each chunk in the index -- the LSM tree for shard data,
the LSM metadata for run chunks -- evacuates live chunks to a new extent
(updating their pointers), drops unreferenced chunks, and finally resets
the extent's write pointer so the space can be reused.

The crash-consistent ordering the paper describes is expressed through
dependencies: the reset is queued with a dependency on every evacuation
write *and* every index/metadata update, so the destructive step cannot
reach the medium before the copies and their pointers are durable.  The
superblock is told about the reset (:meth:`Superblock.note_reset`) so the
extent's published pointer is held back until the reset itself is durable.

A pass costs what it reads once and what it moves: one cache read per page
below the soft pointer, one CRC and one index probe per frame found, one
frame encode per live chunk evacuated (DESIGN.md "Reclamation").

Three Fig. 5 issues live here:

* fault #1 -- an off-by-one truncates the payload of evacuated chunks whose
  frame ends exactly on a page boundary;
* fault #5 -- a transient read error mid-scan is treated as end-of-extent,
  forgetting (and then destroying) every chunk after it;
* fault #10 -- the strictly-sequential scan that an overlapping corrupt
  decode can fool (the paper's section 5 example), selected in
  :func:`repro.shardstore.chunk.scan_chunks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.concurrency.primitives import yield_point

from .buffer_cache import BufferCache
from .chunk import KIND_DATA, KIND_RUN, Locator, PagedReader, scan_chunks
from .chunk_store import ChunkStore
from .config import StoreConfig
from .dependency import Dependency
from .errors import ShardStoreError
from .faults import Fault
from .lsm import LsmIndex
from .superblock import Superblock


@dataclass
class ReclaimResult:
    """What one reclamation pass did (consumed by tests and benches)."""

    extent: int
    scanned_chunks: int = 0
    evacuated: int = 0
    dropped: int = 0
    keys_touched: Set[bytes] = field(default_factory=set)
    reset_done: bool = False


class Reclaimer:
    """Runs reclamation passes over data extents."""

    def __init__(
        self,
        chunk_store: ChunkStore,
        index: LsmIndex,
        cache: BufferCache,
        superblock: Superblock,
        config: StoreConfig,
    ) -> None:
        self.chunk_store = chunk_store
        self.index = index
        self.cache = cache
        self.superblock = superblock
        self.config = config
        self.faults = config.faults
        self.recorder = config.recorder
        #: Keys whose chunks were moved by the most recent pass -- consumed
        #: by the crash-aware reference model (and its fault #9).
        self.last_touched_keys: Set[bytes] = set()

    def reclaim(
        self, extent: int, *, max_evacuations: Optional[int] = None
    ) -> Optional[ReclaimResult]:
        """Reclaim one extent; returns None if the extent was skipped.

        A transient IO error aborts the pass with :class:`IoError` -- the
        extent is left untouched and can be retried (fault #5 instead
        swallows the error and destroys whatever the truncated scan missed).

        ``max_evacuations`` interrupts the pass after that many chunk
        copies -- a preempted background GC.  The pass then stops *before*
        the reset: copies made so far and their index updates stand (they
        are idempotent against a retry), the extent keeps its data, and
        ``reset_done`` is False.  This is how the crash alphabet reaches
        "crash during reclamation" states (the setting of the paper's
        issue #9).
        """
        if not self.chunk_store.begin_reclaim(extent):
            return None
        try:
            # Guarded: reclamation runs from the put path under allocation
            # pressure, so an unguarded span would tax the fast path.
            if not self.recorder.enabled:
                return self._reclaim_claimed(extent, max_evacuations)
            with self.recorder.span("reclaim", extent=extent):
                return self._reclaim_claimed(extent, max_evacuations)
        finally:
            self.chunk_store.end_reclaim(extent)

    def _reclaim_claimed(
        self, extent: int, max_evacuations: Optional[int] = None
    ) -> ReclaimResult:
        result = ReclaimResult(extent=extent)
        scheduler = self.cache.scheduler
        limit = scheduler.soft_pointer(extent)
        page = self.config.geometry.page_size
        on_read_error = (
            "truncate"
            if self.faults.enabled(Fault.RECLAIM_FORGETS_ON_READ_ERROR)
            else "raise"
        )
        if self.recorder.enabled:
            if on_read_error == "truncate":
                self.recorder.fault_event(
                    Fault.RECLAIM_FORGETS_ON_READ_ERROR,
                    "Chunk store",
                    f"scan of extent {extent} will treat a read error as "
                    "end-of-extent",
                )
            if self.faults.enabled(Fault.UUID_MAGIC_COLLISION_SCAN):
                self.recorder.fault_event(
                    Fault.UUID_MAGIC_COLLISION_SCAN,
                    "Chunk store",
                    f"sequential-only scan of extent {extent}",
                )
        reader = PagedReader(
            lambda off, length: self.cache.read(extent, off, length), limit, page
        )
        chunks = scan_chunks(
            reader,
            page,
            sequential_only=self.faults.enabled(Fault.UUID_MAGIC_COLLISION_SCAN),
            on_read_error=on_read_error,
        )
        result.scanned_chunks = len(chunks)
        deps: List[Dependency] = []
        touched: Set[bytes] = set()
        interrupted = False
        for offset, chunk in chunks:
            if max_evacuations is not None and result.evacuated >= max_evacuations:
                interrupted = True
                break
            locator = Locator(extent, offset, chunk.frame_length)
            yield_point(f"reclaim: considering chunk at {extent}:{offset}")
            if chunk.kind == KIND_DATA:
                dep = self._evacuate_data(locator, chunk, touched)
            else:
                dep = self._evacuate_run(locator, chunk)
            if dep is not None:
                deps.append(dep)
                result.evacuated += 1
            else:
                result.dropped += 1
        if interrupted:
            # Preempted mid-pass: no reset, no release.  The evacuation
            # copies and index updates already made stand on their own;
            # a retry re-scans and treats the moved chunks as dead.
            result.keys_touched = touched
            self.last_touched_keys = touched
            return result
        if self.faults.enabled(Fault.SOFT_HARD_POINTER_MISMATCH_ON_RESET):
            if self.recorder.enabled:
                self.recorder.fault_event(
                    Fault.SOFT_HARD_POINTER_MISMATCH_ON_RESET,
                    "Superblock",
                    f"reset of extent {extent} queued without persisting its "
                    "prerequisites",
                )
        else:
            # Persist the reclamation's prerequisites before queueing the
            # destructive reset.  This covers more than the evacuation
            # dependencies collected above: chunks dropped as *dead* are
            # only safely destroyable once the index/metadata state that
            # de-referenced them (a compaction's merged run, a tombstone's
            # run) is on the medium -- otherwise a crash recovers the older
            # metadata, which still points into this extent.  Flushing the
            # index and superblock and draining eligible writebacks makes
            # every prerequisite durable, so the reset is enqueued with an
            # already-persistent dependency and can never deadlock behind
            # unresolved pointer promises.  (Fault #7 is precisely this
            # wait being skipped: the soft pointer moves ahead of the
            # medium.)
            self.index.flush()
            self.superblock.flush()
            while scheduler.pump_one():
                pass
        base = (
            Dependency.all_(deps)
            if deps
            else Dependency.root(scheduler.tracker)
        )
        reset_dep = scheduler.reset(extent, base, label=f"reclaim-reset@{extent}")
        self.superblock.note_reset(extent, reset_dep)
        self.cache.invalidate_extent(extent)
        self.chunk_store.release_extent(extent)
        result.reset_done = True
        result.keys_touched = touched
        self.last_touched_keys = touched
        if self.recorder.enabled:
            self.recorder.count("reclaim.extents_reclaimed")
            self.recorder.count("reclaim.chunks_evacuated", result.evacuated)
            self.recorder.count("reclaim.chunks_dropped", result.dropped)
        return result

    def _evacuate_data(
        self, locator: Locator, chunk, touched: Set[bytes]
    ) -> Optional[Dependency]:
        """Copy a live shard-data chunk elsewhere; returns None if dead."""
        current = self.index.data_locators(chunk.key)
        if current is None or locator not in current:
            return None
        payload = chunk.payload
        if (
            self.faults.enabled(Fault.RECLAIM_OFF_BY_ONE)
            and payload
            and (locator.offset + locator.length) % self.config.geometry.page_size == 0
        ):
            # Fault #1: the boundary arithmetic drops the final byte of
            # chunks whose frame ends exactly on a page boundary.
            payload = payload[:-1]
            if self.recorder.enabled:
                self.recorder.fault_event(
                    Fault.RECLAIM_OFF_BY_ONE,
                    "Chunk store",
                    f"evacuation of {locator} dropped the final payload byte",
                )
        new_loc, write_dep = self.chunk_store.put_chunk(
            KIND_DATA, chunk.key, payload, priority=True
        )
        if self.recorder.enabled:
            self.recorder.count("reclaim.bytes_moved", len(payload))
        index_dep = self.index.replace_data_locator(
            chunk.key, locator, new_loc, write_dep
        )
        touched.add(chunk.key)
        if index_dep is None:
            # The entry changed under us (delete/overwrite); the copy is
            # garbage and the original is dead -- nothing to order on.
            return None
        return write_dep.and_(index_dep)

    def _evacuate_run(self, locator: Locator, chunk) -> Optional[Dependency]:
        """Copy a live LSM-run chunk elsewhere; returns None if dead."""
        if not self.index.is_run_live(locator):
            return None
        new_loc, write_dep = self.chunk_store.put_chunk(
            KIND_RUN, chunk.key, chunk.payload, priority=True
        )
        if self.recorder.enabled:
            self.recorder.count("reclaim.bytes_moved", len(chunk.payload))
        try:
            meta_dep = self.index.relocate_run(locator, new_loc, write_dep)
        except ShardStoreError:
            # The run was retired (concurrent compaction) between the
            # liveness check and the relocation; the copy is garbage.
            return None
        return write_dep.and_(meta_dep)

    # ------------------------------------------------------------------

    def reclaimable_extents(self) -> List[int]:
        """Extents a background pass could target right now."""
        return [
            extent
            for extent in self.chunk_store.owned_extents()
            if extent != self.chunk_store.open_extent
            and not self.chunk_store.is_pinned(extent)
        ]
