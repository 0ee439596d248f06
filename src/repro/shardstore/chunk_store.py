"""The chunk store: PUT(data) -> locator, GET(locator) -> data.

Arranges the mapping of chunks onto extents (section 2.1).  Shard payloads
larger than the configured chunk size span several chunks; the LSM tree's
runs are stored through the same interface (``KIND_RUN``), which is why
chunk reclamation can garbage-collect both kinds with one mechanism.

Allocation policy: one *open* extent receives all appends; when it cannot
fit the next frame, a free extent is claimed from the superblock's
ownership map.  Reclamation (in :mod:`repro.shardstore.reclamation`) gives
extents back.  Extents can be *pinned* to keep reclamation away while a
writer (LSM compaction) has written chunks that are not yet referenced by
metadata -- the fix for the paper's issue #14.

Fault #11 lives in :meth:`ChunkStore.put_chunk`: the buggy path samples the
write offset for the returned locator *before* performing the append, so a
concurrent writer racing in between leaves the locator pointing at the
wrong bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.concurrency.primitives import Mutex, yield_point

from .buffer_cache import BufferCache
from .chunk import (
    CHUNK_MAGIC,
    KIND_DATA,
    KIND_RUN,
    DecodedChunk,
    Locator,
    decode_chunk,
    encode_chunk,
)
from .config import StoreConfig
from .dependency import Dependency
from .errors import CorruptionError, ExtentError
from .faults import Fault
from .observability import exported_as
from .superblock import OWNER_DATA, OWNER_FREE, Superblock

#: A chunk append's record label, a format of its extent
#: (``IoScheduler.append``): ``chunk@4``, formatted only when read.
_CHUNK_LABEL = "chunk@{}"


@dataclass
class ChunkStats:
    """Frames appended and decoded, exported as ``chunks.<field>``; the run
    chunks read back are the LSM's ``lsm.run_reads``."""

    put: int = 0
    get: int = 0
    run_writes: int = 0
    run_reads: int = exported_as("lsm.run_reads")


class ChunkStore:
    """Chunk placement, framing, and retrieval over the buffer cache."""

    def __init__(
        self,
        cache: BufferCache,
        superblock: Superblock,
        config: StoreConfig,
        rng: random.Random,
    ) -> None:
        self.cache = cache
        self.superblock = superblock
        self.config = config
        self.faults = config.faults
        self.recorder = config.recorder
        self.stats = ChunkStats()
        if self.recorder.enabled:
            self.recorder.watch("chunks", self.stats)
        self.rng = rng
        self._open_extent: Optional[int] = None
        self._pinned: Set[int] = set()
        self._alloc_lock = Mutex(None, name="chunk-allocator")
        #: Called (once) when allocation finds no free extent; wired by the
        #: store to run garbage collection under space pressure.  Returns
        #: True if it freed anything.
        self.on_out_of_space = None
        self._in_space_recovery = False
        #: Depth of in-progress reclamation passes; their writes (and the
        #: index/superblock flushes they trigger) get headroom priority.
        self._reclaim_depth = 0
        # Rediscover the open extent from recovered ownership: reuse the
        # owned extent with the most free space, if any.
        owned = [
            e
            for e, owner in superblock.ownership().items()
            if owner == OWNER_DATA
        ]
        if owned:
            self._open_extent = max(
                owned, key=lambda e: (cache.scheduler.free_bytes(e), -e)
            )

    # ------------------------------------------------------------------
    # allocation

    @property
    def open_extent(self) -> Optional[int]:
        return self._open_extent

    def unpin_extent(self, extent: int) -> None:
        self._pinned.discard(extent)

    def is_pinned(self, extent: int) -> bool:
        return extent in self._pinned

    def owned_extents(self) -> List[int]:
        return sorted(
            e
            for e, owner in self.superblock.ownership().items()
            if owner == OWNER_DATA
        )

    def release_extent(self, extent: int) -> None:
        """Reclamation finished with ``extent``; return it to the free pool."""
        self.superblock.note_ownership(extent, OWNER_FREE)
        if self._open_extent == extent:
            self._open_extent = None

    def _extent_for(self, frame_len: int, *, priority: bool = False) -> int:
        """The extent the next frame goes to, claiming a free one if needed.

        Normal allocation keeps free extents in reserve as headroom:
        reclamation must always have somewhere to evacuate live chunks to,
        and LSM flushes must always be able to persist the index, or a
        fragmented disk can never recover space or shut down cleanly.
        Priority writes may dip into the reserve.
        """
        extent_size = self.config.geometry.extent_size
        if frame_len > extent_size:
            raise ExtentError("chunk frame larger than an extent")
        open_extent = self._open_extent
        if (
            open_extent is not None
            and self.cache.scheduler.soft_pointers[open_extent] + frame_len
            <= extent_size
        ):
            return open_extent
        free = [
            e
            for e in self.config.data_extents
            if self.superblock.owner_of(e) == OWNER_FREE
        ]
        privileged = priority or self._reclaim_depth > 0 or self._in_space_recovery
        if not privileged and len(free) <= 2:
            # Keep two extents in reserve: one so reclamation always has an
            # evacuation target, one so LSM flushes (run + metadata writes,
            # required for clean shutdown) can always complete.
            raise ExtentError("out of space: free-extent reserve reached")
        claimed = self._claim_free_extent()
        if claimed is None:
            raise ExtentError("out of space: no free extent for chunk")
        return claimed

    def _run_space_recovery(self) -> bool:
        """GC under allocation pressure.  Called with NO locks held:
        reclamation re-enters the allocator (evacuation writes, ownership
        changes), so invoking it under the allocator lock would deadlock."""
        if self.on_out_of_space is None or self._in_space_recovery:
            return False
        self._in_space_recovery = True
        try:
            return bool(self.on_out_of_space())
        finally:
            self._in_space_recovery = False

    def _claim_free_extent(self) -> Optional[int]:
        for extent in self.config.data_extents:
            if self.superblock.owner_of(extent) != OWNER_FREE:
                continue
            # Never reuse an extent whose reset (or other IO) is still
            # pending: new appends would queue behind the reset, and
            # cross-extent evacuation dependencies could deadlock
            # writeback.  Settling forces the reset to the medium first.
            if not self.cache.scheduler.settle_extent(extent):
                continue
            self.superblock.note_ownership(extent, OWNER_DATA)
            self._open_extent = extent
            return extent
        return None

    # ------------------------------------------------------------------
    # chunk IO

    def _fresh_uuid(self) -> bytes:
        """A random frame UUID.

        With ``uuid_magic_bias`` set, the tail two bytes sometimes equal the
        chunk magic -- the argument bias (section 4.2) that makes the
        paper's bug #10 UUID/magic collision reachable in test budgets.
        """
        bias = self.config.uuid_magic_bias
        if not bias:
            # Hot path: one RNG call for all 16 bytes.  The biased path below
            # keeps the original per-byte draw sequence so seeded fault
            # campaigns (which all set a bias) see an unchanged RNG stream.
            return self.rng.getrandbits(128).to_bytes(16, "little")
        uuid = bytes(self.rng.getrandbits(8) for _ in range(16))
        if self.rng.random() < bias:
            uuid = uuid[:14] + CHUNK_MAGIC
        return uuid

    def put_chunk(
        self,
        kind: int,
        key: bytes,
        payload: "bytes | bytearray | memoryview",
        dep: Optional[Dependency] = None,
        *,
        pin: bool = False,
        priority: bool = False,
    ) -> Tuple[Locator, Dependency]:
        """Frame and append one chunk; returns its locator and dependency.

        With ``pin=True`` the extent that received the chunk is left pinned
        (reclamation will skip it) -- the caller unpins once the chunk is
        referenced by metadata.  The pin is taken under the allocator lock,
        before the append, so reclamation can never observe the chunk on an
        unpinned extent.  ``priority`` marks writes that keep the store healthy --
        reclamation evacuations and LSM run/metadata structure -- which
        may dip into the free-extent reserve.
        """
        dep = dep or self.cache.scheduler.tracker.empty
        frame = encode_chunk(kind, key, payload, self._fresh_uuid())
        for attempt in (0, 1):
            try:
                return self._append_frame(
                    kind, frame, dep, pin=pin, priority=priority
                )
            except ExtentError:
                # Out of space: garbage-collect (outside any lock) once.
                if attempt == 1 or not self._run_space_recovery():
                    raise
        raise AssertionError("unreachable")

    def _append_frame(
        self, kind: int, frame: bytes, dep: Dependency, *, pin: bool, priority: bool
    ) -> Tuple[Locator, Dependency]:
        self.stats.put += 1
        if kind == KIND_RUN:
            self.stats.run_writes += 1
        if self.faults.enabled(Fault.LOCATOR_RACE_WRITE_FLUSH):
            # Fault #11: sample the offset for the locator before appending.
            # A concurrent writer can append in between, leaving the locator
            # pointing at the other writer's bytes.
            extent = self._extent_for(len(frame), priority=priority)
            predicted = self.cache.scheduler.soft_pointer(extent)
            self.recorder.fault_event(
                Fault.LOCATOR_RACE_WRITE_FLUSH,
                f"locator offset {predicted} sampled before the append "
                f"to extent {extent}",
            )
            yield_point("locator sampled before append")
            offset, write_dep = self.cache.append(extent, frame, dep, _CHUNK_LABEL)
            if pin:
                self._pinned.add(extent)
            return Locator(extent, predicted, len(frame)), write_dep
        with self._alloc_lock:
            extent = self._extent_for(len(frame), priority=priority)
            if pin:
                self._pinned.add(extent)
            offset, write_dep = self.cache.append(extent, frame, dep, _CHUNK_LABEL)
        return Locator(extent, offset, len(frame)), write_dep

    # ------------------------------------------------------------------
    # reclamation coordination

    def begin_reclaim(self, extent: int) -> bool:
        """Claim ``extent`` for reclamation; False if it must be skipped.

        An extent is reclaimable only if it holds chunk data, is not the
        open extent (writers are appending there), is not pinned (a writer
        has unreferenced chunks on it), and is not already being reclaimed.
        """
        with self._alloc_lock:
            if self.superblock.owner_of(extent) != OWNER_DATA:
                return False
            if extent == self._open_extent or extent in self._pinned:
                return False
            self._pinned.add(extent)  # blocks concurrent reclaimers and pins
            self._reclaim_depth += 1
            return True

    def end_reclaim(self, extent: int) -> None:
        self._pinned.discard(extent)
        self._reclaim_depth -= 1

    def rotate_open(self) -> Optional[int]:
        """Force allocation to move off the current open extent.

        Exposed for concurrency harnesses: the paper's issue #14 needs the
        open extent to stop being open between a compaction's chunk write
        and its metadata update.
        """
        with self._alloc_lock:
            previous = self._open_extent
            self._open_extent = None
            return previous

    def get_chunk(
        self, locator: Locator, *, expected_key: Optional[bytes] = None
    ) -> DecodedChunk:
        """Read and validate the chunk at ``locator``.

        Stale locators (reset extents, garbage regions) surface as
        :class:`CorruptionError`; a key mismatch means the locator points at
        someone else's chunk, also corruption.

        A frame is decoded once per bytes object the cache hands back: the
        decode is kept on the cache's memo of the read, which lives and dies
        with the page the frame starts on.
        """
        try:
            frame = self.cache.read(locator.extent, locator.offset, locator.length)
        except ExtentError as exc:
            raise CorruptionError(f"stale locator {locator}: {exc}") from exc
        memo = self.cache.memo(locator.extent, locator.offset, frame)
        if memo is None:
            chunk = decode_chunk(frame, 0)
        else:
            chunk = memo.decoded
            if chunk is None:
                chunk = memo.decoded = decode_chunk(frame, 0)
        if chunk.frame_length != locator.length:
            raise CorruptionError(f"frame length mismatch at {locator}")
        if expected_key is not None and chunk.key != expected_key:
            raise CorruptionError(f"key mismatch at {locator}")
        self.stats.get += 1
        if chunk.kind == KIND_RUN:
            self.stats.run_reads += 1
        return chunk

    # ------------------------------------------------------------------
    # shard-sized helpers

    def put_shard(
        self, key: bytes, value: bytes
    ) -> Tuple[List[Locator], Dependency]:
        """Split a shard across chunks; returns locators + combined dep."""
        step = self.config.max_chunk_payload
        if len(value) <= step:
            # Single-chunk fast path (no slicing, no dependency conjunction).
            locator, dep = self.put_chunk(KIND_DATA, key, value)
            return [locator], dep
        # Zero-copy: chunk payloads are memoryview slices of the shard value;
        # the bytes are only copied once, into the encoded frame.
        view = memoryview(value)
        pieces = [view[i : i + step] for i in range(0, len(value), step)]
        locators: List[Locator] = []
        deps: List[Dependency] = []
        for piece in pieces:
            locator, dep = self.put_chunk(KIND_DATA, key, piece)
            locators.append(locator)
            deps.append(dep)
        return locators, Dependency.all_(deps)

    def get_shard(self, key: bytes, locators: List[Locator]) -> bytes:
        if len(locators) == 1:
            return self.get_chunk(locators[0], expected_key=key).payload
        return b"".join(
            self.get_chunk(loc, expected_key=key).payload for loc in locators
        )
