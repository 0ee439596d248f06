"""The superblock: persisted soft write pointers and extent ownership.

Every time ShardStore appends to an extent it must eventually update that
extent's *soft write pointer* in the superblock (section 2.1), because after
a crash the recovered pointer -- not the medium -- decides how much of the
extent is readable.  Pointer updates are batched: one superblock flush
covers all appends since the previous flush, which is why the puts in the
paper's Fig. 2 share superblock-update nodes in their dependency graphs.

Key crash-consistency rules implemented here (and the faults that break
them):

* An append's persistence promise is a per-extent :class:`FutureCell`,
  resolved only by a flush whose published pointer actually **covers** the
  append.  Fault #8 bypasses the promise entirely (the paper's buffer-cache
  write missing its soft-pointer dependency).
* When an extent has a pending (not-yet-durable) **reset**, flushes keep
  publishing the last pointer consistent with the durable medium instead of
  the in-memory post-reset pointer.  Publishing early is fault #7: a crash
  then recovers a zero pointer while live, already-persistent chunks are
  still on the medium, losing them.
* On reboot the pointer-update promises must start fresh; reusing the
  pre-reboot flush promise is fault #6 (operations after the reboot report
  persistent against a stale superblock record).

The superblock is itself stored as CRC'd records appended alternately to a
pair of reserved extents; recovery takes the highest-epoch valid record.
A bounded *buffer pool* gates concurrent flushes; fault #12 inverts its
lock order against the state mutex, the deadlock the paper's issue #12
describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.concurrency.primitives import Condvar, Mutex, yield_point
from repro.serialization.codec import (
    Preencoded,
    PreencodedIntMap,
    encode_record,
    encode_value,
)

from .config import SUPERBLOCK_EXTENTS, StoreConfig
from .dependency import Dependency, DurabilityTracker, FutureCell
from .faults import Fault
from .recordlog import LogScan, adopt_newest
from .scheduler import IoScheduler

#: Extent owners recorded in the superblock.
OWNER_FREE = "free"
OWNER_DATA = "data"


@dataclass
class SuperblockState:
    """The durable content of one superblock record."""

    epoch: int = 0
    pointers: Dict[int, int] = field(default_factory=dict)
    ownership: Dict[int, str] = field(default_factory=dict)

    def to_value(self) -> dict:
        # Extent numbers are encoded as ints directly (the codec supports
        # int dict keys); ``from_value`` accepts both int and legacy str
        # keys, so records from either encoding recover identically.
        return {
            "epoch": self.epoch,
            "pointers": dict(self.pointers),
            "ownership": dict(self.ownership),
        }

    @classmethod
    def from_value(cls, value: object) -> Optional["SuperblockState"]:
        if not isinstance(value, dict):
            return None
        try:
            epoch = value["epoch"]
            pointers = {int(k): int(v) for k, v in value["pointers"].items()}
            ownership = {int(k): str(v) for k, v in value["ownership"].items()}
        except (KeyError, TypeError, ValueError, AttributeError):
            return None
        if not isinstance(epoch, int):
            return None
        return cls(epoch=epoch, pointers=pointers, ownership=ownership)


class BufferPool:
    """A bounded pool of flush buffers (the paper's issue #12 substrate)."""

    def __init__(self, capacity: int = 1) -> None:
        self._capacity = capacity
        self._in_use = 0
        self._lock = Mutex(None, name="buffer-pool")
        self._available = Condvar(name="buffer-available")

    def acquire(self) -> None:
        while True:
            with self._lock:
                if self._in_use < self._capacity:
                    self._in_use += 1
                    return
            self._available.wait_until(self._has_capacity)

    def _has_capacity(self) -> bool:
        return self._in_use < self._capacity

    def release(self) -> None:
        with self._lock:
            self._in_use -= 1
        self._available.notify_all()


class Superblock:
    """In-memory superblock state plus its flush/recovery protocol."""

    def __init__(
        self,
        scheduler: IoScheduler,
        config: StoreConfig,
        *,
        recovered: Optional[SuperblockState] = None,
        recovered_dep: Optional[Dependency] = None,
        recovered_slot: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self.tracker: DurabilityTracker = scheduler.tracker
        self.config = config
        self.faults = config.faults
        self.recorder = config.recorder
        state = recovered or SuperblockState(
            ownership={e: OWNER_FREE for e in config.data_extents}
        )
        self._epoch = state.epoch
        #: Last pointer value published in a durable-consistent record.
        self._published: Dict[int, int] = {
            extent: state.pointers.get(extent, 0) for extent in config.data_extents
        }
        #: The record's encoded ``pointers`` map; always equals ``_published``.
        self._published_blob = PreencodedIntMap(self._published)
        #: Extents whose publishable pointer may differ from ``_published``:
        #: appended to or reset since the last flush that published them.
        #: A recovered soft pointer need not match the recovered record, so
        #: the first flush looks at every extent.
        self._unpublished: Set[int] = set(config.data_extents)
        self._ownership: Dict[int, str] = dict(state.ownership)
        #: Which superblock extent the next record goes to.  Recovery must
        #: resume on the slot holding the newest valid record: rotation
        #: resets the *other* slot, which is only crash-safe while the
        #: other slot holds strictly older epochs.
        self._slot = recovered_slot
        #: Per-extent promise cells for pointer-update persistence.  A cell
        #: covers one *era* of an extent -- the appends between two resets.
        self._cells: Dict[int, FutureCell] = {}
        #: Soft pointer at the era's most recent append (coverage target).
        self._era_end: Dict[int, int] = {}
        #: Resets whose publication is gated on the reset being durable.
        self._pending_resets: Dict[int, List[Dependency]] = {}
        self._appends_since_flush = 0
        #: Cached canonical encoding of the ownership map.  Ownership only
        #: changes on extent allocation/release, so flushes (every few
        #: appends) splice the cached bytes instead of re-encoding the map.
        self._ownership_blob: Optional[Preencoded] = None
        self._last_flush_dep: Dependency = recovered_dep or Dependency.root(
            self.tracker
        )
        self.pool = BufferPool(capacity=1)
        self._state_lock = Mutex(None, name="superblock-state")
        if self.faults.enabled(Fault.SUPERBLOCK_WRONG_DEP_AFTER_REBOOT) and recovered:
            # Fault #6: after a reboot, the flush promise for every extent is
            # pre-resolved against the *recovered* (pre-reboot) superblock
            # record, so post-reboot operations report persistent before any
            # post-reboot superblock record is durable.
            for extent in self.config.data_extents:
                cell = FutureCell(label=f"sb-ptr@{extent} (stale)")
                cell.resolve(self._last_flush_dep)
                self._cells[extent] = cell
            if self.recorder.enabled:
                self.recorder.fault_event(
                    Fault.SUPERBLOCK_WRONG_DEP_AFTER_REBOOT,
                    "Superblock",
                    "pointer promises pre-resolved against the pre-reboot "
                    "flush record",
                )

    # ------------------------------------------------------------------
    # notes from the write path

    def note_append(self, extent: int) -> Dependency:
        """An append advanced ``extent``'s soft pointer; returns the
        dependency that becomes persistent once the append is *covered* --
        either by a superblock record whose published pointer reaches it,
        or (for appends in an era closed by an extent reset) by the reset
        record itself, whose own dependency guarantees the data was
        evacuated and re-indexed first."""
        self._appends_since_flush += 1
        self._unpublished.add(extent)
        cell = self._cells.get(extent)
        if cell is None or (
            cell.resolved is not None
            and not self.faults.enabled(Fault.SUPERBLOCK_WRONG_DEP_AFTER_REBOOT)
        ):
            cell = FutureCell(label=f"sb-ptr@{extent}")
            self._cells[extent] = cell
        self._era_end[extent] = self.scheduler.soft_pointer(extent)
        return Dependency.on_future(self.tracker, cell)

    def note_reset(self, extent: int, reset_dep: Dependency) -> None:
        """An extent reset was queued.

        Closes the extent's promise era: the era's cell resolves to the
        reset record (reclamation's reset dependency already orders every
        evacuation write and index update before it, so "reset durable"
        implies every key that lived here is readable elsewhere).  Pointer
        publication for the extent is gated on the reset being durable.
        """
        self._unpublished.add(extent)
        cell = self._cells.pop(extent, None)
        self._era_end.pop(extent, None)
        if cell is not None and cell.resolved is None:
            cell.resolve(reset_dep)
        if self.faults.enabled(Fault.SOFT_HARD_POINTER_MISMATCH_ON_RESET):
            # Fault #7: the next flush publishes the post-reset pointer, with
            # no regard for whether the reset (and the evacuations it
            # depends on) is durable.
            if self.recorder.enabled:
                self.recorder.fault_event(
                    Fault.SOFT_HARD_POINTER_MISMATCH_ON_RESET,
                    "Superblock",
                    f"pointer for extent {extent} published as 0 before the "
                    "reset is durable",
                )
            return
        self._pending_resets.setdefault(extent, []).append(reset_dep)

    def note_ownership(self, extent: int, owner: str) -> Dependency:
        """Record an ownership change; persisted by the next flush."""
        self._ownership[extent] = owner
        self._ownership_blob = None
        return self.note_append(extent)

    def ownership(self) -> Dict[int, str]:
        return dict(self._ownership)

    def owner_of(self, extent: int) -> str:
        return self._ownership.get(extent, OWNER_FREE)

    @property
    def appends_since_flush(self) -> int:
        return self._appends_since_flush

    # ------------------------------------------------------------------
    # flushing

    def maybe_flush(self) -> Optional[Dependency]:
        """Flush if the cadence says so (called from the write path)."""
        if self._appends_since_flush >= self.config.superblock_flush_cadence:
            return self.flush()
        return None

    def flush(self) -> Dependency:
        """Write one superblock record; resolves covered pointer promises.

        Lock order is pool -> state.  Fault #12 inverts it (state -> pool),
        which deadlocks when another flusher holds the last buffer and
        waits for the state lock.
        """
        if self.faults.enabled(Fault.BUFFER_POOL_DEADLOCK):
            if self.recorder.enabled:
                self.recorder.fault_event(
                    Fault.BUFFER_POOL_DEADLOCK,
                    "Superblock",
                    "flush acquiring state lock before the buffer pool",
                )
            with self._state_lock:
                self.pool.acquire()
                try:
                    return self._flush_locked()
                finally:
                    self.pool.release()
        self.pool.acquire()
        try:
            with self._state_lock:
                return self._flush_locked()
        finally:
            self.pool.release()

    def current_epoch(self) -> int:
        """The epoch of the most recent flush (reads under the state lock)."""
        with self._state_lock:
            return self._epoch

    def with_buffer(self, fn):
        """Run ``fn`` while holding one of the pool's flush buffers.

        This is the client side of the paper's issue #12: threads that hold
        a buffer while waiting on superblock state form one half of the
        lock cycle when a faulty flush acquires state before buffer.
        """
        self.pool.acquire()
        try:
            return fn()
        finally:
            self.pool.release()

    def _flush_locked(self) -> Dependency:
        self._epoch += 1
        published = self._published
        for extent in list(self._unpublished):
            pending = self._pending_resets.get(extent)
            if pending is not None:
                pending = [d for d in pending if not d.is_persistent()]
                if pending:
                    # Hold back: keep publishing the last durable-consistent
                    # value.  (Recovery takes min(published, hard pointer),
                    # so a stale-high value can never expose garbage.)
                    self._pending_resets[extent] = pending
                    continue
                del self._pending_resets[extent]
            self._unpublished.discard(extent)
            soft = self.scheduler.soft_pointer(extent)
            if soft != published[extent]:
                published[extent] = soft
                self._published_blob.set(extent, soft)
        # Same layout as ``SuperblockState.to_value`` -- int extent keys --
        # with both maps spliced already encoded (guarded by the state
        # lock): pointers patched above for the extents that moved, the
        # ownership subtree from a cache invalidated by ``note_ownership``.
        ownership_blob = self._ownership_blob
        if ownership_blob is None:
            ownership_blob = self._ownership_blob = Preencoded(
                encode_value(self._ownership)
            )
        value = {
            "epoch": self._epoch,
            "pointers": self._published_blob.preencoded,
            "ownership": ownership_blob,
        }
        record = encode_record(value, self.config.geometry.page_size)
        dep = self._append_record(record)
        for extent in list(self._cells):
            # A published pointer covers the current era iff it reaches the
            # era's last append; min(published, hard) at recovery then
            # includes the append whenever its data is durable.
            if published[extent] >= self._era_end.get(extent, 0):
                cell = self._cells.pop(extent)
                if cell.resolved is None:
                    cell.resolve(dep)
        self._appends_since_flush = 0
        self._last_flush_dep = dep
        if self.recorder.enabled:
            self.recorder.count("superblock.flushes")
        yield_point("superblock flushed")
        return dep

    def _append_record(self, record: bytes) -> Dependency:
        extent = SUPERBLOCK_EXTENTS[self._slot]
        if self.scheduler.free_bytes(extent) < len(record):
            # Switch slots: reset the other extent (it holds only records
            # with strictly older epochs, so this is always crash-safe) and
            # continue the log there.
            self._slot = 1 - self._slot
            extent = SUPERBLOCK_EXTENTS[self._slot]
            self.scheduler.reset(
                extent, Dependency.root(self.tracker), label="superblock-rotate"
            )
        _, dep = self.scheduler.append(
            extent, record, Dependency.root(self.tracker), label="superblock-record"
        )
        return dep

    # ------------------------------------------------------------------
    # recovery

    @staticmethod
    def recover_state(
        scheduler: IoScheduler,
        config: StoreConfig,
        scans: Optional[Dict[int, LogScan]] = None,
    ) -> Tuple[SuperblockState, int]:
        """Adopt the highest-epoch record of the two superblock extents.

        ``scans`` is what sealing read of the log extents (see
        :func:`~repro.shardstore.recordlog.adopt_newest`); without it the
        extents are read here.  Returns the state and the slot index it was
        found on, which the new superblock must resume writing to.
        """

        def parse(value: object) -> Optional[Tuple[int, SuperblockState]]:
            state = SuperblockState.from_value(value)
            return None if state is None else (state.epoch, state)

        best, best_slot = adopt_newest(
            scheduler.disk, SUPERBLOCK_EXTENTS, config.geometry.page_size, parse, scans
        )
        if best is None:
            best = SuperblockState(
                ownership={e: OWNER_FREE for e in config.data_extents}
            )
        return best, best_slot

    @staticmethod
    def recovered_pointer(
        state: SuperblockState, scheduler: IoScheduler, extent: int, page_size: int
    ) -> int:
        """The post-crash readable bound for a data extent.

        The published soft pointer can run ahead of the medium (pointer
        updates never wait for data), so recovery takes the minimum of the
        published pointer and the device's hard pointer -- then rounds up
        to a page boundary.  The rounding keeps post-crash appends
        page-aligned: reclamation's scan probes page boundaries and
        decoded-chunk ends, so a chunk written at an unaligned recovered
        pointer after a torn predecessor would be unreachable (and later
        destroyed).  This is also exactly the paper's bug #10 setting,
        where the post-crash chunk starts at the page boundary.
        """
        published = state.pointers.get(extent, 0)
        hard = scheduler.disk.write_pointer(extent)
        recovered = min(published, hard)
        rounded = -(-recovered // page_size) * page_size
        return min(rounded, scheduler.disk.geometry.extent_size)
