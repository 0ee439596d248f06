"""The LSM-tree index: shard identifiers -> chunk locators.

ShardStore's index is a log-structured merge tree whose backing storage is
itself chunks (section 2.1, Fig. 1): the in-memory *memtable* absorbs
mutations; a *flush* serialises it into a sorted run stored as a
``KIND_RUN`` chunk and appends a metadata record -- the list of run
locators currently in use by the tree -- to a reserved metadata extent;
*compaction* merges runs into one and retires the old run chunks, which
chunk reclamation later collects.

Persistence promises: a ``put`` returns immediately with a dependency of
``shard-data AND index-entry-future``; the future is resolved at flush time
with the run chunk's dependency and the metadata record's dependency --
matching Fig. 2, where a put is durable only once the shard data, the index
entry, and the LSM metadata pointing at it are all durable.

Concurrency: the memtable/run-set is guarded by an instrumented
:class:`~repro.concurrency.primitives.Mutex`.  Compaction deliberately
releases the lock while writing the merged run chunk (holding a lock across
IO would serialise the store); the *pin* it takes on the extent it writes
into is what keeps reclamation from destroying the not-yet-referenced chunk
-- removing the pin is the paper's issue #14, its section 6 example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.concurrency.primitives import Mutex, yield_point
from repro.serialization.codec import (
    encode_record,
    encode_value,
    preencoded_list,
)

from .chunk import KIND_RUN, Locator
from .chunk_store import ChunkStore
from .config import METADATA_EXTENTS, StoreConfig
from .dependency import Dependency, DurabilityTracker, FutureCell
from .errors import CorruptionError, ShardStoreError
from .faults import Fault
from .recordlog import LogScan, adopt_newest
from .scheduler import IoScheduler


class _MemEntry:
    """One memtable entry: locators (or tombstone) plus its promises.

    Slotted by hand: one is built per put, and ``dataclass(slots=True)``
    needs Python 3.10."""

    __slots__ = ("locators", "data_dep", "cell")

    def __init__(
        self,
        locators: Optional[List[Locator]],  # None is a tombstone
        data_dep: Dependency,
        cell: FutureCell,
    ) -> None:
        self.locators = locators
        self.data_dep = data_dep
        self.cell = cell


@dataclass(eq=False)
class Run:
    """One on-disk sorted run."""

    run_id: int
    locator: Locator
    entries: Dict[bytes, Optional[List[Locator]]]
    dep: Dependency
    #: This run's item of the metadata record's run list, already encoded;
    #: it changes only when the run chunk moves (:meth:`move_to`).
    encoded: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.move_to(self.locator)

    def move_to(self, locator: Locator) -> None:
        self.locator = locator
        self.encoded = encode_value([self.run_id, locator.to_value()])


def _run_key(run_id: int) -> bytes:
    return b"run:%d" % run_id


@dataclass
class LsmStats:
    """Exported as ``lsm.<field>``; ``lsm.run_reads`` is the chunk store's
    count of run chunks read back."""

    flushes: int = 0
    compactions: int = 0


class LsmIndex:
    """The persistent index, with its reference-model-checkable interface."""

    def __init__(
        self,
        chunk_store: ChunkStore,
        scheduler: IoScheduler,
        config: StoreConfig,
        *,
        runs: Optional[List[Run]] = None,
        next_run_id: int = 0,
        meta_slot: int = 0,
        meta_epoch: int = 0,
    ) -> None:
        self.chunk_store = chunk_store
        self.scheduler = scheduler
        self.tracker: DurabilityTracker = scheduler.tracker
        self.config = config
        self.faults = config.faults
        self.recorder = config.recorder
        self.stats = LsmStats()
        if self.recorder.enabled:
            self.recorder.watch("lsm", self.stats)
        self._memtable: Dict[bytes, _MemEntry] = {}
        self._runs: List[Run] = list(runs or [])  # oldest first
        #: The runs resolved into one map: key -> its newest run's locators,
        #: tombstoned keys absent.  A lookup is one probe however many runs
        #: there are.  Only a memtable flush changes what the runs say;
        #: compaction and relocation rewrite runs without changing it.
        self._view: Dict[bytes, List[Locator]] = {}
        for run in self._runs:
            self._apply_to_view(run.entries)
        self._index_runs()
        self._next_run_id = next_run_id
        self._meta_slot = meta_slot
        self._meta_epoch = meta_epoch
        self._meta_switched = False
        self._lock = Mutex(None, name="lsm-index")
        # Cumulative shard-data dependency per live key, so relocations can
        # keep persistence reporting conservative across multi-chunk shards.
        self._data_deps: Dict[bytes, Dependency] = {}
        self._last_meta_dep: Dependency = Dependency.root(self.tracker)

    # ------------------------------------------------------------------
    # key-value interface

    def put(self, key: bytes, locators: List[Locator], data_dep: Dependency) -> Dependency:
        """Insert/overwrite ``key``; returns the put's durability dependency."""
        with self._lock:
            return self._insert_locked(key, locators, data_dep)[0]

    def _insert_locked(
        self, key: bytes, locators: List[Locator], data_dep: Dependency
    ) -> Tuple[Dependency, FutureCell]:
        """File ``key``'s entry; returns its dependency and promise cell.

        The dependency is ``data_dep AND the entry's promise``, built in one
        step: the cell is new, so the conjunction is ``data_dep``'s records
        and its futures with the cell appended.
        """
        cell = FutureCell("index-entry:{!r}", key)
        dep = Dependency(self.tracker, data_dep._records, data_dep._futures + (cell,))
        self._supersede(key, dep)
        self._memtable[key] = _MemEntry(list(locators), data_dep, cell)
        self._data_deps[key] = data_dep
        if len(self._memtable) >= self.config.memtable_flush_threshold:
            self._flush_locked()
        return dep, cell

    def _supersede(self, key: bytes, new_dep: Dependency) -> None:
        """Resolve an overwritten unflushed entry's promise to its superseder.

        The persistence property (section 5) reads "... unless superseded by
        a later persisted operation", so chaining the old promise to the new
        entry's dependency is exactly the right semantics -- and it keeps
        every dependency eventually resolvable (forward progress).
        """
        old = self._memtable.get(key)
        if old is not None and old.cell.resolved is None:
            old.cell.resolve(new_dep)

    def delete(self, key: bytes) -> Dependency:
        """Tombstone ``key``; returns the delete's durability dependency."""
        with self._lock:
            cell = FutureCell("index-tombstone:{!r}", key)
            dep = Dependency.on_future(self.tracker, cell)
            self._supersede(key, dep)
            self._memtable[key] = _MemEntry(None, Dependency.root(self.tracker), cell)
            self._data_deps.pop(key, None)
            if len(self._memtable) >= self.config.memtable_flush_threshold:
                self._flush_locked()
            return dep

    def get(self, key: bytes) -> Optional[List[Locator]]:
        """Locators for ``key``, or None if absent (tombstoned or never put)."""
        with self._lock:
            return self._get_locked(key)

    def _get_locked(self, key: bytes) -> Optional[List[Locator]]:
        entry = self._memtable.get(key)
        locs = entry.locators if entry is not None else self._view.get(key)
        return list(locs) if locs is not None else None

    def _index_runs(self) -> None:
        """Rebuild what is derived from the run list as a whole."""
        self._run_at: Dict[Locator, Run] = {run.locator: run for run in self._runs}
        #: ``run.encoded`` of every run, joined in run-list order.
        self._runs_blob = bytearray().join(run.encoded for run in self._runs)

    def _apply_to_view(self, entries: Dict[bytes, Optional[List[Locator]]]) -> None:
        """Layer one run's entries (newer than all before it) onto the view."""
        view = self._view
        for key, locs in entries.items():
            if locs is None:
                view.pop(key, None)
            else:
                view[key] = locs

    def keys(self) -> List[bytes]:
        """All live keys (tombstones resolved)."""
        with self._lock:
            memtable = self._memtable
            live = [key for key in self._view if key not in memtable]
            live += [key for key, e in memtable.items() if e.locators is not None]
            return sorted(live)

    def data_dep(self, key: bytes) -> Dependency:
        return self._data_deps.get(key, Dependency.root(self.tracker))

    # ------------------------------------------------------------------
    # flush

    def flush(self) -> Dependency:
        """Persist the memtable as a new run + metadata record."""
        with self._lock:
            return self._flush_locked()

    def _flush_locked(self, *, write_meta: bool = True) -> Dependency:
        if not self._memtable:
            return self._last_meta_dep
        # The run takes ownership of the memtable's locator lists (the
        # memtable is cleared below, and readers always get defensive
        # copies), so no per-entry list copy is needed.
        entries = {key: e.locators for key, e in self._memtable.items()}
        run_id = self._next_run_id
        self._next_run_id += 1
        # A tombstone's data dependency is the root and adds nothing.
        locator, run_dep = self._write_run(
            run_id,
            entries,
            Dependency.all_(e.data_dep for e in self._memtable.values()),
        )
        run = Run(run_id=run_id, locator=locator, entries=entries, dep=run_dep)
        self._runs.append(run)
        self._run_at[locator] = run
        self._runs_blob += run.encoded
        self._apply_to_view(entries)
        self.stats.flushes += 1
        if write_meta:
            meta_dep = self._write_meta_locked(run_dep)
            resolve_dep = run_dep.and_(meta_dep)
        else:
            # Fault #3's shutdown path: the run chunk exists but no metadata
            # record references it, so a clean reboot cannot find it.
            resolve_dep = run_dep
        for entry in self._memtable.values():
            entry.cell.resolve(resolve_dep)
        self._memtable.clear()
        return resolve_dep

    def shutdown_flush(self) -> Dependency:
        """The clean-shutdown flush.

        Fault #3: if a metadata-extent switch (reset) happened during this
        run of the process, the buggy shutdown skips the metadata record,
        losing every index entry in the final memtable across the reboot.
        """
        with self._lock:
            skip_meta = (
                self.faults.enabled(Fault.SHUTDOWN_SKIPS_METADATA_AFTER_RESET)
                and self._meta_switched
            )
            if skip_meta and self._memtable:
                self.recorder.fault_event(
                    Fault.SHUTDOWN_SKIPS_METADATA_AFTER_RESET,
                    "shutdown flush skipped the metadata record after a "
                    "metadata-extent switch",
                )
            return self._flush_locked(write_meta=not skip_meta)

    # ------------------------------------------------------------------
    # compaction

    def compact(self) -> Optional[Dependency]:
        """Merge all runs into one; returns the new metadata dependency.

        Runs while other operations proceed: the run-set lock is *released*
        during the merged-run chunk write.  The extent receiving the chunk
        is pinned first so reclamation cannot scan-and-reset it before the
        metadata update below publishes the new chunk (issue #14); the
        fault drops the pin.
        """
        with self._lock:
            if len(self._runs) < 1:
                return None
            snapshot = list(self._runs)
            run_id = self._next_run_id
            self._next_run_id += 1
        # Sorted-run merge, newest first with a seen-set: each key is taken
        # from its most recent run and tombstones simply shadow older
        # entries.  The oldest run(s) holding only tombstones shadow nothing
        # -- there is nothing older to hide -- so they are skipped without
        # contributing any keys at all.
        start = 0
        while start < len(snapshot) and all(
            locs is None for locs in snapshot[start].entries.values()
        ):
            start += 1
        merged: Dict[bytes, Optional[List[Locator]]] = {}
        seen: set = set()
        for run in reversed(snapshot[start:]):  # newest first
            for key, locs in run.entries.items():
                if key not in seen:
                    seen.add(key)
                    if locs is not None:
                        merged[key] = locs
        yield_point("compaction: writing merged run")
        pin = not self.faults.enabled(Fault.COMPACTION_RECLAIM_RACE)
        self.stats.compactions += 1
        if not pin:
            self.recorder.fault_event(
                Fault.COMPACTION_RECLAIM_RACE,
                "compaction writing the merged run without pinning its extent",
            )
        # Each source run was written after the data it names, so ordering
        # the merged run after its sources orders it after that data.
        locator, run_dep = self._write_run(
            run_id, merged, Dependency.all_(run.dep for run in snapshot), pin=pin
        )
        yield_point("compaction: merged run written, metadata not yet updated")
        try:
            with self._lock:
                new_run = Run(
                    run_id=run_id, locator=locator, entries=merged, dep=run_dep
                )
                # Keep any runs flushed after our snapshot (they are newer).
                merged_ids = {r.run_id for r in snapshot}
                self._runs = [new_run] + [
                    r for r in self._runs if r.run_id not in merged_ids
                ]
                self._index_runs()
                meta_dep = self._write_meta_locked(run_dep)
        finally:
            if pin:
                self.chunk_store.unpin_extent(locator.extent)
        return meta_dep

    def _write_run(
        self,
        run_id: int,
        entries: Dict[bytes, Optional[List[Locator]]],
        data_dep: Dependency,
        *,
        pin: bool = False,
    ) -> Tuple[Locator, Dependency]:
        """Append one run chunk, ordered after ``data_dep``.

        Soft updates (Fig. 2): a run names data chunks, so it may become
        durable only after they are.  Otherwise a crash can recover a
        metadata record whose run lists keys with no data behind them.
        """
        return self.chunk_store.put_chunk(
            KIND_RUN, _run_key(run_id), _encode_run(entries), data_dep,
            pin=pin, priority=True,
        )

    # ------------------------------------------------------------------
    # metadata records

    def _write_meta_locked(self, change_dep: Optional[Dependency] = None) -> Dependency:
        epoch = self._meta_epoch + 1
        value = {
            "epoch": epoch,
            "next_run_id": self._next_run_id,
            "runs": preencoded_list(len(self._runs), self._runs_blob),
        }
        record = encode_record(value, self.config.geometry.page_size)
        extent = METADATA_EXTENTS[self._meta_slot]
        if self.scheduler.free_bytes(extent) < len(record):
            # Rotate to the other metadata extent (holds only strictly older
            # epochs, so resetting it is always crash-safe).
            self._meta_slot = 1 - self._meta_slot
            self._meta_switched = True
            extent = METADATA_EXTENTS[self._meta_slot]
            self.scheduler.reset(
                extent, Dependency.root(self.tracker), label="lsm-meta-rotate"
            )
        # The record depends on the runs *changed by this write* (the fresh
        # flush/compaction/relocation output): a metadata record that
        # supersedes the previous run list must never persist before its
        # replacement runs are readable, or a crash between the two loses
        # entries that older, still-durable runs were holding.  Unchanged
        # runs are already anchored by their own earlier records, and
        # deliberately excluded -- carrying their accumulated dependencies
        # forward can create cycles through extent-pointer promises during
        # reclamation.
        base = change_dep or Dependency.root(self.tracker)
        _, append_dep = self.scheduler.append(
            extent, record, base, label="lsm-metadata"
        )
        self._last_meta_dep = append_dep
        self._meta_epoch = epoch
        return append_dep

    # ------------------------------------------------------------------
    # reclamation support (reverse lookups and relocation)

    def is_run_live(self, locator: Locator) -> bool:
        return self.live_run_dep(locator) is not None

    def live_run_dep(self, locator: Locator) -> Optional[Dependency]:
        """The dependency of the live run at ``locator`` (None if there is
        none): what a copy of its chunk must be written after."""
        with self._lock:
            run = self._run_at.get(locator)
            return run.dep if run is not None else None

    def relocate_run(self, old: Locator, new: Locator, new_dep: Dependency) -> Dependency:
        """Reclamation moved a run chunk; repoint metadata at the copy."""
        with self._lock:
            run = self._run_at.get(old)
            if run is None:
                raise ShardStoreError(f"relocate_run: no run at {old}")
            run.move_to(new)
            run.dep = run.dep.and_(new_dep)
            self._index_runs()
            return self._write_meta_locked(new_dep)

    def data_locators(self, key: bytes) -> Optional[List[Locator]]:
        return self.get(key)

    def replace_data_locator(
        self, key: bytes, old: Locator, new: Locator, new_dep: Dependency
    ) -> Optional[Dependency]:
        """Reclamation moved a shard-data chunk; repoint the index entry.

        Returns None if the entry no longer references ``old`` (the shard
        was deleted or overwritten mid-reclaim) -- the copy just becomes
        garbage for a later reclamation.

        The returned dependency is what the extent reset must be ordered
        after: the *copy's* write plus the updated entry's index promise.
        Deliberately not the key's full cumulative data dependency -- the
        key's other chunks live on other extents and do not gate this
        reset (including them can create a dependency cycle through this
        very extent's pointer promises).
        """
        with self._lock:
            locators = self._get_locked(key)
            if locators is None or old not in locators:
                return None
            updated = [new if loc == old else loc for loc in locators]
            data_dep = self._data_deps.get(
                key, Dependency.root(self.tracker)
            ).and_(new_dep)
            _, cell = self._insert_locked(key, updated, data_dep)
            return new_dep.and_(Dependency.on_future(self.tracker, cell))

    # ------------------------------------------------------------------
    # introspection / recovery

    def busy(self) -> bool:
        """Whether the index lock is currently held (reentrancy guard)."""
        return self._lock.locked()

    @property
    def run_count(self) -> int:
        with self._lock:
            return len(self._runs)

    @property
    def memtable_len(self) -> int:
        return len(self._memtable)

    @property
    def meta_switched(self) -> bool:
        return self._meta_switched

    def run_locators(self) -> List[Locator]:
        with self._lock:
            return [run.locator for run in self._runs]

    @classmethod
    def recover(
        cls,
        chunk_store: ChunkStore,
        scheduler: IoScheduler,
        config: StoreConfig,
        scans: Optional[Dict[int, LogScan]] = None,
    ) -> Tuple["LsmIndex", List[int]]:
        """Rebuild the index from the durable metadata + run chunks.

        ``scans`` is what sealing read of the log extents (see
        :func:`~repro.shardstore.recordlog.adopt_newest`); without it the
        extents are read here.  Returns the index and the ids of runs that
        could not be loaded (corrupt or unreadable) -- recovery is tolerant,
        and the crash-consistency checker decides whether the resulting
        data loss was allowed.
        """

        def parse(value: object) -> Optional[Tuple[int, dict]]:
            epoch = value.get("epoch") if isinstance(value, dict) else None
            return (epoch, value) if isinstance(epoch, int) else None

        best, best_slot = adopt_newest(
            scheduler.disk, METADATA_EXTENTS, config.geometry.page_size, parse, scans
        )
        runs: List[Run] = []
        lost: List[int] = []
        next_run_id = 0
        meta_epoch = 0
        if best is not None:
            next_run_id = best.get("next_run_id", 0)
            meta_epoch = best["epoch"]
            if not isinstance(next_run_id, int):
                next_run_id = 0
            raw_runs = best.get("runs")
            if isinstance(raw_runs, list):
                for item in raw_runs:
                    run = _load_run(chunk_store, scheduler.tracker, item)
                    if isinstance(run, Run):
                        runs.append(run)
                    elif run is not None:
                        lost.append(run)
        index = cls(
            chunk_store,
            scheduler,
            config,
            runs=runs,
            next_run_id=next_run_id,
            meta_slot=best_slot,
            meta_epoch=meta_epoch,
        )
        return index, lost


def _load_run(chunk_store: ChunkStore, tracker: DurabilityTracker, item: object):
    """Load one run from a metadata entry; returns Run, run id, or None."""
    if not isinstance(item, list) or len(item) != 2:
        return None
    run_id, raw_loc = item
    if not isinstance(run_id, int):
        return None
    try:
        locator = Locator.from_value(raw_loc)
        chunk = chunk_store.get_chunk(locator, expected_key=_run_key(run_id))
        entries = _decode_run(chunk.payload)
    except CorruptionError:
        return run_id
    return Run(
        run_id=run_id,
        locator=locator,
        entries=entries,
        dep=Dependency.root(tracker),
    )


def _encode_run(entries: Dict[bytes, Optional[List[Locator]]]) -> bytes:
    value = {
        key: (None if locs is None else [loc.to_value() for loc in locs])
        for key, locs in entries.items()
    }
    return encode_value(value)


def _decode_run(payload: bytes) -> Dict[bytes, Optional[List[Locator]]]:
    from repro.serialization.codec import decode_value

    value = decode_value(payload)
    if not isinstance(value, dict):
        raise CorruptionError("run payload is not a mapping")
    out: Dict[bytes, Optional[List[Locator]]] = {}
    for key, raw in value.items():
        if not isinstance(key, bytes):
            raise CorruptionError("run key is not bytes")
        if raw is None:
            out[key] = None
        elif isinstance(raw, list):
            out[key] = [Locator.from_value(item) for item in raw]
        else:
            raise CorruptionError("run entry is not a locator list")
    return out
