"""The ShardStore key-value store: one disk, one store (section 2.1).

:class:`ShardStore` wires the substrate together -- disk, IO scheduler,
superblock, buffer cache, chunk store, LSM index, reclaimer -- and exposes
the key-value API the rest of S3 sees: ``put``/``get``/``delete`` plus the
background operations (index flush, superblock flush, compaction, chunk
reclamation) that the validation alphabets include as no-op-in-the-model
operations (Fig. 3).

Every mutating operation returns a :class:`Dependency` that can be polled
with ``is_persistent()`` -- the observable the crash-consistency checker's
two properties (persistence, forward progress; section 5) are stated over.

:class:`StoreSystem` owns what survives a reboot (the disk and the
durability tracker) and rebuilds the store object through recovery, giving
the checkers their ``DirtyReboot(RebootType)`` and clean-reboot operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, TypeVar

from .buffer_cache import BufferCache
from .chunk_store import ChunkStore
from .config import METADATA_EXTENTS, SUPERBLOCK_EXTENTS, StoreConfig
from .dependency import Dependency, DurabilityTracker
from .disk import InMemoryDisk
from .errors import (
    MAX_KEY_LEN,
    CorruptionError,
    IoError,
    KeyNotFoundError,
    NotFoundError,
    ShardStoreError,
    validate_key,
)
from .faults import component_of
from .lsm import LsmIndex
from .merkle import MerkleMap
from .observability.journal import (
    bool_outcome,
    digest_bytes,
    journaled,
    keys_outcome,
    repair_outcome,
    value_outcome,
)
from .reclamation import Reclaimer, ReclaimResult
from .recordlog import LogScan, scan_log
from .scheduler import IoScheduler
from .scrub import MerkleScrubReport, RepairReport, Scrubber
from .superblock import Superblock

_T = TypeVar("_T")

__all__ = ["ShardStore", "StoreSystem", "RebootType", "MAX_KEY_LEN"]


def _merkle_outcome(report: MerkleScrubReport) -> Dict[str, object]:
    return {
        "proven": report.proven,
        "root": report.actual_root,
        "diverging": len(report.diverging) or None,
    }


def _repair_outcome(report: RepairReport) -> Dict[str, object]:
    return {
        **repair_outcome(report),
        "proven": report.proven if report.merkle is not None else None,
    }


class ShardStore:
    """A single-disk key-value store over append-only extents."""

    #: Ordered names of the recovery steps a ``recovery_hook`` observes.
    RECOVERY_STEPS = ("seal", "superblock", "pointers", "index")

    def __init__(
        self,
        disk: InMemoryDisk,
        tracker: DurabilityTracker,
        config: StoreConfig,
        *,
        rng: Optional[random.Random] = None,
        recover: bool = False,
        recovery_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.disk = disk
        self.tracker = tracker
        self.config = config
        self.recorder = config.recorder
        self.journal = config.journal
        self.rng = rng or random.Random(config.seed)
        # The hook fires immediately before each RECOVERY_STEPS stage; a
        # raising hook models a crash *during* recovery, so re-entrant
        # recovery tests can interrupt at every step boundary and prove
        # that recovering again from the partial state still converges.
        hook = recovery_hook or (lambda step: None)
        self.scheduler = IoScheduler(
            disk,
            tracker,
            random.Random(self.rng.getrandbits(32)),
            recorder=config.recorder,
        )
        if recover:
            hook("seal")
            # Kept local: a scan must not outlive the attempt that took it.
            log_scans = self._seal_log_extents()
            hook("superblock")
            state, slot = Superblock.recover_state(self.scheduler, config, log_scans)
            hook("pointers")
            for extent in config.data_extents:
                pointer = Superblock.recovered_pointer(
                    state, self.scheduler, extent, config.geometry.page_size
                )
                self.scheduler.sync_soft_pointer(extent, pointer)
            self.superblock = Superblock(
                self.scheduler, config, recovered=state, recovered_slot=slot
            )
        else:
            self.superblock = Superblock(self.scheduler, config)
        self.cache = BufferCache(self.scheduler, self.superblock, config)
        self.chunk_store = ChunkStore(self.cache, self.superblock, config, self.rng)
        if recover:
            hook("index")
            self.index, self.lost_runs = LsmIndex.recover(
                self.chunk_store, self.scheduler, config, log_scans
            )
        else:
            self.index = LsmIndex(self.chunk_store, self.scheduler, config)
            self.lost_runs: List[int] = []
        self.reclaimer = Reclaimer(
            self.chunk_store, self.index, self.cache, self.superblock, config
        )
        self.scrubber = Scrubber(self.chunk_store, self.index)
        self.chunk_store.on_out_of_space = self._reclaim_for_space
        self.retry_count = 0
        self.quarantined: Set[bytes] = set()
        # Write-time content-addressed commitment (ROADMAP 5a): fresh
        # stores track key -> value digest incrementally at put/delete; a
        # recovered store re-derives it lazily from the recovered state on
        # first Merkle use (the crash may have lost un-drained writes, so
        # the pre-crash in-memory commitment would over-claim).
        self._merkle: Optional[MerkleMap] = None if recover else MerkleMap()
        if self.recorder.enabled and config.faults:
            # Record which Fig. 5 faults this store was built with, so every
            # traced fault-matrix shard carries a non-empty fault-event
            # section even when the fault's trigger site is never reached.
            for fault in config.faults:
                self.recorder.fault_event(
                    fault, component_of(fault), "armed at store construction"
                )

    def _seal_log_extents(self) -> Dict[int, LogScan]:
        """Truncate superblock/metadata log extents to their valid prefix.

        A crash can tear a multi-page record, leaving undecodable garbage
        below the hard pointer.  Appending new records after the garbage
        would strand them: future recovery scans stop at the tear and never
        see anything beyond it.  Sealing restores the invariant that a log
        extent is always a contiguous run of valid records plus at most a
        torn tail.  This is recovery's one read of each log extent: the
        scans go on to superblock and index recovery.
        """
        page = self.config.geometry.page_size
        scans: Dict[int, LogScan] = {}
        for extent in (*SUPERBLOCK_EXTENTS, *METADATA_EXTENTS):
            scan = scans[extent] = scan_log(self.disk, extent, page)
            if scan.end < len(scan.data):
                self.scheduler.sync_soft_pointer(extent, scan.end)
        return scans

    def _reclaim_for_space(self) -> bool:
        """GC under allocation pressure: reclaim every eligible extent.

        Refuses to run while the index lock is held: the caller is then an
        LSM-internal write (flush/compaction), and reclamation re-enters the
        index -- a reentrancy deadlock.  Those writes have allocation
        priority and the free-extent reserve instead.
        """
        if self.index.busy():
            return False
        progress = False
        for extent in self.reclaimer.reclaimable_extents():
            result = self.reclaimer.reclaim(extent)
            if result is not None and result.reset_done:
                progress = True
        return progress

    # ------------------------------------------------------------------
    # request plane

    def _retrying(self, fn: Callable[[], _T]) -> _T:
        """Run a request-plane operation under the configured retry policy.

        Only transient :class:`IoError`\\ s are retried; the default
        (``retry_policy=None``) is the historical fail-fast behaviour.
        """
        policy = self.config.retry_policy
        if policy is None or not policy.enabled:
            return fn()
        return policy.call(fn, on_retry=self._note_retry)

    def _note_retry(self, failures: int, backoff: int, exc: IoError) -> None:
        self.retry_count += 1
        if self.journal is not None:
            self.journal.note_retry()
        if self.recorder.enabled:
            self.recorder.count("store.retries")
            self.recorder.event(
                "store.retry", attempt=failures, backoff=backoff, error=str(exc)
            )

    @journaled("put", key=validate_key, value=True, span="put")
    def put(self, key: bytes, value: bytes) -> Dependency:
        """Store ``value`` under ``key``; returns its durability dependency."""
        return self._retrying(lambda: self._put_validated(key, value))

    def _put_validated(self, key: bytes, value: bytes) -> Dependency:
        locators, data_dep = self.chunk_store.put_shard(key, value)
        dep = self.index.put(key, locators, data_dep)
        if self._merkle is not None:
            self._merkle.set(key, digest_bytes(value))
        return dep

    @journaled("get", key=validate_key, classify=value_outcome, span="get")
    def get(self, key: bytes) -> bytes:
        """The value stored under ``key``.

        Raises :class:`NotFoundError` for absent keys and
        :class:`CorruptionError` when the stored bytes fail validation.
        """
        return self._retrying(lambda: self._get_validated(key))

    def _get_validated(self, key: bytes) -> bytes:
        locators = self.index.get(key)
        if locators is None:
            raise NotFoundError(f"no shard for key {key!r}")
        return self.chunk_store.get_shard(key, locators)

    @journaled("delete", key=validate_key, span="delete")
    def delete(self, key: bytes) -> Dependency:
        """Remove ``key``; returns the tombstone's durability dependency.

        Raises :class:`KeyNotFoundError` when ``key`` is not present -- the
        uniform ``KVNode`` contract, so callers never branch on an Optional.
        """
        return self._retrying(lambda: self._delete_validated(key))

    def _delete_validated(self, key: bytes) -> Dependency:
        if self.index.get(key) is None:
            raise KeyNotFoundError(f"no shard for key {key!r}")
        dep = self.index.delete(key)
        if self._merkle is not None:
            self._merkle.remove(key)
        return dep

    @journaled("contains", key=validate_key, classify=bool_outcome)
    def contains(self, key: bytes) -> bool:
        return self.index.get(key) is not None

    @journaled("keys", classify=keys_outcome)
    def keys(self) -> List[bytes]:
        return self.index.keys()

    # ------------------------------------------------------------------
    # background operations (no-ops in the reference model)

    @journaled("flush", span="flush")
    def flush(self) -> Dependency:
        """Flush index and superblock; the combined durability dependency.

        The ``KVNode``-level durability knob: after ``flush()`` plus
        ``drain()``, every dependency previously returned by this store
        reports persistent.
        """
        index_dep = self.flush_index()
        superblock_dep = self.flush_superblock()
        return index_dep.and_(superblock_dep)

    def flush_index(self) -> Dependency:
        return self.index.flush()

    def flush_superblock(self) -> Dependency:
        return self.superblock.flush()

    def compact(self) -> Optional[Dependency]:
        return self.index.compact()

    def reclaim(
        self, extent: int, *, max_evacuations: Optional[int] = None
    ) -> Optional[ReclaimResult]:
        return self.reclaimer.reclaim(extent, max_evacuations=max_evacuations)

    def reclaimable_extents(self) -> List[int]:
        return self.reclaimer.reclaimable_extents()

    def scrub(self):
        """Proactively validate every live chunk (no state changes)."""
        with self.recorder.span("scrub"):
            return self.scrubber.scrub()

    @property
    def merkle_tree(self) -> MerkleMap:
        """The store's content-addressed commitment (key -> value digest).

        Maintained incrementally at write time; after a recovery it is
        re-derived here on first use from the recovered state (unreadable
        keys are omitted, so surviving corruption still diverges from the
        actual tree and gets caught by the next :meth:`merkle_scrub`).
        """
        if self._merkle is None:
            tree = MerkleMap()
            for key in self.index.keys():
                locators = self.index.get(key)
                if locators is None:
                    continue
                try:
                    value = self.chunk_store.get_shard(key, locators)
                except ShardStoreError:
                    continue
                tree.set(key, digest_bytes(value))
            self._merkle = tree
        return self._merkle

    @journaled("merkle_scrub", classify=_merkle_outcome, span="merkle_scrub")
    def merkle_scrub(self) -> MerkleScrubReport:
        """Prove store integrity by Merkle root comparison (no repair).

        Every live value is re-read and content-addressed; the resulting
        root must equal the write-time commitment's root.  Equal roots
        prove the whole store intact in one comparison -- the
        content-addressed upgrade of :meth:`scrub`'s per-chunk sampling.
        """
        return self.scrubber.merkle_scrub(self.merkle_tree)

    @journaled("scrub_repair", classify=_repair_outcome, span="scrub_repair")
    def scrub_repair(self, *, merkle: bool = False) -> RepairReport:
        """Scrub, then heal what the scrub found (section 4.4 tolerance).

        Keys whose chunks fail validation are re-read through the normal
        path -- the buffer cache or a surviving chunk may still hold good
        bytes -- and rewritten to fresh chunks (*repair*).  Unrecoverable
        keys are removed from the index and remembered in
        :attr:`quarantined`, converting silent corruption into a typed
        :class:`NotFoundError` (*quarantine*).  Corrupt LSM run chunks are
        rewritten by forcing a compaction.  Transient IO errors propagate:
        repairing a disk that is still failing is the circuit breaker's
        decision, not the scrubber's.

        With ``merkle=True`` the damage is found by the Merkle proof
        instead of chunk sampling: the pre-repair divergence pins the
        keys to heal, and a post-repair proof (``report.proven``)
        certifies the store intact again -- or names what quarantine had
        to give up on.
        """
        if merkle:
            before = self.scrubber.merkle_scrub(self.merkle_tree)
            report = RepairReport(merkle=before)
            self._heal_keys(list(before.diverging), report)
            report.merkle_after = self.scrubber.merkle_scrub(self.merkle_tree)
            return report
        report = RepairReport(scanned=self.scrubber.scrub())
        self._heal_keys(report.scanned.bad_keys, report)
        if report.scanned.bad_runs:
            try:
                self.compact()
                report.run_compactions += 1
                if self.recorder.enabled:
                    self.recorder.count("scrub.run_compactions")
            except ShardStoreError:
                pass  # the corrupt run is unreadable even for compaction
        return report

    def _heal_keys(self, bad_keys: List[bytes], report: RepairReport) -> None:
        """Heal-or-quarantine each suspect key (shared by both modes)."""
        for key in bad_keys:
            try:
                value = self.get(key)
            except CorruptionError:
                try:
                    self.index.delete(key)
                except KeyNotFoundError:
                    pass
                if self._merkle is not None:
                    self._merkle.remove(key)
                self.quarantined.add(key)
                report.quarantined.append(key)
                if self.recorder.enabled:
                    self.recorder.count("scrub.quarantined")
                    self.recorder.event("scrub.quarantine", key=repr(key))
                continue
            except NotFoundError:
                # Deleted since the scrub pass: nothing to heal, but the
                # commitment must not keep claiming a key the index lost.
                if self._merkle is not None:
                    self._merkle.remove(key)
                continue
            self.put(key, value)
            report.repaired.append(key)
            if self.recorder.enabled:
                self.recorder.count("scrub.repaired")
                self.recorder.event("scrub.repair", key=repr(key))

    # ------------------------------------------------------------------
    # writeback control (the crash checker drives these)

    def pump(self, n: int) -> int:
        return self.scheduler.pump(n)

    @journaled("drain")
    def drain(self) -> None:
        """Write back everything pending, flushing the superblock as needed.

        Pending records can wait on pointer-update promises that only a
        superblock flush resolves, so drain alternates pumping with flushes
        (the same fixpoint clean shutdown uses).  Writebacks are issued
        through the group-commit path -- contiguous records coalesce into
        batched device IOs (the scheduler's ``batch_pages`` window).  Raises
        :class:`~repro.shardstore.errors.IoError` if records remain
        genuinely stuck -- a forward-progress violation.
        """
        for _ in range(self.config.geometry.num_extents + 2):
            while self.scheduler.pump_one(coalesce=True):
                pass
            if self.scheduler.pending_count == 0:
                return
            self.superblock.flush()
        self.scheduler.drain()  # raises, listing the stuck records

    @property
    def pending_io_count(self) -> int:
        return self.scheduler.pending_count

    def clean_shutdown(self) -> None:
        """Flush everything and drain; afterwards every dependency returned
        by this store's operations must report persistent (the section 5
        forward-progress property).

        Superblock flush and writeback alternate to a fixpoint: each flush
        publishes pointers for extents whose resets became durable in the
        previous round (resolving their promise cells), which can make
        further records eligible.  Chained reclamations need one round per
        link, so the bound is the extent count; exceeding it means a
        genuinely unsatisfiable dependency, surfaced via :meth:`drain`.
        """
        self.index.shutdown_flush()
        for _ in range(self.config.geometry.num_extents + 2):
            self.superblock.flush()
            while self.scheduler.pump_one(coalesce=True):
                pass
            if self.scheduler.pending_count == 0:
                break
        else:
            self.scheduler.drain()  # raises with the stuck records
        # One final flush+pump publishes any pointers that were held back
        # until the last round's resets persisted.
        self.superblock.flush()
        self.scheduler.flush_coalesced()


@dataclass
class RebootType:
    """Which volatile state a dirty reboot persists first (section 5).

    ``pump`` selects how many pending writebacks reach the medium before
    the crash: None drains everything eligible, an int pumps exactly that
    many (in the scheduler's seeded order).
    """

    flush_index: bool = False
    flush_superblock: bool = False
    pump: Optional[int] = None


RebootType.NONE = RebootType()


class StoreSystem:
    """The durable identity of one store across reboots and crashes.

    Reboots are journaled durability events the trace-conformance checker
    keys crash semantics off: ``clean`` is a full durability barrier, while
    ``dirty``/``recover`` (or any reboot that errored) widen each mutated
    key's possible post-crash states.
    """

    def __init__(self, config: Optional[StoreConfig] = None) -> None:
        self.config = config or StoreConfig()
        self.journal = self.config.journal
        self.disk = InMemoryDisk(self.config.geometry, recorder=self.config.recorder)
        self.tracker = DurabilityTracker()
        self.generation = 0
        self.store = ShardStore(self.disk, self.tracker, self.config)

    def _reboot_rng(self) -> random.Random:
        self.generation += 1
        return random.Random((self.config.seed << 16) ^ self.generation)

    @journaled("reboot", fields=lambda self, *_: {"mode": "clean"})
    def clean_reboot(
        self, recovery_hook: Optional[Callable[[str], None]] = None
    ) -> ShardStore:
        """Shut down cleanly and recover; returns the new store object."""
        self.store.clean_shutdown()
        return self._recover(recovery_hook)

    @journaled("reboot", fields=lambda self, *_: {"mode": "dirty"})
    def dirty_reboot(
        self,
        reboot: RebootType = RebootType.NONE,
        recovery_hook: Optional[Callable[[str], None]] = None,
    ) -> ShardStore:
        """Crash and recover.

        Component flushes selected by ``reboot`` run first (they only queue
        IO); then up to ``reboot.pump`` pending writebacks reach the medium;
        everything else pending is lost.
        """
        if reboot.flush_index:
            self.store.flush_index()
        if reboot.flush_superblock:
            self.store.flush_superblock()
        if reboot.pump is None:
            # Drain everything *eligible*; unlike clean shutdown, records
            # with unsatisfiable dependencies are simply lost in the crash.
            while self.store.scheduler.pump_one():
                pass
        else:
            self.store.pump(reboot.pump)
        self.store.scheduler.drop_pending()
        return self._recover(recovery_hook)

    @journaled("reboot", fields=lambda self, *_: {"mode": "recover"})
    def recover_again(
        self, recovery_hook: Optional[Callable[[str], None]] = None
    ) -> ShardStore:
        """Re-run crash recovery from the current durable state.

        Models a crash *during* a previous recovery: nothing is flushed or
        pumped -- the disk is taken exactly as the interrupted recovery
        left it.  Recovery must be idempotent under this (the paper's
        "recovery is just another crash point" obligation).
        """
        return self._recover(recovery_hook)

    def _recover(
        self, recovery_hook: Optional[Callable[[str], None]] = None
    ) -> ShardStore:
        """Rebuild the store from the medium; recovery is itself a crash point.

        An attempt that dies on a *transient* :class:`IoError` has already
        moved disk pointers (sealing, pointer adoption), so the pre-reboot
        store object no longer matches the medium: the attempt is re-run
        from the medium as left.  Each extent arms at most one one-shot
        fault, hence the bound.  A ``recovery_hook`` means a test is
        choosing the crash points itself and gets exactly one attempt; a
        non-transient failure raises.
        """
        attempts = self.config.geometry.num_extents + 1
        if recovery_hook is not None:
            attempts = 1
        while True:
            attempts -= 1
            try:
                self.store = ShardStore(
                    self.disk,
                    self.tracker,
                    self.config,
                    rng=self._reboot_rng(),
                    recover=True,
                    recovery_hook=recovery_hook,
                )
            except IoError as exc:
                if not exc.transient or not attempts:
                    raise
            else:
                return self.store
