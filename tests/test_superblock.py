"""Unit tests for the superblock: pointer publication, promises, recovery."""

import random

import pytest

from repro.serialization.codec import encode_record
from repro.shardstore import (
    SUPERBLOCK_EXTENTS,
    DiskGeometry,
    Fault,
    FaultSet,
    InMemoryDisk,
    StoreConfig,
)
from repro.shardstore.dependency import Dependency, DurabilityTracker
from repro.shardstore.scheduler import IoScheduler
from repro.shardstore.superblock import (
    OWNER_DATA,
    OWNER_FREE,
    Superblock,
    SuperblockState,
)


def _fresh(faults=None, seed=0, geometry=None):
    config = StoreConfig(
        geometry=geometry
        or DiskGeometry(num_extents=10, extent_size=2048, page_size=128),
        faults=faults or FaultSet.none(),
        seed=seed,
    )
    disk = InMemoryDisk(config.geometry)
    tracker = DurabilityTracker()
    scheduler = IoScheduler(disk, tracker, random.Random(seed))
    return config, disk, tracker, scheduler, Superblock(scheduler, config)


class TestFlushAndRecover:
    def test_flush_writes_recoverable_state(self):
        config, disk, tracker, scheduler, sb = _fresh()
        scheduler.append(4, b"x" * 100, Dependency.root(tracker))
        sb.note_append(4)
        sb.note_ownership(4, OWNER_DATA)
        sb.flush()
        scheduler.drain()
        state, slot = Superblock.recover_state(scheduler, config)
        assert state.pointers[4] == 100
        assert state.ownership[4] == OWNER_DATA
        assert slot == 0

    def test_epochs_increase(self):
        config, disk, tracker, scheduler, sb = _fresh()
        sb.flush()
        sb.flush()
        scheduler.drain()
        state, _ = Superblock.recover_state(scheduler, config)
        assert state.epoch == 2

    def test_unflushed_state_not_recovered(self):
        config, disk, tracker, scheduler, sb = _fresh()
        scheduler.append(4, b"x" * 100, Dependency.root(tracker))
        sb.note_append(4)
        sb.flush()  # queued but never written back
        state, _ = Superblock.recover_state(scheduler, config)
        assert state.pointers.get(4, 0) == 0

    def test_empty_disk_recovers_free_ownership(self):
        config, disk, tracker, scheduler, sb = _fresh()
        state, _ = Superblock.recover_state(scheduler, config)
        assert all(owner == OWNER_FREE for owner in state.ownership.values())


class TestRotation:
    def test_rotation_switches_slots_and_keeps_newest(self):
        config, disk, tracker, scheduler, sb = _fresh()
        # Fill extent 0 with records (each flush record is page-padded).
        for _ in range(40):
            sb.flush()
        scheduler.drain()
        state, slot = Superblock.recover_state(scheduler, config)
        assert state.epoch == 40
        assert disk.write_pointer(SUPERBLOCK_EXTENTS[1]) > 0 or slot == 0

    def test_recovered_slot_resumes_on_newest_extent(self):
        """The rotation-after-reboot bug: resuming on slot 0 when slot 1
        holds the newest records would reset the newest records away."""
        config, disk, tracker, scheduler, sb = _fresh()
        flushes = 0
        while disk.write_pointer(SUPERBLOCK_EXTENTS[1]) == 0:
            sb.flush()
            scheduler.drain()
            flushes += 1
            assert flushes < 100
        state, slot = Superblock.recover_state(scheduler, config)
        assert slot == 1
        # A new superblock resuming on the recovered slot must not reset
        # the extent that holds the newest epoch.
        sb2 = Superblock(scheduler, config, recovered=state, recovered_slot=slot)
        resets_before = disk.reset_count(SUPERBLOCK_EXTENTS[1])
        sb2.flush()
        scheduler.drain()
        assert disk.reset_count(SUPERBLOCK_EXTENTS[1]) == resets_before
        new_state, _ = Superblock.recover_state(scheduler, config)
        assert new_state.epoch > state.epoch


class TestPointerPromises:
    def test_append_promise_resolves_on_covering_flush(self):
        config, disk, tracker, scheduler, sb = _fresh()
        scheduler.append(4, b"x" * 64, Dependency.root(tracker))
        promise = sb.note_append(4)
        assert not promise.is_persistent()
        sb.flush()
        scheduler.drain()
        assert promise.is_persistent()

    def test_promises_are_batched_per_extent(self):
        config, disk, tracker, scheduler, sb = _fresh()
        scheduler.append(4, b"a" * 10, Dependency.root(tracker))
        p1 = sb.note_append(4)
        scheduler.append(4, b"b" * 10, Dependency.root(tracker))
        p2 = sb.note_append(4)
        assert p1.unresolved_futures() == p2.unresolved_futures()

    def test_reset_closes_era_and_resolves_with_reset_record(self):
        config, disk, tracker, scheduler, sb = _fresh()
        scheduler.append(4, b"victim data", Dependency.root(tracker))
        promise = sb.note_append(4)
        reset_dep = scheduler.reset(4, Dependency.root(tracker))
        sb.note_reset(4, reset_dep)
        assert not promise.is_persistent()
        scheduler.drain()  # applies the reset
        assert promise.is_persistent(), "era promise resolves via the reset"

    def test_publication_held_back_while_reset_pending(self):
        config, disk, tracker, scheduler, sb = _fresh()
        scheduler.append(4, b"x" * 200, Dependency.root(tracker))
        sb.note_append(4)
        sb.flush()
        scheduler.drain()  # published pointer = 200
        blocker = Dependency.on_records(tracker, [tracker.allocate()])
        reset_dep = scheduler.reset(4, blocker)
        sb.note_reset(4, reset_dep)
        sb.flush()
        while scheduler.pump_one():
            pass
        state, _ = Superblock.recover_state(scheduler, config)
        assert state.pointers[4] == 200, "pre-reset pointer must be held"

    def test_fault7_publishes_early(self):
        config, disk, tracker, scheduler, sb = _fresh(
            faults=FaultSet.only(Fault.SOFT_HARD_POINTER_MISMATCH_ON_RESET)
        )
        scheduler.append(4, b"x" * 200, Dependency.root(tracker))
        sb.note_append(4)
        sb.flush()
        scheduler.drain()
        blocker = Dependency.on_records(tracker, [tracker.allocate()])
        sb.note_reset(4, scheduler.reset(4, blocker))
        sb.flush()
        while scheduler.pump_one():
            pass
        state, _ = Superblock.recover_state(scheduler, config)
        assert state.pointers[4] == 0, "the fault publishes the reset early"


class TestRecoveredPointer:
    def test_min_of_published_and_hard(self):
        from repro.shardstore.superblock import SuperblockState

        config, disk, tracker, scheduler, sb = _fresh()
        # Medium has 128 durable bytes; published pointer claims 300.
        disk.write(4, 0, b"x" * 128)
        scheduler.sync_soft_pointer(4, 128)
        state = SuperblockState(epoch=1, pointers={4: 300}, ownership={})
        assert Superblock.recovered_pointer(state, scheduler, 4, 128) == 128
        # Published below hard: the unacknowledged tail is discarded.
        state = SuperblockState(epoch=1, pointers={4: 100}, ownership={})
        pointer = Superblock.recovered_pointer(state, scheduler, 4, 128)
        assert pointer == 128  # 100 rounded up to the page boundary
        state = SuperblockState(epoch=1, pointers={4: 0}, ownership={})
        assert Superblock.recovered_pointer(state, scheduler, 4, 128) == 0

    def test_rounding_to_page_boundary(self):
        config, disk, tracker, scheduler, sb = _fresh()
        scheduler.append(4, b"x" * 200, Dependency.root(tracker))
        sb.note_append(4)
        sb.flush()
        scheduler.drain()
        state, _ = Superblock.recover_state(scheduler, config)
        pointer = Superblock.recovered_pointer(state, scheduler, 4, 128)
        assert pointer % 128 == 0
        assert pointer >= 200

    def test_fault6_reuses_stale_promise_after_reboot(self):
        config, disk, tracker, scheduler, sb = _fresh()
        sb.flush()
        scheduler.drain()
        state, slot = Superblock.recover_state(scheduler, config)
        faulty_config = StoreConfig(
            geometry=config.geometry,
            faults=FaultSet.only(Fault.SUPERBLOCK_WRONG_DEP_AFTER_REBOOT),
            seed=0,
        )
        sb2 = Superblock(
            scheduler, faulty_config, recovered=state, recovered_slot=slot
        )
        scheduler.append(4, b"fresh", Dependency.root(tracker))
        promise = sb2.note_append(4)
        scheduler.drain()
        # No post-reboot flush happened, yet the stale promise reports
        # persistent -- the bug.
        assert promise.is_persistent()


class TestBufferPool:
    def test_with_buffer_roundtrip(self):
        _, _, _, _, sb = _fresh()
        assert sb.with_buffer(lambda: 42) == 42

    def test_current_epoch_tracks_flushes(self):
        _, _, _, scheduler, sb = _fresh()
        assert sb.current_epoch() == 0
        sb.flush()
        assert sb.current_epoch() == 1


class TestIncrementalRecord:
    """Every record, however it was assembled, is the plain encoding of the
    state it publishes.  The reference model below is the publish rule
    written out over every extent: the soft pointer, unless a reset of the
    extent is not yet durable, in which case the last published value."""

    @pytest.mark.parametrize("data_extents", [12, 124])
    @pytest.mark.parametrize("seed", range(6))
    def test_every_record_equals_the_from_scratch_encoding(self, data_extents, seed):
        config, _, tracker, scheduler, sb = _fresh(
            seed=seed,
            geometry=DiskGeometry(
                num_extents=data_extents + 4, extent_size=32768, page_size=512
            ),
        )
        assert len(config.data_extents) == data_extents
        rng = random.Random(seed)

        published = {e: 0 for e in config.data_extents}
        ownership = {e: OWNER_FREE for e in config.data_extents}
        pending = {}  # extent -> reset dependencies not yet seen durable
        blockers = []  # record ids the queued resets wait for
        promises = []
        records = []

        append = scheduler.append

        def checked_append(extent, data, dep, label=""):
            if label == "superblock-record":
                records.append(bytes(data))
            return append(extent, data, dep, label=label)

        scheduler.append = checked_append

        def expect_flush():
            for extent in config.data_extents:
                waiting = [d for d in pending.get(extent, []) if not d.is_persistent()]
                if waiting:
                    pending[extent] = waiting
                    continue
                pending.pop(extent, None)
                published[extent] = scheduler.soft_pointer(extent)
            state = SuperblockState(sb.current_epoch() + 1, published, ownership)
            return encode_record(state.to_value(), config.geometry.page_size)

        def pump():
            while scheduler.pump_one():
                pass

        held_back_flushes = 0
        for _ in range(300):
            extent = rng.choice(config.data_extents)
            draw = rng.random()
            if draw < 0.45:
                size = rng.randrange(1, 700)
                if scheduler.free_bytes(extent) >= size:
                    scheduler.append(extent, bytes(size), Dependency.root(tracker))
                    promises.append(sb.note_append(extent))
            elif draw < 0.55:
                # A reset whose prerequisite is not durable yet: it stays
                # queued, and its extent's pointer held back, across flushes.
                blocker = tracker.allocate()
                blockers.append(blocker)
                reset_dep = scheduler.reset(
                    extent, Dependency.on_records(tracker, [blocker])
                )
                sb.note_reset(extent, reset_dep)
                pending.setdefault(extent, []).append(reset_dep)
            elif draw < 0.62 and blockers:
                tracker.mark_durable(blockers.pop(rng.randrange(len(blockers))))
                pump()
            elif draw < 0.72:
                owner = rng.choice([OWNER_DATA, OWNER_FREE])
                ownership[extent] = owner
                promises.append(sb.note_ownership(extent, owner))
            elif draw < 0.95:
                expected = expect_flush()
                held_back_flushes += bool(pending)
                sb.flush()
                assert records[-1] == expected
            else:
                pump()

        assert len(records) > 30 and held_back_flushes > 5
        # Forward progress: with every reset durable, two flushes cover
        # every promise the sequence handed out.
        tracker.mark_durable_many(blockers)
        for _ in range(2):
            pump()
            expected = expect_flush()
            sb.flush()
            assert records[-1] == expected
        scheduler.drain()
        assert all(promise.is_persistent() for promise in promises)
