"""A put's two dependencies, and the labels that describe them.

A put builds the chunk's data-plus-pointer dependency (the records of the
append and its extent's superblock promise) and the index entry's (the
chunk's dependency and the entry's own promise).  ``TestFusedAgainstAnd``
holds each construction to what the paper's combinators build --
``on_records`` / ``on_future`` / ``and_`` -- over seeded record sets and
cells: the same records, the same futures in the same order, and the same
``blocker`` answers.  ``TestLabelsAsBefore`` pins the text a label reaches:
a dependency's ``repr``, a stuck writeback's error and the Fig. 2 record
labels.
"""

import random

import pytest

from repro.shardstore import (
    DiskGeometry,
    Fault,
    FaultSet,
    InMemoryDisk,
    IoError,
    StoreConfig,
    StoreSystem,
)
from repro.shardstore.buffer_cache import BufferCache
from repro.shardstore.chunk import KIND_DATA, Locator
from repro.shardstore.dependency import Dependency, DurabilityTracker, FutureCell
from repro.shardstore.scheduler import IoScheduler
from repro.shardstore.superblock import Superblock

GEOMETRY = DiskGeometry(num_extents=10, extent_size=4096, page_size=128)


def _same(fused, folded, given_sets):
    assert fused._records == folded._records
    assert fused._futures == folded._futures
    for given in given_sets:
        assert fused.blocker(given) == folded.blocker(given)


def _given_sets(rng, tracker):
    top = tracker.snapshot()[0]
    return [frozenset()] + [
        frozenset(rng.sample(range(top), min(top, rng.randrange(1, 6))))
        for _ in range(2)
    ]


class TestFusedAgainstAnd:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("stale", [False, True])
    def test_chunk_dependency_is_data_and_pointer(self, seed, stale):
        """``BufferCache.append``: the append's records AND its extent's
        pointer promise -- a fresh cell, a reused one, a resolved one (the
        fault #6 superblock hands those out after a reboot)."""
        rng = random.Random(seed)
        config = StoreConfig(
            geometry=GEOMETRY, seed=seed, superblock_flush_cadence=10_000
        )
        disk = InMemoryDisk(GEOMETRY)
        tracker = DurabilityTracker()
        scheduler = IoScheduler(disk, tracker, random.Random(seed))
        superblock = Superblock(scheduler, config)
        if stale:
            superblock.flush()
            state, slot = Superblock.recover_state(scheduler, config)
            config = StoreConfig(
                geometry=GEOMETRY,
                faults=FaultSet.only(Fault.SUPERBLOCK_WRONG_DEP_AFTER_REBOOT),
                seed=seed,
                superblock_flush_cadence=10_000,
            )
            superblock = Superblock(
                scheduler, config, recovered=state, recovered_slot=slot
            )
        cache = BufferCache(scheduler, superblock, config)
        extents = list(config.data_extents)[:3]
        deps = [tracker.empty]
        checked = 0
        for _ in range(60):
            roll = rng.random()
            extent = rng.choice(extents)
            if roll < 0.6:
                size = rng.randrange(1, 300)
                if scheduler.free_bytes(extent) < size:
                    continue
                first = tracker.snapshot()[0]
                _, fused = cache.append(extent, bytes(size), rng.choice(deps))
                ids = range(first, tracker.snapshot()[0])
                cell = superblock._cells[extent]
                folded = Dependency.on_records(tracker, ids).and_(
                    Dependency.on_future(tracker, cell)
                )
                _same(fused, folded, _given_sets(rng, tracker))
                deps.append(fused)
                checked += 1
            elif roll < 0.75:
                superblock.flush()
            elif roll < 0.9:
                scheduler.pump(rng.randrange(1, 4))
            else:
                reset = scheduler.reset(extent, rng.choice(deps))
                superblock.note_reset(extent, reset)
                cache.invalidate_extent(extent)
        assert checked > 20

    @pytest.mark.parametrize("seed", range(12))
    def test_index_entry_dependency_is_data_and_entry_promise(self, seed):
        """``LsmIndex.put``: the chunk's dependency AND the entry's promise,
        over seeded record sets and cells (resolved, unresolved, durable)."""
        rng = random.Random(seed)
        system = StoreSystem(
            StoreConfig(geometry=GEOMETRY, memtable_flush_threshold=10_000)
        )
        tracker, index = system.tracker, system.store.index
        records = [tracker.allocate() for _ in range(40)]
        tracker.mark_durable_many(rng.sample(records, 15))
        cells = [FutureCell(f"c{i}") for i in range(6)]
        parts = [tracker.empty]
        for cell in cells[:3]:
            cell.resolve(
                Dependency.on_records(tracker, rng.sample(records, rng.randrange(3)))
            )
        for _ in range(80):
            roll = rng.random()
            if roll < 0.4:
                parts.append(
                    Dependency.on_records(
                        tracker, rng.sample(records, rng.randrange(1, 5))
                    )
                )
            elif roll < 0.6:
                parts.append(Dependency.on_future(tracker, rng.choice(cells)))
            else:
                parts.append(rng.choice(parts).and_(rng.choice(parts)))
        for step in range(40):
            data_dep = rng.choice(parts)
            key = b"key-%d" % rng.randrange(12)
            fused = index.put(key, [Locator(4, step, 10)], data_dep)
            cell = index._memtable[key].cell
            folded = data_dep.and_(Dependency.on_future(tracker, cell))
            _same(fused, folded, _given_sets(rng, tracker))
            assert index.data_dep(key) is data_dep


class TestLabelsAsBefore:
    def test_repr_of_an_unresolved_put_dependency(self):
        system = StoreSystem(StoreConfig(seed=1, superblock_flush_cadence=100))
        put = system.store.put(b"shard-'1'", b"v" * 200)
        assert repr(put) == (
            "Dependency(records=[0, 1], unresolved=["
            "'index-entry:b\"shard-\\'1\\'\"', 'sb-ptr@4'])"
        )
        tombstone = system.store.delete(b"shard-'1'")
        assert repr(tombstone) == (
            "Dependency(records=[], unresolved=['index-tombstone:b\"shard-\\'1\\'\"'])"
        )

    def test_stuck_writeback_error_names_the_chunk(self):
        system = StoreSystem(StoreConfig(seed=1, superblock_flush_cadence=100))
        chunks = system.store.chunk_store
        never = Dependency.on_future(system.tracker, FutureCell("never"))
        chunks.put_chunk(KIND_DATA, b"k", b"x" * 300, never)
        with pytest.raises(IoError) as raised:
            system.store.scheduler.drain()
        assert str(raised.value) == (
            "writeback stuck: 3 pending records with unsatisfiable "
            "dependencies: [('chunk@4', 4), ('chunk@4', 4), ('chunk@4', 4)]"
        )

    def test_fig2_record_labels(self):
        system = StoreSystem(StoreConfig(seed=1, superblock_flush_cadence=100))
        system.tracker.capture_record_info()
        store = system.store
        for i, key in enumerate([b"shard-1", b"shard-2", b"shard-3"]):
            store.put(key, bytes([i]) * 200)
        store.delete(b"shard-2")
        store.flush_index()
        store.flush_superblock()
        store.scheduler.append(5, b"z", system.tracker.empty)
        store.scheduler.reset(6, system.tracker.empty)
        labels = [
            (rid, info.label, info.extent, info.offset, info.length, info.kind)
            for rid, info in sorted(system.tracker.record_info.items())
        ]
        chunk = [(0, 128), (128, 124), (252, 4), (256, 128), (384, 120)]
        chunk += [(504, 8), (512, 128), (640, 116), (756, 12), (768, 128)]
        chunk += [(896, 26)]
        assert labels == [
            (rid, "chunk@4", 4, offset, length, "write")
            for rid, (offset, length) in enumerate(chunk)
        ] + [(11, "lsm-metadata", 2, 0, 128, "write")] + [
            (12 + i, "superblock-record", 0, 128 * i, 128, "write")
            for i in range(4)
        ] + [(16, "append@5", 5, 0, 1, "write"), (17, "reset@6", 6, 0, 0, "reset")]
