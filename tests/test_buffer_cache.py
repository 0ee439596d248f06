"""Unit tests for the write-through page cache."""

import random

import pytest

from repro.shardstore import (
    DiskGeometry,
    ExtentError,
    Fault,
    FaultSet,
    InMemoryDisk,
    StoreConfig,
)
from repro.shardstore.buffer_cache import BufferCache
from repro.shardstore.dependency import Dependency, DurabilityTracker
from repro.shardstore.scheduler import IoScheduler
from repro.shardstore.superblock import Superblock


def _fresh(faults=None, cache_pages=8):
    config = StoreConfig(
        geometry=DiskGeometry(num_extents=10, extent_size=2048, page_size=128),
        faults=faults or FaultSet.none(),
        buffer_cache_pages=cache_pages,
    )
    disk = InMemoryDisk(config.geometry)
    tracker = DurabilityTracker()
    scheduler = IoScheduler(disk, tracker, random.Random(0))
    superblock = Superblock(scheduler, config)
    return disk, tracker, scheduler, BufferCache(scheduler, superblock, config)


class TestReadPath:
    def test_read_through_matches_scheduler(self):
        disk, tracker, scheduler, cache = _fresh()
        scheduler.append(4, bytes(range(200)), Dependency.root(tracker))
        assert cache.read(4, 0, 200) == bytes(range(200))

    def test_second_read_hits_cache(self):
        disk, tracker, scheduler, cache = _fresh()
        scheduler.append(4, b"x" * 100, Dependency.root(tracker))
        cache.read(4, 0, 100)
        misses = cache.misses
        cache.read(4, 0, 100)
        assert cache.misses == misses
        assert cache.hits > 0

    def test_read_beyond_soft_pointer_rejected(self):
        disk, tracker, scheduler, cache = _fresh()
        scheduler.append(4, b"abc", Dependency.root(tracker))
        with pytest.raises(ExtentError):
            cache.read(4, 0, 4)

    def test_partial_page_revalidation(self):
        """A cached short page is refetched when more data lands on it."""
        disk, tracker, scheduler, cache = _fresh()
        scheduler.append(4, b"a" * 50, Dependency.root(tracker))
        assert cache.read(4, 0, 50) == b"a" * 50
        scheduler.append(4, b"b" * 50, Dependency.root(tracker))
        assert cache.read(4, 0, 100) == b"a" * 50 + b"b" * 50


class TestWritePath:
    def test_append_fills_cache_consistently(self):
        disk, tracker, scheduler, cache = _fresh()
        offset, dep = cache.append(4, b"q" * 300, Dependency.root(tracker))
        assert offset == 0
        assert cache.read(4, 0, 300) == b"q" * 300

    def test_mid_page_append_preserves_uncached_prefix(self):
        """Regression for the prefix-fabrication bug: an append starting
        mid-page must not corrupt the cached image of earlier bytes."""
        disk, tracker, scheduler, cache = _fresh(cache_pages=4)
        cache.append(4, b"A" * 71, Dependency.root(tracker))
        cache.invalidate_all()  # simulate eviction of the page
        cache.append(4, b"B" * 100, Dependency.root(tracker))
        assert cache.read(4, 0, 171) == b"A" * 71 + b"B" * 100

    def test_append_dep_includes_pointer_promise(self):
        disk, tracker, scheduler, cache = _fresh()
        _, dep = cache.append(4, b"data", Dependency.root(tracker))
        scheduler.drain()  # data durable, but no superblock flush yet
        assert not dep.is_persistent()
        cache.superblock.flush()
        scheduler.drain()
        assert dep.is_persistent()

    def test_fault8_drops_pointer_promise(self):
        disk, tracker, scheduler, cache = _fresh(
            faults=FaultSet.only(Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP)
        )
        _, dep = cache.append(4, b"data", Dependency.root(tracker))
        scheduler.drain()
        assert dep.is_persistent(), "the fault reports persistent too early"

    def test_cadence_triggers_superblock_flush(self):
        disk, tracker, scheduler, cache = _fresh()
        epoch_before = cache.superblock.current_epoch()
        for i in range(cache.config.superblock_flush_cadence + 1):
            cache.append(4, b"z" * 16, Dependency.root(tracker))
        assert cache.superblock.current_epoch() > epoch_before


class TestInvalidation:
    def test_invalidate_extent_drops_pages(self):
        disk, tracker, scheduler, cache = _fresh()
        cache.append(4, b"x" * 200, Dependency.root(tracker))
        cache.append(5, b"y" * 200, Dependency.root(tracker))
        cache.invalidate_extent(4)
        assert all(key[0] != 4 for key in cache._pages)
        assert any(key[0] == 5 for key in cache._pages)

    def test_fault2_skips_invalidation(self):
        disk, tracker, scheduler, cache = _fresh(
            faults=FaultSet.only(Fault.CACHE_NOT_DRAINED_ON_RESET)
        )
        cache.append(4, b"stale" * 10, Dependency.root(tracker))
        cache.invalidate_extent(4)
        assert any(key[0] == 4 for key in cache._pages), "fault keeps pages"

    def test_stale_read_after_reset_with_fault2(self):
        disk, tracker, scheduler, cache = _fresh(
            faults=FaultSet.only(Fault.CACHE_NOT_DRAINED_ON_RESET)
        )
        cache.append(4, b"OLD!" * 32, Dependency.root(tracker))
        cache.read(4, 0, 128)
        scheduler.reset(4, Dependency.root(tracker))
        cache.invalidate_extent(4)  # no-op under the fault
        # The reused extent gets a shorter write; the stale full page wins.
        cache.append(4, b"NEW!", Dependency.root(tracker))
        assert cache.read(4, 0, 4) == b"OLD!", "stale page served: the bug"
        assert scheduler.read(4, 0, 4) == b"NEW!", "the medium has new data"

    def test_lru_eviction_bounds_size(self):
        disk, tracker, scheduler, cache = _fresh(cache_pages=4)
        for extent in (4, 5, 6):
            cache.append(extent, b"f" * 300, Dependency.root(tracker))
        assert cache.cached_pages <= 4


class TestByteBudgetEviction:
    """LRU eviction at the page budget (128-byte pages)."""

    def test_eviction_is_lru_and_reads_stay_correct(self):
        disk, tracker, scheduler, cache = _fresh(cache_pages=2)
        cache.append(4, b"a" * 128, Dependency.root(tracker))
        cache.append(5, b"b" * 128, Dependency.root(tracker))
        cache.read(4, 0, 128)  # touch 4 so extent 5 is the LRU victim
        cache.append(6, b"c" * 128, Dependency.root(tracker))
        assert (5, 0) not in cache._pages
        # Evicted pages refill through the scheduler transparently.
        assert cache.read(5, 0, 128) == b"b" * 128
        assert cache.read(4, 0, 128) == b"a" * 128
        assert cache.read(6, 0, 128) == b"c" * 128

    def test_one_oversized_page_always_fits(self):
        # The evictor never evicts the page it just inserted, even at the
        # smallest budget.
        disk, tracker, scheduler, cache = _fresh(cache_pages=1)
        cache.append(4, b"z" * 128, Dependency.root(tracker))
        assert cache.cached_pages == 1
        assert cache.read(4, 0, 128) == b"z" * 128

    def test_invalidate_all_resets_byte_accounting(self):
        disk, tracker, scheduler, cache = _fresh()
        cache.append(4, b"x" * 200, Dependency.root(tracker))
        assert cache.cached_pages == 2
        cache.invalidate_all()
        assert cache.cached_pages == 0
