"""Unit tests for the page cache: filled by read misses, never by appends."""

import random

import pytest

from repro.shardstore import (
    DiskGeometry,
    ExtentError,
    Fault,
    FaultSet,
    InMemoryDisk,
    IoError,
    StorageNode,
    StoreConfig,
)
from repro.shardstore.buffer_cache import BufferCache
from repro.shardstore.dependency import Dependency, DurabilityTracker
from repro.shardstore.disk import FailureMode
from repro.shardstore.observability import NULL_RECORDER, RingRecorder
from repro.shardstore.scheduler import IoScheduler
from repro.shardstore.superblock import Superblock


def _fresh(faults=None, cache_pages=8, recorder=NULL_RECORDER, cache_cls=BufferCache):
    config = StoreConfig(
        geometry=DiskGeometry(num_extents=10, extent_size=2048, page_size=128),
        faults=faults or FaultSet.none(),
        buffer_cache_pages=cache_pages,
        recorder=recorder,
    )
    disk = InMemoryDisk(config.geometry)
    tracker = DurabilityTracker()
    scheduler = IoScheduler(disk, tracker, random.Random(0))
    superblock = Superblock(scheduler, config)
    return disk, tracker, scheduler, cache_cls(scheduler, superblock, config)


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
    def test_append_files_no_page(self):
        disk, tracker, scheduler, cache = _fresh()
        cache.append(4, b"q" * 300, Dependency.root(tracker))
        assert (cache.cached_pages, cache.hits, cache.misses) == (0, 0, 0)

    @pytest.mark.parametrize(
        "fault", [None, Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP], ids=["fixed", "fault8"]
    )
    @pytest.mark.parametrize("tail", [50, 150], ids=["same-page", "next-page"])
    def test_read_after_append_to_a_partly_cached_page(self, fault, tail):
        """Page 0 is cached 50 bytes long; an append extends it (and, at
        150 bytes, runs on into page 1).  The read of the new bytes refills
        page 0 from the scheduler instead of serving its short image."""
        faults = FaultSet.only(fault) if fault is not None else None
        disk, tracker, scheduler, cache = _fresh(faults=faults)
        cache.append(4, b"a" * 50, Dependency.root(tracker))
        assert cache.read(4, 0, 50) == b"a" * 50
        assert cache._pages[(4, 0)][1] == 50
        cache.append(4, b"b" * tail, Dependency.root(tracker))
        assert cache._pages[(4, 0)][1] == 50, "the append left the page alone"
        assert cache.read(4, 50, tail) == b"b" * tail
        assert cache.read(4, 0, 50 + tail) == b"a" * 50 + b"b" * tail
        assert cache._pages[(4, 0)][1] == min(128, 50 + tail)

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
        cache.read(4, 0, 200)
        cache.read(5, 0, 200)
        cache.invalidate_extent(4)
        assert all(key[0] != 4 for key in cache._pages)
        assert any(key[0] == 5 for key in cache._pages)
        assert cache.stats.invalidated_pages == 2

    def test_fault2_skips_invalidation(self):
        disk, tracker, scheduler, cache = _fresh(
            faults=FaultSet.only(Fault.CACHE_NOT_DRAINED_ON_RESET)
        )
        cache.append(4, b"stale" * 10, Dependency.root(tracker))
        cache.read(4, 0, 50)  # a read before the reset files the page
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

    def test_reset_drains_the_page_a_read_filed(self):
        disk, tracker, scheduler, cache = _fresh()
        cache.append(4, b"OLD!" * 32, Dependency.root(tracker))
        cache.read(4, 0, 128)
        scheduler.reset(4, Dependency.root(tracker))
        cache.invalidate_extent(4)
        cache.append(4, b"NEW!", Dependency.root(tracker))
        assert cache.read(4, 0, 4) == b"NEW!"

    def test_lru_eviction_bounds_size(self):
        disk, tracker, scheduler, cache = _fresh(cache_pages=4)
        for extent in (4, 5, 6):
            cache.append(extent, b"f" * 300, Dependency.root(tracker))
            cache.read(extent, 0, 300)
        assert cache.cached_pages == 4
        assert list(cache._pages) == [(5, 2), (6, 0), (6, 1), (6, 2)]


class TestPageBudgetEviction:
    """LRU eviction at the page budget (128-byte pages)."""

    def test_eviction_is_lru_and_reads_stay_correct(self):
        disk, tracker, scheduler, cache = _fresh(cache_pages=2)
        cache.append(4, b"a" * 128, Dependency.root(tracker))
        cache.append(5, b"b" * 128, Dependency.root(tracker))
        cache.append(6, b"c" * 128, Dependency.root(tracker))
        cache.read(4, 0, 128)
        cache.read(5, 0, 128)
        cache.read(4, 0, 128)  # touch 4 so extent 5 is the LRU victim
        cache.read(6, 0, 128)
        assert list(cache._pages) == [(4, 0), (6, 0)]
        # Evicted pages refill through the scheduler transparently.
        assert cache.read(5, 0, 128) == b"b" * 128
        assert cache.read(4, 0, 128) == b"a" * 128
        assert cache.read(6, 0, 128) == b"c" * 128

    def test_one_oversized_page_always_fits(self):
        # The evictor never evicts the page it just inserted, even at the
        # smallest budget.
        disk, tracker, scheduler, cache = _fresh(cache_pages=1)
        cache.append(4, b"z" * 128 + b"y" * 128, Dependency.root(tracker))
        assert cache.read(4, 0, 256) == b"z" * 128 + b"y" * 128
        assert list(cache._pages) == [(4, 1)]

    def test_invalidate_all_resets_page_count(self):
        disk, tracker, scheduler, cache = _fresh()
        cache.append(4, b"x" * 200, Dependency.root(tracker))
        cache.read(4, 0, 200)
        assert cache.cached_pages == 2
        cache.invalidate_all()
        assert cache.cached_pages == 0


class TestSizeBounds:
    """A cache or chunk size below one is refused where it is configured,
    not by a raw error from the first ``put``."""

    @pytest.mark.parametrize("field", ["buffer_cache_pages", "max_chunk_payload"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_below_one_is_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            StoreConfig(**{field: value})

    @pytest.mark.parametrize("field", ["buffer_cache_pages", "max_chunk_payload"])
    def test_one_is_accepted(self, field):
        assert getattr(StoreConfig(**{field: 1}), field) == 1


class _ReferenceCache(BufferCache):
    """The read path as it was before reads were remembered, verbatim but
    for the entry it unpacks: the reference for the page walk."""

    def read(self, extent: int, offset: int, length: int) -> bytes:
        if length < 0 or offset < 0:
            raise ExtentError("negative read bounds")
        soft = self.scheduler.soft_pointer(extent)
        if offset + length > soft:
            raise ExtentError(
                f"read beyond soft write pointer on extent {extent}: "
                f"[{offset}, {offset + length}) > {soft}"
            )
        page = self._page_size
        end = offset + length
        first_page = offset // page
        if end <= (first_page + 1) * page:
            page_start = first_page * page
            data = self._page(extent, first_page, end - page_start)
            return data[offset - page_start : end - page_start]
        out = bytearray()
        cursor = offset
        while cursor < end:
            page_idx = cursor // page
            page_start = page_idx * page
            in_page_end = min(end, page_start + page) - page_start
            data = self._page(extent, page_idx, in_page_end)
            out += data[cursor - page_start : in_page_end]
            cursor = page_start + page
        return bytes(out)

    def _page(self, extent: int, page_idx: int, need: int) -> bytes:
        key = (extent, page_idx)
        cached = self._pages.get(key)
        if cached is not None and cached[1] >= need:
            self._pages.move_to_end(key)
            self.stats.hits += 1
            return cached[0]
        self.stats.misses += 1
        page_start = page_idx * self._page_size
        soft = self.scheduler.soft_pointer(extent)
        valid = min(self._page_size, soft - page_start)
        data = self.scheduler.read(extent, page_start, valid)
        self._insert(key, data, valid)
        return data


def _walk_trace(script, cache_cls, faults=None):
    """Run ``script`` against a fresh 4-page cache; after every step record
    the outcome, the hit/miss counters (the cache's stats and the
    recorder's sum of them), the LRU order and every scheduler read made
    so far."""
    recorder = RingRecorder()
    disk, tracker, scheduler, cache = _fresh(
        faults=faults, cache_pages=4, recorder=recorder, cache_cls=cache_cls
    )
    reads = []
    scheduler_read = scheduler.read

    def logged_read(extent, offset, length):
        reads.append((extent, offset, length))
        return scheduler_read(extent, offset, length)

    scheduler.read = logged_read
    trace = []
    for step in script:
        try:
            outcome = ("ok", step(disk, tracker, scheduler, cache))
        except (IoError, ExtentError) as exc:
            outcome = (type(exc).__name__, str(exc))
        counters = recorder.snapshot()["metrics"]["counters"]
        trace.append(
            (
                outcome,
                cache.stats.hits,
                cache.stats.misses,
                counters.get("cache.hits", 0),
                counters.get("cache.misses", 0),
                list(cache._pages),
                list(reads),
            )
        )
    return trace


def _append(extent, data):
    def step(disk, tracker, scheduler, cache):
        return cache.append(extent, data, Dependency.root(tracker))[0]

    return step


def _read(extent, offset, length):
    return lambda disk, tracker, scheduler, cache: cache.read(extent, offset, length)


def _append_and_read(extent, data):
    """An append and the read that files its pages: appends file none."""
    return [_append(extent, data), _read(extent, 0, len(data))]


def _evict_middle_page():
    """With pages 0-2 of extent 4 cached, fill the 4-page budget, touch
    pages 0 and 2 and add one more page: (4, 1) is evicted, and refilling
    it evicts (5, 0), not a page of extent 4."""
    return (
        _append_and_read(5, b"e" * 128)
        + [_read(4, 0, 128), _read(4, 256, 128)]
        + _append_and_read(6, b"f" * 128)
    )


def _three_pages():
    return bytes(range(256)) + bytes(range(128))


class TestPageWalkAgainstReference:
    """The walk under a remembered read is the walk of the old read: same
    bytes, stats, the recorder's counters, LRU order and scheduler reads."""

    def _assert_same(self, script, faults=None):
        got = _walk_trace(script, BufferCache, faults)
        want = _walk_trace(script, _ReferenceCache, faults)
        assert got == want
        return got

    def test_multi_page_read_whose_middle_page_misses(self):
        script = (
            [_append(4, _three_pages()), _read(4, 10, 300), _read(4, 10, 300)]
            + _evict_middle_page()
            + [_read(4, 10, 300), _read(4, 10, 300), _read(4, 130, 10)]
        )
        trace = self._assert_same(script)
        middle_miss = trace[9]
        assert middle_miss[0] == ("ok", _three_pages()[10:310])
        assert middle_miss[6][-1] == (4, 128, 128), "refilled from the scheduler"

    def test_second_page_raising_io_error_keeps_earlier_hits(self):
        def drain_and_arm(disk, tracker, scheduler, cache):
            scheduler.drain()  # the refill must reach the disk
            disk.arm_fault(4, FailureMode.ONCE, writes=False)

        script = (
            [_append(4, _three_pages()), _read(4, 10, 300)]
            + _evict_middle_page()
            + [drain_and_arm, _read(4, 10, 300), _read(4, 10, 300)]
        )
        trace = self._assert_same(script)
        failed, retried = trace[-2], trace[-1]
        assert failed[0][0] == "IoError"
        assert failed[1] == trace[-3][1] + 1, "the first page's hit is counted"
        assert failed[2] == trace[-3][2] + 1, "the failed refill is a miss"
        assert retried[0] == ("ok", _three_pages()[10:310])

    def test_fault2_read_after_reset_and_reuse(self):
        """Stale pages under fault #2: a read remembered over a fresh first
        page and a stale second one, then the second page refilled from the
        medium while the first stays cached.  The stale pages are filed by
        a read before the reset, as the reclamation scan files them."""

        def reset(disk, tracker, scheduler, cache):
            scheduler.reset(4, Dependency.root(tracker))
            cache.invalidate_extent(4)  # skipped under the fault

        script = (
            [
                _append(4, b"O" * 384),
                _read(4, 128, 256),  # files pages 1 and 2
                reset,
                _append(4, b"N" * 128),
                _append(4, b"M" * 100),  # page 1 keeps its longer stale image
                _read(4, 0, 228),  # page 0 filled from the medium
                _read(4, 0, 228),
                _read(4, 5, 10),  # page 0 most recent, pages 2 and 1 oldest
            ]
            + _append_and_read(5, b"e" * 128)
            + _append_and_read(6, b"f" * 128)
            + _append_and_read(7, b"g" * 128)  # evicts (4, 2) and (4, 1)
            + [_read(4, 0, 228), _read(4, 0, 228)]
        )
        trace = self._assert_same(
            script, FaultSet.only(Fault.CACHE_NOT_DRAINED_ON_RESET)
        )
        assert trace[5][0] == ("ok", b"N" * 128 + b"O" * 100), "the bug, served"
        assert trace[6][0] == ("ok", b"N" * 128 + b"O" * 100)
        assert trace[-2][0] == ("ok", b"N" * 128 + b"M" * 100)
        assert trace[-1][0] == ("ok", b"N" * 128 + b"M" * 100)
        fixed = self._assert_same(script)
        assert fixed[5][0] == ("ok", b"N" * 128 + b"M" * 100)


class TestRememberedReads:
    def test_unchanged_pages_return_the_same_bytes(self):
        disk, tracker, scheduler, cache = _fresh()
        cache.append(4, _three_pages(), Dependency.root(tracker))
        cache.read(4, 10, 300)  # fills pages 0-2
        first = cache.read(4, 10, 300)
        assert cache.read(4, 10, 300) is first
        assert cache.memo(4, 10, first).data is first
        assert cache.memo(4, 10, bytes(bytearray(first))) is None, "keyed by object"

    def test_a_read_that_missed_is_not_remembered(self):
        disk, tracker, scheduler, cache = _fresh()
        scheduler.append(4, _three_pages(), Dependency.root(tracker))
        missed = cache.read(4, 10, 300)  # fills pages 0-2
        assert cache.memo(4, 10, missed) is None
        hit = cache.read(4, 10, 300)
        assert hit == missed and hit is not missed
        assert cache.read(4, 10, 300) is hit

    def test_memo_goes_with_its_first_page(self):
        disk, tracker, scheduler, cache = _fresh()
        cache.append(4, _three_pages(), Dependency.root(tracker))
        first = cache.read(4, 10, 300)
        cache.invalidate_extent(4)
        assert cache.memo(4, 10, first) is None
        again = cache.read(4, 10, 300)
        assert again == first and again is not first

    def test_fault2_memo_lives_as_long_as_the_stale_page(self):
        disk, tracker, scheduler, cache = _fresh(
            faults=FaultSet.only(Fault.CACHE_NOT_DRAINED_ON_RESET)
        )
        cache.append(4, b"OLD!" * 32, Dependency.root(tracker))
        cache.read(4, 0, 4)  # fills page 0
        stale = cache.read(4, 0, 4)
        scheduler.reset(4, Dependency.root(tracker))
        cache.invalidate_extent(4)  # no-op under the fault
        cache.append(4, b"NEW!", Dependency.root(tracker))
        assert cache.read(4, 0, 4) is stale
        cache.invalidate_all()
        assert cache.read(4, 0, 4) == b"NEW!"


def _node(faults=None, num_disks=2):
    return StorageNode(
        num_disks=num_disks,
        config=StoreConfig(
            geometry=DiskGeometry(64, 65536, 512),
            faults=faults or FaultSet.none(),
            buffer_cache_pages=256,
            seed=7,
        ),
    )


def _caches(node):
    return [system.store.chunk_store.cache for system in node.systems]


class TestNodePutsFileNothing:
    def test_put_on_a_warm_node_leaves_the_cache_alone(self):
        node = _node()
        keys = [b"key-%03d" % i for i in range(40)]
        for key in keys:
            node.put(key, b"v" * 200)
        for key in keys:
            node.get(key)

        def state():
            return [(c.cached_pages, c.hits, c.misses) for c in _caches(node)]

        before = state()
        node.put(keys[3], b"w" * 200)  # an overwrite
        node.put(b"key-new", b"n" * 200)
        assert state() == before

    @pytest.mark.parametrize(
        "fault", [None, Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP], ids=["fixed", "fault8"]
    )
    @pytest.mark.parametrize(
        "size, pages", [(40, 1), (700, 2)], ids=["same-page", "next-page"]
    )
    def test_get_after_a_put_onto_a_partly_cached_page(self, fault, size, pages):
        """One disk, so both puts land on the same extent: the second put's
        frame starts on the page the first get filed short (512-byte pages;
        the first frame is 90 bytes, the second 51 + ``size``)."""
        faults = FaultSet.only(fault) if fault is not None else None
        node = _node(faults, num_disks=1)
        (cache,) = _caches(node)
        node.put(b"first", b"a" * 40)
        assert node.get(b"first") == b"a" * 40  # files its short page
        assert cache.misses == 1
        node.put(b"second", b"b" * size)
        assert node.get(b"second") == b"b" * size
        assert node.get(b"first") == b"a" * 40
        assert cache.misses == 1 + pages, "the short page was refilled"
