"""Demand-filled page cache over the IO scheduler.

All chunk reads and data-extent appends go through this cache.  Only a
read miss files a page (:meth:`BufferCache._fill`); an append files
nothing.  A cached page is a valid prefix of its page, and an append never
changes the bytes below the soft pointer it started at, so a page cached
before an append is still right for every byte it holds, and a read that
needs more of the page than it holds refills it.  It is the home of two
Fig. 5 issues:

* **Fault #2** -- the cache must be drained when an extent is reset, or a
  later reuse of the extent can serve stale pages to readers.
* **Fault #8** -- the append path must combine the data-write dependency
  with the superblock soft-pointer-update promise; dropping the promise
  lets an operation report persistent while a crash would recover a write
  pointer that excludes its data.

The cache also triggers the superblock's regular-cadence flush, since it is
the single append path for chunk data (section 2.1's "superblock flushed on
a regular cadence").

Each cached page also carries the memos of the reads that started on it
and hit on every page (:class:`FrameMemo`): the bytes a read returned, and
the images of the pages they were assembled from.  A memo is a function of those
page images alone, so it is exact for as long as they are what the cache
serves, and it lives exactly as long as its page's entry: eviction, a
refill and invalidation replace or drop the entry and the memos with it
(DESIGN.md "Buffer cache").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .config import StoreConfig
from .dependency import Dependency
from .errors import ExtentError
from .faults import Fault
from .scheduler import IoScheduler
from .superblock import Superblock


class FrameMemo:
    """One remembered read: the bytes it returned and how they were built.

    Filed with the page the read starts on, keyed by the read's offset.
    ``pages`` holds the images of every page the bytes were assembled from,
    in order; a later read of the same range returns ``data`` again only if
    it walked the same images.  ``decoded`` is free for the caller to fill
    with whatever it derives from ``data`` alone (the chunk store keeps the
    decoded frame there).
    """

    __slots__ = ("pages", "data", "decoded")

    def __init__(self, pages: List[bytes], data: bytes) -> None:
        self.pages = pages
        self.data = data
        self.decoded: Any = None


@dataclass
class CacheStats:
    """The cache's counters, exported as ``cache.<field>``."""

    hits: int = 0
    misses: int = 0
    invalidated_pages: int = 0  # dropped by extent resets


#: One cached page: (page bytes so far, valid length, memos by read offset
#: or None).  A tuple, not a list: the collector stops tracking a tuple of
#: bytes, int and None, but would track a list, one per cached page, for
#: its whole life.
_Entry = Tuple[bytes, int, Optional[Dict[int, FrameMemo]]]


class BufferCache:
    """LRU page cache, filled by read misses only."""

    def __init__(
        self, scheduler: IoScheduler, superblock: Superblock, config: StoreConfig
    ) -> None:
        self.scheduler = scheduler
        self.superblock = superblock
        self.config = config
        self.faults = config.faults
        self.recorder = config.recorder
        self._page_size = config.geometry.page_size
        self._pages: "OrderedDict[Tuple[int, int], _Entry]" = OrderedDict()
        self._page_budget = config.buffer_cache_pages
        self.stats = CacheStats()
        if self.recorder.enabled:
            self.recorder.watch("cache", self.stats)

    @property
    def hits(self) -> int:
        return self.stats.hits

    @property
    def misses(self) -> int:
        return self.stats.misses

    # ------------------------------------------------------------------
    # read path

    def read(self, extent: int, offset: int, length: int) -> bytes:
        """Read ``length`` bytes below the soft pointer, page-cached.

        Every page under the range is walked, in order, whether or not the
        bytes are remembered: the LRU moves, hit/miss counts and refills are
        those of a plain read.  When the pages walked are the images the
        last remembered read of the same range was assembled from, that
        read's bytes object is returned again instead of a fresh copy.  A
        read is remembered when every page it walked was a hit.
        """
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
        first = offset // page
        last = (end - 1) // page if length else first
        pages = self._pages
        stats = self.stats
        # The walk: every page under the range, in order.  A page must hold
        # its bytes of the range (all of it, but for the last page); the hit
        # path is inlined, a miss is counted and refilled by ``_fill``.
        last_need = end - last * page
        images = []
        head = None
        missed = False
        for page_idx in range(first, last + 1):
            key = (extent, page_idx)
            entry = pages.get(key)
            if entry is not None and entry[1] >= (
                page if page_idx < last else last_need
            ):
                pages.move_to_end(key)
                stats.hits += 1
            else:
                entry = self._fill(key, page_idx * page)
                missed = True
            if head is None:
                head = entry
            images.append(entry[0])
        memos = head[2]
        if memos is not None:
            memo = memos.get(offset)
            # List equality compares the page images by identity first.
            if memo is not None and len(memo.data) == length and memo.pages == images:
                return memo.data
        first_start = first * page
        if first == last:
            data = images[0][offset - first_start : end - first_start]
        else:
            out = bytearray(images[0][offset - first_start : page])
            cursor = first_start + page
            for image in images[1:]:
                out += image[: min(end - cursor, page)]
                cursor += page
            data = bytes(out)
        if not missed:
            # Only a read whose pages were all cached is remembered: a miss
            # says the cache is turning over under this range, and there a
            # memo is built far more often than it is used.
            self._remember((extent, first), head, offset, images, data)
        return data

    def memo(self, extent: int, offset: int, data: bytes) -> Optional[FrameMemo]:
        """The memo of the read at ``offset`` that returned ``data``, if any.

        ``None`` once the read's first page has left the cache, or when the
        read was not remembered (it missed a page).  No LRU move and no
        count: this is bookkeeping for the caller that just made the read.
        """
        entry = self._pages.get((extent, offset // self._page_size))
        if entry is None or entry[2] is None:
            return None
        memo = entry[2].get(offset)
        return memo if memo is not None and memo.data is data else None

    def _fill(self, key: Tuple[int, int], page_start: int) -> _Entry:
        """Count a miss and refetch the page's valid prefix into the cache."""
        self.stats.misses += 1
        valid = min(self._page_size, self.scheduler.soft_pointer(key[0]) - page_start)
        data = self.scheduler.read(key[0], page_start, valid)
        return self._insert(key, data, valid)

    def _insert(self, key: Tuple[int, int], data: bytes, valid: int) -> _Entry:
        pages = self._pages
        entry = pages[key] = (data, valid, None)
        pages.move_to_end(key)
        while len(pages) > self._page_budget:
            pages.popitem(last=False)
        return entry

    def _remember(
        self,
        key: Tuple[int, int],
        head: _Entry,
        offset: int,
        images: List[bytes],
        data: bytes,
    ) -> None:
        """File a read's memo with ``head``, its first page's entry.

        Called only after a walk that hit on every page: nothing was filled,
        so nothing was evicted, and ``head`` is still the entry at ``key``.
        """
        memos = head[2]
        if memos is None:
            memos = {}
            # Same key: the page keeps its LRU position.
            self._pages[key] = (head[0], head[1], memos)
        memos[offset] = FrameMemo(images, data)

    # ------------------------------------------------------------------
    # write path

    def append(
        self, extent: int, data: bytes, dep: Dependency, label: str = ""
    ) -> Tuple[int, Dependency]:
        """Append through the cache; returns (offset, persistence dep).

        The append files no page: a later read of its bytes misses, or
        refills the page whose cached prefix ends short of them.  The
        returned dependency is ``data-write AND superblock-promise``, one
        object built by ``Superblock.note_append`` from the append's records
        (the scheduler's ``promise``); fault #8 drops the superblock promise.
        """
        superblock = self.superblock
        if self.faults.enabled(Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP):
            offset, data_dep = self.scheduler.append(extent, data, dep, label=label)
            superblock.note_append(extent)
            superblock.maybe_flush()
            self.recorder.fault_event(
                Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP,
                f"append@{extent} returned without the soft-pointer promise",
            )
            return offset, data_dep
        offset, write_dep = self.scheduler.append(
            extent, data, dep, label=label, promise=superblock.note_append
        )
        superblock.maybe_flush()
        return offset, write_dep

    # ------------------------------------------------------------------
    # invalidation

    def invalidate_extent(self, extent: int) -> None:
        """Drop every cached page of ``extent`` (called on extent reset).

        Fault #2 skips the drain, leaving stale pages that a later reuse of
        the extent can serve to readers.
        """
        if self.faults.enabled(Fault.CACHE_NOT_DRAINED_ON_RESET):
            self.recorder.fault_event(
                Fault.CACHE_NOT_DRAINED_ON_RESET,
                f"reset of extent {extent} left cached pages in place",
            )
            return
        stale = [key for key in self._pages if key[0] == extent]
        for key in stale:
            del self._pages[key]
        self.stats.invalidated_pages += len(stale)

    def invalidate_all(self) -> None:
        self._pages.clear()

    @property
    def cached_pages(self) -> int:
        return len(self._pages)
