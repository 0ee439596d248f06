"""Write-through page cache over the IO scheduler.

All chunk reads and data-extent appends go through this cache.  It is the
home of two Fig. 5 issues:

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
refill, a write-through fill and invalidation replace or drop the entry
and the memos with it (DESIGN.md "Buffer cache").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from .config import StoreConfig
from .dependency import Dependency
from .errors import ExtentError, IoError
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


#: One cached page: (page bytes so far, valid length, memos by read offset
#: or None).  A tuple, not a list: the collector stops tracking a tuple of
#: bytes, int and None, but would track a list, one per cached page, for
#: its whole life.
_Entry = Tuple[bytes, int, Optional[Dict[int, FrameMemo]]]


class BufferCache:
    """LRU page cache; write-through on append, demand-fill on read."""

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
        self.hits = 0
        self.misses = 0

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
        recorder = self.recorder
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
                self.hits += 1
                if recorder.enabled:
                    recorder.count("cache.hits")
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
        self.misses += 1
        if self.recorder.enabled:
            self.recorder.count("cache.misses")
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

        The returned dependency is ``data-write AND superblock-promise``;
        fault #8 drops the superblock promise.
        """
        offset, data_dep = self.scheduler.append(extent, data, dep, label=label)
        self._fill_from_append(extent, offset, data)
        pointer_dep = self.superblock.note_append(extent)
        self.superblock.maybe_flush()
        if self.faults.enabled(Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP):
            if self.recorder.enabled:
                self.recorder.fault_event(
                    Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP,
                    "Buffer cache",
                    f"append@{extent} returned without the soft-pointer promise",
                )
            return offset, data_dep
        return offset, data_dep.and_(pointer_dep)

    def _fill_from_append(self, extent: int, offset: int, data: bytes) -> None:
        """Populate cache pages covering a fresh append (write-through).

        An append can start mid-page; the bytes before it belong to earlier
        appends and must come from the cache or, if the page was never
        cached that far, from the scheduler -- fabricating anything for the
        prefix would corrupt the cached image of the previous chunk's tail.
        """
        page = self._page_size
        end = offset + len(data)
        view = memoryview(data)
        for page_idx in range(offset // page, (end - 1) // page + 1):
            page_start = page_idx * page
            valid = min(page, end - page_start)
            key = (extent, page_idx)
            cached = self._pages.get(key)
            if cached is not None and cached[1] > valid:
                continue  # cache already knows a longer prefix
            lo = max(offset, page_start)
            prefix_len = lo - page_start
            known = cached[1] if cached is not None else 0
            seg = view[lo - offset : min(end, page_start + page) - offset]
            if known == prefix_len:
                # Fast path: the cached prefix (possibly empty) ends exactly
                # where this append starts -- concatenate, no readback and no
                # scratch buffer.
                if prefix_len:
                    self._insert(key, cached[0] + bytes(seg), valid)
                else:
                    self._insert(key, bytes(seg), valid)
                continue
            fresh = bytearray(valid)
            if cached is not None:
                fresh[:known] = cached[0][:known]
            if known < prefix_len:
                # Earlier appends own [known, prefix_len); read them back.
                try:
                    fresh[known:prefix_len] = self.scheduler.read(
                        extent, page_start + known, prefix_len - known
                    )
                except IoError:
                    # Injected read fault: don't cache a page we cannot
                    # reconstruct; the read path will refetch it later.
                    self._pages.pop(key, None)
                    continue
            fresh[prefix_len:valid] = seg
            self._insert(key, bytes(fresh), valid)

    # ------------------------------------------------------------------
    # invalidation

    def invalidate_extent(self, extent: int) -> None:
        """Drop every cached page of ``extent`` (called on extent reset).

        Fault #2 skips the drain, leaving stale pages that a later reuse of
        the extent can serve to readers.
        """
        if self.faults.enabled(Fault.CACHE_NOT_DRAINED_ON_RESET):
            if self.recorder.enabled:
                self.recorder.fault_event(
                    Fault.CACHE_NOT_DRAINED_ON_RESET,
                    "Buffer cache",
                    f"reset of extent {extent} left cached pages in place",
                )
            return
        stale = [key for key in self._pages if key[0] == extent]
        for key in stale:
            del self._pages[key]
        if self.recorder.enabled:
            self.recorder.count("cache.invalidated_pages", len(stale))

    def invalidate_all(self) -> None:
        self._pages.clear()

    @property
    def cached_pages(self) -> int:
        return len(self._pages)
