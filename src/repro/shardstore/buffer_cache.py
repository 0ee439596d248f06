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
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from .config import StoreConfig
from .dependency import Dependency
from .errors import ExtentError, IoError
from .faults import Fault
from .scheduler import IoScheduler
from .superblock import Superblock


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
        # (extent, page index) -> (page bytes so far, valid length)
        self._pages: "OrderedDict[Tuple[int, int], Tuple[bytes, int]]" = OrderedDict()
        self._page_budget = config.buffer_cache_pages
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # read path

    def read(self, extent: int, offset: int, length: int) -> bytes:
        """Read ``length`` bytes below the soft pointer, page-cached."""
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
            # Single-page fast path: serve a slice straight off the page.
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
        """The cached page, refetched if the cached prefix is too short."""
        key = (extent, page_idx)
        cached = self._pages.get(key)
        if cached is not None and cached[1] >= need:
            self._pages.move_to_end(key)
            self.hits += 1
            if self.recorder.enabled:
                self.recorder.count("cache.hits")
            return cached[0]
        self.misses += 1
        if self.recorder.enabled:
            self.recorder.count("cache.misses")
        page_start = page_idx * self._page_size
        soft = self.scheduler.soft_pointer(extent)
        valid = min(self._page_size, soft - page_start)
        data = self.scheduler.read(extent, page_start, valid)
        self._insert(key, data, valid)
        return data

    def _insert(self, key: Tuple[int, int], data: bytes, valid: int) -> None:
        pages = self._pages
        pages[key] = (data, valid)
        pages.move_to_end(key)
        while len(pages) > self._page_budget:
            pages.popitem(last=False)

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
