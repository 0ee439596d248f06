"""Remembered chunk reads against fresh ones: a seeded differential test.

``BufferCache.read`` hands back the bytes it assembled last time when the
pages under the range are unchanged, and ``ChunkStore.get_chunk`` reuses the
decode kept with them.  Here every ``get_chunk`` made while conformance
sequences run -- gets, invariant sweeps, scrubs, recovery's run loads -- is
compared with ``decode_chunk`` of the same range assembled afresh from the
page images the cache serves once the read returns: what a read that
remembered nothing would have decoded.  Fault-free and with the Fig. 5
faults that corrupt, lose or stale what a read sees (#1, #2, #5, #8).
"""

import pytest

from repro.core import (
    StoreHarness,
    crash_alphabet,
    failure_alphabet,
    run_conformance,
    store_alphabet,
)
from repro.shardstore import (
    CorruptionError,
    DiskGeometry,
    ExtentError,
    Fault,
    FaultSet,
    IoError,
    StoreConfig,
    StoreSystem,
)
from repro.shardstore import chunk_store as chunk_store_module
from repro.shardstore.chunk import KIND_DATA, decode_chunk, frame_size
from repro.shardstore.chunk_store import ChunkStore
from repro.shardstore.dependency import Dependency

ALPHABETS = {
    "store": store_alphabet,
    "crash": crash_alphabet,
    "failure": failure_alphabet,
}
FAULTS = [
    None,
    Fault.RECLAIM_OFF_BY_ONE,
    Fault.CACHE_NOT_DRAINED_ON_RESET,
    Fault.RECLAIM_FORGETS_ON_READ_ERROR,
    Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP,
]
SEQUENCES = 20
OPS = 60


def _fresh_outcome(cache, locator, expected_key):
    """``get_chunk`` as a read that remembers nothing: the range assembled
    from the cached page images, decoded and checked like ``get_chunk``."""
    page = cache._page_size
    end = locator.offset + locator.length
    first = locator.offset // page
    frame = bytearray()
    for page_idx in range(first, max(first, (end - 1) // page) + 1):
        image = cache._pages[(locator.extent, page_idx)][0]
        start = page_idx * page
        lo = max(locator.offset, start) - start
        frame += image[lo : min(end, start + page) - start]
    try:
        chunk = decode_chunk(bytes(frame), 0)
        if chunk.frame_length != locator.length:
            raise CorruptionError(f"frame length mismatch at {locator}")
        if expected_key is not None and chunk.key != expected_key:
            raise CorruptionError(f"key mismatch at {locator}")
    except CorruptionError as exc:
        return ("CorruptionError", str(exc))
    return ("ok", chunk)


@pytest.fixture
def checked_gets(monkeypatch):
    """Wrap ``ChunkStore.get_chunk`` so every call is compared with a fresh
    decode; returns the tally of what was compared."""
    tally = {"compared": 0, "gets": 0, "decodes": 0}
    real_get = ChunkStore.get_chunk
    real_decode = chunk_store_module.decode_chunk

    def counting_decode(buf, offset=0):
        tally["decodes"] += 1
        return real_decode(buf, offset)

    def get_chunk(self, locator, *, expected_key=None):
        tally["gets"] += 1
        try:
            got = ("ok", real_get(self, locator, expected_key=expected_key))
        except IoError:
            # A refill failed: that page is not cached, nothing was decoded.
            page = self.cache._page_size
            end = locator.offset + locator.length
            assert any(
                (locator.extent, p) not in self.cache._pages
                for p in range(locator.offset // page, (end - 1) // page + 1)
            )
            raise
        except CorruptionError as exc:
            if isinstance(exc.__cause__, ExtentError):
                # Out of bounds: refused before any page was walked.
                soft = self.cache.scheduler.soft_pointer(locator.extent)
                assert locator.offset + locator.length > soft
                raise
            got = ("CorruptionError", str(exc))
            assert got == _fresh_outcome(self.cache, locator, expected_key)
            tally["compared"] += 1
            raise
        assert got == _fresh_outcome(self.cache, locator, expected_key)
        tally["compared"] += 1
        return got[1]

    monkeypatch.setattr(ChunkStore, "get_chunk", get_chunk)
    monkeypatch.setattr(chunk_store_module, "decode_chunk", counting_decode)
    return tally


@pytest.mark.parametrize("alphabet", sorted(ALPHABETS))
@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.name if f else "fault-free")
def test_every_chunk_read_equals_a_fresh_decode(checked_gets, alphabet, fault):
    faults = FaultSet.only(fault) if fault is not None else FaultSet.none()
    for seed in range(SEQUENCES):
        # One sequence per run: a failing verdict (the armed fault found)
        # must not stop the comparison for the seeds after it.
        run_conformance(
            lambda s: StoreHarness(faults, s),
            ALPHABETS[alphabet](),
            sequences=1,
            ops_per_sequence=OPS,
            base_seed=seed,
        )
    assert checked_gets["compared"] > 0
    # The memo is used: fewer frames decoded than chunk reads served.
    assert checked_gets["decodes"] < checked_gets["gets"]


def test_fault2_stale_tail_refilled_under_a_cached_first_page(checked_gets):
    """The case a memo checked against its range alone gets wrong, directed.

    Random sequences do not reach it: the harness stops at the first stale
    read.  Fault #2 keeps a reset extent's pages; the reused extent's frame
    B is read over a fresh first page and a stale last page (corrupt), then
    only its later pages leave the 4-page cache and are refilled from the
    medium.  The same read must now decode.
    """
    system = StoreSystem(
        StoreConfig(
            geometry=DiskGeometry(num_extents=10, extent_size=2048, page_size=128),
            faults=FaultSet.only(Fault.CACHE_NOT_DRAINED_ON_RESET),
            buffer_cache_pages=4,
        )
    )
    chunks = system.store.chunk_store
    cache = chunks.cache

    def put(size):
        payload = b"p" * (size - frame_size(b"k", b""))
        locator, _ = chunks.put_chunk(KIND_DATA, b"k", payload)
        assert locator.length == size
        return locator

    q = put(384)  # three pages of the first extent
    chunks.rotate_open()
    stale = put(384)  # three pages of the second; evicts two of the first
    extent = stale.extent
    cache.scheduler.reset(extent, Dependency.root(cache.scheduler.tracker))
    cache.invalidate_extent(extent)  # skipped under the fault
    a = put(50)  # page 0 keeps its longer stale image
    b = put(228)  # pages 0-1 refilled by the append, page 2 left stale
    assert (a.extent, a.offset, b.extent, b.offset) == (extent, 0, extent, 50)

    with pytest.raises(CorruptionError, match="trailing uuid"):
        chunks.get_chunk(b)  # remembered over the stale page 2
    with pytest.raises(CorruptionError):
        chunks.get_chunk(a)  # page 0 becomes the most recent page
    chunks.get_chunk(q)  # evicts every other page of the second extent
    assert (extent, 0) in cache._pages
    assert (extent, 1) not in cache._pages and (extent, 2) not in cache._pages
    assert chunks.get_chunk(b).payload == b"p" * (228 - frame_size(b"k", b""))
    assert checked_gets["compared"] == 4
