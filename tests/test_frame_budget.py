"""The request envelope's fixed cost, counted in Python frames.

A cache-hot ``StorageNode.get`` on a ``node-serve``-shaped node does its
work in seven frames (index lookup, shard and chunk reads, the cache walk
and its memo); everything else is envelope -- validation, routing, the
clocks, locks, the lane's retry and breaker bookkeeping.  These budgets
count ``call`` events under ``sys.setprofile``, so they are exact and do
not depend on the machine.  A change that grows the envelope has to raise
a budget here and say why.  A missed budget prints the frames counted
(``file:function``, in call order), so a miss on another Python version
says which frames grew.
"""

import os
import sys

from repro.shardstore import DiskGeometry, StorageNode, StoreConfig
from repro.shardstore.dependency import Dependency, FutureCell

#: Frames per op on a healthy node without journal or recorder
#: (DESIGN.md "Envelope cost" has the counts before and after).
GET_BUDGET = 24  # a cache-hot get
CONTAINS_BUDGET = 6
PUT_BUDGET = 49  # a put that flushes neither memtable nor superblock
DELETE_BUDGET = 33  # a delete that flushes neither
#: Objects a flush-free put builds: the chunk's data-plus-pointer
#: dependency and the index entry's; the index entry's promise cell, and
#: the extent's pointer-promise cell when the put opens its era.
PUT_DEPENDENCIES = 2
PUT_CELLS = 2


class _Frames(list):
    """The ``file:function`` of every frame an op entered, in order."""

    def entered(self, code):
        """How many frames ran ``code`` (a constructor: objects built)."""
        return sum(1 for _, c in self if c is code)

    def __str__(self):
        return "\n".join(name for name, _ in self)


def _frames(call):
    calls = _Frames()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = f"{os.path.basename(code.co_filename)}:{code.co_name}"
            calls.append((name, code))

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    # The lambda handed in is the test's own frame, not the op's.
    del calls[0]
    return calls


def _warm_node():
    """The ``node-serve`` shape: 3 disks, 512-byte pages, a 1,024-page
    cache, 64-entry memtables; every key written, flushed, drained and
    read twice so its pages and decoded chunk are memoised."""
    node = StorageNode(
        num_disks=3,
        config=StoreConfig(
            geometry=DiskGeometry(128, 262144, 512),
            max_chunk_payload=4096,
            memtable_flush_threshold=64,
            buffer_cache_pages=1024,
            seed=7,
        ),
    )
    keys = [b"key-%04d" % i for i in range(120)]
    for key in keys:
        node.put(key, b"v" * 256)
    node.flush()
    node.drain()
    for _ in range(2):
        for key in keys:
            node.get(key)
    return node, keys


class TestEnvelopeFrameBudget:
    def test_hot_get(self):
        node, keys = _warm_node()
        frames = _frames(lambda: node.get(keys[5]))
        assert len(frames) <= GET_BUDGET, f"{len(frames)} frames:\n{frames}"

    def test_contains(self):
        node, keys = _warm_node()
        frames = _frames(lambda: node.contains(keys[5]))
        assert len(frames) <= CONTAINS_BUDGET, f"{len(frames)} frames:\n{frames}"

    def test_put_without_flushes(self):
        node, keys = _warm_node()
        store = node.systems[node.route_of(keys[5])].store

        def flushes():
            return store.index.stats.flushes, store.superblock.stats.flushes

        before = flushes()
        frames = _frames(lambda: node.put(keys[5], b"w" * 256))
        assert flushes() == before, "the counted put must not flush"
        assert len(frames) <= PUT_BUDGET, f"{len(frames)} frames:\n{frames}"
        deps = frames.entered(Dependency.__init__.__code__)
        cells = frames.entered(FutureCell.__init__.__code__)
        assert deps <= PUT_DEPENDENCIES, f"{deps} Dependency objects:\n{frames}"
        assert cells <= PUT_CELLS, f"{cells} FutureCell objects:\n{frames}"

    def test_delete_without_flushes(self):
        node, keys = _warm_node()
        store = node.systems[node.route_of(keys[5])].store

        def flushes():
            return store.index.stats.flushes, store.superblock.stats.flushes

        before = flushes()
        frames = _frames(lambda: node.delete(keys[5]))
        assert flushes() == before, "the counted delete must not flush"
        assert len(frames) <= DELETE_BUDGET, f"{len(frames)} frames:\n{frames}"
