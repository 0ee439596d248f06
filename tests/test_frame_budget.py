"""The request envelope's fixed cost, counted in Python frames.

A cache-hot ``StorageNode.get`` on a ``node-serve``-shaped node does its
work in seven frames (index lookup, shard and chunk reads, the cache walk
and its memo); everything else is envelope -- validation, routing, the
clocks, locks, the lane's retry and breaker bookkeeping.  These budgets
count ``call`` events under ``sys.setprofile``, so they are exact and do
not depend on the machine.  A change that grows the envelope has to raise
a budget here and say why.
"""

import sys

from repro.shardstore import DiskGeometry, StorageNode, StoreConfig

#: Frames per op on a healthy node without journal or recorder
#: (DESIGN.md "Envelope cost" has the counts before and after).
GET_BUDGET = 26  # a cache-hot get
CONTAINS_BUDGET = 6
PUT_BUDGET = 65  # a put that flushes neither memtable nor superblock


def _frames(call):
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    # The lambda handed in is the test's own frame, not the op's.
    return len(calls) - 1


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
        assert _frames(lambda: node.get(keys[5])) <= GET_BUDGET

    def test_contains(self):
        node, keys = _warm_node()
        assert _frames(lambda: node.contains(keys[5])) <= CONTAINS_BUDGET

    def test_put_without_flushes(self):
        node, keys = _warm_node()
        store = node.systems[node.route_of(keys[5])].store

        def flushes():
            return store.index.stats.flushes, store.superblock.stats.flushes

        before = flushes()
        frames = _frames(lambda: node.put(keys[5], b"w" * 256))
        assert flushes() == before, "the counted put must not flush"
        assert frames <= PUT_BUDGET
