"""The writeback order of a seeded node ingest, pinned.

Writeback picks among the eligible extents with a seeded RNG, so which
heads a poll finds eligible, and the order it lists them in, decides every
later device write.  The digest below covers every device write
``(disk, extent, offset, length)`` and reset of a small ``StorageNode``
ingest -- puts, overwrites, deletes, flushes, drains and one reclaim -- and
each scheduler's final RNG state.  It moves if a poll hides an eligible
head or shows a blocked one, if a coalesced IO takes a record early or
late, or if writeback draws the RNG once more or less.
"""

import hashlib
import random

from repro.shardstore import DiskGeometry, InMemoryDisk, StoreConfig
from repro.shardstore.rpc import StorageNode

#: Taken at the commit before the writeback poll memoised its blockers.
PINNED = (4559, "47ca4216f59b1d1088e717676787050c0798f1dc36f9d6792eb0705174891f9c")


def _ingest(monkeypatch):
    ios = []
    write, reset = InMemoryDisk.write, InMemoryDisk.reset

    def logged_write(disk, extent, offset, data):
        ios.append(("write", disks.index(disk), extent, offset, len(data)))
        return write(disk, extent, offset, data)

    def logged_reset(disk, extent):
        ios.append(("reset", disks.index(disk), extent))
        return reset(disk, extent)

    node = StorageNode(
        num_disks=2,
        config=StoreConfig(
            geometry=DiskGeometry(num_extents=24, extent_size=16384, page_size=256),
            max_chunk_payload=1024,
            memtable_flush_threshold=16,
            seed=7,
        ),
    )
    disks = [system.disk for system in node.systems]
    monkeypatch.setattr(InMemoryDisk, "write", logged_write)
    monkeypatch.setattr(InMemoryDisk, "reset", logged_reset)
    rng = random.Random(7)
    reclaimed = None
    live = set()
    for op in range(1, 901):
        key = b"k%03d" % rng.randrange(120)
        if rng.random() < 0.85 or key not in live:
            node.put(key, rng.randbytes(rng.randrange(64, 2600)))
            live.add(key)
        else:
            node.delete(key)
            live.discard(key)
        if op % 97 == 0:
            node.flush()
        if op % 211 == 0:
            node.drain()
        if op == 600:
            node.flush()
            node.drain()
            store = node.systems[0].store
            for extent in store.reclaimable_extents():
                reclaimed = store.reclaim(extent)
                if reclaimed is not None:
                    break
    node.flush()
    node.drain()
    rng_states = [system.store.scheduler.rng.getstate() for system in node.systems]
    return ios, rng_states, reclaimed


def test_node_ingest_writeback_order_is_pinned(monkeypatch):
    ios, rng_states, reclaimed = _ingest(monkeypatch)
    assert reclaimed is not None and reclaimed.evacuated
    assert {io[1] for io in ios} == {0, 1} and any(io[0] == "reset" for io in ios)
    digest = hashlib.sha256(repr((ios, rng_states)).encode()).hexdigest()
    assert (len(ios), digest) == PINNED
