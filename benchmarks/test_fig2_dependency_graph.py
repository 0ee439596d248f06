"""Fig. 2: the dependency graph for three put operations.

The paper's Fig. 2 shows three puts whose durability each requires (a) the
shard-data chunk write, (b) the index entry flushed in the LSM tree, and
(c) the LSM metadata update -- with soft-write-pointer updates in the
superblock batched, so puts whose chunks share an extent share a
superblock-update node, and all three puts share one LSM flush.

This benchmark replays that scenario and checks the graph's structure: no
put is persistent until every leg is durable; the puts share the index
flush (one run chunk + one metadata record); and superblock pointer
updates are coalesced across puts (fewer superblock records than appends).
"""

from __future__ import annotations

from repro.shardstore import StoreConfig, StoreSystem
from repro.shardstore.dependency import dependency_graph_edges


def _scenario():
    config = StoreConfig(seed=1, superblock_flush_cadence=100)  # manual flushes
    system = StoreSystem(config)
    system.tracker.capture_record_info()  # off by default; the figure needs it
    store = system.store
    deps = {
        key: store.put(key, bytes([i]) * 200)
        for i, key in enumerate([b"shard-1", b"shard-2", b"shard-3"])
    }
    # All three puts participate in the same LSM flush and the same
    # superblock flush, exactly as in Fig. 2.
    store.flush_index()
    store.flush_superblock()
    return system, store, deps


def test_fig2_dependency_graph(benchmark):
    system, store, deps = benchmark.pedantic(_scenario, rounds=1, iterations=1)
    tracker = system.tracker

    # Before writeback nothing is persistent; each pump can only move the
    # system toward persistence (monotonic, never a regression).
    assert all(not dep.is_persistent() for dep in deps.values())
    persisted_history = []
    while store.scheduler.pending_count:
        store.pump(1)
        persisted_history.append(
            sum(1 for dep in deps.values() if dep.is_persistent())
        )
    assert persisted_history == sorted(persisted_history)
    assert all(dep.is_persistent() for dep in deps.values())

    # Render the graph: each put's records and their prerequisites.
    print()
    labels = {}
    for key, dep in deps.items():
        record_ids = sorted(dep.record_ids())
        for rid in record_ids:
            info = tracker.record_info[rid]
            labels[rid] = f"{info.label}@extent{info.extent}"
        edges = dependency_graph_edges(tracker, record_ids)
        print(f"put({key.decode()}): records {record_ids}")
        for src, dst in edges:
            print(f"    {labels.get(src, src)} -> {labels.get(dst, dst)}")

    # Structure checks (the figure's content):
    def kinds(dep):
        out = set()
        for rid in dep.record_ids():
            out.add(tracker.record_info[rid].label.split("@")[0].split(":")[0])
        return out

    for dep in deps.values():
        assert "chunk" in kinds(dep), "shard data write missing"
        assert "lsm-metadata" in kinds(dep), "metadata update missing"
        assert "superblock-record" in kinds(dep), "soft-pointer update missing"

    # Shared legs: the three puts resolve to ONE run chunk + metadata
    # record and share superblock records (coalesced pointer updates).
    meta_records = set()
    sb_records = set()
    for dep in deps.values():
        for rid in dep.record_ids():
            label = tracker.record_info[rid].label
            if label == "lsm-metadata":
                meta_records.add(rid)
            if label == "superblock-record":
                sb_records.add(rid)
    per_put_sb = [
        {
            rid
            for rid in dep.record_ids()
            if tracker.record_info[rid].label == "superblock-record"
        }
        for dep in deps.values()
    ]
    assert per_put_sb[0] == per_put_sb[1] == per_put_sb[2], (
        "puts should share the coalesced superblock update"
    )
    assert len(sb_records) >= 1
    print(
        f"shared: {len(meta_records)} metadata record pages, "
        f"{len(sb_records)} superblock record pages for 3 puts (coalesced)"
    )


def test_fig2_writeback_coalescing(benchmark):
    """Fig. 2's other claim: the IO scheduler coalesces contiguous
    writebacks into one device IO.  Measures the device-write reduction
    for the same workload with and without coalescing."""
    import random

    from repro.shardstore import DiskGeometry, InMemoryDisk
    from repro.shardstore.dependency import Dependency, DurabilityTracker
    from repro.shardstore.scheduler import IoScheduler

    def run(coalesce: bool):
        disk = InMemoryDisk(
            DiskGeometry(num_extents=8, extent_size=65536, page_size=128)
        )
        tracker = DurabilityTracker()
        scheduler = IoScheduler(disk, tracker, random.Random(0))
        for i in range(120):
            scheduler.append(
                4 + (i % 3), bytes([i % 256]) * 300, Dependency.root(tracker)
            )
        while scheduler.pump_one(coalesce=coalesce):
            pass
        return disk.stats.writes

    coalesced, raw = benchmark.pedantic(
        lambda: (run(True), run(False)), rounds=1, iterations=1
    )
    print(
        f"\ndevice writes for 120 appends across 3 extents: "
        f"raw={raw}, coalesced={coalesced} ({raw / coalesced:.1f}x fewer IOs)"
    )
    assert coalesced < raw / 3
