"""Concurrency harnesses for stateless model checking (section 6).

Each function returns a *body factory* for
:func:`repro.concurrency.model.model`: called once per execution, it
builds fresh state and returns the concurrent test body.  These are the
Python analogues of the paper's hand-written Loom/Shuttle harnesses --
Fig. 4's index harness and the ones behind issues #11-#13 and #16.

Conventions: assertion failures and deadlocks inside a body are the
checker's verdicts; bodies must be deterministic apart from scheduling
(all randomness is seeded from construction arguments).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.concurrency.primitives import spawn
from repro.shardstore.chunk import KIND_DATA
from repro.shardstore.config import StoreConfig
from repro.shardstore.disk import DiskGeometry
from repro.shardstore.errors import NotFoundError, ShardStoreError
from repro.shardstore.faults import FaultSet
from repro.shardstore.rpc import StorageNode
from repro.shardstore.store import StoreSystem

from .linearizability import (
    HistoryRecorder,
    check_linearizable,
    kv_fingerprint,
    kv_model_apply,
)

BodyFactory = Callable[[], Callable[[], None]]


def _mc_config(faults: FaultSet, seed: int = 0) -> StoreConfig:
    """Small geometry so model-checked executions stay short."""
    return StoreConfig(
        geometry=DiskGeometry(num_extents=10, extent_size=2048, page_size=128),
        faults=faults,
        seed=seed,
        memtable_flush_threshold=4,
        superblock_flush_cadence=4,
    )


# ----------------------------------------------------------------------
# issue #11: locator invalidated by a write/flush race (chunk store)


def locator_race_harness(faults: FaultSet, seed: int = 0) -> BodyFactory:
    """Two concurrent chunk writers; both locators must stay valid."""

    def factory() -> Callable[[], None]:
        system = StoreSystem(_mc_config(faults, seed))
        chunk_store = system.store.chunk_store
        results: List[Tuple] = [None, None]

        def writer(slot: int, key: bytes, payload: bytes) -> Callable[[], None]:
            def body() -> None:
                locator, _ = chunk_store.put_chunk(KIND_DATA, key, payload)
                results[slot] = (locator, key, payload)

            return body

        def body() -> None:
            t1 = spawn(writer(0, b"left", b"L" * 40), "writer-left")
            t2 = spawn(writer(1, b"right", b"R" * 40), "writer-right")
            t1.join()
            t2.join()
            for locator, key, payload in results:
                chunk = chunk_store.get_chunk(locator, expected_key=key)
                assert chunk.payload == payload, (
                    f"locator {locator} returned wrong payload"
                )

        return body

    return factory


# ----------------------------------------------------------------------
# issue #12: buffer-pool exhaustion deadlock (superblock)


def buffer_pool_harness(faults: FaultSet, seed: int = 0) -> BodyFactory:
    """A buffer-holding reader racing a flusher.

    Correct lock order (buffer before state) always completes; the faulty
    flush takes state before buffer and deadlocks against the reader.
    """

    def factory() -> Callable[[], None]:
        system = StoreSystem(_mc_config(faults, seed))
        superblock = system.store.superblock

        def reader() -> None:
            superblock.with_buffer(superblock.current_epoch)

        def flusher() -> None:
            superblock.flush()

        def body() -> None:
            t1 = spawn(reader, "buffer-reader")
            t2 = spawn(flusher, "flusher")
            t1.join()
            t2.join()

        return body

    return factory


# ----------------------------------------------------------------------
# issue #13: listing racing shard removal (API)


def list_remove_harness(faults: FaultSet, seed: int = 0) -> BodyFactory:
    """keys() concurrent with a delete must stay a legal snapshot."""

    def factory() -> Callable[[], None]:
        node = StorageNode(num_disks=2, config=_mc_config(faults, seed))
        keys = [b"alpha", b"beta", b"gamma"]
        for key in keys:
            node.put(key, b"v-" + key)
        listing_box: List[Optional[List[bytes]]] = [None]

        def lister() -> None:
            listing_box[0] = node.keys()

        def remover() -> None:
            node.delete(b"beta")

        def body() -> None:
            t1 = spawn(lister, "lister")
            t2 = spawn(remover, "remover")
            t1.join()
            t2.join()
            listing = listing_box[0]
            assert listing is not None, "listing crashed"
            # Keys never removed must appear exactly once.
            for stable in (b"alpha", b"gamma"):
                assert listing.count(stable) == 1, (
                    f"listing lost or duplicated {stable!r}: {listing!r}"
                )

        return body

    return factory


# ----------------------------------------------------------------------
# issue #14: compaction racing reclamation (index) -- the Fig. 4 harness


def compaction_reclaim_harness(faults: FaultSet, seed: int = 0) -> BodyFactory:
    """The paper's section 6 example.

    Set up an index with on-disk runs, then run concurrently: LSM
    compaction, a task that rotates the open extent and reclaims
    everything reclaimable, and a reader asserting no index entry is lost.
    The faulty compaction does not pin the extent it writes the merged run
    into, so reclamation can scan-and-reset it before the metadata update
    publishes the new chunk.
    """

    def factory() -> Callable[[], None]:
        system = StoreSystem(_mc_config(faults, seed))
        store = system.store
        expected = {}
        # Values sized so shard data spans more than one extent: the keys
        # whose chunks are *off* the reclaimed extent have index entries
        # only in the old runs and the merged run -- the entries the race
        # loses (reclamation's own relocation flush re-covers every key it
        # touches, which would otherwise mask the bug).
        for i in range(8):
            key = b"key%d" % i
            value = bytes([0x40 + i]) * 220
            store.put(key, value)
            expected[key] = value
            if i % 2 == 1:
                store.flush_index()  # several runs -> compaction has work
        # Rotate the open extent so compaction claims a *fresh* extent for
        # the merged run -- an extent holding nothing else live, so a
        # racing reclamation of it has nothing to evacuate (and therefore
        # nothing that would re-index the lost entries and mask the bug).
        store.chunk_store.rotate_open()

        def compactor() -> None:
            store.compact()

        def reclaimer() -> None:
            # Rotate again and reclaim whatever extent was open: if this
            # lands between compaction's chunk write and its metadata
            # update, that extent holds the not-yet-referenced merged run.
            target = store.chunk_store.rotate_open()
            if target is not None:
                store.reclaim(target)

        def body() -> None:
            t1 = spawn(compactor, "compaction")
            t2 = spawn(reclaimer, "reclamation")
            t1.join()
            t2.join()
            # In-memory run entries can mask the on-disk loss (the
            # metadata's dangling pointer to the destroyed merged-run
            # chunk), so the verdict comes after a clean reboot -- exactly
            # where the paper says the lost index entries surface.
            recovered = system.clean_reboot()
            for key, value in expected.items():
                try:
                    got = recovered.get(key)
                except ShardStoreError as exc:
                    raise AssertionError(
                        f"index entry for {key!r} lost: {exc}"
                    ) from exc
                assert got == value, f"wrong value for {key!r}"

        return body

    return factory


# ----------------------------------------------------------------------
# issue #16: concurrent bulk create/remove atomicity (API)


def bulk_race_harness(faults: FaultSet, seed: int = 0) -> BodyFactory:
    """Concurrent bulk_create and bulk_delete must appear atomic."""

    def factory() -> Callable[[], None]:
        node = StorageNode(num_disks=2, config=_mc_config(faults, seed))
        keys = [b"bk0", b"bk1", b"bk2"]
        for key in keys:
            node.put(key, b"old")

        def creator() -> None:
            node.bulk_create([(key, b"new") for key in keys])

        def deleter() -> None:
            node.bulk_delete(list(keys))

        def body() -> None:
            t1 = spawn(creator, "bulk-create")
            t2 = spawn(deleter, "bulk-delete")
            t1.join()
            t2.join()
            present = []
            for key in keys:
                try:
                    value = node.get(key)
                    assert value == b"new", f"stale value for {key!r}"
                    present.append(key)
                except NotFoundError:
                    pass
            assert len(present) in (0, len(keys)), (
                "bulk operations interleaved non-atomically: "
                f"{len(present)}/{len(keys)} keys present"
            )

        return body

    return factory


# ----------------------------------------------------------------------
# linearizability of the store API (the section 6 property itself)


def linearizability_harness(faults: FaultSet, seed: int = 0) -> BodyFactory:
    """Concurrent puts/gets whose history must linearize against the
    sequential key-value model."""

    def factory() -> Callable[[], None]:
        node = StorageNode(num_disks=2, config=_mc_config(faults, seed))
        node.put(b"shared", b"initial")
        recorder = HistoryRecorder()

        def writer(value: bytes) -> Callable[[], None]:
            def do_put() -> None:
                node.put(b"shared", value)
                return None  # the model's put result; the dep is internal

            def body() -> None:
                recorder.record("put", (b"shared", value), do_put)

            return body

        def reader() -> None:
            def do_get():
                try:
                    return node.get(b"shared")
                except NotFoundError:
                    return None

            recorder.record("get", (b"shared",), do_get)

        def body() -> None:
            tasks = [
                spawn(writer(b"from-w1"), "w1"),
                spawn(writer(b"from-w2"), "w2"),
                spawn(reader, "r1"),
            ]
            for task in tasks:
                task.join()
            history = recorder.history()
            # Seed the model with the initial value via a virtual put.
            state = {b"shared": b"initial"}
            ok = check_linearizable(
                history,
                lambda: state,
                kv_model_apply,
                fingerprint=kv_fingerprint,
            )
            assert ok, f"history not linearizable: {history!r}"

        return body

    return factory


# ----------------------------------------------------------------------
# cluster: quorum write / read-repair interleavings


def quorum_harness(faults: FaultSet, seed: int = 0) -> BodyFactory:
    """Concurrent quorum writers racing a reader through the cluster
    router; the history must linearize against the sequential model.

    The router assigns globally monotone versions (its linearization
    point) and replicas apply records under their per-node
    :class:`~repro.concurrency.primitives.Mutex` -- the scheduler's yield
    points -- so the checker explores replica-apply interleavings: a
    newer record landing on one replica before an older record reaches
    another, reads racing half-applied quorum writes, and read-repair
    re-writing stale replicas mid-race.  Quorum intersection (W + R > N)
    plus version monotonicity must make every such interleaving
    linearizable.  ``faults`` is unused: node-level faults are the
    campaign storms' job; this harness isolates pure scheduling races.
    """
    del faults  # cluster nodes model crashes via apply_fault, not FaultSet

    def factory() -> Callable[[], None]:
        from repro.cluster import ClusterConfig, ClusterRouter

        router = ClusterRouter(
            ClusterConfig(
                num_nodes=3,
                disks_per_node=1,
                replication=3,
                write_quorum=2,
                read_quorum=2,
                seed=seed,
                geometry=DiskGeometry(
                    num_extents=10, extent_size=2048, page_size=128
                ),
            )
        )
        router.put(b"shared", b"initial")
        recorder = HistoryRecorder()

        def writer(value: bytes) -> Callable[[], None]:
            def do_put() -> None:
                router.put(b"shared", value)
                return None

            def body() -> None:
                recorder.record("put", (b"shared", value), do_put)

            return body

        def reader() -> None:
            def do_get():
                try:
                    return router.get(b"shared")
                except NotFoundError:
                    return None

            recorder.record("get", (b"shared",), do_get)

        def body() -> None:
            tasks = [
                spawn(writer(b"from-w1"), "w1"),
                spawn(writer(b"from-w2"), "w2"),
                spawn(reader, "r1"),
            ]
            for task in tasks:
                task.join()
            history = recorder.history()
            state = {b"shared": b"initial"}
            ok = check_linearizable(
                history,
                lambda: state,
                kv_model_apply,
                fingerprint=kv_fingerprint,
            )
            assert ok, f"history not linearizable: {history!r}"

        return body

    return factory


#: Every harness by name (the CLI's ``mc --harness`` choices).
HARNESSES: Dict[str, Callable[[FaultSet, int], BodyFactory]] = {
    "locator-race": locator_race_harness,
    "buffer-pool": buffer_pool_harness,
    "list-remove": list_remove_harness,
    "compaction-reclaim": compaction_reclaim_harness,
    "bulk-race": bulk_race_harness,
    "linearizability": linearizability_harness,
    "quorum": quorum_harness,
}
