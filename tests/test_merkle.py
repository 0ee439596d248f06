"""Unit tests for the Merkle commitment tree and store-level integrity proofs."""

import hashlib
import random

import pytest

from repro.shardstore import (
    DiskGeometry,
    FaultSet,
    NotFoundError,
    StoreConfig,
    StoreSystem,
)
from repro.shardstore.merkle import (
    EMPTY_DIGEST,
    MerkleMap,
    combine_roots,
    merkle_point,
)
from repro.shardstore.observability.journal import digest_bytes


def _system():
    return StoreSystem(
        StoreConfig(
            geometry=DiskGeometry(
                num_extents=10, extent_size=2048, page_size=128
            ),
            faults=FaultSet.none(),
        )
    )


def _corrupt(system, store, key):
    """Flip one on-disk byte under ``key`` and defeat the cache."""
    store.flush_index()
    store.drain()
    store.cache.invalidate_all()
    locators = store.index.get(key)
    assert locators is not None
    system.disk.corrupt(locators[0].extent, locators[0].offset + 8)


class TestMerkleMap:
    def test_empty_root_is_domain_separated_constant(self):
        assert MerkleMap().root() == EMPTY_DIGEST
        assert len(EMPTY_DIGEST) == 16

    def test_root_is_insertion_order_independent(self):
        items = [(b"k-%02d" % i, digest_bytes(b"v%d" % i)) for i in range(40)]
        forward = MerkleMap()
        for key, digest in items:
            forward.set(key, digest)
        backward = MerkleMap()
        for key, digest in reversed(items):
            backward.set(key, digest)
        assert forward.root() == backward.root()
        assert forward.root() != EMPTY_DIGEST

    def test_remove_returns_to_prior_root(self):
        tree = MerkleMap()
        tree.set(b"a", digest_bytes(b"1"))
        root_one = tree.root()
        tree.set(b"b", digest_bytes(b"2"))
        assert tree.root() != root_one
        tree.remove(b"b")
        assert tree.root() == root_one
        tree.remove(b"a")
        assert tree.root() == EMPTY_DIGEST
        # remove is idempotent
        tree.remove(b"a")
        assert tree.root() == EMPTY_DIGEST

    def test_overwrite_changes_root_same_key(self):
        tree = MerkleMap()
        tree.set(b"a", digest_bytes(b"old"))
        old = tree.root()
        tree.set(b"a", digest_bytes(b"new"))
        assert tree.root() != old

    def test_diff_equal_trees_is_one_comparison(self):
        a = MerkleMap.from_items(
            (b"k-%d" % i, digest_bytes(b"v%d" % i)) for i in range(20)
        )
        b = MerkleMap.from_items(
            (b"k-%d" % i, digest_bytes(b"v%d" % i)) for i in range(20)
        )
        buckets, compared = a.diff(b)
        assert buckets == []
        assert compared == 1

    def test_diff_pins_exactly_the_diverging_buckets(self):
        a = MerkleMap()
        b = MerkleMap()
        for i in range(30):
            key = b"k-%d" % i
            a.set(key, digest_bytes(b"v%d" % i))
            b.set(key, digest_bytes(b"v%d" % i))
        changed = [b"k-3", b"k-17"]
        for key in changed:
            b.set(key, digest_bytes(b"stale"))
        buckets, _ = a.diff(b)
        assert sorted(buckets) == sorted(
            {a.bucket_of(key) for key in changed}
        )
        # Every diverging key is recoverable from the bucket items.
        found = []
        for bucket in buckets:
            mine, theirs = a.bucket_items(bucket), b.bucket_items(bucket)
            for key in set(mine) | set(theirs):
                if mine.get(key) != theirs.get(key):
                    found.append(key)
        assert sorted(found) == sorted(changed)

    def test_bucket_of_matches_ring_point_prefix(self):
        tree = MerkleMap(fanout=16, depth=2)
        for key in (b"a", b"k-123", b"\x00\xff"):
            assert tree.bucket_of(key) == merkle_point(key) >> (64 - 8)

    def test_fanout_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            MerkleMap(fanout=12)
        with pytest.raises(ValueError):
            MerkleMap(fanout=0)

    def test_root_is_the_xor_of_item_hashes(self):
        """The digest definition, restated from the module docstring."""
        items = [(b"k-%d" % i, digest_bytes(b"v%d" % i)) for i in range(9)]
        total = int(EMPTY_DIGEST, 16)
        for key, digest in items:
            data = b"merkle:item:%d:%b=%b" % (len(key), key, digest.encode())
            total ^= int.from_bytes(hashlib.sha256(data).digest()[:8], "big")
        assert MerkleMap.from_items(items).root() == format(total, "016x")

    def test_union_root_combines_disjoint_roots(self):
        items = [(b"k-%d" % i, digest_bytes(b"v%d" % i)) for i in range(30)]
        parts = [MerkleMap.from_items(items[i::3]).root() for i in range(3)]
        assert combine_roots(parts) == MerkleMap.from_items(items).root()
        assert combine_roots([]) == EMPTY_DIGEST


def _rebuilt(tree: MerkleMap, rng: random.Random) -> MerkleMap:
    """A from-scratch tree over ``tree``'s items, inserted in random order."""
    items = list(tree.items())
    rng.shuffle(items)
    return MerkleMap.from_items(items, fanout=tree.fanout, depth=tree.depth)


def _assert_matches_rebuilt(tree, rebuilt, where):
    assert tree.root() == rebuilt.root(), where
    for bucket in range(tree.num_buckets):
        assert tree.bucket_digest(bucket) == rebuilt.bucket_digest(bucket), (
            f"{where}: bucket {bucket}"
        )
    assert sorted(tree.items()) == sorted(rebuilt.items()), where
    assert len(tree) == len(rebuilt), where


@pytest.mark.parametrize("seed", range(12))
def test_incremental_digests_match_a_tree_rebuilt_from_items(seed):
    """Digests are folded in lazily, at the next read, from the keys
    changed since the last one.  Two trees take seeded set / overwrite /
    remove / clear / ``from_items`` sequences over a small keyspace (so
    buckets collide and a key changes several times between reads).
    Tree ``a`` is checked after every step: root, every bucket digest and
    its items must equal those of a tree rebuilt from its items in a
    random order.  Tree ``b`` is read only now and then, so its changes
    pile up; when it is read, it is checked the same way and ``a.diff(b)``
    must equal the rebuilt trees' ``diff``."""
    rng = random.Random(seed)
    shape = {"fanout": 4, "depth": 2} if seed % 2 else {}
    trees = [MerkleMap(**shape), MerkleMap(**shape)]
    keys = [b"pk-%d" % i for i in range(48)]
    values = [digest_bytes(b"pv-%d" % i) for i in range(6)]
    for step in range(300):
        side = rng.randrange(2)
        tree = trees[side]
        roll = rng.random()
        key = rng.choice(keys)
        if roll < 0.45:
            tree.set(key, rng.choice(values))  # insert or overwrite
        elif roll < 0.6 and len(tree):
            present = rng.choice(sorted(tree.keys()))
            tree.set(present, rng.choice(values))  # overwrite
        elif roll < 0.9:
            tree.remove(key)  # present or absent
        elif roll < 0.95:
            trees[side] = MerkleMap.from_items(
                [(k, rng.choice(values)) for k in rng.sample(keys, 20)], **shape
            )
        else:
            tree.clear()
        a, b = trees
        rebuilt_a = _rebuilt(a, rng)
        _assert_matches_rebuilt(a, rebuilt_a, f"seed {seed} step {step}: a")
        if rng.random() < 0.2:
            rebuilt_b = _rebuilt(b, rng)
            _assert_matches_rebuilt(b, rebuilt_b, f"seed {seed} step {step}: b")
            assert a.diff(b) == rebuilt_a.diff(rebuilt_b), f"step {step}"
            assert (a.diff(b)[0] == []) == (a.root() == b.root())


class TestStoreIntegrityProof:
    def test_clean_store_proves_in_one_comparison(self):
        store = _system().store
        for i in range(8):
            store.put(b"pk-%d" % i, bytes([0x40 + i]) * 150)
        report = store.merkle_scrub()
        assert report.proven
        assert report.compared == 1
        assert report.keys_checked == 8

    def test_corruption_breaks_the_proof_and_pins_the_key(self):
        system = _system()
        store = system.store
        for i in range(8):
            store.put(b"pk-%d" % i, bytes([0x40 + i]) * 150)
        _corrupt(system, store, b"pk-3")
        report = store.merkle_scrub()
        assert not report.proven
        assert report.diverging == [b"pk-3"]
        assert report.compared > 1

    def test_merkle_repair_restores_the_proof(self):
        system = _system()
        store = system.store
        for i in range(8):
            store.put(b"pk-%d" % i, bytes([0x40 + i]) * 150)
        _corrupt(system, store, b"pk-5")
        repair = store.scrub_repair(merkle=True)
        assert repair.merkle is not None and not repair.merkle.proven
        assert repair.proven, "post-repair proof must hold"
        assert b"pk-5" in repair.repaired or b"pk-5" in repair.quarantined
        # Quarantined keys answer typed not-found, never silent corruption.
        for key in repair.quarantined:
            with pytest.raises(NotFoundError):
                store.get(key)

    def test_commitment_survives_clean_reboot(self):
        system = _system()
        store = system.store
        for i in range(6):
            store.put(b"pk-%d" % i, bytes([0x40 + i]) * 150)
        store.flush_index()
        store.drain()
        store = system.clean_reboot()
        report = store.merkle_scrub()
        assert report.proven
        assert report.keys_checked == 6

    def test_recovered_store_rederives_commitment_lazily(self):
        """After a dirty reboot the commitment is re-derived from what
        actually survived -- a pre-crash tree would over-claim."""
        system = _system()
        store = system.store
        for i in range(6):
            store.put(b"pk-%d" % i, bytes([0x40 + i]) * 150)
        store.flush_index()
        store.drain()
        store = system.dirty_reboot()
        report = store.merkle_scrub()
        assert report.proven

    def test_delete_removes_the_commitment_entry(self):
        store = _system().store
        store.put(b"a", b"x" * 120)
        store.put(b"b", b"y" * 120)
        store.delete(b"a")
        report = store.merkle_scrub()
        assert report.proven
        assert report.keys_checked == 1

    def test_merkle_scrub_is_journaled(self):
        from repro.shardstore.observability import Journal

        journal = Journal()
        system = StoreSystem(
            StoreConfig(
                geometry=DiskGeometry(
                    num_extents=10, extent_size=2048, page_size=128
                ),
                faults=FaultSet.none(),
                journal=journal,
            )
        )
        store = system.store
        store.put(b"a", b"x" * 120)
        store.merkle_scrub()
        kinds = [entry.get("kind") for entry in journal.entries]
        assert "merkle_scrub" in kinds
