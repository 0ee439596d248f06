"""Deterministic incremental Merkle trees over key -> digest maps.

This is the shared integrity primitive behind two planes (ROADMAP items
1 and 5a):

* **Cluster anti-entropy** (:mod:`repro.cluster.antientropy`): each
  replica maintains one :class:`MerkleMap` per placement group over its
  ``key -> record-digest`` entries.  Two replicas compare group roots and
  descend only into diverging subtrees, so synchronizing an
  almost-converged pair costs ``O(groups)`` comparisons instead of a full
  key sweep.
* **Store integrity proofs** (:meth:`repro.shardstore.store.ShardStore.
  merkle_scrub`): the store keeps a content-addressed commitment tree
  updated at write time; scrub re-reads every live chunk and proves
  integrity by root equality instead of spot-checking.

The tree is a fixed-fanout, fixed-depth prefix trie over the *hash-ring
key space*: a key's leaf bucket is derived from the same 8-byte SHA-256
point :class:`repro.cluster.ring.HashRing` places it with, so bucket
boundaries are stable across membership changes and both planes bucket
identically.

**Digests.**  Each ``(key, digest)`` entry contributes a 64-bit *item
hash*, the first 8 bytes of a domain-separated SHA-256 over the
length-prefixed key and the digest.  Every tree node -- leaf bucket,
internal node, root -- holds the XOR of the item hashes below it, and is
rendered as 16 hex chars (matching the evidence journal's digest
convention) after an XOR with :data:`EMPTY_DIGEST`, so an empty node reads
as that constant.  Roots therefore drop into journal records unchanged,
and because XOR is associative the root of a union of disjoint maps is
the XOR of their roots (:func:`combine_roots`).

**Cost.**  ``set`` and ``remove`` are O(1): they compute the key's bucket
point (one SHA-256 of the key, as before) and, once any digest has been
read, add the key to a pending map.  ``root()``, ``bucket_digest()`` and
``diff()`` first fold the pending keys in: per changed key, the item hash
folded in last is XORed out, one new item hash is XORed in, and each
touched bucket's delta goes up its ``depth + 1`` nodes -- O(changed
keys), not O(dirty buckets x their contents + every internal node).  A
tree whose digests were never read (the store's commitment between
scrubs) tracks nothing beyond its entries; its first read folds every
entry once, and from then on it keeps one folded item hash per key.
Bucket dicts and node sums are allocated only where keys exist.

**Soundness.**  Two trees over different maps report equal digests at a
node only if the XOR of the item hashes of their symmetric difference
under that node is zero.  The symmetric difference holds distinct
``(key, digest)`` pairs (an overwritten key contributes its old *and* its
new pair), so for non-adversarial inputs a false match is a 64-bit XOR
collision, probability about ``2**-64`` per comparison.  The sum is
*not* collision-resistant against an adversary who chooses entries
(XOR of enough chosen hashes can cancel); that is fine here, where every
entry is a replica's or store's own record digest.

Determinism contract: every digest is a pure function of the ``(key,
digest)`` set -- independent of insertion order, deletion history, fold
timing or process identity -- which is what lets the campaign settlement
gate compare roots across replicas and lets CI compare them across runs.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "DEFAULT_DEPTH",
    "DEFAULT_FANOUT",
    "EMPTY_DIGEST",
    "MerkleMap",
    "combine_roots",
    "merkle_point",
]

#: Digest length in hex chars (64 bits), matching ``journal.digest_bytes``.
DIGEST_LEN = 16

#: Default shape: 16-way fan-out, two levels -> 256 leaf buckets.  Wide
#: enough that small stores rarely collide buckets.
DEFAULT_FANOUT = 16
DEFAULT_DEPTH = 2

#: Digest of an empty bucket / empty tree (a domain-separated constant,
#: so "no keys" is distinguishable from "one key hashing to nothing").
EMPTY_DIGEST = hashlib.sha256(b"merkle:empty").hexdigest()[:DIGEST_LEN]

_EMPTY_SUM = int(EMPTY_DIGEST, 16)


def merkle_point(key: bytes) -> int:
    """The 64-bit hash-ring point of ``key`` (same map as ``HashRing``)."""
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def combine_roots(roots: Iterable[str]) -> str:
    """The root of the union of disjoint maps, from their roots."""
    total = 0
    for root in roots:
        total ^= int(root, 16) ^ _EMPTY_SUM
    return _render(total)


def _item_hash(key: bytes, digest: str) -> int:
    """One entry's 64-bit contribution to every node above it."""
    data = b"merkle:item:%d:%b=%b" % (len(key), key, digest.encode())
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def _render(total: int) -> str:
    return format(total ^ _EMPTY_SUM, "016x")


class MerkleMap:
    """An incremental fixed-shape Merkle tree over a ``key -> digest`` map.

    ``set``/``remove`` are O(1); digest reads fold in the keys changed
    since the previous read (see the module docstring).  ``diff`` walks
    two trees top-down and returns only the diverging leaf buckets -- the
    anti-entropy descent.

    The shape (``fanout``, ``depth``) is fixed at construction; trees
    only compare against trees of the same shape.
    """

    def __init__(
        self, *, fanout: int = DEFAULT_FANOUT, depth: int = DEFAULT_DEPTH
    ) -> None:
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        # Bucket index = top bits of the 64-bit ring point; require a
        # power-of-two fanout so digit extraction is exact bit slicing.
        if fanout & (fanout - 1):
            raise ValueError("fanout must be a power of two")
        self.fanout = fanout
        self.depth = depth
        self._digit_bits = fanout.bit_length() - 1
        if self._digit_bits * depth > 64:
            raise ValueError("fanout**depth exceeds the 64-bit key space")
        self.num_buckets = fanout**depth
        self._shift = 64 - self._digit_bits * depth
        self._len = 0
        #: Leaf buckets, each allocated by its first key.
        self._buckets: List[Optional[Dict[bytes, str]]] = [None] * self.num_buckets
        #: ``_sums[level][node]`` is the XOR of the item hashes folded in
        #: under that node (level 0 is the root, level ``depth`` the leaf
        #: buckets; a missing node sums to 0).  None until the first read.
        self._sums: Optional[List[Dict[int, int]]] = None
        #: key -> the item hash folded into ``_sums`` for it.
        self._hashes: Optional[Dict[bytes, int]] = None
        #: key -> bucket, for every key changed since the last fold.
        self._pending: Dict[bytes, int] = {}

    # ------------------------------------------------------------------
    # map surface

    def __len__(self) -> int:
        return self._len

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def get(self, key: bytes) -> Optional[str]:
        entries = self._buckets[self.bucket_of(key)]
        return None if entries is None else entries.get(key)

    def keys(self) -> Iterator[bytes]:
        return chain.from_iterable(filter(None, self._buckets))

    def items(self) -> Iterator[Tuple[bytes, str]]:
        return chain.from_iterable(
            entries.items() for entries in self._buckets if entries
        )

    def bucket_of(self, key: bytes) -> int:
        return merkle_point(key) >> self._shift

    def set(self, key: bytes, digest: str) -> None:
        """Insert or update ``key``'s leaf digest."""
        bucket = self.bucket_of(key)
        entries = self._buckets[bucket]
        if entries is None:
            entries = self._buckets[bucket] = {}
        held = len(entries)
        entries[key] = digest
        self._len += len(entries) - held
        if self._hashes is not None:
            self._pending[key] = bucket

    def remove(self, key: bytes) -> None:
        """Drop ``key`` (a no-op when absent -- removal is idempotent)."""
        bucket = self.bucket_of(key)
        entries = self._buckets[bucket]
        if not entries or entries.pop(key, None) is None:
            return
        self._len -= 1
        if self._hashes is not None:
            self._pending[key] = bucket

    def clear(self) -> None:
        self._len = 0
        self._buckets = [None] * self.num_buckets
        self._sums = None
        self._hashes = None
        self._pending = {}

    @classmethod
    def from_items(
        cls,
        items: Iterable[Tuple[bytes, str]],
        *,
        fanout: int = DEFAULT_FANOUT,
        depth: int = DEFAULT_DEPTH,
    ) -> "MerkleMap":
        tree = cls(fanout=fanout, depth=depth)
        for key, digest in items:
            tree.set(key, digest)
        return tree

    # ------------------------------------------------------------------
    # digests

    def _xor_path(self, sums: List[Dict[int, int]], bucket: int, delta: int) -> None:
        """XOR ``delta`` into a leaf bucket and every node above it."""
        node = bucket
        for level in range(self.depth, -1, -1):
            nodes = sums[level]
            value = nodes.get(node, 0) ^ delta
            if value:
                nodes[node] = value
            else:
                del nodes[node]
            node >>= self._digit_bits

    def _fold(self) -> List[Dict[int, int]]:
        """The node sums, with every change since the last read folded in."""
        sums, hashes = self._sums, self._hashes
        deltas: Dict[int, int] = {}
        if sums is None or hashes is None:
            sums = self._sums = [{} for _ in range(self.depth + 1)]
            hashes = self._hashes = {}
            for bucket, entries in enumerate(self._buckets):
                if not entries:
                    continue
                for key, digest in entries.items():
                    hashes[key] = item = _item_hash(key, digest)
                    deltas[bucket] = deltas.get(bucket, 0) ^ item
        elif self._pending:
            for key, bucket in self._pending.items():
                delta = hashes.pop(key, 0)  # out with what was folded in
                digest = (self._buckets[bucket] or {}).get(key)
                if digest is not None:
                    hashes[key] = item = _item_hash(key, digest)
                    delta ^= item
                deltas[bucket] = deltas.get(bucket, 0) ^ delta
            self._pending = {}
        for bucket, delta in deltas.items():
            if delta:
                self._xor_path(sums, bucket, delta)
        return sums

    def root(self) -> str:
        """The root digest (folds in the changes since the last read)."""
        return _render(self._fold()[0].get(0, 0))

    def bucket_digest(self, bucket: int) -> str:
        return _render(self._fold()[self.depth].get(bucket, 0))

    def bucket_items(self, bucket: int) -> Dict[bytes, str]:
        """The live ``key -> digest`` entries of one leaf bucket."""
        return dict(self._buckets[bucket] or {})

    # ------------------------------------------------------------------
    # anti-entropy descent

    def diff(self, other: "MerkleMap") -> Tuple[List[int], int]:
        """Diverging leaf buckets vs ``other``, by top-down descent.

        Returns ``(buckets, nodes_compared)``: the sorted leaf-bucket
        indexes whose digests differ, and how many tree nodes were
        compared to find them (the cost the per-round budget bounds).
        Equal roots answer in one comparison -- the property that makes
        background sync affordable on a converged cluster.
        """
        if (self.fanout, self.depth) != (other.fanout, other.depth):
            raise ValueError("cannot diff Merkle trees of different shape")
        mine, theirs = self._fold(), other._fold()
        compared = 1
        if mine[0].get(0, 0) == theirs[0].get(0, 0):
            return [], compared
        # Frontier of diverging node indexes, level by level.
        frontier = [0]
        for level in range(1, self.depth + 1):
            ours, peer = mine[level], theirs[level]
            next_frontier: List[int] = []
            for node in frontier:
                for child in range(node * self.fanout, (node + 1) * self.fanout):
                    compared += 1
                    if ours.get(child, 0) != peer.get(child, 0):
                        next_frontier.append(child)
            frontier = next_frontier
        return frontier, compared
