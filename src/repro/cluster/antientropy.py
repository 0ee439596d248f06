"""Merkle anti-entropy: proactive replica repair beyond read-repair.

PR 8's cluster heals divergence only through read-repair, so a key that
is never read again after a partition, a hint-buffer overflow, or a
quorum-failure hint revocation stays divergent *forever* -- the paper's
section 4.4 recovery obligation demands better.  This module closes the
gap with the classic Dynamo-style protocol:

* every replica maintains one incremental :class:`~repro.shardstore.
  merkle.MerkleMap` per *placement group* (a key's preference list, as a
  tuple in preference order) over its ``key -> record-digest`` entries
  (updated on each conditional apply, rebuilt after a dirty restart),
  plus a version column over the same keys that lets the conditional
  apply skip its read-before-write;
* a background round picks one pair of reachable replicas on the
  router's op clock, compares the roots of the groups both belong to,
  descends only into diverging subtrees of diverging groups, and repairs
  stale keys through the *existing* versioned conditional-apply path
  (newest version wins, tombstones included);
* per-round budgets bound the buckets descended and keys repaired, so
  sync can never starve foreground traffic;
* an explicit :meth:`AntiEntropyService.sync` against an unreachable
  peer raises a typed :class:`~repro.errors.AntiEntropyError`;
  background rounds just skip the pair and retry later.

Convergence is *checked*, not assumed: :meth:`roots_converged` compares,
per placement group, the group root of every live member.  All-equal
group roots prove the live replicas hold byte-identical record sets (up
to digest collision) -- the ``anti-entropy`` campaign suite's settlement
gate, and the property the ``--no-anti-entropy`` negative control proves
is load-bearing.  A replica's whole root is the combination of its group
roots, so it equals the root of one tree over everything it holds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import AntiEntropyError, ShardStoreError
from repro.shardstore.merkle import EMPTY_DIGEST, MerkleMap, combine_roots
from repro.shardstore.observability.journal import digest_bytes, digest_keys

from .record import record_version

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (router imports us)
    from .router import ClusterNode, ClusterRouter

__all__ = ["AntiEntropyService", "DEFAULT_MAX_ROUNDS"]

#: Ceiling for :meth:`AntiEntropyService.run_until_converged`; generous --
#: a full pair cycle is ``C(n, 2)`` rounds and convergence needs at most
#: ``replication - 1`` cycles of budgeted progress.
DEFAULT_MAX_ROUNDS = 200

#: A placement group: a key's preference list, in preference order.
Group = Tuple[int, ...]


class AntiEntropyService:
    """Per-replica, per-group Merkle trees plus the budgeted pairwise sync.

    Owned by :class:`~repro.cluster.router.ClusterRouter`; the router
    calls :meth:`note_apply` / :meth:`note_remove` from every replica
    mutation path so the trees are exact mirrors of replica content, and
    :meth:`maybe_run` from its op clock so rounds are deterministic
    functions of the workload (never wall time).

    Each replica's leaves are filed by placement group: ``trees[node]
    [group]`` holds exactly the entries ``node`` has for keys whose
    preference list is ``group`` (a stray copy outside its key's list is
    filed there too, under a group the node is not a member of).  Key ->
    group lookups are cached; a ring change (:meth:`register_node` /
    :meth:`drop_node`) clears the cache and re-files every leaf.

    The mirror has two columns per replica and key: the Merkle leaf and
    the record version.  The version column is a cache whose miss path is
    a read of the replica: :meth:`version` answers ``None`` (unknown) for
    a key whose write raised, for a key a rebuild could not read, and for
    every key of a replica a rebuild could not list; the caller then reads
    through and :meth:`note_read` seeds both columns from the record.
    """

    def __init__(self, router: "ClusterRouter") -> None:
        self.router = router
        cfg = router.config
        self.enabled = cfg.anti_entropy
        self.interval = cfg.anti_entropy_interval
        self.max_buckets = cfg.anti_entropy_buckets
        self.max_repairs = cfg.anti_entropy_repairs
        #: The leaf column: per replica, one tree per placement group.
        self.trees: Dict[int, Dict[Group, MerkleMap]] = {}
        #: The version column: per replica, ``key -> version`` for every
        #: key it holds, or ``None`` for a key whose state is unknown; a
        #: key it does not list is known absent.  A replica with no entry
        #: is unknown as a whole (dropped, or its key listing failed).
        self.versions: Dict[int, Dict[bytes, Optional[int]]] = {}
        #: key -> placement group under the current ring.
        self._groups: Dict[bytes, Group] = {}
        self._cursor = 0  # round-robin position over reachable pairs
        self._bucket_cursor = 0  # rotation offset into diverging buckets

    # ------------------------------------------------------------------
    # mirror maintenance (called from the router's replica mutation paths)

    def register_node(self, node_id: int) -> None:
        self.trees[node_id] = {}
        self.versions[node_id] = {}  # a fresh node holds nothing
        self._refile()

    def drop_node(self, node_id: int) -> None:
        self.trees.pop(node_id, None)
        self.versions.pop(node_id, None)
        self._refile()

    def _refile(self) -> None:
        """The ring changed: re-file every leaf under its key's new group."""
        self._groups = {}
        for node_id, groups in list(self.trees.items()):
            self.trees[node_id] = {}
            for tree in groups.values():
                for key, digest in tree.items():
                    self._tree(node_id, key).set(key, digest)

    def _group(self, key: bytes) -> Group:
        """``key``'s placement group (cached until the ring changes)."""
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = tuple(self.router._placement(key))
        return group

    def _tree(self, node_id: int, key: bytes) -> MerkleMap:
        """The tree of ``node_id`` that ``key``'s leaf belongs in."""
        groups = self.trees[node_id]
        group = self._group(key)
        tree = groups.get(group)
        if tree is None:
            tree = groups[group] = MerkleMap()
        return tree

    def version(self, node_id: int, key: bytes) -> Optional[int]:
        """The version ``node_id`` holds for ``key`` (-1 = absent), or
        ``None`` when the mirror does not know it."""
        versions = self.versions.get(node_id)
        if versions is None:
            return None
        return versions.get(key, -1)

    def note_apply(self, node_id: int, key: bytes, record: bytes) -> None:
        if node_id in self.trees:
            self._tree(node_id, key).set(key, digest_bytes(record))
        versions = self.versions.get(node_id)
        if versions is not None:
            versions[key] = record_version(record)

    def note_remove(self, node_id: int, key: bytes) -> None:
        groups = self.trees.get(node_id)
        if groups is not None:
            tree = groups.get(self._group(key))
            if tree is not None:
                tree.remove(key)
        versions = self.versions.get(node_id)
        if versions is not None:
            versions.pop(key, None)

    def note_unknown(self, node_id: int, key: bytes) -> None:
        """A write of ``key`` raised: it may or may not have applied."""
        versions = self.versions.get(node_id)
        if versions is not None:
            versions[key] = None

    def note_read(self, node_id: int, key: bytes, raw: Optional[bytes]) -> int:
        """Re-derive both columns from a read of the replica (``raw`` is
        None when it answered absent); returns the version read."""
        if raw is None:
            self.note_remove(node_id, key)
            return -1
        self.note_apply(node_id, key, raw)
        return record_version(raw)

    def rebuild(self, node_id: int) -> None:
        """Rebuild one replica's mirror from its store (post-restart).

        A dirty restart loses un-drained writes, so the in-memory mirror
        may be ahead of the recovered store; re-deriving it from what
        recovery actually produced is the only honest commitment.
        """
        cn = self.router.nodes.get(node_id)
        if node_id not in self.trees or cn is None:
            return
        self.trees[node_id] = {}
        self.versions.pop(node_id, None)
        try:
            keys = cn.node.keys()
        except ShardStoreError:
            return
        self.versions[node_id] = {}
        for key in keys:
            try:
                raw = cn.read(key)
            except ShardStoreError:
                self.note_unknown(node_id, key)
                continue
            if raw is not None:  # listed, but the replica may answer absent
                self.note_apply(node_id, key, raw)

    def _group_root(self, node_id: int, group: Group) -> str:
        tree = self.trees[node_id].get(group)
        return EMPTY_DIGEST if tree is None else tree.root()

    def root(self, node_id: int) -> str:
        """The whole root of one replica: its group roots combined
        (journal surface)."""
        return combine_roots(tree.root() for tree in self.trees[node_id].values())

    # ------------------------------------------------------------------
    # pairwise sync

    def _reachable_pairs(self) -> List[Tuple[int, int]]:
        ids = [
            nid
            for nid, cn in sorted(self.router.nodes.items())
            if cn.reachable
        ]
        return [
            (a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]
        ]

    def maybe_run(self) -> None:
        """Op-clock trigger: one budgeted round every ``interval`` ops."""
        if not self.enabled or self.interval <= 0:
            return
        if self.router._op_count % self.interval:
            return
        self.run_round()

    def run_round(self) -> Optional[Dict[str, Any]]:
        """One budgeted background round over the next reachable pair.

        Returns the round summary (also journaled), or ``None`` when
        fewer than two replicas are reachable.  Never raises for an
        unreachable peer -- the pair list is recomputed each round.
        """
        pairs = self._reachable_pairs()
        if not pairs:
            self.router.stats["anti_entropy_skips"] += 1
            return None
        pair = pairs[self._cursor % len(pairs)]
        self._cursor += 1
        return self._sync_pair(
            pair[0],
            pair[1],
            max_buckets=self.max_buckets,
            max_repairs=self.max_repairs,
        )

    def sync(self, node_a: int, node_b: int) -> Dict[str, Any]:
        """Explicitly sync one replica pair to completion (no budgets).

        Raises :class:`AntiEntropyError` when either peer is not
        reachable -- the typed contract for *requested* syncs; background
        rounds skip instead.
        """
        for nid in (node_a, node_b):
            cn = self.router.nodes.get(nid)
            if cn is None:
                raise AntiEntropyError(
                    f"anti-entropy peer {nid} is unknown",
                    peer=nid,
                    reason="unknown",
                )
            if not cn.reachable:
                raise AntiEntropyError(
                    f"anti-entropy peer {nid} is {cn.status()}",
                    peer=nid,
                    reason=cn.status(),
                )
        return self._sync_pair(node_a, node_b, max_buckets=None, max_repairs=None)

    def _sync_pair(
        self,
        node_a: int,
        node_b: int,
        *,
        max_buckets: Optional[int],
        max_repairs: Optional[int],
    ) -> Dict[str, Any]:
        stats = self.router.stats
        trees_a, trees_b = self.trees[node_a], self.trees[node_b]
        # Only the groups both replicas belong to: a key outside a pair's
        # shared placement is not this pair's to repair (a stray copy is
        # rebalancing's job), so it is never compared at all.
        shared = sorted(
            group
            for group in trees_a.keys() | trees_b.keys()
            if node_a in group and node_b in group
        )
        empty = MerkleMap()
        buckets: List[Tuple[MerkleMap, MerkleMap, int]] = []
        compared = 0
        for group in shared:
            tree_a = trees_a.get(group, empty)
            tree_b = trees_b.get(group, empty)
            diverging, nodes = tree_a.diff(tree_b)
            compared += nodes
            buckets.extend((tree_a, tree_b, bucket) for bucket in diverging)
        stats["anti_entropy_rounds"] += 1
        summary: Dict[str, Any] = {
            "pair": [node_a, node_b],
            "root_match": not buckets,
            "compared": compared,
            "diverging": len(buckets),
            "descended": 0,
            "repaired": 0,
        }
        if not buckets:
            stats["anti_entropy_root_matches"] += 1
            self.router._record("anti_entropy", **summary)
            return summary
        if max_buckets is not None:
            # Rotate the descent start each round, so a bucket whose repair
            # keeps failing (an unreadable replica) cannot starve the
            # repairable tail behind it.  The offset advances by one
            # (coprime with any list length), so every diverging bucket is
            # eventually descended no matter how the list length interacts
            # with the window size.
            start = self._bucket_cursor % len(buckets)
            self._bucket_cursor += 1
            buckets = (buckets[start:] + buckets[:start])[:max_buckets]
        repaired_keys: List[bytes] = []
        budget_spent = False
        for tree_a, tree_b, bucket in buckets:
            if budget_spent:
                break
            summary["descended"] += 1
            stats["anti_entropy_buckets"] += 1
            items_a = tree_a.bucket_items(bucket)
            items_b = tree_b.bucket_items(bucket)
            for key in sorted(set(items_a) | set(items_b)):
                if items_a.get(key) == items_b.get(key):
                    continue
                if max_repairs is not None and len(repaired_keys) >= max_repairs:
                    budget_spent = True
                    break
                if self._repair_key(node_a, node_b, key):
                    repaired_keys.append(key)
        summary["repaired"] = len(repaired_keys)
        stats["anti_entropy_keys_repaired"] += len(repaired_keys)
        if repaired_keys:
            summary["repaired_keys"] = digest_keys(sorted(repaired_keys))
        self.router._record("anti_entropy", **summary)
        return summary

    def _read_raw(self, cn: "ClusterNode", key: bytes) -> Optional[bytes]:
        """Read ``key`` off one replica and re-derive its mirror entry from
        the record.  Both happen under the replica's lock, as an apply
        does, so no concurrent apply can land between the read and the
        re-derivation."""
        try:
            with cn.lock:
                raw = cn.read(key)
                self.note_read(cn.node_id, key, raw)
        except ShardStoreError:
            self.router._note_failure(cn)
            return None
        return raw

    def _repair_key(self, node_a: int, node_b: int, key: bytes) -> bool:
        """Copy the newest record of ``key`` onto the staler pair member.

        Goes through :meth:`ClusterRouter._replica_apply`, so the repair
        is exactly a conditional write: per-replica version monotonicity
        and acknowledged-write durability are preserved by construction.
        Both reads re-derive their replica's leaf, so a pair that differs
        only in a stale leaf (a write that applied and then raised) stops
        differing here even though nothing is copied.
        """
        cn_a = self.router.nodes[node_a]
        cn_b = self.router.nodes[node_b]
        raw_a = self._read_raw(cn_a, key)
        raw_b = self._read_raw(cn_b, key)
        ver_a, ver_b = record_version(raw_a), record_version(raw_b)
        if ver_a == ver_b:
            return False  # equal versions carry equal records
        src, dst = (
            (raw_a, cn_b) if ver_a > ver_b else (raw_b, cn_a)
        )
        if src is None:
            return False
        try:
            self.router._replica_apply(dst, 0, key, src)
        except ShardStoreError:
            self.router._note_failure(dst)
            return False
        return True

    def run_until_converged(
        self, max_rounds: int = DEFAULT_MAX_ROUNDS
    ) -> Dict[str, Any]:
        """Budgeted rounds until the placement-group roots converge.

        The convergence check runs once per full pair cycle, so the round
        count is a whole number of cycles: at most ``replication - 1`` of
        them when each round's budget covers what a pair has to repair.
        Returns ``{"rounds", "converged"}``; callers gate on
        ``converged`` -- the settlement gate never trusts round counts
        alone.
        """
        rounds = 0
        snapshot = self.converged_snapshot()
        while not snapshot["converged"] and rounds < max_rounds:
            cycle = max(1, len(self._reachable_pairs()))
            for _ in range(min(cycle, max_rounds - rounds)):
                self.run_round()
                rounds += 1
            snapshot = self.converged_snapshot()
        return {"rounds": rounds, "converged": snapshot["converged"]}

    # ------------------------------------------------------------------
    # convergence proof (the settlement gate)

    def converged_snapshot(self) -> Dict[str, Any]:
        """Placement-group Merkle roots across all live replicas.

        The groups are those some member holds a key of; each reachable
        member of a group contributes its root for that group.  A group
        converged iff every such root is equal -- equal roots prove
        identical record sets.  Returns ``{"converged", "groups",
        "divergent", "keys"}``.
        """
        nodes = self.router.nodes
        held: set = set()
        all_keys: set = set()
        for nid, groups in self.trees.items():
            cn = nodes.get(nid)
            if cn is None or cn.removed:
                continue
            for group, tree in groups.items():
                if len(tree):
                    held.add(group)
                    all_keys.update(tree.keys())
        divergent = 0
        for group in held:
            roots = {
                self._group_root(nid, group)
                for nid in group
                if nid in nodes and nodes[nid].reachable
            }
            if len(roots) > 1:  # a lone live replica is converged
                divergent += 1
        return {
            "converged": divergent == 0,
            "groups": len(held),
            "divergent": divergent,
            "keys": len(all_keys),
        }

    def roots_converged(self) -> bool:
        return bool(self.converged_snapshot()["converged"])

    def journal_roots(self) -> Dict[str, Any]:
        """Journal the convergence verdict plus every live replica root.

        This is the record the mined ``roots-converge-after-settle``
        invariant keys on: after a ``settle`` record, the next
        ``merkle_roots`` record must report ``converged=True``.
        """
        snapshot = self.converged_snapshot()
        roots = {
            str(nid): self.root(nid)
            for nid, cn in sorted(self.router.nodes.items())
            if not cn.removed and nid in self.trees
        }
        self.router._record(
            "merkle_roots",
            converged=snapshot["converged"],
            groups=snapshot["groups"],
            divergent=snapshot["divergent"],
            nkeys=snapshot["keys"],
            roots=roots,
        )
        return {**snapshot, "roots": roots}
