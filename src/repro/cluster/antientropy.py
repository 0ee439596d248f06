"""Merkle anti-entropy: proactive replica repair beyond read-repair.

PR 8's cluster heals divergence only through read-repair, so a key that
is never read again after a partition, a hint-buffer overflow, or a
quorum-failure hint revocation stays divergent *forever* -- the paper's
section 4.4 recovery obligation demands better.  This module closes the
gap with the classic Dynamo-style protocol:

* every member (:class:`~repro.cluster.member.ClusterNode`) owns one
  incremental :class:`~repro.shardstore.merkle.MerkleMap` per *placement
  group* (a key's preference list, as a tuple in preference order) over
  its ``key -> record-digest`` entries, updated by its own conditional
  apply and rebuilt after a dirty restart;
* a background round picks one pair of reachable members on the
  router's op clock, compares the roots of the groups both belong to,
  descends only into diverging subtrees of diverging groups, and repairs
  stale keys through the member's conditional apply (newest version
  wins, tombstones included);
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
from repro.shardstore.merkle import MerkleMap
from repro.shardstore.observability.journal import digest_keys

from .record import record_version

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (router imports us)
    from .router import ClusterRouter

__all__ = ["AntiEntropyService", "DEFAULT_MAX_ROUNDS"]

#: Max diverging leaf buckets one background round descends into.
ROUND_BUCKETS = 8
#: Max keys one background round repairs.
ROUND_REPAIRS = 16

#: Ceiling for :meth:`AntiEntropyService.run_until_converged`; generous --
#: a full pair cycle is ``C(n, 2)`` rounds and convergence needs at most
#: ``replication - 1`` cycles of budgeted progress.
DEFAULT_MAX_ROUNDS = 200


class AntiEntropyService:
    """The budgeted pairwise sync over member-owned Merkle trees.

    Owned by :class:`~repro.cluster.router.ClusterRouter`, which calls
    :meth:`maybe_run` from its op clock so rounds are deterministic
    functions of the workload (never wall time).  The service holds no
    replica state: it reads each member's ``trees`` and roots, and
    repairs through the member's conditional apply.
    """

    def __init__(self, router: "ClusterRouter") -> None:
        self.router = router
        cfg = router.config
        self.enabled = cfg.anti_entropy
        self.interval = cfg.anti_entropy_interval
        self._cursor = 0  # round-robin position over reachable pairs
        self._bucket_cursor = 0  # rotation offset into diverging buckets

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
        return self._sync_pair(pair[0], pair[1], budgeted=True)

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
        return self._sync_pair(node_a, node_b, budgeted=False)

    def _sync_pair(
        self, node_a: int, node_b: int, *, budgeted: bool
    ) -> Dict[str, Any]:
        """Compare and repair one pair; a ``budgeted`` (background) round
        descends at most :data:`ROUND_BUCKETS` buckets and repairs at most
        :data:`ROUND_REPAIRS` keys."""
        stats = self.router.stats
        nodes = self.router.nodes
        trees_a, trees_b = nodes[node_a].trees, nodes[node_b].trees
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
        if budgeted:
            # Rotate the descent start each round, so a bucket whose repair
            # keeps failing (an unreadable replica) cannot starve the
            # repairable tail behind it.  The offset advances by one
            # (coprime with any list length), so every diverging bucket is
            # eventually descended no matter how the list length interacts
            # with the window size.
            start = self._bucket_cursor % len(buckets)
            self._bucket_cursor += 1
            buckets = (buckets[start:] + buckets[:start])[:ROUND_BUCKETS]
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
                if budgeted and len(repaired_keys) >= ROUND_REPAIRS:
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

    def _repair_key(self, node_a: int, node_b: int, key: bytes) -> bool:
        """Copy the newest record of ``key`` onto the staler pair member.

        Goes through :meth:`ClusterNode.apply_if_newer`, so the repair is
        exactly a conditional write: per-replica version monotonicity
        holds by construction.  Both reads re-derive their member's leaf
        (:meth:`ClusterNode.read_through`), so a pair that differs only
        in a stale leaf (a write that applied and then raised) stops
        differing here even though nothing is copied.
        """
        cn_a = self.router.nodes[node_a]
        cn_b = self.router.nodes[node_b]
        raws: List[Optional[bytes]] = []
        for cn in (cn_a, cn_b):
            try:
                raws.append(cn.read_through(key))
            except ShardStoreError:
                self.router._note_failure(cn)
                raws.append(None)
        raw_a, raw_b = raws
        ver_a, ver_b = record_version(raw_a), record_version(raw_b)
        if ver_a == ver_b:
            return False  # equal versions carry equal records
        src, dst = (
            (raw_a, cn_b) if ver_a > ver_b else (raw_b, cn_a)
        )
        if src is None:
            return False
        try:
            dst.apply_if_newer(key, src)
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
        for cn in nodes.values():
            if cn.removed:
                continue
            for group, tree in cn.trees.items():
                if len(tree):
                    held.add(group)
                    all_keys.update(tree.keys())
        divergent = 0
        for group in held:
            roots = {
                nodes[nid].group_root(group)
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
            str(nid): cn.root()
            for nid, cn in sorted(self.router.nodes.items())
            if not cn.removed
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
