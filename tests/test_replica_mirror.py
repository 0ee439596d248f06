"""The anti-entropy mirror as the replica apply's version cache.

``ClusterRouter._replica_apply`` takes a replica's current version from
the :class:`~repro.cluster.antientropy.AntiEntropyService` mirror instead
of reading the replica first.  That is state ``ReferenceCluster`` does not
have, so its exactness is tested here rather than trusted:

* directed cases for each invalidation rule -- a put that raises, a put
  that applies and then raises (the stale-leaf bug: hint replay and
  anti-entropy both used to skip the leaf refresh), a rebalance delete,
  a dirty restart;
* a property over seeded campaign storms of both cluster-plane suites,
  every storm profile and several seeds, plus a join/leave sequence:
  after every router op each *known* mirror version equals the version a
  replica read returns, every Merkle leaf sits in the tree of its key's
  current placement group, and ``converged_snapshot()`` equals the
  whole-keyspace regrouping it replaced; after every settle each up
  member's Merkle root equals one rebuilt from the replica;
* a deterministic-scheduler race of two conditional applies on one
  replica: the version check and the write happen under ``cn.lock``.
"""

import random
from typing import Any, Callable, Dict, List

import pytest

from repro.campaign.cluster import run_storm
from repro.campaign.spec import KIND_ANTIENTROPY, KIND_CLUSTER
from repro.cluster import (
    FLAG_VALUE,
    ClusterConfig,
    ClusterRouter,
    decode_record,
    encode_record,
)
from repro.concurrency import model, spawn
from repro.core.concurrent_harnesses import quorum_harness
from repro.errors import NotFoundError, RetryableError, ShardStoreError
from repro.shardstore import DiskGeometry, FaultSet
from repro.shardstore.injection import CLUSTER_PROFILES
from repro.shardstore.merkle import MerkleMap
from repro.shardstore.observability.journal import digest_bytes

STORM_SEEDS = (0, 1, 2, 3)


def _replica_version(cn, key: bytes) -> int:
    try:
        return decode_record(cn.node.get(key))[0]
    except NotFoundError:
        return -1


def mirror_mismatches(router: ClusterRouter) -> List[str]:
    """Every key whose known mirror version differs from its replica."""
    mirror = router.antientropy
    out: List[str] = []
    for nid in router.members:
        cn = router.nodes[nid]
        versions = mirror.versions.get(nid)
        if versions is None:
            continue  # a wholly unknown replica claims nothing
        for key in sorted(set(cn.node.keys()) | set(versions)):
            known = mirror.version(nid, key)
            if known is None:
                continue
            actual = _replica_version(cn, key)
            if known != actual:
                out.append(f"node{nid} {key!r}: mirror v{known}, replica v{actual}")
    return out


def rebuilt_root(cn) -> str:
    """The Merkle root of one replica, derived from its store alone."""
    items = []
    for key in cn.node.keys():
        try:
            items.append((key, digest_bytes(cn.node.get(key))))
        except ShardStoreError:
            continue
    return MerkleMap.from_items(items).root()


def stale_roots(router: ClusterRouter) -> List[int]:
    """Up members whose mirror root differs from a rebuilt one."""
    return [
        nid
        for nid in router.members
        if router.nodes[nid].up
        and router.antientropy.root(nid) != rebuilt_root(router.nodes[nid])
    ]


def misfiled_leaves(router: ClusterRouter) -> List[str]:
    """Leaves filed outside the tree of their key's placement group."""
    out: List[str] = []
    for nid, groups in sorted(router.antientropy.trees.items()):
        for group, tree in groups.items():
            for key in tree.keys():
                placement = tuple(router._placement(key))
                if placement != group:
                    out.append(f"node{nid} {key!r}: in {group}, placed {placement}")
    return out


def reference_snapshot(router: ClusterRouter) -> Dict[str, Any]:
    """``converged_snapshot()`` as computed before each replica kept one
    tree per group: regroup every held key by its preference list, and
    rebuild each live member's root over that group's keys."""
    nodes = router.nodes
    held = {
        nid: dict(item for tree in groups.values() for item in tree.items())
        for nid, groups in router.antientropy.trees.items()
        if nid in nodes and not nodes[nid].removed
    }
    groups: Dict[tuple, List[bytes]] = {}
    all_keys = set().union(*held.values())
    for key in all_keys:
        groups.setdefault(tuple(router._placement(key)), []).append(key)
    divergent = 0
    for placement, keys in groups.items():
        live = [nid for nid in placement if nid in nodes and nodes[nid].reachable]
        if len(live) < 2:
            continue
        roots = {
            MerkleMap.from_items(
                (key, held[nid][key]) for key in keys if key in held[nid]
            ).root()
            for nid in live
        }
        if len(roots) > 1:
            divergent += 1
    return {
        "converged": divergent == 0,
        "groups": len(groups),
        "divergent": divergent,
        "keys": len(all_keys),
    }


def applied_then_raised(put: Callable) -> Callable:
    """A replica ``put`` that applies the record, then loses its ack."""

    def wrapper(key, record, **kwargs):
        put(key, record, **kwargs)
        raise RetryableError("replica write applied, then its ack was lost")

    return wrapper


def refused(*args, **kwargs):
    raise RetryableError("replica write refused")


def count_gets(router: ClusterRouter) -> Dict[int, int]:
    """Wrap every member's ``get``; the returned dict counts calls."""
    counts = {nid: 0 for nid in router.nodes}
    for nid, cn in router.nodes.items():
        real = cn.node.get

        def get(key, *args, _nid=nid, _real=real, **kwargs):
            counts[_nid] += 1
            return _real(key, *args, **kwargs)

        cn.node.get = get
    return counts


def _router(**overrides) -> ClusterRouter:
    return ClusterRouter(ClusterConfig(**{"num_nodes": 5, "seed": 0, **overrides}))


class TestOneWritePerApply:
    def test_apply_reads_no_replica_when_the_mirror_knows(self):
        router = _router()
        gets = count_gets(router)
        for i in range(8):
            router.put(b"k-%d" % (i % 3), b"v-%d" % i)
        router.delete(b"k-0")  # its quorum read is a client read
        assert sum(gets.values()) == router.config.replication
        assert mirror_mismatches(router) == []

    def test_apply_reads_through_once_after_a_refused_put(self):
        router = _router()
        key = b"rk"
        victim = router._placement(key)[-1]
        cn = router.nodes[victim]
        router.put(key, b"v1")
        cn.node.put = refused
        router.put(key, b"v2")  # the other two ack; the victim is hinted
        del cn.node.put
        assert router.antientropy.version(victim, key) is None
        gets = count_gets(router)
        router.settle()  # hint replay: the one read-through
        assert gets == {nid: int(nid == victim) for nid in router.nodes}
        router.put(key, b"v3")
        assert gets[victim] == 1
        assert mirror_mismatches(router) == []

    def test_a_dirty_restart_re_derives_versions(self):
        router = _router()
        for i in range(6):
            router.put(b"dk-%d" % i, b"v")
        victim = router._placement(b"dk-0")[0]
        router.crash_node(victim)
        router.restart_node(victim)
        assert mirror_mismatches(router) == []
        assert stale_roots(router) == []


class TestStaleLeafRepair:
    """A replica put that applies and then raises must not leave that
    replica's Merkle leaf stale for good: the hint replay that finds the
    record present, and an anti-entropy repair that finds equal versions,
    both re-derive the leaf from what they read."""

    def _lose_one_ack(self, router: ClusterRouter, key: bytes) -> int:
        victim = router._placement(key)[-1]
        cn = router.nodes[victim]
        cn.node.put = applied_then_raised(cn.node.put)
        router.put(key, b"v")  # acked by the other two replicas
        del cn.node.put
        assert _replica_version(cn, key) >= 0, "the record did apply"
        return victim

    def test_a_put_that_applied_then_raised_leaves_the_mirror_exact(self):
        router = _router()
        victim = self._lose_one_ack(router, b"sk")
        assert mirror_mismatches(router) == []
        assert router.antientropy.version(victim, b"sk") is None

    def test_hint_replay_refreshes_the_leaf(self):
        router = _router()
        victim = self._lose_one_ack(router, b"sk")
        assert router.hints_pending(victim) == 1
        router.settle()
        assert router.stats["hints_replayed"] == 1
        assert stale_roots(router) == []

    def test_anti_entropy_refreshes_the_leaf_with_no_hint_to_replay(self):
        router = _router(hint_limit=0, anti_entropy=True, anti_entropy_interval=0)
        self._lose_one_ack(router, b"sk")
        router.settle()
        members = router.members
        for _ in range(3):
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    router.antientropy.sync(a, b)
        assert router.antientropy.roots_converged()
        assert stale_roots(router) == []


class TestRebalanceInvalidation:
    def test_rebalance_delete_records_absent_and_a_failed_one_unknown(self):
        router = _router(num_nodes=4)
        keys = [b"mk-%d" % i for i in range(12)]
        for key in keys:
            router.put(key, b"v")
        holders = {key: set(router._placement(key)) for key in keys}
        # A join whose stray-copy deletes all raise: unknown, not absent.
        attempts: List[bytes] = []

        def delete(key, **kwargs):
            attempts.append(key)
            refused()

        patched = [cn.node for cn in router.nodes.values()]
        for node in patched:
            node.delete = delete
        router.add_node()
        for node in patched:
            del node.delete
        assert attempts
        strays = [
            (nid, key)
            for key in keys
            for nid in holders[key] - set(router._placement(key))
        ]
        assert strays
        assert all(router.antientropy.version(n, k) is None for n, k in strays)
        assert mirror_mismatches(router) == []
        # The next rebalance deletes them: known absent.
        router.rebalance()
        assert all(router.antientropy.version(n, k) == -1 for n, k in strays)
        assert mirror_mismatches(router) == []


class _Checked:
    """Wraps the router's op surface so every op is followed by the
    exactness and filing checks and every settle by the root check."""

    OPS = (
        "put", "get", "delete", "contains", "keys", "apply_fault",
        "add_node", "remove_node", "settle",
    )

    def __init__(self, monkeypatch):
        self.ops = 0
        self.settles = 0
        for name in self.OPS:
            monkeypatch.setattr(
                ClusterRouter, name, self._wrap(name, getattr(ClusterRouter, name))
            )

    def _wrap(self, name: str, real: Callable) -> Callable:
        checked = self

        def op(router, *args, **kwargs):
            try:
                return real(router, *args, **kwargs)
            finally:
                checked.ops += 1
                assert mirror_mismatches(router) == [], f"after {name}"
                assert misfiled_leaves(router) == [], f"after {name}"
                assert (
                    router.antientropy.converged_snapshot()
                    == reference_snapshot(router)
                ), f"after {name}"
                if name == "settle":
                    checked.settles += 1
                    assert stale_roots(router) == [], "after settle"

        return op


@pytest.mark.parametrize("kind", [KIND_CLUSTER, KIND_ANTIENTROPY])
@pytest.mark.parametrize("profile", sorted(CLUSTER_PROFILES))
def test_mirror_is_exact_through_seeded_storms(monkeypatch, kind, profile):
    checked = _Checked(monkeypatch)
    healer = "anti_entropy" if kind == KIND_ANTIENTROPY else "read_repair"
    for seed in STORM_SEEDS:
        harness, _, detail = run_storm(kind, seed, profile, **{healer: True})
        assert detail is None, f"seed {seed}: {detail}"
        assert mirror_mismatches(harness.router) == []
        assert stale_roots(harness.router) == []
    assert checked.settles == len(STORM_SEEDS)
    assert checked.ops > 80 * len(STORM_SEEDS)


def test_concurrent_quorum_writes_linearize_through_the_mirror():
    """Racing writers and a read-repairing reader, with every replica's
    version taken from the mirror under the replica lock."""
    result = model(
        quorum_harness(FaultSet.none()), strategy="pct", iterations=60, seed=3
    )
    assert result.passed, result.failure


def racing_applies(versions=(2, 3)) -> Callable[[], Callable[[], None]]:
    """Two conditional applies of different versions racing on one replica
    that already holds version 1; every ``put`` the replica receives is
    logged."""

    def factory() -> Callable[[], None]:
        router = ClusterRouter(
            ClusterConfig(
                num_nodes=1,
                disks_per_node=1,
                replication=1,
                write_quorum=1,
                read_quorum=1,
                seed=0,
                geometry=DiskGeometry(num_extents=10, extent_size=2048, page_size=128),
            )
        )
        cn = router.nodes[0]
        key = b"raced"
        router._replica_apply(cn, 0, key, encode_record(1, FLAG_VALUE, b"v1"))
        applied: List[int] = []
        real_put = cn.node.put

        def put(key, record, **kwargs):
            applied.append(decode_record(record)[0])
            return real_put(key, record, **kwargs)

        cn.node.put = put

        def writer(version: int) -> Callable[[], None]:
            record = encode_record(version, FLAG_VALUE, b"v%d" % version)
            return lambda: router._replica_apply(cn, 0, key, record)

        def body() -> None:
            tasks = [spawn(writer(v), f"w{v}") for v in versions]
            for task in tasks:
                task.join()
            assert applied == sorted(applied), (
                f"replica version went backwards: puts of v{applied}"
            )
            assert _replica_version(cn, key) == max(versions)

        return body

    return factory


def test_racing_applies_never_roll_a_replica_back():
    """The mirror lookup, the version check and the write are one critical
    section under ``cn.lock``: with the lookup taken before the lock, the
    lower version can read the mirror, be preempted at the lock, and then
    overwrite the higher one (the quorum harness, with one reader, cannot
    see that).  Random schedules, because the preemption that matters is at
    the first lock acquire, which DFS backtracks to last: with the lookup
    moved, random fails on its first or second schedule, while DFS passes
    2,000."""
    result = model(racing_applies(), strategy="random", iterations=200, seed=0)
    assert result.passed, result.failure
    assert result.executions == 200


def test_mirror_is_exact_through_joins_and_leaves(monkeypatch):
    checked = _Checked(monkeypatch)
    rng = random.Random(7)
    router = _router(hint_limit=2, anti_entropy=True, anti_entropy_interval=8)
    for step in range(160):
        if step % 40 == 10:
            router.add_node()
        elif step % 40 == 30:
            router.remove_node(rng.choice(router.members))
        elif step % 40 == 20:
            router.partition_node(rng.choice(router.members))
        elif step % 40 == 25:
            router.settle()
        key = b"jk-%d" % rng.randrange(12)
        roll = rng.random()
        try:
            if roll < 0.6:
                router.put(key, b"v-%d" % step)
            elif roll < 0.8:
                router.get(key)
            else:
                router.delete(key)
        except ShardStoreError:
            pass
    router.settle()
    assert router.stats["node_joins"] == 4 and router.stats["node_leaves"] == 4
    assert router.stats["rebalance_moves"] > 0
    assert checked.settles >= 5
