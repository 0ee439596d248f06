"""The router journal's record shapes, pinned (the cluster analogue of
``test_envelope.py``).

Every client op of :class:`~repro.cluster.ClusterRouter` writes exactly
one router record whose kind, outcome and key set depend only on the op
and its verdict -- ok, not found, degraded read, degraded write -- and a
rejected request writes nothing.  The quorum model-check harness's PCT
exploration is pinned too: its execution and scheduling-decision counts
move iff a lock acquisition (a yield point) on the quorum path moved.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterRouter
from repro.concurrency import model
from repro.core.concurrent_harnesses import quorum_harness
from repro.errors import (
    DegradedReadError,
    DegradedWriteError,
    InvalidRequestError,
    KeyNotFoundError,
    ShardStoreError,
)
from repro.shardstore import FaultSet
from repro.shardstore.observability import Journal

#: Every router op record carries these; the table lists what each adds.
_COMMON = {"kind", "op", "out", "tick", "chain", "node"}


def _router(**overrides):
    def factory(identity, meta):
        return Journal(meta=dict(meta, seed=0), node=identity)

    config = ClusterConfig(num_nodes=5, seed=0, **overrides)
    router = ClusterRouter(config, journal_factory=factory)
    router.put(b"k", b"v")
    return router


def _placement(router):
    return router._placement(b"k")


def _partition(router, count):
    for node_id in _placement(router)[:count]:
        router.partition_node(node_id)


def _failing_writes(router):
    """Every replica of ``b"k"`` still answers reads but its writes raise."""

    def refuse(*args, **kwargs):
        raise ShardStoreError("write refused")

    for node_id in _placement(router):
        router.nodes[node_id].node.put = refuse


def _ops_since(router, mark):
    return [e for e in router.journal.entries[mark:] if e["kind"] != "genesis"]


#: case -> (setup, call, raised, [(kind, out, extra fields), ...]).
_CASES = {
    "put/ok": (
        None,
        lambda r: r.put(b"k", b"v2"),
        None,
        [("put", "ok", {"key", "value", "cop", "ver", "acks", "want"})],
    ),
    "put/degraded-write": (
        lambda r: _partition(r, 3),
        lambda r: r.put(b"k", b"v2"),
        DegradedWriteError,
        [
            (
                "put",
                "error:DegradedWriteError",
                {"key", "value", "cop", "ver", "acks", "want"},
            )
        ],
    ),
    "get/ok": (
        None,
        lambda r: r.get(b"k"),
        None,
        [("get", "ok", {"key", "cop", "value", "ver", "replies"})],
    ),
    "get/not-found": (
        None,
        lambda r: r.get(b"absent"),
        KeyNotFoundError,
        [("get", "not_found", {"key", "cop", "replies"})],
    ),
    "get/degraded-read": (
        lambda r: _partition(r, 2),
        lambda r: r.get(b"k"),
        DegradedReadError,
        [("get", "error:DegradedReadError", {"key", "cop", "replies"})],
    ),
    "delete/ok": (
        None,
        lambda r: r.delete(b"k"),
        None,
        [("delete", "ok", {"key", "cop", "acks", "want", "ver"})],
    ),
    "delete/not-found": (
        None,
        lambda r: r.delete(b"absent"),
        KeyNotFoundError,
        [("delete", "not_found", {"key", "cop"})],
    ),
    "delete/degraded-read": (
        lambda r: _partition(r, 2),
        lambda r: r.delete(b"k"),
        DegradedReadError,
        [("delete", "error:DegradedReadError", {"key", "cop"})],
    ),
    "delete/degraded-write": (
        _failing_writes,
        lambda r: r.delete(b"k"),
        DegradedWriteError,
        [("delete", "error:DegradedWriteError", {"key", "cop", "acks", "want", "ver"})],
    ),
    "contains/ok": (
        None,
        lambda r: r.contains(b"k"),
        None,
        [("contains", "ok", {"key", "cop", "exists"})],
    ),
    "contains/not-found": (
        None,
        lambda r: r.contains(b"absent"),
        None,
        [("contains", "ok", {"key", "cop", "exists"})],
    ),
    "contains/degraded-read": (
        lambda r: _partition(r, 2),
        lambda r: r.contains(b"k"),
        DegradedReadError,
        [("contains", "error:DegradedReadError", {"key", "cop"})],
    ),
    "keys/ok": (
        None,
        lambda r: r.keys(),
        None,
        [("keys", "ok", {"count", "keyset"})],
    ),
    "keys/degraded-read": (
        lambda r: _partition(r, 2),
        lambda r: r.keys(),
        None,
        [("keys", "ok", {"count", "keyset"})],
    ),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_one_op_is_one_record_with_its_verdict_fields(case):
    setup, call, raised, expected = _CASES[case]
    router = _router()
    if setup is not None:
        setup(router)
    mark = len(router.journal.entries)
    if raised is None:
        call(router)
    else:
        with pytest.raises(raised):
            call(router)
    records = _ops_since(router, mark)
    assert [(r["kind"], r["out"], set(r) - _COMMON) for r in records] == expected


def test_only_get_names_its_repliers_on_a_degraded_read():
    router = _router()
    _partition(router, 2)
    mark = len(router.journal.entries)
    survivor = _placement(router)[2]
    for op in (router.get, router.delete, router.contains):
        with pytest.raises(DegradedReadError):
            op(b"k")
    get, delete, contains = _ops_since(router, mark)
    assert get["replies"] == [survivor]
    assert "replies" not in delete and "replies" not in contains


def test_outcomes_carry_the_quorum_fields():
    router = _router()
    prefs = _placement(router)
    mark = len(router.journal.entries)
    router.put(b"k", b"v2")
    router.get(b"k")
    router.contains(b"k")
    router.delete(b"k")
    put, get, contains, delete = _ops_since(router, mark)
    assert (put["acks"], put["want"], put["ver"]) == (prefs, 2, 2)
    assert (get["replies"], get["ver"]) == (prefs, 2)
    assert contains["exists"] is True
    assert (delete["acks"], delete["want"], delete["ver"]) == (prefs, 2, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda r: r.put(b"", b"v"),
        lambda r: r.put(b"k", "not-bytes"),
        lambda r: r.put(b"k", b"v", deadline=0),
        lambda r: r.get("not-bytes"),
        lambda r: r.get(b"k", deadline=-1),
        lambda r: r.delete(b""),
        lambda r: r.delete(b"k", deadline=0),
        lambda r: r.contains(b""),
    ],
)
def test_a_rejected_request_leaves_no_record(call):
    router = _router()
    mark = len(router.journal.entries)
    ops = router._cop
    with pytest.raises(InvalidRequestError):
        call(router)
    assert _ops_since(router, mark) == []
    assert router._cop == ops
    assert router.get(b"k") == b"v"


def test_read_repair_is_its_own_record_before_the_read():
    router = _router()
    victim = _placement(router)[0]
    router.partition_node(victim)
    router.put(b"k", b"v2")
    router._hints[victim].clear()  # the victim keeps v1
    router.heal_partition(victim)
    mark = len(router.journal.entries)
    assert router.get(b"k") == b"v2"
    repair, get = _ops_since(router, mark)
    assert repair["kind"] == "read_repair"
    assert (repair["target"], repair["ver"]) == (victim, 2)
    assert set(repair) == _COMMON | {"key", "target", "ver"}
    assert get["kind"] == "get" and get["ver"] == 2


def _storm(router):
    """Every quorum verdict, hint path, repair path and membership change,
    in a fixed order."""
    keys = [b"s-%d" % i for i in range(12)]
    for key in keys:
        router.put(key, b"v0-" + key)
    router.partition_node(1)
    router.crash_node(3)
    for round_ in range(3):
        for key in keys:
            for op in (
                lambda: router.put(key, b"v%d-" % round_ + key),
                lambda: router.get(key),
                lambda: router.contains(key),
            ):
                try:
                    op()
                except (DegradedReadError, DegradedWriteError, KeyNotFoundError):
                    pass
        try:
            router.delete(keys[round_])
        except (DegradedReadError, DegradedWriteError, KeyNotFoundError):
            pass
    router.keys()
    router.heal_partition(1)
    router.restart_node(3)
    for key in keys:
        try:
            router.get(key)
        except KeyNotFoundError:
            pass
    joined = router.add_node()
    router.remove_node(0)
    router.partition_node(joined)
    for key in keys[:4]:
        router.put(key, b"late-" + key)
    router.settle()
    router.antientropy.run_until_converged()
    router.antientropy.journal_roots()
    router.keys()


def test_a_storm_writes_the_pinned_journal_bytes():
    """Chain heads cover every byte of every record, router and members."""
    router = _router(hint_limit=1, anti_entropy=True)
    _storm(router)
    stats = {name: n for name, n in router.stats.items() if n}
    assert router.close() == {
        "router": "39aa086e53cc6bd8",
        "node0": "eb9c917b2742c64e",
        "node1": "362799324e454236",
        "node2": "38a8a1daa71aa5ca",
        "node3": "87f0d14ac42b0701",
        "node4": "429edecb2aeabf3c",
        "node5": "c7e664b7dde37102",
    }
    assert stats == {
        "puts": 53,
        "gets": 48,
        "deletes": 3,
        "contains": 36,
        "degraded_writes": 7,
        "quorum_write_failures": 24,
        "quorum_read_failures": 50,
        "read_repairs": 18,
        "hints_queued": 56,
        "hints_dropped": 7,
        "hints_replayed": 1,
        "hints_revoked": 48,
        "node_crashes": 1,
        "node_restarts": 1,
        "partitions": 2,
        "partition_heals": 2,
        "node_joins": 1,
        "node_leaves": 1,
        "rebalances": 2,
        "rebalance_moves": 18,
        "anti_entropy_rounds": 17,
        "anti_entropy_root_matches": 16,
        "anti_entropy_buckets": 7,
        "anti_entropy_keys_repaired": 7,
    }
    busy = {n: c for n, c in router.hint_stats.items() if any(c.values())}
    assert busy == {
        1: {"queued": 28, "dropped": 4, "replayed": 0, "revoked": 24},
        3: {"queued": 27, "dropped": 3, "replayed": 0, "revoked": 24},
        5: {"queued": 1, "dropped": 0, "replayed": 1, "revoked": 0},
    }


@pytest.mark.parametrize(
    "seed,executions,total_steps", [(0, 60, 4550), (1, 60, 4605)]
)
def test_quorum_schedule_space_is_pinned(seed, executions, total_steps):
    result = model(
        quorum_harness(FaultSet.none()),
        strategy="pct",
        iterations=60,
        seed=seed,
        pct_steps_hint=128,
        max_executions=20_000,
    )
    assert result.passed, result.failure
    assert (result.executions, result.total_steps) == (executions, total_steps)
