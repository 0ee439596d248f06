"""Tests for the multi-node cluster layer.

Covers the consistent-hash ring, quorum read/write semantics and the
typed degradation contract, hinted handoff (queue / replay / overflow /
revocation), read-repair, rebalancing on membership change, node-level
fault storms, per-node journal identity, the merged multi-journal trace
checker, the ``cluster`` campaign suite (including the ``--no-read-repair``
negative control), the cluster metrics demo, and the seeded minority-
crash durability property.
"""

import random

import pytest

from repro.cluster import (
    FLAG_TOMBSTONE,
    FLAG_VALUE,
    ClusterConfig,
    ClusterRouter,
    HashRing,
    decode_record,
    encode_record,
)
from repro.cluster.record import Reply, record_version
from repro.errors import (
    DegradedReadError,
    DegradedWriteError,
    InvalidRequestError,
    KeyNotFoundError,
    RetryableError,
)
from repro.evidence import check_cluster_files, check_cluster_journals
from repro.shardstore.disk import FailureMode
from repro.shardstore.injection import (
    CLUSTER_PROFILES,
    FAULT_NODE_CRASH,
    FAULT_NODE_RESTART,
    FAULT_PARTITION,
    FAULT_PARTITION_HEAL,
    FaultPlan,
)
from repro.shardstore.observability import Journal, seal_on_signal
from repro.shardstore.observability.journal import digest_bytes
from repro.shardstore.resilience import AdmissionConfig


def small_router(**overrides) -> ClusterRouter:
    defaults = dict(num_nodes=5, seed=0)
    defaults.update(overrides)
    return ClusterRouter(ClusterConfig(**defaults))


class TestHashRing:
    def test_placement_is_deterministic(self):
        a = HashRing((0, 1, 2, 3, 4))
        b = HashRing((0, 1, 2, 3, 4))
        for i in range(32):
            key = b"k-%d" % i
            assert a.preference_list(key, 3) == b.preference_list(key, 3)

    def test_preference_list_is_distinct_nodes(self):
        ring = HashRing((0, 1, 2, 3, 4))
        for i in range(64):
            prefs = ring.preference_list(b"key-%d" % i, 3)
            assert len(prefs) == 3
            assert len(set(prefs)) == 3

    def test_membership_change_moves_only_affected_keys(self):
        ring = HashRing((0, 1, 2))
        before = {
            b"k-%d" % i: ring.preference_list(b"k-%d" % i, 2)
            for i in range(64)
        }
        ring.add_node(3)
        moved = sum(
            ring.preference_list(key, 2) != prefs
            for key, prefs in before.items()
        )
        # Consistent hashing: some keys move to the new node, most stay.
        assert 0 < moved < len(before)
        ring.remove_node(3)
        after = {
            key: ring.preference_list(key, 2) for key in before
        }
        assert after == before

    def test_single_join_moves_at_most_expected_key_fraction(self):
        """Consistent-hashing contract: a join steals about ``1/(n+1)``
        of the primary ownership, and *only* toward the new node."""
        keys = [b"pk-%03d" % i for i in range(512)]
        for n in (4, 5, 8):
            ring = HashRing(tuple(range(n)))
            before = {key: ring.preference_list(key, 1)[0] for key in keys}
            ring.add_node(n)
            after = {key: ring.preference_list(key, 1)[0] for key in keys}
            moved = [key for key in keys if before[key] != after[key]]
            # 2x the ideal share is generous slack for 16-vnode variance.
            assert len(moved) / len(keys) <= 2.0 / (n + 1)
            assert all(after[key] == n for key in moved), (
                "a join may only move keys onto the joining node"
            )

    def test_single_leave_moves_only_the_leavers_keys(self):
        keys = [b"pk-%03d" % i for i in range(512)]
        for n in (5, 6, 9):
            ring = HashRing(tuple(range(n)))
            before = {key: ring.preference_list(key, 1)[0] for key in keys}
            ring.remove_node(0)
            after = {key: ring.preference_list(key, 1)[0] for key in keys}
            moved = [key for key in keys if before[key] != after[key]]
            assert len(moved) / len(keys) <= 2.0 / n
            assert all(before[key] == 0 for key in moved), (
                "a leave may only move keys the leaver owned"
            )

    def test_vnode_placement_stable_across_restarts(self):
        """Ring points derive from SHA-256 over stable identifiers -- no
        RNG, no wall clock -- so a rebuilt ring (any membership order)
        places every key identically."""
        keys = [b"pk-%03d" % i for i in range(256)]
        a = HashRing((0, 1, 2, 3, 4))
        b = HashRing(())
        for node_id in (4, 2, 0, 3, 1):  # same members, different order
            b.add_node(node_id)
        for key in keys:
            assert a.preference_list(key, 3) == b.preference_list(key, 3)
        assert a._points == b._points
        assert a._owners == b._owners


class TestRecordFrame:
    def test_an_absent_record_decodes_as_the_oldest_tombstone(self):
        raw = encode_record(7, FLAG_VALUE, b"v")
        assert decode_record(raw) == (7, FLAG_VALUE, b"v")
        assert record_version(raw) == 7
        assert decode_record(None) == (-1, FLAG_TOMBSTONE, b"")
        assert record_version(None) == -1
        with pytest.raises(ValueError, match="too short"):
            record_version(raw[:8])

    def test_only_a_value_record_is_present(self):
        assert Reply.of(0, encode_record(3, FLAG_VALUE, b"")).present
        assert not Reply.of(0, encode_record(3, FLAG_TOMBSTONE, b"")).present
        assert not Reply.of(0, None).present


class TestQuorumSemantics:
    def test_put_get_delete_roundtrip(self):
        router = small_router()
        router.put(b"alpha", b"one")
        assert router.get(b"alpha") == b"one"
        assert router.contains(b"alpha")
        router.put(b"alpha", b"two")
        assert router.get(b"alpha") == b"two"
        router.delete(b"alpha")
        assert not router.contains(b"alpha")
        with pytest.raises(KeyNotFoundError):
            router.get(b"alpha")

    def test_quorum_config_validated(self):
        with pytest.raises(InvalidRequestError):
            ClusterConfig(replication=3, write_quorum=1, read_quorum=1)
        with pytest.raises(InvalidRequestError):
            ClusterConfig(num_nodes=2, replication=3)

    def test_read_routes_around_a_minority(self):
        router = small_router()
        router.put(b"k", b"v")
        victim = router._placement(b"k")[0]
        router.crash_node(victim)
        assert router.get(b"k") == b"v"

    def test_partial_ack_write_raises_typed_degradation(self):
        router = small_router()
        prefs = router._placement(b"k")
        for node_id in prefs[:2]:
            router.crash_node(node_id)
        with pytest.raises(DegradedWriteError) as err:
            router.put(b"k", b"v")
        assert err.value.acks == 1
        assert err.value.required == 2

    def test_zero_ack_write_leaves_cluster_unchanged(self):
        """The typed contract: acks == 0 means provably not applied."""
        router = small_router()
        router.put(b"k", b"before")
        prefs = router._placement(b"k")
        for node_id in prefs:
            router.partition_node(node_id)
        with pytest.raises(DegradedWriteError) as err:
            router.put(b"k", b"after")
        assert err.value.acks == 0
        # The failed write's hints were revoked, so healing must NOT
        # resurrect it: every replica still holds the old value.
        assert router.stats["hints_revoked"] >= len(prefs)
        for node_id in prefs:
            router.heal_partition(node_id)
        assert router.get(b"k") == b"before"
        states = router.replica_states(b"k")
        values = {rec[2] for rec in states.values() if rec is not None}
        assert values == {b"before"}

    def test_degraded_read_is_typed(self):
        router = small_router()
        router.put(b"k", b"v")
        for node_id in router._placement(b"k"):
            router.partition_node(node_id)
        with pytest.raises(DegradedReadError) as err:
            router.get(b"k")
        assert err.value.replies == 0
        assert err.value.required == 2


class TestHintedHandoff:
    def test_hints_queue_and_replay_on_heal(self):
        router = small_router()
        router.put(b"k", b"v1")
        victim = router._placement(b"k")[0]
        router.partition_node(victim)
        router.put(b"k", b"v2")
        assert router.hints_pending(victim) == 1
        router.heal_partition(victim)
        assert router.hints_pending(victim) == 0
        assert router.stats["hints_replayed"] == 1
        record = router.replica_states(b"k")[victim]
        assert record is not None and record[2] == b"v2"

    def test_a_replay_that_raises_counts_as_dropped(self):
        """Hint conservation: per node, every queued hint is replayed,
        dropped, revoked or still pending -- a failed replay included."""
        router = small_router()
        router.put(b"k", b"v1")
        victim = router._placement(b"k")[0]
        router.partition_node(victim)
        router.put(b"k", b"v2")
        cn = router.nodes[victim]

        def refused(*args, **kwargs):
            raise RetryableError("write refused")

        cn.node.put = refused
        router.heal_partition(victim)
        del cn.node.put
        assert router.hints_pending(victim) == 0
        assert router.hint_stats[victim] == {
            "queued": 1, "dropped": 1, "replayed": 0, "revoked": 0
        }
        assert router.stats["hints_dropped"] == 1

    def test_hint_buffer_overflow_drops_oldest(self):
        router = small_router(hint_limit=2)
        victim = 0
        router.partition_node(victim)
        queued = 0
        for i in range(40):
            key = b"hk-%02d" % i
            if victim in router._placement(key):
                try:
                    router.put(key, b"v")
                except DegradedWriteError:
                    pass
                queued += 1
            if queued >= 5:
                break
        assert queued >= 3
        assert router.hints_pending(victim) <= 2
        assert router.stats["hints_dropped"] >= 1

    def test_crash_restart_replays_hints(self):
        router = small_router()
        router.put(b"k", b"v1")
        victim = router._placement(b"k")[1]
        router.crash_node(victim)
        router.put(b"k", b"v2")
        assert router.hints_pending(victim) == 1
        router.restart_node(victim)
        record = router.replica_states(b"k")[victim]
        assert record is not None and record[2] == b"v2"


class TestReadRepair:
    def _diverge(self, read_repair: bool):
        """Build a cluster where one replica is stale with no hint left."""
        router = small_router(read_repair=read_repair, hint_limit=0)
        router.put(b"k", b"old")
        victim = router._placement(b"k")[0]
        router.partition_node(victim)
        router.put(b"k", b"new")  # hint_limit=0: the hint is dropped
        router.heal_partition(victim)
        stale = router.replica_states(b"k")[victim]
        assert stale is not None and stale[2] == b"old"
        return router, victim

    def test_read_repair_converges_stale_replica(self):
        router, victim = self._diverge(read_repair=True)
        assert router.get(b"k") == b"new"
        repaired = router.replica_states(b"k")[victim]
        assert repaired is not None and repaired[2] == b"new"
        assert router.stats["read_repairs"] >= 1

    def test_without_read_repair_divergence_persists(self):
        router, victim = self._diverge(read_repair=False)
        assert router.get(b"k") == b"new"  # quorum still answers newest
        stale = router.replica_states(b"k")[victim]
        assert stale is not None and stale[2] == b"old"
        assert router.stats["read_repairs"] == 0


def _fail_reads(router, key):
    """Every replica of ``key`` raises on reads: its caches emptied and a
    permanent read fault armed on every extent of every disk."""
    for node_id in router._placement(key):
        for system in router.nodes[node_id].node.systems:
            system.store.cache.invalidate_all()
            for extent in range(system.disk.geometry.num_extents):
                system.disk.arm_fault(extent, FailureMode.PERMANENT, writes=False)


class TestSettlementOracle:
    """``replica_states`` reports an unreadable replica as unreadable, not
    as absent, so all-unreadable replicas are never "converged"."""

    def test_an_unreadable_replica_is_its_own_state(self):
        from repro.campaign.cluster import _divergence

        router = small_router()
        router.put(b"k", b"v")
        router.settle()
        _fail_reads(router, b"k")
        states = router.replica_states(b"k")
        assert sorted(states) == sorted(router._placement(b"k"))
        for state in states.values():
            assert state.startswith("unreadable (IoError: injected read failure")
        detail = _divergence(states)
        assert detail is not None
        for node_id in states:
            assert f"node{node_id}=unreadable (IoError: " in detail

    def test_settlement_fails_when_a_deleted_keys_replicas_are_unreadable(
        self, monkeypatch
    ):
        """The model permits absent for a deleted key: read as absent, the
        unreadable replicas would pass the Merkle settlement gate."""
        from repro.campaign.cluster import ClusterHarness, settle_merkle

        harness = ClusterHarness(
            FaultPlan(seed=0, profile="none", ops=0, faults=()),
            0,
            ClusterConfig(num_nodes=5, seed=0, read_repair=False, anti_entropy=True),
            write_only=True,
            salt=0,
            prefix=b"a",
        )
        key = b"ak-00"
        harness.touched.add(key)
        assert harness._op_put(key, b"v") is None
        assert harness._op_delete(key) is None
        router = harness.router
        settle = router.settle

        def settle_then_fail_reads():
            settle()
            _fail_reads(router, key)

        monkeypatch.setattr(router, "settle", settle_then_fail_reads)
        detail = settle_merkle(harness)
        assert detail is not None
        assert "unreadable (IoError: injected read failure" in detail


class TestMembership:
    def test_join_rebalances_keys_onto_new_node(self):
        router = small_router(num_nodes=3, replication=3)
        for i in range(24):
            router.put(b"mk-%02d" % i, b"v-%d" % i)
        new_id = router.add_node()
        assert router.stats["rebalances"] >= 1
        moved = sum(
            1
            for i in range(24)
            if new_id in router._placement(b"mk-%02d" % i)
        )
        assert moved > 0
        for i in range(24):
            assert router.get(b"mk-%02d" % i) == b"v-%d" % i

    def test_leave_keeps_every_key_readable(self):
        router = small_router()
        for i in range(24):
            router.put(b"lk-%02d" % i, b"v-%d" % i)
        router.remove_node(router.members[0])
        for i in range(24):
            assert router.get(b"lk-%02d" % i) == b"v-%d" % i

    def test_shed_replica_skips_write_then_converges_on_settle(self):
        """A gray (shedding) node misses the write but no state is lost."""
        router = small_router(
            admission=AdmissionConfig(deadline_units=64, max_backlog_units=128)
        )
        router.put(b"k", b"v1")
        victim = router._placement(b"k")[0]
        cn = router.nodes[victim]
        # Freeze the victim's admission clock and saturate its queues (the
        # shape tests/test_admission.py uses): the next write sheds.
        router.slow_node(victim, 10_000)
        for queue in (lane.queue for lane in cn.node.lanes):
            queue.busy_until = cn.node.ctx.clock + 10_000
        router.put(b"k", b"v2")  # victim sheds -> hinted; quorum still met
        assert router.stats["replica_sheds"] >= 1
        assert router.hints_pending(victim) == 1
        assert router.get(b"k") == b"v2"
        # Drain the storm, then check the typed shed left the gray
        # replica unchanged (no partial write slipped through).
        cn.node.advance_clock(40_000)
        record = router.replica_states(b"k")[victim]
        assert record is not None and record[2] == b"v1"
        # Hint replay converges the replica once the cluster settles.
        router.settle()
        record = router.replica_states(b"k")[victim]
        assert record is not None and record[2] == b"v2"


class TestClusterFaultPlans:
    @pytest.mark.parametrize("profile", sorted(CLUSTER_PROFILES))
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_storm_invariants(self, profile, seed):
        plan = FaultPlan.generate_cluster(
            seed, ops=80, num_nodes=5, profile=profile
        )
        down = set()
        outages = {
            FAULT_NODE_CRASH: FAULT_NODE_RESTART,
            FAULT_PARTITION: FAULT_PARTITION_HEAL,
        }
        opened = {}
        for fault in plan.faults:
            if fault.kind in outages:
                assert fault.disk not in down, "overlapping outage windows"
                down.add(fault.disk)
                opened[fault.disk] = outages[fault.kind]
                # Never more than a strict minority down at once.
                assert len(down) <= (5 - 1) // 2
            elif fault.kind in outages.values():
                assert opened.get(fault.disk) == fault.kind
                down.discard(fault.disk)
                opened.pop(fault.disk)
        assert not down, "every outage window must close"

    def test_plan_is_deterministic(self):
        a = FaultPlan.generate_cluster(3, ops=60, num_nodes=5)
        b = FaultPlan.generate_cluster(3, ops=60, num_nodes=5)
        assert a.faults == b.faults

    def test_rejects_tiny_clusters(self):
        with pytest.raises(ValueError):
            FaultPlan.generate_cluster(0, ops=60, num_nodes=2)


def journal_cluster(**config_overrides):
    """A router whose journals collect in memory, plus the journal list."""
    journals = []

    def factory(identity, meta):
        journal = Journal(meta=dict(meta, seed=0), node=identity)
        journals.append(journal)
        return journal

    defaults = dict(num_nodes=5, seed=0)
    defaults.update(config_overrides)
    router = ClusterRouter(
        ClusterConfig(**defaults), journal_factory=factory
    )
    return router, journals


class TestClientDeadline:
    """A client deadline reaches every replica's admission queue."""

    @pytest.mark.parametrize("op", ["put", "get", "delete"])
    def test_nonpositive_deadline_rejected_before_the_journal(self, op):
        router, _ = journal_cluster(admission=AdmissionConfig())
        router.put(b"k", b"v")
        records = router.journal.records_written
        args = (b"k", b"v2") if op == "put" else (b"k",)
        with pytest.raises(InvalidRequestError, match="deadline must be positive"):
            getattr(router, op)(*args, deadline=0)
        assert router.journal.records_written == records
        assert router.get(b"k") == b"v"

    def test_tight_deadline_sheds_on_every_replica(self):
        router = small_router(admission=AdmissionConfig())
        router.put(b"k", b"v1")
        # A burst on slow disks everywhere: the clock stands still while
        # each ack's drain is charged, so one more put leaves a backlog of
        # a unit or two -- far inside the default deadline.
        for cn in router.nodes.values():
            cn.node.hold_arrivals(10_000)
            for system in cn.node.systems:
                system.disk.set_latency(8)
        router.put(b"k", b"v2")
        assert router.stats["replica_sheds"] == 0
        before = router.replica_states(b"k")

        with pytest.raises(DegradedWriteError) as err:
            router.put(b"k", b"v3", deadline=1)
        assert err.value.acks == 0
        assert router.stats["replica_sheds"] == router.config.replication
        assert router.stats["hints_revoked"] == router.config.replication
        assert all(router.hints_pending(n) == 0 for n in router.nodes)
        assert router.replica_states(b"k") == before

        with pytest.raises(DegradedReadError):
            router.get(b"k", deadline=1)
        with pytest.raises(DegradedReadError):
            router.delete(b"k", deadline=1)
        assert router.replica_states(b"k") == before
        assert router.get(b"k") == b"v2"


class TestJournalIdentity:
    def test_every_record_carries_its_node_identity(self):
        router, journals = journal_cluster()
        router.put(b"k", b"v")
        router.get(b"k")
        router.close()
        identities = set()
        for journal in journals:
            genesis = journal.entries[0]
            identity = genesis["meta"]["node"]
            identities.add(identity)
            for entry in journal.entries[1:]:
                if entry.get("kind") == "seal":
                    continue
                assert entry.get("node") == identity
        assert identities == {"router"} | {
            f"node{nid}" for nid in router.nodes
        }

    def test_member_records_carry_cluster_op_id(self):
        router, journals = journal_cluster()
        router.put(b"k", b"v")
        router.close()
        member = next(
            j for j in journals if j.entries[0]["meta"]["node"] != "router"
        )
        puts = [
            e for e in member.entries if e.get("op") and e.get("kind") == "put"
        ]
        assert puts and all(entry.get("cop") for entry in puts)


class TestMergedChecker:
    def run_storm(self, read_repair=True, seed=1):
        router, journals = journal_cluster(read_repair=read_repair)
        plan = FaultPlan.generate_cluster(
            seed, ops=60, num_nodes=5, profile="cluster-mixed"
        )
        by_op = {}
        for fault in plan.faults:
            by_op.setdefault(fault.op_index, []).append(fault)
        rng = random.Random(seed)
        for index in range(60):
            for fault in by_op.get(index, []):
                router.apply_fault(fault)
            key = b"sk-%02d" % rng.randrange(12)
            try:
                if rng.random() < 0.6:
                    router.put(key, b"sv-%d" % index)
                elif rng.random() < 0.8:
                    router.get(key)
                else:
                    router.delete(key)
            except (DegradedWriteError, DegradedReadError, KeyNotFoundError):
                pass
        router.settle()
        router.close()
        return journals

    def test_clean_storm_run_passes(self):
        journals = self.run_storm()
        report = check_cluster_journals(
            [j.entries for j in journals], require_seal=True
        )
        assert report.passed, report.violations
        assert report.checked > 0
        assert report.corroborated > 0

    def test_tampered_journal_fails(self):
        journals = self.run_storm()
        router_journal = next(
            j for j in journals if j.entries[0]["meta"]["node"] == "router"
        )
        victim = next(
            e
            for e in router_journal.entries
            if e.get("kind") == "put" and e.get("out") == "ok"
        )
        victim["value"] = "0" * len(victim["value"])
        report = check_cluster_journals([j.entries for j in journals])
        assert not report.passed

    def test_requires_exactly_one_router_journal(self):
        journals = self.run_storm()
        members_only = [
            j.entries
            for j in journals
            if j.entries[0]["meta"]["node"] != "router"
        ]
        report = check_cluster_journals(members_only)
        assert not report.passed

    def test_check_trace_cli_merges_files(self, tmp_path):
        from repro.cli import main

        journals = []

        def factory(identity, meta):
            journal = Journal(
                str(tmp_path / f"{identity}.jsonl"),
                meta=dict(meta, seed=0),
                node=identity,
            )
            journals.append(journal)
            return journal

        router = ClusterRouter(
            ClusterConfig(num_nodes=3, seed=0), journal_factory=factory
        )
        router.put(b"k", b"v")
        assert router.get(b"k") == b"v"
        router.close()
        paths = [str(tmp_path / f) for f in sorted(p.name for p in tmp_path.iterdir())]
        report = check_cluster_files(paths, require_seal=True)
        assert report.passed
        assert main(["check-trace", "--require-seal", *paths]) == 0


def router_journal(tmp_path=None, **meta):
    """A hand-written (chain-valid) router journal and an empty member's."""
    path = lambda name: str(tmp_path / f"{name}.jsonl") if tmp_path else None
    router = Journal(
        path("router"), meta={"role": "router", "nodes": 3, **meta}, node="router"
    )
    member = Journal(path("node0"), meta={"role": "member"}, node="node0")
    return router, member


class TestMalformedRouterJournals:
    """A journal is outside input: a chain-valid record the replay cannot
    use is a violation on that record, never a traceback or a silent pass."""

    @pytest.mark.parametrize(
        "field, value", [("ver", "seven"), ("want", "two"), ("cop", 1.5), ("ver", True)]
    )
    def test_non_integer_numeric_field_is_a_violation(self, field, value):
        router, member = router_journal()
        fields = {"ver": 7, "want": 2, "cop": 1, "acks": [0, 1], field: value}
        router.record_op("put", key=b"k", value=b"v1", **fields)
        router.record_op("get", key=b"k", value=b"v1", ver=7)
        for journal in (router, member):
            journal.close()
        report = check_cluster_journals([router.entries, member.entries])
        assert report.chain_ok
        assert [v["problem"] for v in report.violations] == [
            f"non-integer {field} field"
        ]
        assert report.ops == 2  # the replay went on past the bad record

    def test_crash_without_an_integer_target_is_a_violation(self):
        router, member = router_journal()
        router.record_op("crash", target="node0")
        router.record_op("restart")
        for journal in (router, member):
            journal.close()
        report = check_cluster_journals([router.entries, member.entries])
        assert report.violation_count == 2
        assert report.crashes == 0

    def test_records_the_single_node_checker_rejects_are_rejected(self):
        router, member = router_journal()
        router.record_op("get", key=b"k", ver=3)  # ok, but no value digest
        router.record_op("put", value=b"v", ver=4, want=2, cop=1, acks=[0, 1])
        router.record_op("delete", ver=5, want=2, cop=2, acks=[0, 1])
        for journal in (router, member):
            journal.close()
        report = check_cluster_journals(
            [router.entries, member.entries], require_seal=True
        )
        assert report.chain_ok and report.checked == 0
        assert [v["problem"] for v in report.violations] == [
            "get ok record missing value digest",
            "put record missing key/value digest",
            "delete record missing key digest",
        ]
        # ... in the words the single-node checker uses for the same records.
        from repro.evidence import check_journal

        single = check_journal(router.entries)
        assert [v["problem"] for v in single.violations] == [
            v["problem"] for v in report.violations
        ]

    def test_check_trace_exits_1_without_a_traceback(self, tmp_path, capsys):
        from repro.cli import main

        router, member = router_journal(tmp_path)
        router.record_op(
            "put", key=b"k", value=b"v", ver="seven", want=2, cop=1, acks=[0]
        )
        for journal in (router, member):
            journal.close()
        assert main(["check-trace", router.path, member.path]) == 1
        captured = capsys.readouterr()
        assert "non-integer ver field" in captured.out + captured.err
        assert "Traceback" not in captured.err


class TestClusterCampaign:
    def make_spec(self, read_repair=True, seed=0):
        from repro.campaign.spec import ShardSpec

        return ShardSpec.make(
            0,
            "cluster",
            seed,
            profile="cluster-mixed",
            sequences=2,
            ops=80,
            nodes=5,
            read_repair=read_repair,
        )

    def test_shard_passes_and_ships_evidence(self):
        from repro.campaign.cluster import run_shard

        result = run_shard(self.make_spec())
        assert not result.failures
        block = result.section
        assert block["consistent"]
        assert block["evidence"]["check_passed"]
        assert block["evidence"]["corroborated"] > 0
        assert block["fired"] == block["planned"] > 0

    def test_no_read_repair_negative_control_fails(self):
        """Convergence is read-repair's job; disabling it must fail."""
        from repro.campaign.cluster import run_shard

        result = run_shard(self.make_spec(read_repair=False))
        assert result.failures
        assert "converged" in result.failures[0].detail

    def test_shard_result_is_deterministic(self):
        from repro.campaign.cluster import run_shard

        a = run_shard(self.make_spec(seed=5))
        b = run_shard(self.make_spec(seed=5))
        assert a.section == b.section

    def test_cluster_suite_smoke_end_to_end(self):
        from repro.campaign import run_campaign
        from repro.campaign.spec import smoke_spec

        spec = smoke_spec(workers=1, suite="cluster")
        result = run_campaign(spec)
        artifact = result.to_json()
        assert artifact["passed"], artifact.get("failures")
        assert artifact["cluster"]["totals"]["fired"] > 0
        assert artifact["cluster"]["evidence_passed"]


class TestMinorityCrashProperty:
    """Satellite property: random minority crash/restart storms mid-stream
    never lose a quorum-acknowledged write, and typed quorum failures
    never silently mutate certainty (shape follows tests/test_admission)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_no_acked_write_lost(self, seed):
        rng = random.Random(seed)
        router = small_router(seed=seed)
        minority = (5 - 1) // 2
        acked = {}
        for index in range(120):
            if rng.random() < 0.2:
                down = [
                    nid for nid, cn in router.nodes.items() if not cn.up
                ]
                if down and rng.random() < 0.5:
                    router.restart_node(rng.choice(down))
                elif len(down) < minority:
                    up = [nid for nid, cn in router.nodes.items() if cn.up]
                    router.crash_node(rng.choice(up))
            key = b"pk-%02d" % rng.randrange(12)
            value = b"pv-%d-%d" % (seed, index)
            try:
                if rng.random() < 0.8:
                    router.put(key, value)
                    acked[key] = value
                else:
                    router.delete(key)
                    acked[key] = None
            except DegradedWriteError as exc:
                # Partial acks leave the key uncertain; zero acks leave
                # the previous certainty intact.
                if exc.acks:
                    acked.pop(key, None)
            except (DegradedReadError, KeyNotFoundError):
                pass
        router.settle()
        for key, value in sorted(acked.items()):
            if value is None:
                assert not router.contains(key), key
            else:
                assert router.get(key) == value, key


class TestClusterMetricsDemo:
    def make_demo(self, **kwargs):
        from repro.bench.serve import ClusterMetricsDemo

        defaults = dict(
            cluster_nodes=5, warmup_ops=80, ops_per_scrape=15, storm_every=2
        )
        defaults.update(kwargs)
        return ClusterMetricsDemo(**defaults)

    def test_metrics_page_has_per_node_labeled_series(self):
        demo = self.make_demo()
        page = demo.metrics_page()
        for metric in (
            'repro_cluster_node_shed_overload_total{node="node0"}',
            'repro_cluster_node_breaker_state{node="node0"}',
            'repro_cluster_node_hints_pending{node="node0"}',
            "repro_cluster_puts_total",
        ):
            assert metric in page, metric

    def test_storm_flips_healthz_roll_up(self):
        demo = self.make_demo()
        demo.metrics_page()
        demo.metrics_page()  # second scrape: partition storm fires
        health = demo.healthz()
        assert health["status"] == "degraded"
        assert health["cluster"]["degraded"]
        statuses = {n["status"] for n in health["nodes"].values()}
        assert "partitioned" in statuses
        demo.metrics_page()  # odd scrape: the partition heals
        assert demo.healthz()["status"] == "ok"

    def test_live_evidence_stays_green(self):
        demo = self.make_demo()
        for _ in range(4):
            demo.metrics_page()
        evidence = demo.healthz()["evidence"]
        assert evidence["passed"] and evidence["violations"] == 0
        assert evidence["journals"] == 6

    def test_make_server_dispatches_on_cluster_nodes(self):
        from repro.bench.serve import ClusterMetricsDemo, make_server

        server, demo = make_server(
            cluster_nodes=3, warmup_ops=20, ops_per_scrape=5
        )
        try:
            assert isinstance(demo, ClusterMetricsDemo)
        finally:
            server.server_close()


class TestSealOnSignal:
    def test_seals_on_clean_exit_and_exception(self):
        a, b = Journal(meta={"t": 1}), Journal(meta={"t": 2})
        with seal_on_signal(a, None):
            a.record_op("put", key=b"k", out="ok")
        assert a.sealed
        with pytest.raises(RuntimeError):
            with seal_on_signal(b):
                raise RuntimeError("boom")
        assert b.sealed

    def test_sigterm_becomes_keyboard_interrupt(self):
        import os
        import signal

        journal = Journal(meta={"t": 3})
        with pytest.raises(KeyboardInterrupt):
            with seal_on_signal(journal):
                os.kill(os.getpid(), signal.SIGTERM)
        assert journal.sealed
        # The previous handler is restored afterwards.
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL


class TestInvariantWitnessNode:
    def test_merged_mining_attributes_witness_to_node(self):
        from repro.evidence.invariants import mine_journals

        clean = Journal(meta={}, node="node0")
        clean.record_op("put", key=b"k", out="ok")
        clean.close()
        broken = Journal(meta={}, node="node1")
        broken.record_op("put", key=b"k", out="ok")
        broken.record_op("delete", key=b"k", out="ok")
        broken.record_op("get", key=b"k", out="ok")  # get-after-delete
        broken.close()
        results = mine_journals([clean.entries, broken.entries])
        falsified = [r for r in results if r.status == "falsified"]
        assert falsified
        assert any(r.witness_node == "node1" for r in falsified)


class TestClusterAdaptersAgree:
    """The in-process harness and the merged-journal replay translate one
    run into the same :class:`ReferenceCluster` state.  (Before they shared
    the model, the replay did not collapse on an observed-absent newest
    candidate and the harness did.)"""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", ["cluster", "anti-entropy"])
    def test_final_candidate_sets_match(self, kind, seed):
        from repro.campaign.cluster import run_storm
        from repro.campaign.spec import SUITE_REGISTRY

        suite = SUITE_REGISTRY[kind]
        profile = suite.plan[seed % len(suite.plan)]["profile"]
        harness, journals, detail = run_storm(
            kind, seed, profile, **{suite.control.param: True}
        )
        assert detail is None
        harness.router.close()
        report = check_cluster_journals(
            [j.entries for j in journals], require_seal=True
        )
        assert report.passed, report.violations
        replayed = report.model

        # The journal names keys and values by digest, and a value's digest
        # covers the version the router stamped on it.
        router = next(j for j in journals if j.entries[0]["meta"].get("role"))
        puts = [e for e in router.entries if e.get("kind") == "put"]

        def journal_digest(value):
            if value is None:
                return None
            (digest,) = {
                e["value"]
                for e in puts
                if e["value"]
                == digest_bytes(encode_record(e["ver"], FLAG_VALUE, value))
            }
            return digest

        for key in sorted(harness.touched):
            mine = harness.model.candidates(key)
            kd = digest_bytes(key)
            if not replayed.tracked(kd):
                # The one rule that differs: the replay did not see the
                # cluster start, so a key its journal never wrote (or only
                # wrote with zero acks) is unknown to it; the harness knows
                # such a key is absent.
                assert mine == (None,)
                continue
            assert replayed.candidates(kd) == tuple(map(journal_digest, mine))

    def test_an_absent_newest_candidate_collapses_in_both(self):
        """The case the storms above never reach: a delete one replica
        took, then a quorum read that returns its tombstone."""
        from repro.campaign.cluster import ClusterHarness
        from repro.errors import RetryableError

        journals = []

        def factory(identity, meta):
            journals.append(Journal(meta=dict(meta, seed=0), node=identity))
            return journals[-1]

        harness = ClusterHarness(
            FaultPlan(seed=0, profile="none", ops=0, faults=()),
            0,
            ClusterConfig(num_nodes=5, seed=0),
            write_only=False,
            salt=0,
            prefix=b"c",
            journal_factory=factory,
        )
        key = b"ck-00"
        assert harness._op_put(key, b"v") is None

        def refuse(*args, **kwargs):
            raise RetryableError("replica write refused")

        for node_id in harness.router.ring.preference_list(key, 3)[1:]:
            harness.router.nodes[node_id].node.put = refuse
        assert harness._op_delete(key) is None  # one ack of the two it needs
        assert harness.model.candidates(key) == (b"v", None)
        assert harness._op_get(key) is None  # the tombstone is the newest reply
        assert harness.model.candidates(key) == (None,)

        harness.router.close()
        report = check_cluster_journals([j.entries for j in journals])
        assert report.passed, report.violations
        assert report.model.candidates(digest_bytes(key)) == (None,)
