"""Tests for Merkle anti-entropy: service, campaign suite, evidence plane."""

import random

import pytest

from repro.cluster import ClusterConfig, ClusterRouter
from repro.cluster.antientropy import ROUND_BUCKETS, ROUND_REPAIRS
from repro.errors import AntiEntropyError, DegradedReadError
from repro.shardstore import DiskGeometry


def _router(**overrides) -> ClusterRouter:
    defaults = dict(num_nodes=5, seed=0, hint_limit=1)
    defaults.update(overrides)
    return ClusterRouter(ClusterConfig(**defaults))


def _storm_divergence(router: ClusterRouter) -> int:
    """Partition one replica, overflow its hint buffer with writes, heal
    and settle -- returns how many placement groups stayed divergent.

    No reads ever run, so read-repair cannot fire; dropped hints leave
    divergence only anti-entropy can heal.
    """
    victim = router._placement(b"dk-0")[-1]
    router.partition_node(victim)
    for i in range(16):
        router.put(b"dk-%d" % i, b"dv-%d" % i)
    router.settle()
    return int(router.antientropy.converged_snapshot()["divergent"])


class TestAntiEntropyService:
    def test_storm_leaves_divergence_without_anti_entropy(self):
        router = _router(anti_entropy=False)
        divergent = _storm_divergence(router)
        assert divergent > 0, "hint overflow must leave real divergence"
        assert not router.antientropy.roots_converged()

    def test_sync_heals_divergence_without_any_reads(self):
        router = _router(anti_entropy=True, anti_entropy_interval=0)
        assert _storm_divergence(router) > 0
        reads_before = router.stats["gets"]
        outcome = router.antientropy.run_until_converged()
        assert outcome["converged"]
        assert router.antientropy.roots_converged()
        assert router.stats["gets"] == reads_before
        assert router.stats["read_repairs"] == 0
        assert router.stats["anti_entropy_keys_repaired"] > 0
        # Converged roots mean converged bytes: raw replicas agree.
        for i in range(16):
            states = router.replica_states(b"dk-%d" % i)
            assert len(set(states.values())) == 1

    def test_background_rounds_run_on_the_op_clock(self):
        router = _router(anti_entropy=True, anti_entropy_interval=4)
        for i in range(24):
            router.put(b"bg-%d" % i, b"v")
        assert router.stats["anti_entropy_rounds"] >= 24 // 4 - 1

    def test_disabled_service_never_runs_background_rounds(self):
        router = _router(anti_entropy=False, anti_entropy_interval=4)
        for i in range(24):
            router.put(b"bg-%d" % i, b"v")
        assert router.stats["anti_entropy_rounds"] == 0

    def test_background_convergence_during_traffic(self):
        """Divergence created mid-stream is healed by op-clocked rounds
        alone -- no explicit sync call, no reads."""
        router = _router(anti_entropy=True, anti_entropy_interval=4)
        victim = router._placement(b"dk-0")[-1]
        router.partition_node(victim)
        for i in range(16):
            router.put(b"dk-%d" % i, b"dv-%d" % i)
        router.settle()
        for i in range(200):
            router.put(b"bg-%d" % (i % 4), b"v-%d" % i)
            if router.antientropy.roots_converged():
                break
        assert router.antientropy.roots_converged()

    def test_explicit_sync_raises_typed_error_on_unreachable_peer(self):
        router = _router()
        router.crash_node(2)
        with pytest.raises(AntiEntropyError) as err:
            router.antientropy.sync(0, 2)
        assert err.value.peer == 2
        assert err.value.reason == "crashed"

    def test_explicit_sync_raises_typed_error_on_unknown_peer(self):
        router = _router()
        with pytest.raises(AntiEntropyError) as err:
            router.antientropy.sync(0, 99)
        assert err.value.peer == 99
        assert err.value.reason == "unknown"

    def test_round_budgets_bound_descent_and_repairs(self):
        """Enough divergence (800 keys behind one partition) that both
        per-round budgets bind on the first pair that differs."""
        router = _router(anti_entropy=True, anti_entropy_interval=0)
        victim = router._placement(b"dk-0")[-1]
        router.partition_node(victim)
        for i in range(800):
            router.put(b"dk-%d" % i, b"dv-%d" % i)
        router.settle()
        summary = router.antientropy.run_round()
        while summary["root_match"]:
            summary = router.antientropy.run_round()
        assert summary["diverging"] > ROUND_BUCKETS
        assert summary["descended"] == ROUND_BUCKETS
        assert summary["repaired"] == ROUND_REPAIRS

    def test_round_skips_when_fewer_than_two_reachable(self):
        router = _router(num_nodes=3, replication=3, anti_entropy=True)
        for nid in (0, 1):
            router.partition_node(nid)
        assert router.antientropy.run_round() is None
        assert router.stats["anti_entropy_skips"] == 1

    def test_repair_preserves_newest_version(self):
        """Anti-entropy must never roll a replica back to an older value."""
        router = _router(anti_entropy=True, anti_entropy_interval=0)
        router.put(b"k", b"old")
        victim = router._placement(b"k")[-1]
        router.partition_node(victim)
        for i in range(8):  # overflow the one-slot hint buffer
            router.put(b"pad-%d" % i, b"p")
        router.put(b"k", b"new")
        router.settle()
        router.antientropy.run_until_converged()
        for rec in router.replica_states(b"k").values():
            assert rec is not None and rec[2] == b"new"
        assert router.get(b"k") == b"new"


class TestConvergenceBound:
    """``run_until_converged`` keeps its docstring's promise at the ladder's
    cluster shape: after a crash, a dirty restart and ``settle()``, the
    budgeted rounds converge within ``replication - 1`` pair cycles and
    descend no bucket that holds nothing to repair (one per round at most
    for a repair that found equal versions)."""

    @pytest.mark.parametrize("seed", [1, 3, 7, 11])
    def test_crash_restart_converges_within_the_budgeted_bound(self, seed):
        router = ClusterRouter(
            ClusterConfig(
                num_nodes=5,
                disks_per_node=2,
                replication=3,
                write_quorum=2,
                read_quorum=2,
                hint_limit=4096,
                anti_entropy=True,
                anti_entropy_interval=64,
                geometry=DiskGeometry(64, 32768, 256),
                seed=seed,
            )
        )
        rng = random.Random(seed)
        for i in range(1000):
            router.put(b"wk-%03d" % rng.randrange(200), b"v-%d" % i)
        victim = seed % router.config.num_nodes
        router.crash_node(victim)
        router.restart_node(victim)
        router.settle()
        stats = router.stats
        buckets = stats["anti_entropy_buckets"]
        repaired = stats["anti_entropy_keys_repaired"]
        outcome = router.antientropy.run_until_converged()
        buckets = stats["anti_entropy_buckets"] - buckets
        repaired = stats["anti_entropy_keys_repaired"] - repaired
        cfg = router.config
        pairs = cfg.num_nodes * (cfg.num_nodes - 1) // 2
        assert outcome["converged"]
        assert repaired > 0, "the restart must leave something to repair"
        assert outcome["rounds"] <= (cfg.replication - 1) * pairs
        assert buckets <= repaired + outcome["rounds"]


class TestDegradedReadCandidates:
    def test_degraded_read_carries_per_replica_candidates(self):
        router = _router()
        router.put(b"k", b"v")
        prefs = router._placement(b"k")
        for nid in prefs[:2]:
            router.crash_node(nid)
        with pytest.raises(DegradedReadError) as err:
            router.get(b"k")
        candidates = err.value.candidates
        assert candidates is not None and len(candidates) == 1
        node_id, version = candidates[0]
        assert node_id == prefs[2]
        assert version >= 0

    def test_absent_replica_reports_version_minus_one(self):
        router = _router()
        prefs = router._placement(b"nope")
        for nid in prefs[:2]:
            router.crash_node(nid)
        with pytest.raises(DegradedReadError) as err:
            router.get(b"nope")
        assert err.value.candidates == [(prefs[2], -1)]


class TestPerNodeHintCounters:
    def test_hint_stats_track_queue_drop_replay_per_node(self):
        router = _router(hint_limit=1)
        victim = router._placement(b"hk-0")[-1]
        router.partition_node(victim)
        for i in range(12):
            router.put(b"hk-%d" % i, b"v")
        stats = router.hint_stats[victim]
        assert stats["queued"] >= 1
        assert stats["dropped"] >= 1
        router.settle()
        assert router.hint_stats[victim]["replayed"] >= 1
        # Per-node counters reconcile with the cluster-wide totals.
        for name in ("queued", "dropped", "replayed", "revoked"):
            assert sum(
                s[name] for s in router.hint_stats.values()
            ) == router.stats[f"hints_{name}"]


class TestAntiEntropyCampaign:
    def _shard(self, *, anti_entropy: bool, seed: int = 0):
        from repro.campaign.cluster import run_shard
        from repro.campaign.spec import ShardSpec

        return run_shard(
            ShardSpec.make(
                0,
                "anti-entropy",
                seed,
                profile="partition",
                sequences=2,
                ops=80,
                nodes=5,
                anti_entropy=anti_entropy,
            )
        )

    def test_positive_shard_converges_with_zero_reads(self):
        result = self._shard(anti_entropy=True)
        assert result.ok
        block = result.section
        assert block["roots_converged"]
        assert block["pre_settle_divergent"] > 0, (
            "the storm must leave real divergence for sync to heal"
        )
        assert block["anti_entropy_keys_repaired"] > 0
        assert block["hints_dropped"] > 0
        assert block["evidence"]["check_passed"]

    def test_negative_control_fails_at_seed_zero(self):
        result = self._shard(anti_entropy=False)
        assert not result.ok
        assert not result.section["roots_converged"]
        assert "divergent" in result.failures[0].detail

    def test_shard_is_deterministic(self):
        a = self._shard(anti_entropy=True)
        b = self._shard(anti_entropy=True)
        assert a.section == b.section
        assert a.cases == b.cases

    def test_artifact_block_has_per_node_hint_breakdown(self):
        block = self._shard(anti_entropy=True).section
        hints = block["hints_by_node"]
        assert hints, "per-node hint breakdown must be present"
        assert sum(s["dropped"] for s in hints.values()) == block[
            "hints_dropped"
        ]

    def test_smoke_suite_aggregates_v7_section(self):
        from repro.campaign import run_campaign
        from repro.campaign.spec import smoke_spec

        spec = smoke_spec(workers=1, base_seed=0, suite="anti-entropy")
        artifact = run_campaign(spec).to_json()
        assert artifact["schema_version"] == 8
        assert artifact["passed"]
        section = artifact["anti_entropy"]
        assert section["all_converged"]
        assert section["evidence_passed"]
        assert section["totals"]["anti_entropy_keys_repaired"] > 0
        assert len(section["shards"]) == 3

    def test_no_anti_entropy_campaign_fails(self):
        from repro.campaign import run_campaign
        from repro.campaign.spec import smoke_spec

        spec = smoke_spec(
            workers=1,
            base_seed=0,
            suite="anti-entropy",
            anti_entropy_enabled=False,
        )
        artifact = run_campaign(spec).to_json()
        assert not artifact["passed"]
        assert not artifact["anti_entropy"]["all_converged"]


class TestAntiEntropyEvidence:
    def _journaled_run(self, *, anti_entropy: bool):
        from repro.shardstore.observability import Journal

        journals = []

        def factory(identity, meta):
            journal = Journal(meta=dict(meta), node=identity)
            journals.append(journal)
            return journal

        router = ClusterRouter(
            ClusterConfig(
                num_nodes=5,
                seed=0,
                hint_limit=1,
                anti_entropy=anti_entropy,
                anti_entropy_interval=0,
            ),
            journal_factory=factory,
        )
        victim = router._placement(b"dk-0")[-1]
        router.partition_node(victim)
        for i in range(16):
            router.put(b"dk-%d" % i, b"dv-%d" % i)
        router.settle()
        if anti_entropy:
            router.antientropy.run_until_converged()
        router.antientropy.journal_roots()
        return router, journals

    def test_journal_carries_settle_sync_and_roots_records(self):
        router, journals = self._journaled_run(anti_entropy=True)
        kinds = [entry.get("kind") for entry in router.journal.entries]
        assert "settle" in kinds
        assert "anti_entropy" in kinds
        assert "merkle_roots" in kinds
        roots = [
            entry
            for entry in router.journal.entries
            if entry.get("kind") == "merkle_roots"
        ]
        assert roots[-1]["converged"] is True
        assert len(roots[-1]["roots"]) == 5

    def test_merged_checker_accepts_anti_entropy_repairs(self):
        from repro.evidence import check_cluster_journals

        router, journals = self._journaled_run(anti_entropy=True)
        router.close()
        report = check_cluster_journals(
            [journal.entries for journal in journals], require_seal=True
        )
        assert report.passed, report.violations[:3]

    def test_mined_invariant_roots_converge_after_settle(self):
        from repro.evidence.invariants import mine_journal

        router, _ = self._journaled_run(anti_entropy=True)
        results = mine_journal(router.journal.entries)
        inv = {r.name: r for r in results}["roots-converge-after-settle"]
        assert inv.status == "confirmed"
        assert inv.instances >= 1

    def test_mined_invariant_flags_divergence_after_settle(self):
        from repro.evidence.invariants import mine_journal

        router, _ = self._journaled_run(anti_entropy=False)
        results = mine_journal(router.journal.entries)
        inv = {r.name: r for r in results}["roots-converge-after-settle"]
        assert inv.status == "falsified"
        assert "divergent" in inv.detail
