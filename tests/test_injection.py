"""Tests for the failure-injection campaign phase (section 4.4).

The plan side (:mod:`repro.shardstore.injection`) must be a pure seeded
function; the checker side (:mod:`repro.campaign.injection`) must pass
under every storm profile with the self-healing machinery on, inject a
nonzero number of faults while doing so, and -- the negative control --
FAIL under a permanent-fault plan when the circuit breaker is disabled.
"""

import pytest

from repro.campaign import build_shards, run_campaign, smoke_spec
from repro.campaign.injection import (
    STORM_PROFILES,
    InjectionStoreHarness,
    run_shard,
)
from repro.campaign.spec import KIND_INJECTION, ShardSpec
from repro.core.alphabet import Operation
from repro.shardstore import FaultInjector, FaultPlan
from repro.shardstore.injection import (
    FAULT_HEAL,
    FAULT_PERMANENT_DISK,
    NODE_PROFILES,
    STORE_PROFILES,
)
from repro.shardstore.scrub import RepairReport
from repro.shardstore.store import ShardStore

pytestmark = pytest.mark.campaign

_EXTENTS = range(4, 12)


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        first = FaultPlan.generate(7, ops=40, extents=_EXTENTS)
        second = FaultPlan.generate(7, ops=40, extents=_EXTENTS)
        assert first == second

    def test_different_seeds_differ(self):
        plans = {
            FaultPlan.generate(seed, ops=40, extents=_EXTENTS).faults
            for seed in range(8)
        }
        assert len(plans) > 1

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown store profile"):
            FaultPlan.generate(0, ops=10, extents=_EXTENTS, profile="nope")
        with pytest.raises(ValueError, match="unknown node profile"):
            FaultPlan.generate(
                0, ops=10, extents=_EXTENTS, profile="corruption", num_disks=3
            )

    def test_needs_ops_and_extents(self):
        with pytest.raises(ValueError):
            FaultPlan.generate(0, ops=0, extents=_EXTENTS)
        with pytest.raises(ValueError):
            FaultPlan.generate(0, ops=10, extents=())

    def test_store_plan_targets_single_disk(self):
        for profile in STORE_PROFILES:
            plan = FaultPlan.generate(
                3, ops=40, extents=_EXTENTS, profile=profile
            )
            assert all(fault.disk == 0 for fault in plan.faults)
            assert all(fault.extent in _EXTENTS for fault in plan.faults)

    def test_node_permanent_profile_schedules_one_dying_disk(self):
        for seed in range(10):
            plan = FaultPlan.generate(
                seed,
                ops=40,
                extents=_EXTENTS,
                profile="permanent",
                num_disks=3,
            )
            dying = [
                f for f in plan.faults if f.kind == FAULT_PERMANENT_DISK
            ]
            assert len(dying) == 1
            # Disk 0 always survives so the node keeps a write target.
            assert dying[0].disk in (1, 2)
            assert 1 <= dying[0].op_index < 20
            assert not any(f.kind == FAULT_HEAL for f in plan.faults)
            assert plan.has_permanent

    def test_mixed_node_heal_clears_has_permanent(self):
        healed = [
            plan
            for plan in (
                FaultPlan.generate(
                    seed,
                    ops=40,
                    extents=_EXTENTS,
                    profile="mixed",
                    num_disks=3,
                )
                for seed in range(30)
            )
            if any(f.kind == FAULT_HEAL for f in plan.faults)
        ]
        assert healed, "30 seeds must yield at least one healed plan"
        for plan in healed:
            assert not plan.has_permanent

    def test_counts_sum_to_fault_total(self):
        plan = FaultPlan.generate(
            5, ops=64, extents=_EXTENTS, profile="mixed"
        )
        assert sum(plan.counts().values()) == len(plan.faults)
        assert plan.to_json()["counts"] == plan.counts()

    def test_fault_count_override(self):
        plan = FaultPlan.generate(
            1, ops=40, extents=_EXTENTS, fault_count=9
        )
        assert len(plan.faults) == 9


class TestFaultInjector:
    def test_delivers_each_fault_once_in_order(self):
        plan = FaultPlan.generate(2, ops=40, extents=_EXTENTS, fault_count=6)
        injector = FaultInjector(plan)
        seen = []
        for op_index in range(plan.ops):
            for fault in injector.due(op_index):
                assert fault.op_index <= op_index
                seen.append(fault)
        assert tuple(seen) == plan.faults
        assert injector.exhausted
        assert injector.delivered == len(plan.faults)
        assert injector.due(plan.ops) == []


def _shard(seed, **params):
    defaults = dict(sequences=2, ops=40, trace=False)
    defaults.update(params)
    return ShardSpec.make(0, KIND_INJECTION, seed, **defaults)


class TestInjectionShards:
    @pytest.mark.parametrize("profile", sorted(STORE_PROFILES))
    def test_store_profiles_pass_and_fire(self, profile):
        result = run_shard(_shard(0, harness="store", profile=profile))
        assert result.ok, result.failures
        assert result.section["fired"] > 0
        assert result.section["planned"] >= result.section["armed"]

    @pytest.mark.parametrize("profile", sorted(NODE_PROFILES))
    def test_node_profiles_pass_with_breaker(self, profile):
        result = run_shard(_shard(0, harness="node", profile=profile))
        assert result.ok, result.failures
        # A storm profile's faults are latency and arrivals (its point
        # faults need not land on any IO); a point-fault profile must fire.
        counter = "storm_events" if profile in STORM_PROFILES else "fired"
        assert result.section[counter] > 0

    def test_brownout_storm_20006_settles(self):
        """Storm 20006 wedged settlement while every put also wrote a copy
        to a second disk: the slow survivor disk ran inline reclamation
        scans whose reads billed admitted puts ~3,800 units, and fresh
        writes shed against the 256-unit bound for good."""
        result = run_shard(
            ShardSpec.make(
                0, KIND_INJECTION, 20006,
                harness="node", profile="brownout", sequences=1,
            )
        )  # fmt: skip
        assert result.ok, result.failures
        assert result.section["deadline_violations"] == 0

    def test_node_permanent_exercises_self_healing(self):
        result = run_shard(
            _shard(30_000, harness="node", profile="permanent", sequences=2)
        )
        assert result.ok, result.failures
        assert result.section["breaker_trips"] >= 1
        assert result.section["demotions"] >= 1

    def test_breaker_disabled_fails_permanent_plan(self):
        """The negative control: self-healing must be load-bearing.

        Seed 30000 is the node/permanent shard of the seed-0 smoke
        campaign; with the breaker off, settlement can never shed the
        dying disk and the shard must fail.
        """
        result = run_shard(
            _shard(
                30_000,
                harness="node",
                profile="permanent",
                sequences=2,
                breaker_enabled=False,
            )
        )
        assert not result.ok
        assert result.section["breaker_trips"] == 0
        assert "injection:permanent" == result.failures[0].fault

    def test_shard_replays_byte_identically(self):
        spec = _shard(17, harness="node", profile="mixed")
        assert run_shard(spec) == run_shard(spec)

    def test_traced_shard_records_fault_events(self):
        result = run_shard(
            _shard(0, harness="store", profile="transient", trace=True)
        )
        assert result.ok, result.failures
        assert result.metrics is not None


class TestStoreSettlement:
    @pytest.mark.parametrize("bad_pass", [0, 1], ids=["warm", "post-reboot"])
    def test_quarantining_a_certain_key_fails_settlement(self, monkeypatch, bad_pass):
        """Quarantine is only legal for a key some failure touched."""
        harness = InjectionStoreHarness(FaultPlan(0, "transient", 1, ()), 0)
        assert harness.apply(0, Operation("Put", (b"k", b"v"))) is None
        passes = []

        def scrub_repair(store):
            passes.append(store)
            bad = len(passes) - 1 == bad_pass
            return RepairReport(quarantined=[b"k"] if bad else [])

        monkeypatch.setattr(ShardStore, "scrub_repair", scrub_repair)
        detail = harness.settle_and_verify()
        assert detail == "recovery: scrub quarantined untouched key b'k'"
        assert len(passes) == bad_pass + 1


class TestInjectionSuite:
    def test_suite_injection_compiles_only_injection_shards(self):
        shards = build_shards(smoke_spec(suite="injection"))
        assert shards, "the injection suite must not be empty"
        assert all(s.kind == KIND_INJECTION for s in shards)
        assert [s.shard_id for s in shards] == list(range(len(shards)))

    def test_full_suite_appends_injection_after_fault_matrix(self):
        shards = build_shards(smoke_spec())
        kinds = [s.kind for s in shards]
        assert KIND_INJECTION in kinds
        first = kinds.index(KIND_INJECTION)
        assert all(kind == KIND_INJECTION for kind in kinds[first:])

    def test_breaker_flag_reaches_every_injection_shard(self):
        shards = build_shards(smoke_spec(breaker_enabled=False))
        injection = [s for s in shards if s.kind == KIND_INJECTION]
        assert injection
        assert all(s.param("breaker_enabled") is False for s in injection)

    def test_injection_campaign_artifact_section(self):
        outcome = run_campaign(
            smoke_spec(suite="injection", workers=1, base_seed=0)
        )
        artifact = outcome.to_json()
        assert artifact["passed"]
        section = artifact["injection"]
        assert len(section["shards"]) == len(outcome.results)
        assert section["totals"]["fired"] > 0
        # A planned permanent-disk fault arms one fault per data extent,
        # so "armed" may exceed "planned"; both must be live.
        assert section["totals"]["armed"] > 0
        for block in section["shards"]:
            assert block["harness"] in ("store", "node")
            assert block["profile"]
            assert block["ok"]

    def test_no_breaker_injection_campaign_fails(self):
        """The campaign-level negative control pinned to base seed 0."""
        outcome = run_campaign(
            smoke_spec(
                suite="injection",
                workers=1,
                base_seed=0,
                breaker_enabled=False,
            )
        )
        assert not outcome.passed
        artifact = outcome.to_json()
        assert artifact["totals"]["failures"] >= 1
        assert any(
            f["fault"] == "injection:permanent"
            for f in artifact["failures"]
        )
