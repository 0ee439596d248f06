"""Tests for the parallel validation-campaign runner."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ShardFailure,
    ShardResult,
    ShardSpec,
    aggregate,
    build_shards,
    result_to_json,
    run_campaign,
    smoke_spec,
)
from repro.campaign.runner import SEED_STRIDE, execute_shard
from repro.campaign.spec import (
    KIND_ANTIENTROPY,
    KIND_CLUSTER,
    KIND_CONFORMANCE,
    KIND_CRASH,
    KIND_FAULT_MATRIX,
    KIND_FUZZ,
    KIND_INJECTION,
)
from repro.shardstore import Fault

pytestmark = pytest.mark.campaign


class TestShardPartitioning:
    def test_shard_ids_are_dense_and_ordered(self):
        shards = build_shards(smoke_spec(base_seed=7))
        assert [s.shard_id for s in shards] == list(range(len(shards)))

    def test_every_phase_is_represented(self):
        kinds = {s.kind for s in build_shards(smoke_spec())}
        assert kinds == {
            KIND_CONFORMANCE,
            KIND_CRASH,
            KIND_FUZZ,
            KIND_FAULT_MATRIX,
            KIND_INJECTION,
        }

    def test_fault_matrix_covers_all_16_issues(self):
        shards = build_shards(smoke_spec())
        matrix = [s for s in shards if s.kind == KIND_FAULT_MATRIX]
        assert sorted(s.param("fault") for s in matrix) == sorted(
            fault.name for fault in Fault
        )

    def test_unpinned_seeds_partition_without_overlap(self):
        """Shard k draws sequence seeds from base + k*stride: disjoint."""
        shards = build_shards(smoke_spec(base_seed=3))
        unpinned = [s for s in shards if s.kind != KIND_FAULT_MATRIX]
        for shard in unpinned:
            assert shard.seed == 3 + shard.shard_id * SEED_STRIDE
        spans = [
            (s.seed, s.seed + s.param("sequences", 1)) for s in unpinned
        ]
        for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
            assert a_hi <= b_lo

    def test_compilation_is_deterministic(self):
        assert build_shards(smoke_spec(base_seed=5)) == build_shards(
            smoke_spec(base_seed=5)
        )

    def test_coverage_traced_on_exactly_one_shard(self):
        shards = build_shards(smoke_spec())
        assert sum(1 for s in shards if s.param("coverage")) == 1

    def test_param_lookup(self):
        spec = ShardSpec.make(0, KIND_FUZZ, 9, decoder="decode_value")
        assert spec.param("decoder") == "decode_value"
        assert spec.param("missing", 42) == 42


class TestFailureAggregation:
    def _result(self, shard_id, kind, **kwargs):
        return ShardResult(shard_id=shard_id, kind=kind, seed=shard_id, **kwargs)

    def test_unexpected_failure_fails_the_campaign(self):
        failure = ShardFailure(
            kind=KIND_CONFORMANCE, seed=11, detail="divergence"
        )
        outcome = aggregate(
            CampaignSpec(),
            [
                self._result(0, KIND_CONFORMANCE, cases=5),
                self._result(1, KIND_CONFORMANCE, cases=5, failures=[failure]),
            ],
            wall_clock_seconds=1.0,
        )
        assert not outcome.passed
        artifact = result_to_json(outcome)
        assert artifact["totals"]["failures"] == 1
        assert artifact["failures"][0]["shard_id"] == 1
        assert artifact["failures"][0]["seed"] == 11
        assert not artifact["passed"]

    def test_missed_fault_fails_the_campaign(self):
        outcome = aggregate(
            CampaignSpec(),
            [
                self._result(
                    0,
                    KIND_FAULT_MATRIX,
                    cases=8,
                    expected_failure=True,
                    fault=Fault.RECLAIM_OFF_BY_ONE.name,
                    detector="conformance PBT",
                )
            ],
            wall_clock_seconds=1.0,
        )
        assert outcome.missed_faults == [Fault.RECLAIM_OFF_BY_ONE.name]
        assert not outcome.passed
        artifact = result_to_json(outcome)
        assert artifact["totals"]["faults_missed"] == 1
        assert artifact["fault_matrix"][0]["detected"] is False

    def test_detected_fault_is_not_a_failure(self):
        failure = ShardFailure(
            kind=KIND_FAULT_MATRIX,
            seed=15,
            detail="op[3] ...",
            fault=Fault.RECLAIM_OFF_BY_ONE.name,
        )
        outcome = aggregate(
            CampaignSpec(),
            [
                self._result(
                    0,
                    KIND_FAULT_MATRIX,
                    cases=8,
                    failures=[failure],
                    expected_failure=True,
                    fault=Fault.RECLAIM_OFF_BY_ONE.name,
                    detector="conformance PBT",
                )
            ],
            wall_clock_seconds=1.0,
        )
        assert outcome.passed
        artifact = result_to_json(outcome)
        assert artifact["totals"]["failures"] == 0
        assert artifact["totals"]["faults_detected"] == 1
        assert artifact["fault_matrix"][0]["evidence"] == "op[3] ..."

    def test_skipped_fault_shard_fails_the_gate(self):
        """Budget cuts may skip random search, never the known-answer matrix."""
        outcome = aggregate(
            CampaignSpec(),
            [
                self._result(
                    0,
                    KIND_FAULT_MATRIX,
                    expected_failure=True,
                    fault=Fault.RECLAIM_OFF_BY_ONE.name,
                    detector="conformance PBT",
                    skipped=True,
                ),
                self._result(1, KIND_CONFORMANCE, skipped=True),
            ],
            wall_clock_seconds=1.0,
        )
        assert outcome.missed_faults == []  # it never ran, so not "missed"
        assert not outcome.passed
        assert not result_to_json(outcome)["passed"]

    def test_coverage_lines_merge_across_shards(self):
        outcome = aggregate(
            CampaignSpec(),
            [
                self._result(
                    0,
                    KIND_CONFORMANCE,
                    coverage_lines=[("store.py", 1), ("store.py", 2)],
                ),
                self._result(
                    1,
                    KIND_CONFORMANCE,
                    coverage_lines=[("store.py", 2), ("lsm.py", 7)],
                ),
            ],
            wall_clock_seconds=1.0,
        )
        coverage = result_to_json(outcome)["coverage"]
        assert coverage["lines"] == 3
        assert coverage["by_file"] == {"lsm.py": 1, "store.py": 2}

    def test_checker_crash_is_contained_as_a_failure(self):
        bogus = ShardSpec.make(0, KIND_FUZZ, 0, decoder="no-such-decoder")
        result, _duration = execute_shard(bogus)
        assert result.failures and "checker crashed" in result.failures[0].detail


class TestSeedReplay:
    def test_fault_matrix_shard_reruns_identically(self):
        from repro.campaign.fault_matrix import fault_matrix_shards, run_shard

        shard = fault_matrix_shards(smoke_spec(), 0)[0]
        first, second = run_shard(shard), run_shard(shard)
        assert first == second
        assert first.detected

    def test_failing_seed_replays_standalone(self):
        """A failure's recorded seed reproduces it with sequences=1."""
        from repro.campaign.fault_matrix import fault_matrix_shards, run_shard
        from repro.core import StoreHarness, run_conformance, store_alphabet
        from repro.shardstore import FaultSet

        shard = next(
            s
            for s in fault_matrix_shards(smoke_spec(), 0)
            if s.param("fault") == Fault.RECLAIM_OFF_BY_ONE.name
        )
        result = run_shard(shard)
        assert result.detected
        failing_seed = result.failures[0].seed
        replay = run_conformance(
            lambda s: StoreHarness(
                FaultSet.only(Fault.RECLAIM_OFF_BY_ONE), s
            ),
            store_alphabet(),
            sequences=1,
            ops_per_sequence=80,
            base_seed=failing_seed,
        )
        assert not replay.passed
        assert str(replay.failure) == result.failures[0].detail

    def test_minimized_reproducer_attached_to_failures(self):
        from repro.campaign.fault_matrix import fault_matrix_shards, run_shard

        shard = next(
            s
            for s in fault_matrix_shards(smoke_spec(), 0)
            if s.param("fault") == Fault.RECLAIM_OFF_BY_ONE.name
        )
        result = run_shard(shard)
        minimized = result.failures[0].minimized
        assert minimized, "PBT detections must carry a minimized reproducer"
        assert len(minimized) <= 80


def _tiny_spec(**overrides):
    defaults = dict(
        profile="tiny",
        workers=1,
        base_seed=0,
        conformance_shards_per_alphabet=1,
        sequences_per_shard=2,
        ops_per_sequence=20,
        crash_shards=1,
        crash_prefix_ops=8,
        crash_max_states=12,
        fuzz_iterations=50,
        fuzz_exhaustive_len=0,
        fault_matrix=False,
        coverage=False,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestRunCampaign:
    def test_inline_campaign_passes_and_is_deterministic(self):
        first = result_to_json(run_campaign(_tiny_spec()))
        second = result_to_json(run_campaign(_tiny_spec()))
        assert first["passed"]
        del first["timing"], second["timing"]
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_multiprocess_matches_inline(self):
        inline = result_to_json(run_campaign(_tiny_spec(workers=1)))
        pooled = result_to_json(run_campaign(_tiny_spec(workers=2)))
        del inline["timing"], pooled["timing"]
        inline["campaign"].pop("workers")
        pooled["campaign"].pop("workers")
        assert inline == pooled

    def test_budget_zero_skips_every_shard(self):
        outcome = run_campaign(_tiny_spec(budget_seconds=0.0))
        artifact = result_to_json(outcome)
        assert artifact["totals"]["shards_run"] == 0
        assert artifact["totals"]["shards_skipped"] == len(outcome.results)
        assert artifact["skipped_shards"] == [
            r.shard_id for r in outcome.results
        ]

    def test_artifact_schema_headline_fields(self):
        artifact = result_to_json(run_campaign(_tiny_spec()))
        assert artifact["schema_version"] == 8
        for key in (
            "campaign",
            "totals",
            "phases",
            "failures",
            "fault_matrix",
            "coverage",
            "passed",
            "timing",
        ):
            assert key in artifact
        assert set(artifact["phases"]) == {
            KIND_CONFORMANCE,
            KIND_CRASH,
            KIND_FUZZ,
            KIND_FAULT_MATRIX,
            KIND_INJECTION,
            KIND_CLUSTER,
            KIND_ANTIENTROPY,
        }

class TestBrownoutSuite:
    """The ``brownout`` suite: gray-failure storms vs the admission plane."""

    def test_brownout_shards_are_storm_injection_only(self):
        from repro.campaign.injection import STORM_OPS

        shards = build_shards(smoke_spec(suite="brownout"))
        assert shards, "brownout suite must compile shards"
        assert {s.kind for s in shards} == {KIND_INJECTION}
        assert {s.param("profile") for s in shards} == {
            "brownout",
            "overload",
        }
        for shard in shards:
            assert shard.param("harness") == "node"
            assert shard.param("ops") >= STORM_OPS
            assert shard.param("shedding_enabled") is True

    def test_no_shedding_flag_reaches_every_shard(self):
        shards = build_shards(
            smoke_spec(suite="brownout", shedding_enabled=False)
        )
        assert all(
            s.param("shedding_enabled") is False for s in shards
        )

    def test_unknown_suite_is_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign suite"):
            smoke_spec(suite="thunderstorm")

    def test_brownout_smoke_passes_and_reports_storm_counters(self):
        outcome = run_campaign(smoke_spec(suite="brownout", base_seed=0))
        artifact = result_to_json(outcome)
        assert artifact["passed"]
        brownout = artifact["brownout"]
        totals = brownout["totals"]
        # The storms must actually stress the admission plane...
        assert totals["storm_events"] > 0
        assert totals["shed_overload"] + totals["shed_deadline"] > 0
        # ...and shedding must keep every request inside its deadline.
        assert totals["deadline_violations"] == 0
        assert all(shard["shedding_enabled"] for shard in brownout["shards"])

    def test_no_shedding_negative_control_fails(self):
        """With shedding off the same storms MUST blow deadlines."""
        outcome = run_campaign(
            smoke_spec(suite="brownout", base_seed=0, shedding_enabled=False)
        )
        artifact = result_to_json(outcome)
        assert not artifact["passed"]
        totals = artifact["brownout"]["totals"]
        assert totals["deadline_violations"] > 0
        assert totals["shed_overload"] + totals["shed_deadline"] == 0

    def test_brownout_artifact_identical_across_worker_counts(self):
        inline = result_to_json(
            run_campaign(smoke_spec(suite="brownout", workers=1))
        )
        pooled = result_to_json(
            run_campaign(smoke_spec(suite="brownout", workers=2))
        )
        del inline["timing"], pooled["timing"]
        inline["campaign"].pop("workers")
        pooled["campaign"].pop("workers")
        assert json.dumps(inline, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_full_suite_artifact_carries_brownout_section(self):
        artifact = result_to_json(run_campaign(_tiny_spec()))
        # The tiny spec runs point-fault injection without admission, so
        # no brownout section is emitted -- it only appears when
        # admission-enabled storm shards ran.
        assert "brownout" not in artifact
