"""Tests for the evidence plane's read side: the trace-conformance
checker, the invariant miner, the CLI verbs, campaign evidence sections,
and the live gauges on the metrics demo node.

The load-bearing claims: a healthy journal replays clean against the
reference model, the ``drop-delete`` mutant is flagged *from the journal
alone* (no re-execution), and campaign evidence sections are identical
for any worker count.
"""

import json

import pytest

from repro.bench import run_bench
from repro.bench.harness import pick_mutant_victim
from repro.bench.serve import MetricsDemoNode
from repro.bench.workloads import generate_ops
from repro.campaign import CampaignSpec, run_campaign
from repro.cli import main
from repro.evidence import (
    PROMOTED,
    check_journal,
    mine_journal,
    mine_journals,
)
from repro.shardstore import RingRecorder
from repro.shardstore.observability import filter_trace
from repro.shardstore.observability.journal import Journal, read_journal


def _bench_journal(tmp_path, name, workload="mixed", seed=11, **kwargs):
    path = str(tmp_path / name)
    run_bench(workload, ops=200, seed=seed, journal_path=path, **kwargs)
    return path


def _by_name(results):
    return {res.name: res for res in results}


class TestCheckerHealthy:
    @pytest.mark.parametrize(
        "workload", ["mixed", "crash-recover", "reclaim-churn"]
    )
    def test_bench_journal_replays_clean(self, tmp_path, workload):
        path = _bench_journal(tmp_path, "h.jsonl", workload=workload)
        report = check_journal(read_journal(path), require_seal=True)
        assert report.passed
        assert report.sealed and report.chain_ok
        assert report.checked > 0

    def test_crash_uncertainty_is_skipped_not_failed(self, tmp_path):
        # Dirty reboots widen candidate sets; the checker must never call
        # a healthy crash-recovery journal a violation.
        path = _bench_journal(
            tmp_path, "c.jsonl", workload="crash-recover", seed=5
        )
        report = check_journal(read_journal(path), require_seal=True)
        assert report.passed

    def test_shed_ops_are_proven_state_preserving(self):
        journal = Journal()
        journal.record_op("put", key=b"k", value=b"v", out="ok")
        journal.record_op("put", key=b"k", value=b"x", out="shed_overload")
        journal.record_op("get", key=b"k", value=b"v", out="ok")
        journal.close()
        report = check_journal(journal.entries, require_seal=True)
        assert report.passed
        assert report.sheds == 1

    def test_shed_that_mutated_state_is_flagged(self):
        journal = Journal()
        journal.record_op("put", key=b"k", value=b"v", out="ok")
        journal.record_op("put", key=b"k", value=b"x", out="shed_deadline")
        # The shed claims no IO happened, yet the new value is visible.
        journal.record_op("get", key=b"k", value=b"x", out="ok")
        journal.close()
        report = check_journal(journal.entries, require_seal=True)
        assert not report.passed


class TestCheckerTamper:
    def test_edited_value_digest_breaks_chain(self, tmp_path):
        path = _bench_journal(tmp_path, "h.jsonl")
        entries = read_journal(path)
        victim = next(
            i for i, e in enumerate(entries)
            if e.get("kind") == "put" and e.get("out") == "ok"
        )
        entries[victim]["value"] = "0" * 16
        report = check_journal(entries)
        assert not report.passed
        assert not report.chain_ok

    def test_truncated_journal_fails_require_seal(self, tmp_path):
        path = _bench_journal(tmp_path, "h.jsonl")
        entries = read_journal(path)[:-1]
        assert check_journal(entries).passed  # chain still intact
        report = check_journal(entries, require_seal=True)
        assert not report.passed
        assert "no seal" in report.violations[-1]["problem"]

    def test_report_json_shape(self, tmp_path):
        path = _bench_journal(tmp_path, "h.jsonl")
        blob = check_journal(read_journal(path), require_seal=True).to_json()
        for field in ("passed", "records", "ops", "checked", "head",
                      "violations"):
            assert field in blob


class TestMutant:
    def test_victim_picker_finds_observable_delete(self):
        sequence = generate_ops("mixed", 300, 64, seed=7)
        victim = pick_mutant_victim(sequence)
        assert victim is not None
        assert sequence[victim].op == "delete"

    def test_mutant_flagged_from_journal_alone(self, tmp_path):
        path = _bench_journal(
            tmp_path, "m.jsonl", seed=7, mutant="drop-delete"
        )
        report = check_journal(read_journal(path), require_seal=True)
        assert not report.passed
        assert any(
            "model allows only" in v["problem"] for v in report.violations
        )

    def test_mutant_requires_journal(self):
        with pytest.raises(ValueError):
            run_bench("mixed", ops=100, seed=7, mutant="drop-delete")
        with pytest.raises(ValueError):
            run_bench(
                "mixed", ops=100, seed=7, mutant="nope",
                journal_path="/dev/null",
            )


class TestMiner:
    def test_healthy_journal_confirms_promoted_set(self, tmp_path):
        path = _bench_journal(tmp_path, "h.jsonl")
        results = _by_name(mine_journal(read_journal(path)))
        assert set(results) >= set(PROMOTED)
        for name in PROMOTED:
            assert results[name].status in ("confirmed", "vacuous"), name
        assert results["op-monotone"].status == "confirmed"
        assert results["get-after-put"].status == "confirmed"

    def test_mutant_falsifies_delete_implies_absent(self, tmp_path):
        path = _bench_journal(
            tmp_path, "m.jsonl", seed=7, mutant="drop-delete"
        )
        results = _by_name(mine_journal(read_journal(path)))
        res = results["delete-implies-absent"]
        assert res.status == "falsified"
        assert res.witness_op is not None and res.witness_tick is not None
        assert "read back" in res.detail

    def test_mine_journals_merges_falsified_over_confirmed(self, tmp_path):
        healthy = read_journal(_bench_journal(tmp_path, "h.jsonl"))
        mutant = read_journal(
            _bench_journal(tmp_path, "m.jsonl", seed=7, mutant="drop-delete")
        )
        merged = _by_name(mine_journals([healthy, mutant]))
        assert merged["delete-implies-absent"].status == "falsified"
        assert merged["op-monotone"].status == "confirmed"
        solo = _by_name(mine_journal(healthy))
        assert (
            merged["op-monotone"].instances
            > solo["op-monotone"].instances
        )

    def test_result_json_carries_witness(self, tmp_path):
        path = _bench_journal(
            tmp_path, "m.jsonl", seed=7, mutant="drop-delete"
        )
        results = _by_name(mine_journal(read_journal(path)))
        blob = results["delete-implies-absent"].to_json()
        assert blob["promoted"] is True
        assert "witness_op" in blob and "detail" in blob


class TestEvidenceCli:
    def test_check_trace_healthy_exits_zero(self, capsys, tmp_path):
        path = _bench_journal(tmp_path, "h.jsonl")
        assert main(["check-trace", path, "--require-seal"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_trace_mutant_exits_one(self, capsys, tmp_path):
        path = _bench_journal(
            tmp_path, "m.jsonl", seed=7, mutant="drop-delete"
        )
        assert main(["check-trace", path, "--require-seal"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "VIOLATION" in out

    def test_check_trace_expect_head(self, capsys, tmp_path):
        path = _bench_journal(tmp_path, "h.jsonl")
        entries = read_journal(path)
        head = entries[-1]["chain"]
        assert main(["check-trace", path, "--expect-head", head]) == 0
        capsys.readouterr()
        assert main(["check-trace", path, "--expect-head", "f" * 16]) == 1

    def test_check_trace_unreadable_exits_two(self, capsys, tmp_path):
        assert main(["check-trace", str(tmp_path / "nope.jsonl")]) == 2

    def test_check_trace_json_output(self, capsys, tmp_path):
        path = _bench_journal(tmp_path, "h.jsonl")
        assert main(["check-trace", path, "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["passed"] is True

    def test_invariants_exit_codes(self, capsys, tmp_path):
        healthy = _bench_journal(tmp_path, "h.jsonl")
        mutant = _bench_journal(
            tmp_path, "m.jsonl", seed=7, mutant="drop-delete"
        )
        assert main(["invariants", healthy]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["invariants", healthy, mutant]) == 1
        out = capsys.readouterr().out
        assert "FALSIFIED" in out and "witness" in out

    def test_bench_journal_flag(self, capsys, tmp_path):
        path = str(tmp_path / "b.jsonl")
        status = main([
            "bench", "--workload", "mixed", "--ops", "120", "--seed", "3",
            "--journal", path,
        ])
        assert status == 0
        assert "journal" in capsys.readouterr().out
        assert read_journal(path)[-1]["kind"] == "seal"

    def test_bench_mutant_without_journal_is_an_error(self, capsys):
        status = main([
            "bench", "--workload", "mixed", "--ops", "120",
            "--mutant", "drop-delete",
        ])
        assert status == 2


class TestCampaignEvidence:
    def _spec(self, workers):
        return CampaignSpec(
            profile="test",
            suite="injection",
            workers=workers,
            base_seed=3,
            injection_shards=2,
            injection_sequences=1,
            injection_ops=30,
            journal=True,
        )

    def test_evidence_section_deterministic_across_workers(self):
        one = run_campaign(self._spec(1)).to_json()
        two = run_campaign(self._spec(2)).to_json()
        assert one["schema_version"] == 8
        assert one["evidence"] == two["evidence"]
        assert one["evidence"]["all_passed"] is True
        assert one["evidence"]["totals"]["records"] > 0
        for shard in one["evidence"]["shards"]:
            assert shard["check_passed"] is True
            assert len(shard["heads_digest"]) == 16

    def test_no_journal_no_evidence_section(self):
        spec = CampaignSpec(
            profile="test", suite="injection", workers=1, base_seed=3,
            injection_shards=1, injection_sequences=1, injection_ops=20,
        )
        artifact = run_campaign(spec).to_json()
        assert "evidence" not in artifact


class TestServeEvidence:
    def test_metrics_page_exports_evidence_gauges(self):
        node = MetricsDemoNode(seed=5, warmup_ops=120, ops_per_scrape=10)
        page = node.metrics_page()
        assert "repro_journal_records" in page
        assert "repro_journal_chain_head" in page
        assert "repro_evidence_violations 0" in page

    def test_healthz_reports_running_verdict(self):
        node = MetricsDemoNode(seed=5, warmup_ops=120, ops_per_scrape=10)
        evidence = node.healthz()["evidence"]
        assert evidence["passed"] is True
        assert evidence["journal_records"] > 0
        assert len(evidence["chain_head"]) == 16

    def test_journal_written_through_when_path_given(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        node = MetricsDemoNode(
            seed=5, warmup_ops=60, ops_per_scrape=5, journal_path=path,
        )
        node.metrics_page()
        entries = read_journal(path)
        assert entries[0]["kind"] == "genesis"
        assert check_journal(entries).passed


class TestTraceFilters:
    def _trace(self):
        recorder = RingRecorder(capacity=256)
        with recorder.span("put", key="k1"):
            with recorder.span("disk.write"):
                pass
        with recorder.span("get", key="k1"):
            pass
        recorder.event("lsm.flush")
        return recorder.snapshot()["trace"]

    def test_op_filter_keeps_nested_subtree(self):
        events = filter_trace(self._trace(), op="put")
        names = [e["name"] for e in events]
        assert "disk.write" in names
        assert all(n != "get" for n in names)

    def test_component_filter(self):
        events = filter_trace(self._trace(), component="disk")
        assert events and all(
            e["name"].startswith("disk.") for e in events
        )

    def test_no_filters_is_identity(self):
        trace = self._trace()
        assert filter_trace(trace) == trace
