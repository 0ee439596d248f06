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
from repro.bench.workloads import generate_ops
from repro.campaign import CampaignSpec, run_campaign
from repro.cli import main
from repro.evidence import (
    PROMOTED,
    check_cluster_journals,
    check_journal,
    mine_journal,
    mine_journals,
)
from repro.shardstore import RingRecorder
from repro.shardstore.observability import filter_trace
from repro.shardstore.observability.journal import (
    GENESIS_CHAIN,
    Journal,
    canonical_json,
    chain_digest,
    read_journal,
)


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

    def test_expect_head_with_several_journals_is_a_usage_error(
        self, capsys, tmp_path
    ):
        """A chain head names one journal: with a cluster run's several
        journals the flag used to be dropped, so any digest passed."""
        from repro.cluster import ClusterConfig, ClusterRouter

        def factory(identity, meta):
            path = str(tmp_path / f"{identity}.jsonl")
            return Journal(path, meta=dict(meta, seed=0), node=identity)

        router = ClusterRouter(
            ClusterConfig(num_nodes=3, seed=0), journal_factory=factory
        )
        router.put(b"k", b"v")
        router.close()
        paths = sorted(str(p) for p in tmp_path.iterdir())
        assert main(["check-trace", *paths]) == 0
        capsys.readouterr()
        assert main(["check-trace", *paths, "--expect-head", "f" * 16]) == 2
        assert "--expect-head binds a single journal" in capsys.readouterr().out

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


def rechain(entries):
    """Recompute every chain digest, so only the envelope's other rules
    can catch an edit."""
    head, out = GENESIS_CHAIN, []
    for entry in entries:
        body = {name: val for name, val in entry.items() if name != "chain"}
        head = chain_digest(head, canonical_json(body))
        out.append({**body, "chain": head})
    return out


def _op_indexes(entries):
    return [i for i, e in enumerate(entries) if isinstance(e.get("op"), int)]


def _edit_chain(entries):
    entries[_op_indexes(entries)[0]]["note"] = "edited"  # not re-chained
    return entries


def _second_genesis(entries):
    return rechain(entries[:2] + [dict(entries[0])] + entries[2:])


def _after_seal(entries):
    extra = dict(entries[_op_indexes(entries)[-1]])
    extra["op"] += 1
    return rechain(entries + [extra])


def _op_not_increasing(entries):
    first, second = _op_indexes(entries)[:2]
    entries[second]["op"] = entries[first]["op"]
    return rechain(entries)


def _tick_backwards(entries):
    first, second = _op_indexes(entries)[:2]
    assert entries[first]["tick"] > 0
    entries[second]["tick"] = entries[first]["tick"] - 1
    return rechain(entries)


def _wrong_node(entries):
    entries[_op_indexes(entries)[0]]["node"] = "node9"
    return rechain(entries)


def _seal_counts(entries):
    counts = entries[-1]["counts"]
    counts[sorted(counts)[0]] += 1
    return rechain(entries)


def _seal_records(entries):
    entries[-1]["records"] += 1
    return rechain(entries)


#: One row per envelope rule: the damage (re-chained unless the chain is
#: the rule), the words every checker reports it in, and the miner
#: template that reads the rule out.
ENVELOPE_ROWS = {
    "chain edit": (_edit_chain, "chain digest mismatch", "chain-intact"),
    "second genesis": (
        _second_genesis, "genesis record is not first", "chain-intact"
    ),
    "record after the seal": (
        _after_seal, "record appears after the seal", "chain-intact"
    ),
    "op id not increasing": (
        _op_not_increasing, "not above predecessor", "op-monotone"
    ),
    "tick backwards": (_tick_backwards, "went backwards", "tick-monotone"),
    "wrong node": (_wrong_node, "record claims node 'node9'", "chain-intact"),
    "seal counts wrong": (
        _seal_counts, "seal counter relations do not match", "seal-counts"
    ),
    "seal records wrong": (_seal_records, "seal claims", "seal-counts"),
    "empty journal": (lambda entries: [], "journal is empty", "chain-intact"),
}


def _envelope_single():
    journal = Journal(meta={"source": "test"})
    journal.record_op("put", key=b"k", value=b"v")
    journal.record_op("get", key=b"k", value=b"v")
    journal.record_op("delete", key=b"k")
    journal.close()
    return journal.entries


def _envelope_cluster():
    from repro.cluster import ClusterConfig, ClusterRouter

    journals = {}

    def factory(identity, meta):
        journals[identity] = Journal(meta=dict(meta, seed=0), node=identity)
        return journals[identity]

    router = ClusterRouter(
        ClusterConfig(num_nodes=3, seed=0), journal_factory=factory
    )
    router.put(b"k1", b"v1")
    router.put(b"k2", b"v2")
    assert router.get(b"k1") == b"v1"
    router.close()
    return {name: journal.entries for name, journal in journals.items()}


def _problems(report):
    assert report.violation_count == len(report.violations)
    return [v["problem"] for v in report.violations]


class TestEnvelopeRules:
    """Every journal-envelope rule, against every consumer of the envelope:
    the single-journal checker, the merged cluster replay (the damage in
    the router journal, then in a member journal) and the miner."""

    def test_undamaged_journals_pass_every_consumer(self):
        assert check_journal(_envelope_single(), require_seal=True).passed
        journals = _envelope_cluster()
        assert sorted(journals) == ["node0", "node1", "node2", "router"]
        report = check_cluster_journals(list(journals.values()), require_seal=True)
        assert report.passed, report.violations
        assert not any(
            res.status == "falsified" for res in mine_journal(_envelope_single())
        )

    @pytest.mark.parametrize("row", sorted(ENVELOPE_ROWS))
    def test_single_journal_checker(self, row):
        damage, words, _template = ENVELOPE_ROWS[row]
        report = check_journal(damage(_envelope_single()), require_seal=True)
        assert any(words in problem for problem in _problems(report))

    @pytest.mark.parametrize("where", ["router", "node1"])
    @pytest.mark.parametrize("row", sorted(ENVELOPE_ROWS))
    def test_cluster_replay(self, row, where):
        damage, words, _template = ENVELOPE_ROWS[row]
        journals = _envelope_cluster()
        journals[where] = damage(journals[where])
        report = check_cluster_journals(list(journals.values()), require_seal=True)
        if row == "empty journal":  # a journal with no genesis has no name
            words = "journal has no genesis identity"
        else:
            words = f"journal {where}: "
        assert any(words in problem for problem in _problems(report))
        assert not report.passed

    @pytest.mark.parametrize("row", sorted(ENVELOPE_ROWS))
    def test_miner(self, row):
        damage, words, template = ENVELOPE_ROWS[row]
        results = _by_name(mine_journal(damage(_envelope_single())))
        assert results[template].status == "falsified"
        assert words in results[template].detail

    def test_miner_instances_are_the_envelope_check_sites(self):
        results = _by_name(mine_journal(_envelope_single()))
        # 5 records; 3 op ids; 2 ticks after the first; 1 seal.
        assert results["chain-intact"].instances == 5
        assert results["op-monotone"].instances == 3
        assert results["tick-monotone"].instances == 2
        assert results["seal-counts"].instances == 1

    def test_empty_journal_fails_check_trace(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["check-trace", str(empty)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "VIOLATION at record 0: journal is empty (no genesis record)" in out
        assert main(["check-trace", "--require-seal", str(empty)]) == 1
        assert "record -1" not in capsys.readouterr().out

    def test_member_journal_supplied_twice_is_a_violation(self):
        journals = _envelope_cluster()
        entries = list(journals.values()) + [journals["node0"]]
        report = check_cluster_journals(entries, require_seal=True)
        assert _problems(report) == ["two journals claim node 'node0'"]
        assert report.records == sum(
            info["records"] for info in report.journals.values()
        )


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
