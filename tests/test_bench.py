"""Tests for the bench workload driver and its workloads.

Determinism is the load-bearing property: the op sequence (and its digest
in the artifact) must be a pure function of (workload, ops, value_size,
seed), while the two run-level wall-clock fields are free to vary.
``repro bench`` gates nothing and times no op -- the cost ladder
(``benchmarks/ladder``) is the perf gate and the stopwatch -- so the
removed baseline flags and the ``slowdown_ns`` knob must stay gone.
"""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    WORKLOADS,
    default_output_name,
    default_target,
    generate_ops,
    run_bench,
    sequence_digest,
    value_for,
)
from repro.cli import main


class TestWorkloadGeneration:
    def test_same_seed_same_sequence(self):
        a = generate_ops("mixed", 500, 64, seed=7)
        b = generate_ops("mixed", 500, 64, seed=7)
        assert a == b
        assert sequence_digest(a) == sequence_digest(b)

    def test_different_seeds_differ(self):
        a = generate_ops("mixed", 500, 64, seed=7)
        b = generate_ops("mixed", 500, 64, seed=8)
        assert sequence_digest(a) != sequence_digest(b)

    def test_put_heavy_is_mostly_puts(self):
        ops = generate_ops("put-heavy", 1000, 64, seed=0)
        puts = sum(1 for op in ops if op.op == "put")
        assert puts > 0.6 * len(ops)

    def test_flush_cadence_injected(self):
        ops = generate_ops("mixed", 200, 64, seed=0)
        flushes = [op for op in ops if op.op == "flush"]
        assert len(flushes) == 200 // 64

    def test_reboots_only_in_crash_recover(self):
        for workload in WORKLOADS:
            ops = generate_ops(workload, 400, 64, seed=1)
            reboots = [op for op in ops if op.op.startswith("reboot")]
            if workload == "crash-recover":
                assert reboots
            else:
                assert not reboots

    def test_reclaim_churn_drains(self):
        ops = generate_ops("reclaim-churn", 400, 64, seed=1)
        assert any(op.op == "drain" for op in ops)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            generate_ops("nope", 10, 64, seed=0)
        with pytest.raises(ValueError):
            generate_ops("mixed", 0, 64, seed=0)

    def test_value_for_is_deterministic_and_sized(self):
        assert value_for(b"k", 8) == value_for(b"k", 8)
        assert len(value_for(b"bench-000001", 100)) == 100
        assert value_for(b"k", 0) == b""

    def test_default_targets(self):
        assert default_target("mixed") == "node"
        assert default_target("reclaim-churn") == "store"
        assert default_target("crash-recover") == "store"


class TestRunBench:
    def test_artifact_schema(self):
        artifact = run_bench("mixed", ops=150, seed=3)
        assert artifact["schema_version"] == BENCH_SCHEMA_VERSION
        assert artifact["kind"] == "bench"
        assert artifact["workload"] == "mixed"
        assert artifact["target"] == "node"
        for key in (
            "ops",
            "value_size",
            "seed",
            "op_sequence_sha256",
            "op_counts",
            "outcomes",
            "wall_seconds",
            "throughput_ops_per_sec",
        ):
            assert key in artifact, key
        assert "slowdown_ns_per_op" not in artifact
        assert sum(artifact["outcomes"].values()) == sum(
            artifact["op_counts"].values()
        )
        assert artifact["throughput_ops_per_sec"] > 0

    def test_same_seed_reruns_execute_identical_ops(self):
        a = run_bench("mixed", ops=150, seed=3)
        b = run_bench("mixed", ops=150, seed=3)
        assert a["op_sequence_sha256"] == b["op_sequence_sha256"]
        assert a["op_counts"] == b["op_counts"]
        assert a["outcomes"] == b["outcomes"]

    def test_crash_recover_runs_on_store_target(self):
        artifact = run_bench("crash-recover", ops=320, seed=5)
        assert artifact["target"] == "store"
        assert "reboot-dirty" in artifact["op_counts"]
        assert "reboot-clean" in artifact["op_counts"]

    def test_reclaim_churn_triggers_reclamation(self):
        artifact = run_bench("reclaim-churn", ops=600, seed=2)
        assert artifact["target"] == "store"
        assert artifact["op_counts"]["delete"] > 0

    def test_slowdown_keyword_is_gone(self):
        with pytest.raises(TypeError):
            run_bench("put-heavy", ops=120, seed=9, slowdown_ns=500_000)

    def test_default_output_name(self):
        assert (
            default_output_name("reclaim-churn", "2026_08_06")
            == "BENCH_reclaim_churn_2026_08_06.json"
        )


class TestBenchCli:
    def test_bench_writes_artifact(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        status = main(
            [
                "bench",
                "--workload",
                "mixed",
                "--ops",
                "150",
                "--seed",
                "7",
                "--output",
                out,
            ]
        )
        assert status == 0
        with open(out, "r", encoding="utf-8") as handle:
            artifact = json.load(handle)
        assert artifact["schema_version"] == BENCH_SCHEMA_VERSION
        assert artifact["workload"] == "mixed"
        stdout = capsys.readouterr().out
        assert "ops/s" in stdout

    def test_removed_gate_flags_are_usage_errors(self, capsys):
        for flag in (
            ["--check-baseline", "b.json"],
            ["--update-baseline", "b.json"],
            ["--allow-baseline-raise"],
            ["--tolerance", "1.0"],
            ["--slowdown-us", "2000"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(["bench", "--workload", "mixed", "--ops", "120"] + flag)
            assert exc.value.code == 2, flag
            assert "unrecognized arguments" in capsys.readouterr().err, flag
