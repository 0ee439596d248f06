"""Tests of the cost ladder itself (not tier-1, no ``bench`` marker).

    python -m pytest benchmarks/ladder -q
"""

from __future__ import annotations

import copy
import gc
import json
import os
import subprocess
import sys
import time
from array import array

import pytest

LADDER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LADDER_DIR))
SRC = os.path.join(REPO_ROOT, "src")
RUN = os.path.join(LADDER_DIR, "run.py")
for path in (SRC, LADDER_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

from repro.shardstore import (  # noqa: E402
    KeyNotFoundError,
    NotFoundError,
    StorageNode,
)


def child(workload: str, seed: int, hashseed: int) -> dict:
    """One ``--quick`` workload in a fresh interpreter, under ``hashseed``."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed), PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, RUN, "--child", "--quick", "--workload", workload,
         "--seed", str(seed)],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    """``run.py --quick`` over all four workloads, and how long it took."""
    out = tmp_path_factory.mktemp("ladder") / "quick.json"
    began = time.perf_counter()
    subprocess.run([sys.executable, RUN, "--quick", "--out", str(out)], check=True)
    seconds = time.perf_counter() - began
    with open(out, encoding="utf-8") as fh:
        return {"seconds": seconds, "report": json.load(fh)}


def test_quick_runs_all_four_workloads_without_failures(quick):
    assert quick["seconds"] < 60
    by_name = quick["report"]["workloads"]
    assert tuple(by_name) == run.WORKLOADS
    for name, entry in by_name.items():
        (only,) = entry["runs"]
        assert only["correct"], (name, only["failures"])
        assert only["ops_failed"] == 0, (name, only["failures"])
        assert only["ops_attempted"] > 0


def test_every_reported_metric_is_declared_with_a_unit(quick):
    declared = run.load_declared()
    for name, entry in quick["report"]["workloads"].items():
        (only,) = entry["runs"]
        assert set(only["e2e"]) == {
            n for n, m in declared.items() if "bound" in m
        }
        undeclared = set(only["layers"]) - set(declared)
        assert not undeclared, (name, undeclared)
        line = json.loads(run.contract_line(only, 1, declared))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {
            n for n, m in declared.items() if "bound" not in m
        }


def test_traced_run_adds_declared_timings_and_the_tracing_overhead(tmp_path):
    out = tmp_path / "traced.json"
    subprocess.run(
        [sys.executable, RUN, "--quick", "--traced", "--workload",
         "cluster-quorum", "--out", str(out)],
        check=True,
    )
    with open(out, encoding="utf-8") as fh:
        (only,) = json.load(fh)["workloads"]["cluster-quorum"]["runs"]
    layers = only["layers"]
    assert not set(layers) - set(run.load_declared())
    assert layers["trace.overhead_ratio"] > 1
    assert 0 <= layers["trace.unattributed_share"] < 0.5
    for name in ("router", "ring", "antientropy", "node", "store", "disk"):
        assert layers[f"{name}.self_us_per_op"] > 0
    assert layers["router.put_p50_us"] > layers["node.put_p50_us"]
    assert len(only["slowest_ops"]) == 20
    assert only["correct"] and only["ops_failed"] == 0


def test_workloads_are_selective(quick):
    runs = {
        name: entry["runs"][0]["layers"]
        for name, entry in quick["report"]["workloads"].items()
    }
    for node_workload in ("node-ingest", "node-serve"):
        cluster_only = [
            name for name in runs[node_workload]
            if name.split(".")[0] in ("router", "ring", "antientropy")
        ]
        assert not cluster_only
    assert runs["cluster-quorum"]["router.hints_queued"] > 0
    assert (
        runs["node-serve"]["disk.writes_per_op"]
        < runs["node-ingest"]["disk.writes_per_op"] / 10
    )
    assert runs["node-ingest"]["reclaimer.passes"] > 0
    assert runs["node-serve"]["reclaimer.passes"] == 0


@pytest.mark.parametrize("workload", ["node-ingest", "cluster-quorum"])
def test_same_seed_repeats_exactly_across_hash_seeds(workload):
    first = child(workload, 7, hashseed=1)
    again = child(workload, 7, hashseed=1)
    other_hash = child(workload, 7, hashseed=2)
    assert first["exact"], "no count metrics reported"
    for other in (again, other_hash):
        assert other["stream_sha256"] == first["stream_sha256"]
        assert other["ops_failed"] == first["ops_failed"] == 0
        for name in first["exact"]:
            assert other["layers"][name] == first["layers"][name], name


def test_cluster_durability_probe_converges_at_seed_1():
    # The budgeted ``run_until_converged()`` ran out of rounds at this seed.
    only = child("cluster-quorum", 1, hashseed=0)
    assert only["correct"], only["failures"]


def test_different_seed_gives_a_different_stream():
    w = workloads.DATA_WORKLOADS["node-ingest"]
    digests = {workloads.OpStream(w, seed, 4096).sha256() for seed in (7, 7, 11)}
    assert len(digests) == 2


def small_workload() -> workloads.DataWorkload:
    base = workloads.DATA_WORKLOADS["node-ingest"]
    return workloads.DataWorkload(
        name="small", keys=200, value_size=64, mix=base.mix, cycle_ops=1024,
        cycles=1, build=base.build,
    )


def test_tracer_self_times_sum_to_the_window_and_classes_are_restored():
    originals = {
        (cls, method): cls.__dict__[method]
        for cls, methods in LAYERS.values() for method in methods
    }
    w = small_workload()
    stream = workloads.OpStream(w, 7, 2 * w.cycle_ops)
    lat = array("q", bytes(8 * w.cycle_ops))
    session, setup_seconds = workloads.set_up(w, 7, stream, lat)
    gc.unfreeze()  # set_up froze this process's heap; nothing here needs that
    assert setup_seconds > 0
    tracer = Tracer(keep_slowest=3)
    tracer.install()
    try:
        assert StorageNode.__dict__["put"] is not originals[(StorageNode, "put")]
        tracer.start()
        cost = session.run_cycle(1, lat, w.cycle_ops)
        tracer.stop()
    finally:
        tracer.uninstall()
    assert 0 < cost.quiet_ns
    for (cls, method), original in originals.items():
        assert cls.__dict__[method] is original

    by_layer = tracer.layer_self_ns()
    assert abs(sum(by_layer.values()) - tracer.window_ns) <= tracer.window_ns / 100
    assert {"node", "store", "lsm", "scheduler", "disk"} <= set(by_layer)
    assert "router" not in by_layer or by_layer["router"] == 0
    assert tracer.calls["node.put"] + tracer.calls["node.get"] > 0
    assert session.tally.failed == 0

    trees = tracer.slowest_ops()
    assert len(trees) == 3
    assert trees[0]["duration_ns"] >= trees[-1]["duration_ns"]
    for tree in trees:
        root = tree["spans"][0]
        assert root["parent"] == -1 and root["start_ns"] == 0
        for span in tree["spans"][1:]:
            parent = tree["spans"][span["parent"]]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]


class FakeKV:
    """A dict behind the KV surface; optionally serves one stale value."""

    def __init__(self, stale: bool) -> None:
        self.data = {}
        self.previous = {}
        self.stale = stale

    def put(self, key, value):
        if key in self.data:
            self.previous[key] = self.data[key]
        self.data[key] = value

    def get(self, key):
        if key not in self.data:
            raise NotFoundError(key)
        if self.stale and key in self.previous:
            return self.previous[key]
        return self.data[key]

    def delete(self, key):
        if key not in self.data:
            raise KeyNotFoundError(key)
        del self.data[key]
        self.previous.pop(key, None)

    def contains(self, key):
        return key in self.data

    def keys(self):
        return sorted(self.data)

    def flush(self):
        pass

    drain = flush


@pytest.mark.parametrize("stale", [False, True])
def test_oracle_flags_a_stale_variant(stale):
    w = small_workload()
    stream = workloads.OpStream(w, 7, w.cycle_ops)
    session = workloads.Session(w, 7, stream, kv=FakeKV(stale))
    session.preload()
    session.run_ops(0, w.cycle_ops, array("q", bytes(8 * w.cycle_ops)), 0)
    session.sweep("sweep")
    assert session.tally.attempted == w.cycle_ops
    assert (session.tally.failed > 0) == stale


def synthetic(slowdown: float) -> dict:
    runs = []
    for jitter in (0.99, 1.0, 1.0, 1.01, 1.0):
        runs.append({
            "e2e": {
                "setup_s": 1.0 * jitter,
                "ops_per_s": 10_000 / slowdown * jitter,
                "op_p50_us": 40.0 * slowdown * jitter,
                "op_tail_us": 1_000.0 * slowdown * jitter,
                "mem_peak_mb": 100.0 * jitter,
            },
            "ops_attempted": 1000,
            "ops_failed": 0,
        })
    return {"workloads": {"node-ingest": {"runs": runs}}}


#: The issue's bounds; the tests must not depend on what BENCHMARK.json
#: currently allows.
BOUNDS = [
    {"name": "setup_s", "better": "lower", "bound": 0.15},
    {"name": "ops_per_s", "better": "higher", "bound": 0.10},
    {"name": "op_p50_us", "better": "lower", "bound": 0.10},
    {"name": "op_tail_us", "better": "lower", "bound": 0.15},
    {"name": "mem_peak_mb", "better": "lower", "bound": 0.10},
]


def test_compare_classifies_slowdown_spread_and_failures():
    same = compare.compare(synthetic(1.0), synthetic(1.0), BOUNDS)
    assert {row.status for row in same} == {"ok"}
    assert len(same) == len(BOUNDS) + 1

    slow = {
        row.metric: row.status
        for row in compare.compare(synthetic(1.0), synthetic(1.2), BOUNDS)
    }
    assert slow["ops_per_s"] == "regressed"
    assert slow["op_p50_us"] == "regressed"
    assert slow["op_tail_us"] == "regressed"
    assert slow["mem_peak_mb"] == "ok"
    faster = compare.compare(synthetic(1.2), synthetic(1.0), BOUNDS)
    assert {row.status for row in faster} == {"ok"}

    wide = synthetic(1.0)
    for run_, factor in zip(wide["workloads"]["node-ingest"]["runs"],
                            (0.7, 0.85, 1.0, 1.15, 1.3)):
        run_["e2e"]["op_p50_us"] = 40.0 * factor
    statuses = {
        row.metric: row.status
        for row in compare.compare(synthetic(1.0), wide, BOUNDS)
    }
    assert statuses["op_p50_us"] == "unresolved"

    failing = copy.deepcopy(synthetic(1.0))
    failing["workloads"]["node-ingest"]["runs"][0]["ops_failed"] = 5
    rows = compare.compare(synthetic(1.0), failing, BOUNDS)
    assert rows[-1].metric == "ops_failed/ops_attempted"
    assert rows[-1].status == "regressed"


def test_compare_reads_bounds_from_benchmark_json_and_sets_exit_code(tmp_path):
    declared = {m["name"]: m["bound"] for m in compare.load_bounds()}
    assert set(declared) == {m["name"] for m in BOUNDS}
    assert all(0 < bound <= 0.25 for bound in declared.values())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(synthetic(1.0)))
    b.write_text(json.dumps(synthetic(1.5)))  # beyond any bound the contract allows
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
