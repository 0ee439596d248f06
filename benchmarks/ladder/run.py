"""The cost ladder: four steady-state workloads, end to end and per layer.

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/ladder/run.py \\
        [--workload W] [--seed S] [--traced] [--quick] [--repeat N] [--out F]

Each workload runs in a fresh subprocess of this file (``--child``) with
``PYTHONHASHSEED=0`` and ``src`` on the path, so ``ru_maxrss`` belongs to
that workload alone; this process only spawns, merges and prints.  The
benchmark driver's form, ``--workload W --seed N --seconds T --trace 0|1``,
prints the contract's one JSON object as the last line.

Exit code 1 means a correctness check failed: an oracle mismatch in a data
workload, a failed durability probe, or a negative control the checker did
not flag.  A non-passing conformance sequence is counted, not fatal.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from typing import Any, Dict, List, Optional, Sequence

LADDER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LADDER_DIR))
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")

WORKLOADS = ("node-ingest", "node-serve", "cluster-quorum", "check-conformance")

#: ``--seconds`` the default sizes are chosen for.  It scales *op counts*
#: by ``seconds / NOMINAL_SECONDS`` and is never a deadline, so the parent
#: and the change always do identical work.
NOMINAL_SECONDS = 10
#: A run is this many trials of (set-up, window).  Data workloads repeat
#: the same ops in every trial, and every timing is the median across
#: trials of the same op or cycle: a burst from a noisy neighbour has to
#: hit the same place twice to show.
TRIALS = 3
SEQUENCES_PER_TRIAL = 160  # per alphabet; 480 over the three trials
OPS_PER_SEQUENCE = 60
WARMUP_SEQUENCES = 5  # per alphabet, in set-up
JOURNAL_STREAM_OPS = 3_000
MC_ITERATIONS = 200
NEGATIVE_CONTROL_OPS = 1_500
TRACED_CYCLES = 2
#: ``op_tail_us``: p99 of request ops, p95 of checked sequences.  Both
#: leave 40 or more samples beyond them per trial and sit inside one
#: latency mode on every workload (p99.9 sits on a mode boundary on
#: node-ingest and node-serve, and moved 12 % run to run).
DATA_TAIL = 0.99
SEQUENCE_TAIL = 0.95
QUICK_SEQUENCES = 25
#: Calibration drift beyond which a run is flagged ``noisy``.
NOISY_DRIFT = 0.10


def percentile(ordered: Sequence[float], fraction: float) -> float:
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


class Sizes:
    """Op counts for one run, from ``--seconds`` / ``--quick`` / ``--traced``."""

    def __init__(self, seconds: int, quick: bool, traced: bool) -> None:
        self.scale = seconds / NOMINAL_SECONDS
        self.quick = quick
        self.traced = traced
        self.trials = 1 if quick or traced else TRIALS

    def cycles(self, default: int) -> int:
        if self.quick or self.traced:
            return TRACED_CYCLES
        return max(2, round(default * self.scale))

    def sequences(self) -> int:
        if self.quick:
            return QUICK_SEQUENCES
        if self.traced:
            return 2 * QUICK_SEQUENCES
        return max(QUICK_SEQUENCES, round(SEQUENCES_PER_TRIAL * self.scale))

    def journal_stream_ops(self) -> int:
        if self.quick:
            return 2_000
        return max(2_000, round(JOURNAL_STREAM_OPS * self.scale))


def drop_garbage() -> None:
    """Free the previous trial's system before the next set-up is timed."""
    gc.unfreeze()
    gc.collect()


# ----------------------------------------------------------------------
# child: the three data workloads


def run_data(name: str, seed: int, sizes: Sizes) -> Dict[str, Any]:
    from workloads import (
        DATA_WORKLOADS,
        OpStream,
        Tally,
        counters,
        occupied_bytes,
        set_up,
        store_systems,
    )

    w = DATA_WORKLOADS[name]
    cycles = sizes.cycles(w.cycles)
    window_ops = cycles * w.cycle_ops
    stream = OpStream(w, seed, w.cycle_ops + window_ops)

    tracer = None
    if sizes.traced:
        from tracer import Tracer

        tracer = Tracer()
    setup_s: List[float] = []
    lats: List[array] = []
    cycle_ns: List[List[float]] = []
    attempted = failed = 0
    failures: List[str] = []
    session = None
    for _ in range(sizes.trials):
        session = None
        drop_garbage()
        raw = array("q", bytes(8 * window_ops))
        session, seconds = set_up(w, seed, stream, raw)
        setup_s.append(seconds)

        before = counters(session.kv)
        if tracer is not None:
            tracer.install()
            tracer.start()
        try:
            costs = [
                session.run_cycle(c, raw, w.cycle_ops) for c in range(1, cycles + 1)
            ]
        finally:
            if tracer is not None:
                tracer.stop()
                tracer.uninstall()
        mem_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        after = counters(session.kv)
        # The oracle's end-of-window sweep, outside the window.
        session.sweep("end-of-window sweep")
        first, last = costs[0].first_slice, costs[-1].last_slice
        lats.append(session.clock.quieten(raw, w.cycle_ops, first, last))
        cycle_ns.append([cost.quiet_ns for cost in costs])
        attempted += session.tally.attempted
        failed += session.tally.failed
        failures += session.tally.texts
    assert session is not None

    # One latency per op and one time per cycle: the median across trials.
    lat = lats[0]
    if len(lats) > 1:
        lat = array("d", map(statistics.median_low, zip(*lats)))
    walls = [statistics.median_low(at_cycle) for at_cycle in zip(*cycle_ns)]
    del lats
    ordered = sorted(lat)
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": sizes.traced,
        "trials": sizes.trials,
        "cycles": cycles,
        "stream_sha256": stream.sha256(),
        "samples": window_ops,
        "samples_beyond_tail": window_ops - int(window_ops * DATA_TAIL),
        "tail": f"p{DATA_TAIL * 100:g}",
        "cycle_s": [round(ns / 1e9, 4) for ns in walls],
        "trial_cycle_s": [[round(ns / 1e9, 4) for ns in t] for t in cycle_ns],
        "compare_ops_per_s": TRACED_CYCLES * w.cycle_ops
        / (sum(walls[:TRACED_CYCLES]) / 1e9),
        "e2e": {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": window_ops / (sum(walls) / 1e9),
            "op_p50_us": percentile(ordered, 0.5) / 1e3,
            "op_tail_us": percentile(ordered, DATA_TAIL) / 1e3,
            "mem_peak_mb": mem_peak_kb / 1024,
        },
    }
    del ordered

    # Counts come from public stats objects and repeat exactly, trial to
    # trial and run to run; these are the last trial's.
    delta = {key: after[key] - before[key] for key in after}
    counts = count_metrics(delta, window_ops, session.user_bytes_put)
    passes = sum(cost.passes for cost in costs)
    scanned = sum(cost.scanned_chunks for cost in costs)
    counts["reclaimer.passes"] = passes
    if passes:
        counts["reclaimer.scanned_chunks"] = scanned
        counts["reclaimer.evacuated"] = sum(cost.evacuated for cost in costs)
    if scanned:
        counts["reclaimer.dropped_ratio"] = (
            sum(cost.dropped for cost in costs) / scanned
        )
    layers: Dict[str, float] = {
        "lsm.compact_ms_per_cycle": sum(c.compact_ns for c in costs) / cycles / 1e6,
        "reclaimer.ms_per_cycle": sum(c.reclaim_ns for c in costs) / cycles / 1e6,
        **session.clock.drift(first, last),
    }
    if tracer is not None:
        layers.update(trace_metrics(tracer, window_ops))
        result["slowest_ops"] = tracer.slowest_ops()

    # Post-window probes, on the last trial's system.
    systems = store_systems(session.kv)
    counts["lsm.run_count_end"] = sum(s.store.index.run_count for s in systems)
    counts["disk.space_amp"] = occupied_bytes(session.kv) / session.live_user_bytes()
    session.tally = probe = Tally()
    if name == "cluster-quorum":
        router = session.kv
        victim = seed % router.config.num_nodes
        router.crash_node(victim)
        router.restart_node(victim)
        router.settle()
        # The restarted member lost its unflushed memtable entries; the
        # Merkle sync is what brings its replicas back.  Each pair is
        # synced to completion: the budgeted background rounds
        # (``run_until_converged``) descend 8 buckets of a pair's diff at
        # a time, most of them keys the pair does not share, and on some
        # seeds they run out of rounds first.
        sync = router.antientropy
        members = sorted(router.nodes)
        for _ in range(router.config.replication):
            if sync.roots_converged():
                break
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    sync.sync(a, b)
        if not sync.roots_converged():
            session.tally.fail("durability probe: replica roots did not converge")
    else:
        session.kv.flush()
        session.kv.drain()
        began_ns = time.perf_counter_ns()
        for system in systems:
            system.dirty_reboot()
        layers["store.recover_ms"] = (
            (time.perf_counter_ns() - began_ns) / len(systems) / 1e6
        )
    session.sweep("durability probe")

    layers.update(counts)
    result["layers"] = layers
    result["exact"] = sorted(counts)
    result["noisy"] = layers["driver.calib_drift"] > NOISY_DRIFT
    result["ops_attempted"] = attempted
    result["ops_failed"] = failed
    result["failures"] = failures + probe.texts
    # Any mismatch in a data workload is a wrong answer, so it is fatal.
    result["correct"] = failed == 0 and probe.failed == 0
    return result


def count_metrics(
    delta: Dict[str, int], ops: int, user_bytes_put: int
) -> Dict[str, float]:
    """Per-layer ratios from the window's stats deltas (they repeat exactly)."""
    out: Dict[str, float] = {
        "disk.writes_per_op": delta["disk.writes"] / ops,
        "disk.reads_per_op": delta["disk.reads"] / ops,
        "disk.resets": delta["disk.resets"],
        "scheduler.ios_per_op": delta["scheduler.ios"] / ops,
        "node.retries": delta["node.retries"],
        "node.sheds": delta["node.sheds"],
    }
    if user_bytes_put:
        out["disk.write_amp"] = delta["disk.bytes_written"] / user_bytes_put
    if delta["scheduler.ios"]:
        out["scheduler.records_per_io"] = (
            delta["scheduler.records"] / delta["scheduler.ios"]
        )
    lookups = delta["cache.hits"] + delta["cache.misses"]
    if lookups:
        out["cache.hit_ratio"] = delta["cache.hits"] / lookups
    if delta["node.gets"]:
        out["cache.reads_per_get"] = lookups / delta["node.gets"]
    if "router.puts" in delta:
        out["router.replica_applies_per_put"] = (
            delta["node.puts"] / delta["router.puts"]
        )
        for name in (
            "degraded_writes", "hints_queued", "hints_replayed", "read_repairs"
        ):
            out[f"router.{name}"] = delta[f"router.{name}"]
        buckets = delta["router.anti_entropy_buckets"]
        out["antientropy.rounds"] = delta["router.anti_entropy_rounds"]
        out["antientropy.buckets_descended"] = buckets
        if buckets:
            out["antientropy.repairs_per_bucket"] = (
                delta["router.anti_entropy_keys_repaired"] / buckets
            )
    return out


def trace_metrics(tracer: Any, ops: int) -> Dict[str, float]:
    """Per-layer timings of the traced window (all carry the tracing cost)."""
    from tracer import ROOT

    out: Dict[str, float] = {}
    for layer, ns in tracer.layer_self_ns().items():
        if layer != ROOT and ns:
            out[f"{layer}.self_us_per_op"] = ns / ops / 1e3
    out["trace.unattributed_share"] = tracer.unattributed_ns / tracer.window_ns
    for name, sample in tracer.samples.items():
        if len(sample):
            out[f"{name}_p50_us"] = statistics.median_low(sample) / 1e3
    for name in ("node.flush", "node.drain"):
        if tracer.calls.get(name):
            out[f"{name}_us_per_call"] = (
                tracer.total_ns[name] / tracer.calls[name] / 1e3
            )
    calls = tracer.calls
    layer_calls = tracer.layer_calls()
    for layer in ("ring", "chunk_store"):
        if layer_calls.get(layer):
            out[f"{layer}.calls_per_op"] = layer_calls[layer] / ops
    for layer in ("lsm", "superblock"):
        if calls.get(f"{layer}.flush"):
            out[f"{layer}.flushes_per_kop"] = calls[f"{layer}.flush"] / ops * 1e3
    if tracer.self_ns.get("conformance.generate_sequence"):
        out["conformance.generate_self_us_per_op"] = (
            tracer.self_ns["conformance.generate_sequence"] / ops / 1e3
        )
    return out


# ----------------------------------------------------------------------
# child: check-conformance


def journal_stream(
    seed: int, ops: int, path: Optional[str], clock: Any
) -> Dict[str, float]:
    """One node-ingest op stream, journaled to ``path`` or not at all."""
    from repro.shardstore.observability import Journal
    from workloads import DATA_WORKLOADS, OpStream, Session

    w = DATA_WORKLOADS["node-ingest"]
    journal = Journal(path, meta={"source": "ladder", "seed": seed}) if path else None
    session = Session(
        w, seed, OpStream(w, seed, ops), kv=w.build(seed, journal), clock=clock
    )
    first = clock.sample()
    session.preload()
    session.run_ops(0, ops, array("q", bytes(8 * ops)), 0)
    session.kv.flush()
    session.kv.drain()
    if journal is not None:
        journal.close()
    seconds = clock.quiet_ns(first, clock.sample()) / 1e9
    if session.tally.failed:
        raise AssertionError(f"journal stream failed: {session.tally.texts}")
    return {
        "seconds": seconds,
        "records": journal.records_written if journal is not None else 0,
    }


def run_check_conformance(seed: int, sizes: Sizes, workdir: str) -> Dict[str, Any]:
    from repro.bench import run_bench
    from repro.concurrency import model
    from repro.core import (
        NodeHarness,
        StoreHarness,
        concurrent_harnesses,
        crash_alphabet,
        failure_alphabet,
        node_alphabet,
        run_conformance,
        store_alphabet,
    )
    from repro.evidence.checker import check_file
    from repro.evidence.invariants import mine_file
    from repro.shardstore import FaultSet
    from workloads import QuietClock

    def store_harness(s: int) -> Any:
        return StoreHarness(FaultSet.none(), s)

    def node_harness(s: int) -> Any:
        return NodeHarness(FaultSet.none(), s)

    suites = [
        ("store", store_alphabet(), store_harness, None),
        ("crash", crash_alphabet(), store_harness, None),
        ("failure", failure_alphabet(), store_harness, None),
        ("node", node_alphabet(), node_harness, {"num_disks": 3}),
    ]
    tracer = None
    if sizes.traced:
        from tracer import Tracer

        tracer = Tracer()
        suites = [
            (name, alphabet, tracer.wrap("conformance.build", factory), ctx)
            for name, alphabet, factory, ctx in suites
        ]
    sequences = sizes.sequences()
    stream_ops = sizes.journal_stream_ops()
    journal_path = os.path.join(workdir, "stream.jsonl")

    def check(i: int, suite: Any) -> Any:
        _, alphabet, factory, ctx = suite
        return run_conformance(
            factory,
            alphabet,
            sequences=1,
            ops_per_sequence=OPS_PER_SEQUENCE,
            base_seed=seed * 10_000 + i,
            ctx_kwargs=ctx,
        )

    # Trial t checks sequences [t * sequences, (t + 1) * sequences) of every
    # alphabet, so the trials together cover one contiguous seed range and
    # each end-to-end number is the median of the trials' own.
    trials: List[Dict[str, float]] = []
    suite_ops_per_s: Dict[str, List[float]] = {name: [] for name, *_ in suites}
    failing: List[str] = []
    checked_ops = failed_ops = 0
    for trial in range(sizes.trials):
        drop_garbage()
        clock = QuietClock()
        began = clock.sample()
        journaled = journal_stream(seed, stream_ops, journal_path, clock)
        plain = journal_stream(seed, stream_ops, None, clock)
        for suite in suites:
            for i in range(WARMUP_SEQUENCES):
                clock.sample()
                check(sizes.trials * sequences + i, suite)  # beyond every trial
        gc.collect()
        gc.freeze()
        first = clock.sample()
        setup_s = clock.quiet_ns(began, first) / 1e9

        # One slice before every sequence: a sequence's latency is the
        # calibrated time from its slice to the next one.
        if tracer is not None:
            tracer.install()
            tracer.start()
        try:
            for suite in suites:
                for i in range(sequences):
                    report = check(trial * sequences + i, suite)
                    clock.sample()
                    checked_ops += OPS_PER_SEQUENCE
                    if not report.passed:
                        failed_ops += OPS_PER_SEQUENCE
                        failing.append(
                            f"{suite[0]} alphabet, seed {report.failing_seed}: "
                            f"{report.failure}"
                        )
        finally:
            if tracer is not None:
                tracer.stop()
                tracer.uninstall()
        mem_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        total = sequences * len(suites)
        for s, suite in enumerate(suites):
            began = first + s * sequences
            suite_ns = clock.quiet_ns(began, began + sequences)
            suite_ops_per_s[suite[0]].append(
                sequences * OPS_PER_SEQUENCE / (suite_ns / 1e9)
            )
        ordered = sorted(
            clock.quiet_ns(first + j, first + j + 1) for j in range(total)
        )
        trials.append(
            {
                "setup_s": setup_s,
                "ops_per_s": total * OPS_PER_SEQUENCE
                / (clock.quiet_ns(first, first + total) / 1e9),
                "op_p50_us": percentile(ordered, 0.5) / 1e3,
                "op_tail_us": percentile(ordered, SEQUENCE_TAIL) / 1e3,
                "mem_peak_mb": mem_peak_kb / 1024,
            }
        )

    e2e = {
        name: statistics.median(trial[name] for trial in trials)
        for name in trials[0]
    }
    e2e["mem_peak_mb"] = trials[-1]["mem_peak_mb"]
    layers: Dict[str, float] = {
        f"conformance.{name}_ops_per_s": statistics.median(rates)
        for name, rates in suite_ops_per_s.items()
    }
    layers["journal.overhead_ratio"] = journaled["seconds"] / plain["seconds"]
    layers["journal.records_per_s"] = journaled["records"] / journaled["seconds"]
    layers.update(clock.drift(first, first + total))
    result: Dict[str, Any] = {
        "workload": "check-conformance",
        "seed": seed,
        "traced": sizes.traced,
        "trials": sizes.trials,
        "samples": total,
        "samples_beyond_tail": total - int(total * SEQUENCE_TAIL),
        "tail": f"p{SEQUENCE_TAIL * 100:g}",
        "compare_ops_per_s": e2e["ops_per_s"],
        "e2e": e2e,
        "layers": layers,
        "exact": [],
        "noisy": layers["driver.calib_drift"] > NOISY_DRIFT,
        "ops_attempted": checked_ops,
        "ops_failed": failed_ops,
    }
    errors: List[str] = []
    if tracer is not None:
        layers.update(trace_metrics(tracer, checked_ops))
    else:
        # Post-window: the other checkers' rates, and the checks on the
        # checker (the traced run would only repeat them).
        began = time.perf_counter()
        healthy = check_file(journal_path, require_seal=True)
        layers["evidence.check_trace_records_per_s"] = healthy.records / (
            time.perf_counter() - began
        )
        if not healthy.passed:
            errors.append(f"healthy journal rejected: {healthy.violations[:1]}")
        began = time.perf_counter()
        mine_file(journal_path)
        layers["evidence.mine_records_per_s"] = healthy.records / (
            time.perf_counter() - began
        )
        for name, harness in (
            ("quorum", concurrent_harnesses.quorum_harness),
            ("linearizability", concurrent_harnesses.linearizability_harness),
        ):
            began = time.perf_counter()
            explored = model(
                harness(FaultSet.none(), 0),
                strategy="pct",
                iterations=MC_ITERATIONS,
                seed=seed,
            )
            layers[f"mc.{name}_execs_per_s"] = explored.executions / (
                time.perf_counter() - began
            )
            if not explored.passed:
                errors.append(f"mc {name} harness: {explored.failure}")
        # Negative control: a journal with a silently dropped delete MUST
        # be flagged, or the records/s above time a checker that checks
        # nothing.
        mutant_path = os.path.join(workdir, "mutant.jsonl")
        run_bench(
            "mixed",
            ops=NEGATIVE_CONTROL_OPS,
            seed=seed,
            journal_path=mutant_path,
            mutant="drop-delete",
        )
        if check_file(mutant_path, require_seal=True).passed:
            errors.append("negative control: drop-delete journal was not flagged")
    result["failures"] = failing + errors
    result["correct"] = not errors
    return result


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, LADDER_DIR)
    sizes = Sizes(args.seconds, args.quick, args.traced)
    if args.workload == "check-conformance":
        workdir = tempfile.mkdtemp(prefix="work-", dir=LADDER_DIR)
        try:
            result = run_check_conformance(args.seed, sizes, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        result = run_data(args.workload, args.seed, sizes)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# parent: spawn, merge, print


def spawn(workload: str, args: argparse.Namespace, traced: bool) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter and parse its result line."""
    command = [sys.executable, os.path.abspath(__file__), "--child"]
    command += ["--workload", workload, "--seed", str(args.seed)]
    command += ["--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    if traced:
        command.append("--traced")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_once(workload: str, args: argparse.Namespace) -> Dict[str, Any]:
    """The untraced run, plus (``--traced``) the traced one merged in."""
    run = spawn(workload, args, traced=False)
    if args.traced:
        traced = spawn(workload, args, traced=True)
        timed = {
            name: value
            for name, value in traced["layers"].items()
            if name not in run["layers"]
        }
        timed["trace.overhead_ratio"] = (
            run["compare_ops_per_s"] / traced["compare_ops_per_s"]
        )
        run["layers"].update(timed)
        run["slowest_ops"] = traced.get("slowest_ops", [])
        run["correct"] = run["correct"] and traced["correct"]
        run["failures"] += [f"traced run: {text}" for text in traced["failures"]]
    return run


def load_declared() -> Dict[str, Dict[str, Any]]:
    """name -> declaration, for every metric BENCHMARK.json lists."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: List[float]) -> Sequence[float]:
    if len(values) < 2:
        return (values[0], values[0], values[0])
    return statistics.quantiles(values, n=4)


def print_runs(workload: str, runs: List[Dict[str, Any]], declared: Dict) -> None:
    first = runs[0]
    print(
        f"\n== {workload}  seed {first['seed']}  runs {len(runs)}  "
        f"{first['ops_attempted']} ops attempted, {first['ops_failed']} failed; "
        f"{first['samples']} latency samples, "
        f"{first['samples_beyond_tail']} beyond {first['tail']}"
    )
    if any(run["noisy"] for run in runs):
        print("   noisy: the box's speed moved more than 10 % inside a window")
    for text in first["failures"]:
        print(f"   failure: {text}")

    def rows(section: str, names: List[str]) -> None:
        print(f"  {section}")
        for name in names:
            values = [run[section][name] for run in runs if name in run[section]]
            unit = declared.get(name, {}).get("unit", "?")
            q1, median, q3 = quartiles(values)
            line = f"    {name:<38} {median:>14.4f} {unit}"
            if len(values) > 1:
                line += f"   (quartiles {q1:.4f} .. {q3:.4f})"
            print(line)

    rows("e2e", list(first["e2e"]))
    rows("layers", sorted(first["layers"]))


def contract_line(run: Dict[str, Any], trace: int, declared: Dict) -> str:
    """The benchmark driver's result object.

    With ``--trace 1`` every declared per-layer metric is present; one a
    workload has no data for reads 0 here (the ladder itself omits it).
    """
    if trace:
        measured = run["layers"]
        names = [n for n, m in declared.items() if "bound" not in m]
    else:
        measured = run["e2e"]
        names = [n for n, m in declared.items() if "bound" in m]
    metrics = {
        name: {"value": measured.get(name, 0), "unit": declared[name]["unit"]}
        for name in names
    }
    return json.dumps(
        {
            "correct": run["correct"],
            "attempted": run["ops_attempted"],
            "failed": run["ops_failed"],
            "metrics": metrics,
        }
    )


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--traced", action="store_true",
                        help="add a traced run for the timed per-layer numbers")
    parser.add_argument("--quick", action="store_true",
                        help="1 warm-up + 2 cycles; 25 sequences per alphabet")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="runs per workload; prints median and quartiles")
    parser.add_argument("--out", metavar="F", help="write every run as JSON")
    parser.add_argument("--seconds", type=int, default=NOMINAL_SECONDS,
                        help=f"scale op counts by seconds/{NOMINAL_SECONDS}")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: print the contract's JSON object last")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        print(f"no program to measure: {REPO_ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    if args.trace is not None:
        if args.workload is None:
            print("--trace needs --workload", file=sys.stderr)
            return 2
        args.traced = bool(args.trace)
    declared = load_declared()
    names = [args.workload] if args.workload else list(WORKLOADS)
    report: Dict[str, Any] = {
        "schema": 1, "seed": args.seed, "nproc": os.cpu_count(), "workloads": {},
    }
    correct = True
    for workload in names:
        runs = [run_once(workload, args) for _ in range(args.repeat)]
        correct = correct and all(run["correct"] for run in runs)
        print_runs(workload, runs, declared)
        report["workloads"][workload] = {"runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    if args.trace is not None:
        print(contract_line(runs[-1], args.trace, declared))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
