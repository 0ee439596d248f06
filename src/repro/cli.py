"""Command-line interface: run the validation suites from a shell.

The paper's checks are "pay-as-you-go": run them longer to find more, both
on a laptop during development and at scale before deployments.  This CLI
is that knob — each subcommand is one checker with its budget exposed:

    python -m repro conformance --alphabet crash --sequences 500
    python -m repro conformance --fault CACHE_WRITE_MISSING_SOFT_PTR_DEP --minimize
    python -m repro mc --harness compaction-reclaim --strategy pct --iterations 300
    python -m repro fuzz --iterations 20000
    python -m repro verify-models --depth 4
    python -m repro fig5
    python -m repro loc
    python -m repro campaign --smoke --trace --output out.json
    python -m repro stats --from-artifact out.json
    python -m repro trace --from-artifact out.json
    python -m repro bench --workload mixed --ops 2000 --seed 7 --output bench.json
    python -m repro bench --workload mixed --journal ops.jsonl
    python -m repro check-trace ops.jsonl --require-seal
    python -m repro invariants ops.jsonl other.jsonl
    python -m repro metrics-serve --port 9464

Exit status is 0 when every check passed and 1 when any found an issue,
so the commands drop straight into CI gates.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _parse_fault(name: Optional[str]):
    from repro.shardstore import Fault, FaultSet

    if name is None:
        return FaultSet.none()
    try:
        return FaultSet.only(Fault[name])
    except KeyError:
        valid = ", ".join(f.name for f in Fault)
        raise SystemExit(f"unknown fault {name!r}; one of: {valid}")


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.core import (
        BiasConfig,
        NodeHarness,
        StoreHarness,
        minimize,
        replay_fails,
        run_conformance,
    )
    from repro.core.alphabet import ALPHABETS

    faults = _parse_fault(args.fault)
    bias = BiasConfig.unbiased() if args.unbiased else BiasConfig()
    alphabet = ALPHABETS[args.alphabet]()
    if args.alphabet == "node":
        factory = lambda seed: NodeHarness(faults, seed)  # noqa: E731
        ctx = {"num_disks": 3}
    else:
        factory = lambda seed: StoreHarness(  # noqa: E731
            faults, seed, uuid_magic_bias=args.uuid_bias
        )
        ctx = None
    report = run_conformance(
        factory,
        alphabet,
        sequences=args.sequences,
        ops_per_sequence=args.ops,
        bias=bias,
        base_seed=args.seed,
        ctx_kwargs=ctx,
    )
    print(
        f"{report.sequences_run} sequences x {args.ops} ops "
        f"({report.ops_run} operations total)"
    )
    if report.passed:
        print("PASS: no conformance violation found")
        return 0
    print(f"FAIL: {report.failure}")
    print(f"  failing seed: {report.failing_seed}")
    if args.minimize:
        fails = replay_fails(factory, report.failing_seed)
        reduced, stats = minimize(report.failing_sequence, fails)
        print(
            f"  minimized {stats.initial_ops} -> {stats.final_ops} ops "
            f"({stats.candidates_tried} candidates):"
        )
        for op in reduced:
            print(f"    {op}")
    return 1


def _cmd_mc(args: argparse.Namespace) -> int:
    from repro.concurrency import model
    from repro.core.concurrent_harnesses import HARNESSES

    factory_fn = HARNESSES[args.harness]
    faults = _parse_fault(args.fault)
    result = model(
        factory_fn(faults, args.harness_seed),
        strategy=args.strategy,
        iterations=args.iterations,
        seed=args.seed,
        pct_steps_hint=args.pct_steps_hint,
        max_executions=args.iterations if args.strategy == "dfs" else 20_000,
    )
    print(
        f"{result.executions} executions, {result.total_steps} scheduling "
        f"decisions, exhausted={result.exhausted}"
    )
    if result.passed:
        print("PASS: no failing interleaving found")
        return 0
    print(f"FAIL: {result.failure}")
    print(f"  failing schedule: {len(result.failing_schedule)} decisions")
    return 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.serialization.fuzz import (
        check_exhaustive,
        check_fuzz,
        standard_corpus,
        standard_decoders,
    )

    status = 0
    for name, decoder in standard_decoders():
        exhaustive = check_exhaustive(decoder, max_len=args.exhaustive_len, name=name)
        fuzz = check_fuzz(
            decoder,
            iterations=args.iterations,
            seed=args.seed,
            corpus=standard_corpus(),
            name=name,
        )
        verdict = "PASS" if exhaustive.passed and fuzz.passed else "FAIL"
        print(
            f"{verdict} {name}: exhaustive<= {args.exhaustive_len}B "
            f"({exhaustive.inputs_tried} inputs), fuzz {fuzz.inputs_tried} "
            f"inputs ({fuzz.decoded_ok} ok / {fuzz.rejected} rejected)"
        )
        for report in (exhaustive, fuzz):
            if not report.passed:
                print(f"  panic on {report.panic_input!r}: {report.panic!r}")
                status = 1
    return status


def _cmd_verify_models(args: argparse.Namespace) -> int:
    from repro.core.model_verify import verify_chunkstore_model, verify_kv_model

    status = 0
    for name, result in [
        ("kv-model", verify_kv_model(depth=args.depth)),
        ("chunkstore-model", verify_chunkstore_model(depth=args.depth + 1)),
    ]:
        if result.verified:
            print(
                f"PASS {name}: {result.sequences_checked} sequences to depth "
                f"{result.max_depth}"
            )
        else:
            print(f"FAIL {name}: {result.message}")
            print(f"  counterexample: {[str(op) for op in result.counterexample]}")
            status = 1
    return status


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.core import detection_matrix

    if args.from_artifact:
        import json

        from repro.core import outcomes_from_campaign

        try:
            with open(args.from_artifact, "r", encoding="utf-8") as handle:
                artifact = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"cannot load artifact {args.from_artifact}: {exc}")
            return 2
        outcomes = outcomes_from_campaign(artifact)
        if not outcomes:
            print(f"no fault_matrix section in {args.from_artifact}")
            return 2
    else:
        from repro.campaign import fault_matrix_shards, smoke_spec
        from repro.campaign.fault_matrix import run_shard
        from repro.core import DetectionOutcome
        from repro.shardstore import Fault

        outcomes = []
        for shard in fault_matrix_shards(smoke_spec(), 0):
            result = run_shard(shard)
            outcomes.append(
                DetectionOutcome(
                    fault=Fault[result.fault],
                    detected=result.detected,
                    detector=result.detector,
                    evidence=(
                        result.failures[0].detail if result.failures else ""
                    ),
                    sequences_or_executions=result.cases,
                )
            )
    print(detection_matrix(outcomes))
    return 0 if all(outcome.detected for outcome in outcomes) else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    import json

    from repro.campaign import CampaignSpec, run_campaign, smoke_spec
    from repro.campaign.spec import SUITE_TABLE, control_suites
    from repro.core import campaign_summary

    controls = {}
    for row in SUITE_TABLE.values():
        control = row.control
        if control is None or not getattr(args, control.dest):
            continue
        suites = control_suites(row)
        if args.suite not in suites:
            # A control with no shards to act on would read as "the
            # control did not matter".
            print(
                f"{control.flag} has no effect on --suite {args.suite}: "
                f"it applies to --suite {', '.join(suites)}"
            )
            return 2
        controls[control.spec_field] = control.value
    make_spec = smoke_spec if args.smoke else CampaignSpec
    spec = make_spec(
        workers=args.workers,
        base_seed=args.seed,
        budget_seconds=args.budget_seconds,
        trace=args.trace,
        suite=args.suite,
        **controls,
    )
    result = run_campaign(spec, log=print)
    artifact = result.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
            handle.write("\n")
        print(f"artifact written to {args.output}")
    print(campaign_summary(artifact))
    return 0 if artifact["passed"] else 1


def _cmd_merkle_scrub(args: argparse.Namespace) -> int:
    """Seed a deterministic store, optionally corrupt it, and prove (or
    repair) its integrity by Merkle root comparison.

    Exit status is the proof: 0 when the store proves intact (after
    repair, if ``--repair``), 1 when divergence remains -- which is how
    the CI job turns the proof into a gate.
    """
    import random

    from repro.shardstore import (
        DiskGeometry,
        FaultSet,
        StoreConfig,
        StoreSystem,
    )

    system = StoreSystem(
        StoreConfig(
            geometry=DiskGeometry(
                num_extents=10, extent_size=2048, page_size=128
            ),
            faults=FaultSet.none(),
        )
    )
    store = system.store
    rng = random.Random(args.seed)
    keys = [b"mk-%02d" % i for i in range(args.keys)]
    for key in keys:
        store.put(key, bytes([rng.randrange(256)]) * (96 + rng.randrange(160)))
    store.flush_index()
    store.drain()
    store.cache.invalidate_all()
    if args.corrupt:
        for key in sorted(rng.sample(keys, k=min(args.corrupt, len(keys)))):
            locators = store.index.get(key)
            assert locators is not None
            system.disk.corrupt(locators[0].extent, locators[0].offset + 8)
            print(f"corrupted one on-disk byte under {key.decode()}")
    report = store.merkle_scrub()
    print(
        f"merkle scrub: {report.keys_checked} keys, "
        f"{report.compared} tree nodes compared, "
        f"expected root {report.expected_root}, "
        f"actual root {report.actual_root}"
    )
    if report.proven:
        print("PROVEN: every live value matches the write-time commitment")
        return 0
    print(
        "DIVERGENT: "
        + ", ".join(key.decode() for key in report.diverging)
    )
    if args.repair:
        repair = store.scrub_repair(merkle=True)
        after = repair.merkle_after
        print(
            f"repair: {len(repair.repaired)} repaired, "
            f"{len(repair.quarantined)} quarantined, "
            f"root now {after.actual_root if after else '?'}"
        )
        if repair.proven:
            print("PROVEN after repair")
            return 0
    return 1


def _load_artifact(path: str):
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot load artifact {path}: {exc}")
        return None


def _demo_snapshot(seed: int):
    """Run a small traced workload and return the recorder snapshot.

    Backs ``repro stats`` / ``repro trace`` when no artifact is given: a
    deterministic put/get/delete/flush/reboot exercise over a fresh store
    with tracing on, so the commands are usable without a campaign run.
    """
    import random

    from repro.core.alphabet import BiasConfig, store_alphabet
    from repro.core.conformance import StoreHarness
    from repro.shardstore import FaultSet, RingRecorder

    recorder = RingRecorder()
    harness = StoreHarness(FaultSet.none(), seed, recorder=recorder)
    ops = store_alphabet().generate_sequence(
        random.Random(seed), 40, BiasConfig()
    )
    failure = harness.run(ops)
    if failure is not None:  # pragma: no cover - fault-free demo run
        print(f"demo workload diverged: {failure}")
    return recorder.snapshot()


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.shardstore.observability import (
        render_fault_events,
        render_metrics,
    )

    if args.from_artifact:
        artifact = _load_artifact(args.from_artifact)
        if artifact is None:
            return 2
        metrics = artifact.get("metrics")
        if not metrics:
            print(
                f"no metrics section in {args.from_artifact} "
                "(rerun the campaign with --trace)"
            )
            return 2
        events = []
        for row in artifact.get("fault_matrix", []):
            events.extend(row.get("fault_events") or [])
        if args.json:
            json.dump(
                {"metrics": metrics, "fault_events": events},
                sys.stdout,
                indent=2,
            )
            print()
            return 0
        print(render_metrics(metrics))
        if events:
            print()
            print("fault events (fault matrix):")
            print(render_fault_events(events))
        return 0
    snapshot = _demo_snapshot(args.seed)
    if args.json:
        json.dump(
            {
                "metrics": snapshot["metrics"],
                "fault_events": snapshot["fault_events"],
            },
            sys.stdout,
            indent=2,
        )
        print()
        return 0
    print(render_metrics(snapshot["metrics"]))
    print()
    print("fault events:")
    print(render_fault_events(snapshot["fault_events"]))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.shardstore.observability import (
        filter_trace,
        render_fault_events,
        render_trace,
    )

    def narrowed(events):
        if args.component is None and args.op is None:
            return list(events)
        return filter_trace(events, component=args.component, op=args.op)

    if args.from_artifact:
        artifact = _load_artifact(args.from_artifact)
        if artifact is None:
            return 2
        if not artifact.get("traced"):
            print(
                f"{args.from_artifact} was not traced "
                "(rerun the campaign with --trace)"
            )
            return 2
        sections = 0
        json_out = {"failures": [], "fault_matrix": []}
        for failure in artifact.get("failures", []):
            if failure.get("trace") is None:
                continue
            sections += 1
            if args.json:
                json_out["failures"].append(
                    {**failure, "trace": narrowed(failure["trace"])}
                )
                continue
            print(
                f"== failure shard={failure.get('shard_id')} "
                f"seed={failure.get('seed')}: {failure.get('detail')}"
            )
            print(render_trace(narrowed(failure["trace"])))
            if failure.get("fault_events"):
                print("fault events:")
                print(render_fault_events(failure["fault_events"]))
            print()
        for row in artifact.get("fault_matrix", []):
            if args.fault and row.get("fault") != args.fault:
                continue
            if row.get("trace") is None:
                continue
            sections += 1
            if args.json:
                json_out["fault_matrix"].append(
                    {**row, "trace": narrowed(row["trace"])}
                )
                continue
            detected = "detected" if row.get("detected") else "MISSED"
            print(f"== fault #{row['id']} {row['fault']} ({detected})")
            print(render_trace(narrowed(row["trace"])))
            if row.get("fault_events"):
                print("fault events:")
                print(render_fault_events(row["fault_events"]))
            print()
        if not sections:
            print("no trace sections matched")
            return 2
        if args.json:
            json.dump(json_out, sys.stdout, indent=2)
            print()
        return 0
    snapshot = _demo_snapshot(args.seed)
    if args.json:
        json.dump({"trace": narrowed(snapshot["trace"])}, sys.stdout, indent=2)
        print()
        return 0
    print(
        render_trace(
            narrowed(snapshot["trace"]),
            dropped=snapshot.get("trace_dropped", 0),
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.bench import run_bench

    try:
        artifact = run_bench(
            args.workload,
            ops=args.ops,
            value_size=args.value_size,
            seed=args.seed,
            target=args.target,
            num_disks=args.num_disks,
            journal_path=args.journal,
            mutant=args.mutant,
        )
    except ValueError as exc:
        print(f"bench setup error: {exc}")
        return 2
    print(
        f"{args.workload}: {artifact['ops']} ops on {artifact['target']} "
        f"target in {artifact['wall_seconds']:.3f}s "
        f"({artifact['throughput_ops_per_sec']:,.0f} ops/s)"
    )
    if "journal" in artifact:
        journal = artifact["journal"]
        print(
            f"  journal {journal['path']}: {journal['records']:,} records, "
            f"{journal['bytes']:,} bytes, head {journal['head']}"
        )
    if "mutant" in artifact:
        mutant = artifact["mutant"]
        print(
            f"  MUTANT {mutant['name']} active (victim op index "
            f"{mutant['victim_op_index']}); repro check-trace must flag "
            "this journal"
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
            handle.write("\n")
        print(f"artifact written to {args.output}")
    return 0


def _cmd_metrics_serve(args: argparse.Namespace) -> int:
    from repro.bench import serve

    return serve(
        host=args.host,
        port=args.port,
        seed=args.seed,
        num_disks=args.num_disks,
        cluster_nodes=args.cluster,
        warmup_ops=args.warmup_ops,
        ops_per_scrape=args.ops_per_scrape,
        journal_path=args.journal,
    )


def _cmd_check_trace_cluster(args: argparse.Namespace) -> int:
    import json

    from repro.evidence import check_cluster_files
    from repro.shardstore.observability import JournalError

    try:
        report = check_cluster_files(
            list(args.journal), require_seal=args.require_seal
        )
    except JournalError as exc:
        print(f"cannot read cluster journals: {exc}")
        return 2
    verdict = report.to_json()
    if args.json:
        json.dump(verdict, sys.stdout, indent=2)
        print()
        return 0 if verdict["passed"] else 1
    status = "PASS" if verdict["passed"] else "FAIL"
    names = ", ".join(sorted(report.journals))
    print(
        f"{status} cluster replay over {len(report.journals)} journals "
        f"({names}): {report.records} records / {report.ops} router ops"
    )
    print(
        f"  {report.checked} state assertions checked, "
        f"{report.corroborated} replica acks corroborated across node "
        f"journals, {report.crashes} node crashes replayed"
    )
    for violation in verdict["violations"]:
        where = (
            f"op {violation['op']} tick {violation['tick']}"
            if violation.get("op") is not None
            else f"journal {violation.get('node')}"
        )
        print(f"  VIOLATION at {where}: {violation['problem']}")
    if report.violation_count > len(report.violations):
        print(
            f"  ... and {report.violation_count - len(report.violations)} "
            "more violations"
        )
    return 0 if verdict["passed"] else 1


def _cmd_check_trace(args: argparse.Namespace) -> int:
    import json

    from repro.evidence import check_file
    from repro.shardstore.observability import JournalError

    if len(args.journal) > 1:
        # Several journals = one cluster run (router + per-node journals):
        # merged replay under cross-node candidate-set semantics.
        return _cmd_check_trace_cluster(args)
    journal_path = args.journal[0]
    try:
        report = check_file(journal_path, require_seal=args.require_seal)
    except JournalError as exc:
        print(f"cannot read journal {journal_path}: {exc}")
        return 2
    verdict = report.to_json()
    if args.expect_head and report.head != args.expect_head:
        verdict["passed"] = False
        verdict["violations"].append(
            {
                "record": None,
                "problem": (
                    f"chain head {report.head} != expected {args.expect_head}"
                ),
            }
        )
    if args.json:
        json.dump(verdict, sys.stdout, indent=2)
        print()
        return 0 if verdict["passed"] else 1
    status = "PASS" if verdict["passed"] else "FAIL"
    sealed = "sealed" if report.sealed else "UNSEALED"
    print(
        f"{status} {journal_path}: {report.records} records / {report.ops} "
        f"ops replayed against the reference model ({sealed}, head "
        f"{report.head})"
    )
    print(
        f"  {report.checked} state assertions checked, {report.skipped} "
        f"skipped for crash uncertainty, {report.sheds} sheds proven "
        "state-preserving"
    )
    for violation in verdict["violations"]:
        where = (
            f"op {violation['op']} tick {violation['tick']}"
            if violation.get("op") is not None
            else f"record {violation.get('record')}"
        )
        print(f"  VIOLATION at {where}: {violation['problem']}")
    if report.violation_count > len(report.violations):
        print(
            f"  ... and {report.violation_count - len(report.violations)} "
            "more violations"
        )
    return 0 if verdict["passed"] else 1


def _cmd_invariants(args: argparse.Namespace) -> int:
    import json

    from repro.evidence import mine_journals
    from repro.shardstore.observability import JournalError, read_journal

    journals = []
    for path in args.journals:
        try:
            journals.append(read_journal(path))
        except JournalError as exc:
            print(f"cannot read journal {path}: {exc}")
            return 2
    results = mine_journals(journals)
    failed = [
        res for res in results if res.promoted and res.status == "falsified"
    ]
    if args.json:
        json.dump(
            {
                "journals": list(args.journals),
                "passed": not failed,
                "invariants": [res.to_json() for res in results],
            },
            sys.stdout,
            indent=2,
        )
        print()
        return 1 if failed else 0
    print(
        f"mined {len(results)} candidate invariants from "
        f"{len(journals)} journal(s):"
    )
    for res in results:
        tier = "promoted" if res.promoted else "exploratory"
        line = (
            f"  {res.status.upper():<9} {res.name:<22} [{tier}] "
            f"{res.instances:,} instances"
        )
        if res.status == "falsified":
            where = f"op {res.witness_op} tick {res.witness_tick}"
            if res.witness_node:
                where += f" node {res.witness_node}"
            line += f" -- witness {where}: {res.detail}"
        print(line)
    if failed:
        print(f"FAIL: {len(failed)} promoted invariant(s) falsified")
        return 1
    print("PASS: no promoted invariant falsified")
    return 0


def _cmd_loc(args: argparse.Namespace) -> int:
    from repro.core import loc_table

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    print(loc_table(root))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.core.alphabet import ALPHABETS
    from repro.core.concurrent_harnesses import HARNESSES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lightweight-formal-methods validation suites "
        "(SOSP 2021 ShardStore reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    conf = sub.add_parser("conformance", help="property-based conformance checking")
    conf.add_argument("--alphabet", choices=tuple(ALPHABETS), default="store")
    conf.add_argument("--sequences", type=int, default=100)
    conf.add_argument("--ops", type=int, default=80)
    conf.add_argument("--seed", type=int, default=0)
    conf.add_argument("--fault", help="inject one Fault by name")
    conf.add_argument("--uuid-bias", type=float, default=0.0)
    conf.add_argument("--unbiased", action="store_true")
    conf.add_argument("--minimize", action="store_true")
    conf.set_defaults(fn=_cmd_conformance)

    mc = sub.add_parser("mc", help="stateless model checking")
    mc.add_argument("--harness", choices=tuple(HARNESSES), required=True)
    mc.add_argument("--strategy", choices=("dfs", "random", "pct"), default="pct")
    mc.add_argument("--iterations", type=int, default=200)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument(
        "--harness-seed",
        type=int,
        default=0,
        help="seed for the harness's own state (explorer seed is --seed)",
    )
    mc.add_argument("--pct-steps-hint", type=int, default=128)
    mc.add_argument("--fault", help="inject one Fault by name")
    mc.set_defaults(fn=_cmd_mc)

    campaign = sub.add_parser(
        "campaign",
        help="parallel validation campaign (all checkers, JSON artifact)",
    )
    campaign.add_argument(
        "--workers", type=int, default=2, help="process-pool size"
    )
    campaign.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="stop dispatching new shards after this many seconds",
    )
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--output", help="write the JSON artifact here")
    campaign.add_argument(
        "--smoke",
        action="store_true",
        help="per-commit CI profile: small budgets, every phase",
    )
    campaign.add_argument(
        "--trace",
        action="store_true",
        help="record per-shard metrics, fault events, and op traces in "
        "the artifact (schema v2 observability sections)",
    )
    from repro.campaign.spec import SUITE_REGISTRY, SUITE_TABLE

    campaign.add_argument(
        "--suite",
        choices=tuple(SUITE_REGISTRY),
        default="full",
        help="; ".join(
            f"'{name}': {row.blurb}" for name, row in SUITE_REGISTRY.items()
        ),
    )
    for row in SUITE_TABLE.values():
        if row.control is not None:
            campaign.add_argument(
                row.control.flag, action="store_true", help=row.control.help
            )
    campaign.set_defaults(fn=_cmd_campaign)

    merkle = sub.add_parser(
        "merkle-scrub",
        help="prove store integrity by Merkle root comparison "
        "(exit 0 = proven)",
    )
    merkle.add_argument("--seed", type=int, default=0)
    merkle.add_argument(
        "--keys", type=int, default=12, help="keys to seed the store with"
    )
    merkle.add_argument(
        "--corrupt",
        type=int,
        default=0,
        metavar="N",
        help="flip one on-disk byte under N keys before scrubbing",
    )
    merkle.add_argument(
        "--repair",
        action="store_true",
        help="run the Merkle-mode scrub-repair and re-prove afterwards",
    )
    merkle.set_defaults(fn=_cmd_merkle_scrub)

    stats = sub.add_parser(
        "stats", help="render observability metrics and fault events"
    )
    stats.add_argument(
        "--from-artifact",
        help="read the merged metrics block from a traced campaign artifact",
    )
    stats.add_argument(
        "--seed", type=int, default=0, help="seed for the live demo workload"
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the human tables",
    )
    stats.set_defaults(fn=_cmd_stats)

    trace = sub.add_parser(
        "trace", help="render recorded op traces (spans, events, faults)"
    )
    trace.add_argument(
        "--from-artifact",
        help="render failure and fault-matrix traces from a traced "
        "campaign artifact",
    )
    trace.add_argument(
        "--fault", help="only render the matrix row for this Fault name"
    )
    trace.add_argument(
        "--component",
        help="only show entries for one component (e.g. disk, lsm, cache, "
        "sched, node, op)",
    )
    trace.add_argument(
        "--op",
        metavar="NAME",
        help="only show top-level spans with this name (e.g. put, get) "
        "and everything nested inside them",
    )
    trace.add_argument(
        "--seed", type=int, default=0, help="seed for the live demo workload"
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the rendered trace",
    )
    trace.set_defaults(fn=_cmd_trace)

    bench = sub.add_parser(
        "bench",
        help="deterministic workload driver: evidence journals plus an "
        "op/outcome count artifact (wall-clock questions go to "
        "benchmarks/ladder)",
    )
    from repro.bench.workloads import WORKLOADS as _WORKLOADS

    bench.add_argument("--workload", choices=_WORKLOADS, required=True)
    bench.add_argument("--ops", type=int, default=2000)
    bench.add_argument("--value-size", type=int, default=64)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--target",
        choices=("store", "node"),
        default=None,
        help="system under test (default: per-workload; reclaim-churn and "
        "crash-recover use the single-disk store)",
    )
    bench.add_argument("--num-disks", type=int, default=3)
    bench.add_argument("--output", help="write the JSON artifact here")
    from repro.bench.harness import MUTANTS as _MUTANTS

    bench.add_argument(
        "--journal",
        metavar="PATH",
        help="stream every op into a chained JSONL evidence journal "
        "(deterministic bytes; feed it to repro check-trace / invariants)",
    )
    bench.add_argument(
        "--mutant",
        choices=_MUTANTS,
        default=None,
        help="seed an implementation bug whose journal still looks honest; "
        "the negative control for repro check-trace (requires --journal)",
    )
    bench.set_defaults(fn=_cmd_bench)

    metrics_serve = sub.add_parser(
        "metrics-serve",
        help="serve live Prometheus metrics from a demo storage node",
    )
    metrics_serve.add_argument("--host", default="127.0.0.1")
    metrics_serve.add_argument("--port", type=int, default=9464)
    metrics_serve.add_argument("--seed", type=int, default=0)
    metrics_serve.add_argument("--num-disks", type=int, default=3)
    metrics_serve.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="N",
        help="serve a quorum cluster of N storage nodes instead of a "
        "single node: per-node {node=...} labeled series on /metrics, "
        "cluster quorum roll-up on /healthz, deterministic partition "
        "storms every few scrapes",
    )
    metrics_serve.add_argument(
        "--warmup-ops",
        type=int,
        default=400,
        help="mixed-workload ops applied before serving",
    )
    metrics_serve.add_argument(
        "--ops-per-scrape",
        type=int,
        default=25,
        help="fresh traffic applied on every /metrics scrape",
    )
    metrics_serve.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="also persist the live op journal here (it is always kept "
        "in memory for the /metrics evidence gauges)",
    )
    metrics_serve.set_defaults(fn=_cmd_metrics_serve)

    check_trace = sub.add_parser(
        "check-trace",
        help="replay an op journal against the reference model "
        "(trace-conformance evidence)",
    )
    check_trace.add_argument(
        "journal",
        nargs="+",
        help="journal JSONL path(s); several paths are replayed together "
        "as one cluster run (router + per-node journals, merged "
        "candidate-set semantics)",
    )
    check_trace.add_argument(
        "--require-seal",
        action="store_true",
        help="treat a missing seal record (truncated tail) as a violation",
    )
    check_trace.add_argument(
        "--expect-head",
        metavar="DIGEST",
        help="also require the chain head to equal this digest (binds the "
        "journal to a bench/campaign artifact)",
    )
    check_trace.add_argument(
        "--json", action="store_true", help="emit the verdict as JSON"
    )
    check_trace.set_defaults(fn=_cmd_check_trace)

    invariants = sub.add_parser(
        "invariants",
        help="mine Daikon-style candidate invariants from op journals",
    )
    invariants.add_argument(
        "journals", nargs="+", help="journal JSONL path(s)"
    )
    invariants.add_argument(
        "--json", action="store_true", help="emit results as JSON"
    )
    invariants.set_defaults(fn=_cmd_invariants)

    fuzz = sub.add_parser("fuzz", help="deserializer panic-freedom checking")
    fuzz.add_argument("--iterations", type=int, default=10_000)
    fuzz.add_argument("--exhaustive-len", type=int, default=2)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.set_defaults(fn=_cmd_fuzz)

    verify = sub.add_parser(
        "verify-models", help="bounded-exhaustive reference-model verification"
    )
    verify.add_argument("--depth", type=int, default=4)
    verify.set_defaults(fn=_cmd_verify_models)

    fig5 = sub.add_parser("fig5", help="regenerate the Fig. 5 detection matrix")
    fig5.add_argument(
        "--from-artifact",
        help="rebuild the table from a campaign JSON artifact instead of "
        "re-running the hunts",
    )
    fig5.set_defaults(fn=_cmd_fig5)

    loc = sub.add_parser("loc", help="regenerate the Fig. 6 lines-of-code table")
    loc.add_argument("--root")
    loc.set_defaults(fn=_cmd_loc)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
