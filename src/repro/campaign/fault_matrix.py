"""The Fig. 5 fault-injection matrix as independent campaign work units.

Each of the paper's 16 issues is re-injected (via
:class:`repro.shardstore.faults.Fault`) and hunted by the checker the
paper attributes it to.  Every fault is one :class:`ShardSpec`, so a
campaign runs the whole matrix in parallel and the aggregated artifact
carries a machine-readable Fig. 5 (rendered back to the paper's table by
``repro fig5 --from-artifact``).

Seeds here are *pinned to the known-detecting region* -- the same pinning
as ``benchmarks/test_fig5_detection_matrix.py``, which imports its plans
from this module -- so the matrix completes in smoke time regardless of
the campaign's base seed.  The pay-as-you-go behaviour (any seed finds
the same bugs, given budget) is exercised by the throughput benchmark and
the unpinned conformance phase.  A fault that random sequences do not
reach on this substrate is hunted by a directed sequence instead
(:data:`DIRECTED_PLAN`), replayed with the fault on and off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.shardstore.faults import Fault, detector_for

if TYPE_CHECKING:
    from repro.core.alphabet import Operation

    from .spec import CampaignSpec, ShardResult, ShardSpec

#: fault -> (alphabet name, pinned base seed, uuid magic bias).  Hunted by
#: conformance/crash-consistency PBT over a single-store harness.
PBT_PLAN: Dict[Fault, Tuple[str, int, float]] = {
    Fault.RECLAIM_OFF_BY_ONE: ("store", 42, 0.0),
    Fault.CACHE_NOT_DRAINED_ON_RESET: ("store", 0, 0.0),
    Fault.SHUTDOWN_SKIPS_METADATA_AFTER_RESET: ("store", 23, 0.0),
    Fault.RECLAIM_FORGETS_ON_READ_ERROR: ("failure", 394, 0.0),
    Fault.SUPERBLOCK_WRONG_DEP_AFTER_REBOOT: ("crash", 0, 0.0),
    Fault.SOFT_HARD_POINTER_MISMATCH_ON_RESET: ("crash", 20, 0.0),
    Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP: ("crash", 0, 0.0),
    Fault.MODEL_STALE_AFTER_CRASH_RECLAIM: ("crash", 3, 0.0),
}

#: fault -> (harness seed, uuid magic bias, ops as ``(name, *args)``).  A
#: directed sequence, replayed on a store harness with the fault on and
#: off: detected when the fault-on replay fails and the fault-off one
#: passes.
DIRECTED_PLAN: Dict[Fault, Tuple[int, float, Tuple[Tuple[Any, ...], ...]]] = {
    # Section 5's scenario.  T's frame ends 2 bytes past page 640; after
    # the crash recovery adopts min(published 642, hard 640) = 640 as the
    # write pointer, B lands there, and B's magic completes T's trailing
    # UUID.  The sequential-only scan reads T's frame across B and never
    # finds B, so the reset of extent 4 drops a live chunk.
    Fault.UUID_MAGIC_COLLISION_SCAN: (
        0,
        1.0,
        (
            ("Put", b"k0", bytes(303)),
            ("Put", b"T", bytes(199)),
            ("DirtyReboot", False, True, 10),
            ("Put", b"B", bytes(50)),
            *(("Put", b"f%d" % i, bytes(400)) for i in range(12)),
            ("FlushIndex",),
            ("PumpIo", 60),
            ("FlushSuperblock",),
            ("PumpIo", 60),
            ("Reclaim", 4),
            ("Get", b"B"),
        ),
    ),
}

#: fault -> (harness name, strategy, explorer iterations, explorer seed,
#: pct steps hint).  Hunted by stateless model checking; the harness
#: itself is seeded separately (``harness_seed`` in the shard params).
MC_PLAN: Dict[Fault, Tuple[str, str, int, int, int]] = {
    Fault.LOCATOR_RACE_WRITE_FLUSH: ("locator-race", "pct", 120, 3, 64),
    Fault.BUFFER_POOL_DEADLOCK: ("buffer-pool", "random", 300, 3, 64),
    Fault.LIST_REMOVE_RACE: ("list-remove", "pct", 120, 3, 64),
    Fault.COMPACTION_RECLAIM_RACE: ("compaction-reclaim", "pct", 300, 3, 128),
    Fault.BULK_CREATE_REMOVE_RACE: ("bulk-race", "pct", 300, 3, 64),
}

#: fault -> conformance harness kind, for the two faults hunted through
#: other harnesses: the node API harness and the reference-model harness.
SPECIAL_PLAN: Dict[Fault, Tuple[str, str, int]] = {
    Fault.DISK_RETURN_DROPS_SHARDS: ("node", "node", 0),
    Fault.MODEL_REUSES_LOCATORS: ("model", "store", 0),
}


def fault_matrix_shards(
    spec: "CampaignSpec", first_shard_id: int
) -> List["ShardSpec"]:
    """Compile the 16-fault matrix into shard specs (one per fault)."""
    from .spec import KIND_FAULT_MATRIX, ShardSpec

    shards: List[ShardSpec] = []
    shard_id = first_shard_id
    for fault in Fault:
        if fault in PBT_PLAN:
            alphabet, seed, bias = PBT_PLAN[fault]
            shards.append(
                ShardSpec.make(
                    shard_id,
                    KIND_FAULT_MATRIX,
                    seed,
                    mode="pbt",
                    fault=fault.name,
                    alphabet=alphabet,
                    harness="store",
                    uuid_bias=bias,
                    sequences=spec.fault_matrix_sequences,
                    ops=80,
                    trace=spec.trace,
                )
            )
        elif fault in DIRECTED_PLAN:
            shards.append(
                ShardSpec.make(
                    shard_id,
                    KIND_FAULT_MATRIX,
                    DIRECTED_PLAN[fault][0],
                    mode="directed",
                    fault=fault.name,
                    trace=spec.trace,
                )
            )
        elif fault in SPECIAL_PLAN:
            harness, alphabet, seed = SPECIAL_PLAN[fault]
            detector = (
                "PBT invariant check (model artifact)"
                if harness == "model"
                else detector_for(fault)
            )
            shards.append(
                ShardSpec.make(
                    shard_id,
                    KIND_FAULT_MATRIX,
                    seed,
                    mode="pbt",
                    fault=fault.name,
                    alphabet=alphabet,
                    harness=harness,
                    detector=detector,
                    sequences=spec.fault_matrix_sequences,
                    ops=60,
                    # Matrix shards pin the node to historical fail-fast
                    # semantics: self-healing must not mask a known bug.
                    retries_disabled=True,
                    trace=spec.trace,
                )
            )
        else:
            harness, strategy, iterations, seed, steps_hint = MC_PLAN[fault]
            shards.append(
                ShardSpec.make(
                    shard_id,
                    KIND_FAULT_MATRIX,
                    seed,
                    mode="mc",
                    fault=fault.name,
                    harness=harness,
                    harness_seed=0,
                    strategy=strategy,
                    iterations=iterations,
                    pct_steps_hint=steps_hint,
                    trace=spec.trace,
                )
            )
        shard_id += 1
    return shards


def run_shard(spec: "ShardSpec") -> "ShardResult":
    """Picklable entry point: hunt one injected fault with its checker."""
    if spec.param("mode") == "mc":
        return _run_mc_shard(spec)
    if spec.param("mode") == "directed":
        return _run_directed_shard(spec)
    from repro.core.conformance import run_shard as conformance_run_shard

    return conformance_run_shard(spec)


def directed_ops(fault: Fault) -> List["Operation"]:
    """The fault's directed sequence as operations."""
    from repro.core.alphabet import Operation

    return [Operation(name, tuple(args)) for name, *args in DIRECTED_PLAN[fault][2]]


def _run_directed_shard(spec: "ShardSpec") -> "ShardResult":
    """Replay one fault's directed sequence with the fault on and off."""
    from repro.core.conformance import StoreHarness
    from repro.shardstore.faults import FaultSet

    from .spec import ShardFailure, ShardResult, observed, shard_recorder

    fault = Fault[spec.param("fault")]
    seed, bias, _ = DIRECTED_PLAN[fault]
    ops = directed_ops(fault)
    faults = FaultSet.only(fault)
    recorder = shard_recorder(
        spec, faults, kind=spec.kind, harness="store", seed=seed
    )
    fault_on = StoreHarness(
        faults, seed, uuid_magic_bias=bias, recorder=recorder
    ).run(ops)
    fault_off = StoreHarness(FaultSet.none(), seed, uuid_magic_bias=bias).run(ops)
    failures: List[ShardFailure] = []
    note = ""
    if fault_off is not None:
        # A fault-free failure confounds the fault-on one: say so rather
        # than report a bare miss.
        note = (
            f"directed {len(ops)}-op sequence, fault-off replay fails: "
            f"{fault_off}"
        )
    elif fault_on is None:
        note = f"directed {len(ops)}-op sequence passes with the fault on"
    else:
        failures.append(
            ShardFailure(
                kind=spec.kind,
                seed=seed,
                detail=(
                    f"directed {len(ops)}-op sequence, fault-off replay "
                    f"passes: {fault_on}"
                ),
                fault=fault.name,
                minimized=[str(op) for op in ops],
                **observed(recorder, metrics=False),
            )
        )
    return ShardResult(
        shard_id=spec.shard_id,
        kind=spec.kind,
        seed=seed,
        cases=2,
        ops=2 * len(ops),
        failures=failures,
        expected_failure=True,
        detector=detector_for(fault),
        fault=fault.name,
        note=note,
        **observed(recorder),
    )


def _run_mc_shard(spec: "ShardSpec") -> "ShardResult":
    """Stateless model checking of one injected concurrency fault."""
    from repro.concurrency import model
    from repro.core.concurrent_harnesses import HARNESSES
    from repro.shardstore.faults import FaultSet

    from .spec import ShardFailure, ShardResult, observed, shard_recorder

    factory_fn = HARNESSES[spec.param("harness")]
    fault = Fault[spec.param("fault")]
    faults = FaultSet.only(fault)
    # Model-checked harnesses replay thousands of schedules; rather than
    # trace every execution, the shard recorder logs the exploration itself
    # plus the armed fault, so traced artifacts stay deterministic and
    # bounded while every matrix row still carries observability evidence.
    recorder = shard_recorder(
        spec,
        faults,
        "mc.explore",
        harness=spec.param("harness"),
        strategy=spec.param("strategy", "pct"),
        iterations=spec.param("iterations", 200),
    )
    result = model(
        factory_fn(faults, spec.param("harness_seed", 0)),
        strategy=spec.param("strategy", "pct"),
        iterations=spec.param("iterations", 200),
        seed=spec.seed,
        pct_steps_hint=spec.param("pct_steps_hint", 64),
    )
    failures: List[ShardFailure] = []
    if not result.passed:
        # Evidence stays deterministic: exception type plus schedule
        # length, never object reprs (which embed addresses).
        detail = (
            f"{type(result.failure).__name__} after "
            f"{result.executions} executions "
            f"({len(result.failing_schedule or [])}-decision schedule)"
        )
        failures.append(
            ShardFailure(
                kind=spec.kind,
                seed=spec.seed,
                detail=detail,
                fault=fault.name,
                **observed(recorder, metrics=False),
            )
        )
    return ShardResult(
        shard_id=spec.shard_id,
        kind=spec.kind,
        seed=spec.seed,
        cases=result.executions,
        ops=result.total_steps,
        failures=failures,
        expected_failure=True,
        detector=detector_for(fault),
        fault=fault.name,
        **observed(recorder),
    )
