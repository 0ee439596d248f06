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
the unpinned conformance phase.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.shardstore.faults import Fault, detector_for

if TYPE_CHECKING:
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
    Fault.UUID_MAGIC_COLLISION_SCAN: ("crash", 174, 0.25),
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
    from repro.core.conformance import run_shard as conformance_run_shard

    return conformance_run_shard(spec)


def _run_mc_shard(spec: "ShardSpec") -> "ShardResult":
    """Stateless model checking of one injected concurrency fault."""
    from repro.concurrency import model
    from repro.core.concurrent_harnesses import HARNESSES
    from repro.shardstore.faults import FaultSet, component_of
    from repro.shardstore.observability import RingRecorder

    from .spec import ShardFailure, ShardResult

    factory_fn = HARNESSES[spec.param("harness")]
    fault = Fault[spec.param("fault")]
    # Model-checked harnesses replay thousands of schedules; rather than
    # trace every execution, the shard recorder logs the exploration itself
    # plus the armed fault, so traced artifacts stay deterministic and
    # bounded while every matrix row still carries observability evidence.
    recorder = RingRecorder() if spec.param("trace", False) else None
    if recorder is not None:
        recorder.event(
            "mc.explore",
            harness=spec.param("harness"),
            strategy=spec.param("strategy", "pct"),
            iterations=spec.param("iterations", 200),
        )
        recorder.fault_event(fault, component_of(fault), "armed for this shard")
    result = model(
        factory_fn(FaultSet.only(fault), spec.param("harness_seed", 0)),
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
        if recorder is not None:
            recorder.event(
                "mc.violation",
                failure=type(result.failure).__name__,
                executions=result.executions,
            )
        snap = recorder.snapshot() if recorder is not None else None
        failures.append(
            ShardFailure(
                kind=spec.kind,
                seed=spec.seed,
                detail=detail,
                fault=fault.name,
                trace=snap["trace"] if snap else None,
                fault_events=snap["fault_events"] if snap else None,
            )
        )
    shard_snap = recorder.snapshot() if recorder is not None else None
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
        metrics=shard_snap["metrics"] if shard_snap else None,
        fault_events=shard_snap["fault_events"] if shard_snap else None,
        trace=shard_snap["trace"] if shard_snap else None,
    )
