"""Shard compilation and the multiprocess campaign executor.

``build_shards`` compiles a :class:`CampaignSpec` into a deterministic,
ordered list of work units; ``run_campaign`` executes them -- inline for
``workers <= 1``, across a ``ProcessPoolExecutor`` otherwise -- and hands
the ordered results to the aggregator.

Seed partitioning: unpinned phases (conformance, crash, fuzz) give shard
``k`` the seed ``base_seed + k * SEED_STRIDE``, so no two shards ever
draw overlapping per-sequence seeds and the result set is identical for
any worker count.  Fault-matrix shards instead carry the pinned
known-detecting seeds from :mod:`repro.campaign.fault_matrix`.

The time budget is best-effort: once ``budget_seconds`` is exhausted no
new shard is dispatched (running shards finish), and undispatched shards
are recorded as skipped in the artifact.  Byte-identical reruns are only
guaranteed when no budget cut occurs.
"""

from __future__ import annotations

import importlib
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Tuple

from .aggregate import CampaignResult, aggregate
from .fault_matrix import fault_matrix_shards
from .spec import (
    KIND_CONFORMANCE,
    KIND_CRASH,
    KIND_FUZZ,
    SHARD_ENTRY,
    SUITE_REGISTRY,
    SUITE_TABLE,
    CampaignSpec,
    ShardFailure,
    ShardResult,
    ShardSpec,
    Suite,
    compiled_rows,
)

#: Seed distance between unpinned shards -- far larger than any
#: per-shard sequence count, so shard seed ranges never overlap.
SEED_STRIDE = 10_000

#: The conformance phase fans out over every (alphabet, harness) pair.
_CONFORMANCE_PLAN: Tuple[Tuple[str, str], ...] = (
    ("store", "store"),
    ("crash", "store"),
    ("failure", "store"),
    ("node", "node"),
    ("store", "model"),
)


def _next_seed(spec: CampaignSpec, shards: List[ShardSpec]) -> int:
    return spec.base_seed + len(shards) * SEED_STRIDE


def _storm_shards(
    spec: CampaignSpec, row: Suite, shards: List[ShardSpec]
) -> None:
    """Append one suite-table row's shards: its plan cycled through
    ``<sizes>_shards`` slots, sized by the row's ``CampaignSpec`` fields,
    with every control of the row's shard kind passed down."""
    params = {
        "trace": spec.trace,
        "sequences": getattr(spec, f"{row.sizes}_sequences"),
        # Storm sequences need room for backlog to accumulate across a
        # latency ramp or burst; point-fault sequences stay short.
        "ops": max(getattr(spec, f"{row.sizes}_ops"), row.min_ops),
    }
    if hasattr(spec, f"{row.sizes}_nodes"):
        params["nodes"] = getattr(spec, f"{row.sizes}_nodes")
    for other in SUITE_TABLE.values():
        if other.kind == row.kind and other.control is not None:
            params[other.control.param] = getattr(spec, other.control.spec_field)
    for index in range(getattr(spec, f"{row.sizes}_shards")):
        shards.append(
            ShardSpec.make(
                len(shards),
                row.kind,
                _next_seed(spec, shards),
                **row.plan[index % len(row.plan)],
                **params,
            )
        )


def _base_shards(spec: CampaignSpec) -> List[ShardSpec]:
    """The ``full`` suite's non-storm phases: conformance, crash, fuzz and
    the Fig. 5 fault matrix."""
    shards: List[ShardSpec] = []

    def next_seed() -> int:
        return _next_seed(spec, shards)

    for alphabet, harness in _CONFORMANCE_PLAN:
        for _ in range(spec.conformance_shards_per_alphabet):
            # Coverage is traced on the first store-alphabet shard only:
            # sys.settrace costs ~10x, and one shard suffices for the
            # blind-spot statistics (section 4.2).
            coverage = (
                spec.coverage
                and alphabet == "store"
                and harness == "store"
                and not any(
                    s.param("coverage") for s in shards
                )
            )
            shards.append(
                ShardSpec.make(
                    len(shards),
                    KIND_CONFORMANCE,
                    next_seed(),
                    alphabet=alphabet,
                    harness=harness,
                    sequences=spec.sequences_per_shard,
                    ops=spec.ops_per_sequence,
                    coverage=coverage,
                    trace=spec.trace,
                )
            )
    for _ in range(spec.crash_shards):
        shards.append(
            ShardSpec.make(
                len(shards),
                KIND_CRASH,
                next_seed(),
                sequences=2,
                prefix_ops=spec.crash_prefix_ops,
                max_states=spec.crash_max_states,
                trace=spec.trace,
            )
        )
    from repro.serialization.fuzz import standard_decoders

    for name, _ in standard_decoders():
        shards.append(
            ShardSpec.make(
                len(shards),
                KIND_FUZZ,
                next_seed(),
                decoder=name,
                iterations=spec.fuzz_iterations,
                exhaustive_len=spec.fuzz_exhaustive_len,
            )
        )
    if spec.fault_matrix:
        shards.extend(fault_matrix_shards(spec, len(shards)))
    return shards


def build_shards(spec: CampaignSpec) -> List[ShardSpec]:
    """Compile the campaign into its ordered, deterministic shard list."""
    storm_only = bool(SUITE_REGISTRY[spec.suite].kind)
    shards = [] if storm_only else _base_shards(spec)
    for row in compiled_rows(spec.suite):
        _storm_shards(spec, row, shards)
    return shards


def execute_shard(spec: ShardSpec) -> Tuple[ShardResult, float]:
    """Top-level (picklable) dispatch: run one shard, timing it.

    Checker exceptions are converted into a failure result rather than
    poisoning the pool -- a crashed checker is a campaign finding, not a
    campaign crash.
    """
    start = time.monotonic()
    try:
        if spec.kind not in SHARD_ENTRY:
            raise ValueError(f"unknown shard kind {spec.kind!r}")
        run_shard = importlib.import_module(SHARD_ENTRY[spec.kind]).run_shard
        result = run_shard(spec)
    except Exception as exc:  # noqa: BLE001 - shard isolation boundary
        result = ShardResult(
            shard_id=spec.shard_id,
            kind=spec.kind,
            seed=spec.seed,
            failures=[
                ShardFailure(
                    kind=spec.kind,
                    seed=spec.seed,
                    detail=(
                        f"checker crashed: {type(exc).__name__}: {exc}\n"
                        + traceback.format_exc(limit=4)
                    ),
                    fault=spec.param("fault"),
                )
            ],
            fault=spec.param("fault"),
        )
    return result, time.monotonic() - start


def run_campaign(
    spec: CampaignSpec,
    *,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Run every shard of the campaign and aggregate the results."""
    emit = log or (lambda message: None)
    shards = build_shards(spec)
    emit(
        f"campaign[{spec.profile}]: {len(shards)} shards on "
        f"{spec.workers} worker(s), base seed {spec.base_seed}"
    )
    start = time.monotonic()
    results: Dict[int, ShardResult] = {}
    durations: Dict[int, float] = {}

    def over_budget() -> bool:
        return (
            spec.budget_seconds is not None
            and time.monotonic() - start >= spec.budget_seconds
        )

    def skip(shard: ShardSpec) -> None:
        results[shard.shard_id] = ShardResult(
            shard_id=shard.shard_id,
            kind=shard.kind,
            seed=shard.seed,
            skipped=True,
            fault=shard.param("fault"),
            detector=shard.param("detector", ""),
        )
        durations[shard.shard_id] = 0.0

    if spec.workers <= 1:
        for shard in shards:
            if over_budget():
                skip(shard)
                continue
            results[shard.shard_id], durations[shard.shard_id] = (
                execute_shard(shard)
            )
    else:
        queue = deque(shards)
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            inflight: Dict = {}
            while queue or inflight:
                if over_budget() and queue:
                    for shard in queue:
                        skip(shard)
                    queue.clear()
                while queue and len(inflight) < spec.workers * 2:
                    shard = queue.popleft()
                    inflight[pool.submit(execute_shard, shard)] = shard
                if not inflight:
                    continue
                done, _ = wait(
                    set(inflight), timeout=0.25, return_when=FIRST_COMPLETED
                )
                for future in done:
                    shard = inflight.pop(future)
                    result, duration = future.result()
                    results[shard.shard_id] = result
                    durations[shard.shard_id] = duration
    wall_clock = time.monotonic() - start
    ordered = [results[shard.shard_id] for shard in shards]
    outcome = aggregate(spec, ordered, wall_clock, durations)
    emit(
        f"campaign[{spec.profile}]: {outcome.total_cases} cases in "
        f"{wall_clock:.1f}s ({outcome.cases_per_second:.0f} cases/sec), "
        f"{'PASS' if outcome.passed else 'FAIL'}"
    )
    return outcome
