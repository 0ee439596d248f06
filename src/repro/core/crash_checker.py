"""Crash-state exploration beyond the coarse DirtyReboot (section 5).

The default crash-consistency checking lives in
:class:`~repro.core.conformance.StoreHarness`: ``DirtyReboot(RebootType)``
operations choose component flushes and a writeback budget, which is the
paper's coarse-but-scalable approach.

This module adds the paper's *block-level* variant (compared to BOB and
CrashMonkey in section 5): from a given point in a history, exhaustively
enumerate the crash states reachable by any writeback order -- every
dependency-respecting subset of the pending IO queue -- and run the
persistence check in each.  The paper found this "has not found additional
bugs and is dramatically slower", and keeps it off by default; the
benchmark ``benchmarks/test_sec5_block_level_tradeoff.py`` reproduces that
comparison against :func:`coarse_crash_states`, which samples pump budgets
the way one ``DirtyReboot`` draws its own.

Both explorers visit a state through :func:`_crash_here`, the op's own
path without its journal record: ``StoreSystem.snapshot``, then
``StoreSystem.crash`` (``DirtyReboot``'s flushes, pump, drop and recovery),
then ``StoreHarness.persistence_violation`` (``DirtyReboot``'s check), then
``StoreSystem.restore``.  The block-level DFS branches over
``pump_one(extent)`` choices under the same snapshot and restore, with
states deduplicated by their durable-record set
(``DurabilityTracker.durable_key``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Optional, Set

from repro.shardstore.store import RebootType, StoreSystem

from .conformance import StoreHarness

if TYPE_CHECKING:
    from repro.campaign.spec import ShardResult, ShardSpec


@dataclass
class CrashExplorationResult:
    """Outcome of block-level crash-state enumeration."""

    states_explored: int = 0
    states_deduplicated: int = 0
    truncated: bool = False  # hit the state budget
    violation: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.violation is None


def explore_block_level(
    harness: StoreHarness, *, max_states: int = 512
) -> CrashExplorationResult:
    """Enumerate reachable crash states from the harness's current point.

    Every visited state corresponds to one dependency-respecting prefix of
    writeback choices; for each, the real recovery path runs and the
    section 5 persistence property is checked.  The harness is restored to
    its pre-exploration state before returning.
    """
    system = harness.system
    result = CrashExplorationResult()
    seen: Set[Hashable] = set()

    def dfs() -> Optional[str]:
        if not _new_state(system, seen, result, max_states):
            return None
        violation = _crash_here(harness, RebootType(pump=0))
        if violation is not None:
            return violation
        for extent in system.store.scheduler.eligible_extents():
            saved = system.snapshot()
            system.store.scheduler.pump_one(extent)
            violation = dfs()
            system.restore(saved)
            if violation is not None:
                return violation
        return None

    result.violation = dfs()
    return result


def _new_state(
    system: StoreSystem,
    seen: Set[Hashable],
    result: CrashExplorationResult,
    max_states: int,
) -> bool:
    """Count the current pre-crash state: is it unseen and within budget?"""
    key = system.tracker.durable_key()
    if key in seen:
        result.states_deduplicated += 1
        return False
    seen.add(key)
    if result.states_explored >= max_states:
        result.truncated = True
        return False
    result.states_explored += 1
    return True


def _crash_here(harness: StoreHarness, reboot: RebootType) -> Optional[str]:
    """Crash the harness's store, check persistence, and rewind the crash."""
    saved = harness.system.snapshot()
    try:
        harness.system.crash(reboot)
        return harness.persistence_violation()
    finally:
        harness.system.restore(saved)


def run_shard(spec: "ShardSpec") -> "ShardResult":
    """Picklable campaign entry point: one crash-consistency work unit.

    Each unit applies a random operation prefix (store alphabet, seeded
    from ``spec.seed + i``) to a fresh harness, then enumerates the crash
    states reachable from that point (:func:`explore_block_level`) and
    checks the section 5 persistence property in every state.
    """
    from repro.campaign.spec import (
        ShardFailure,
        ShardResult,
        observed,
        shard_recorder,
    )
    from repro.shardstore.faults import Fault, FaultSet

    from .alphabet import BiasConfig, store_alphabet

    fault_name = spec.param("fault")
    faults = (
        FaultSet.only(Fault[fault_name]) if fault_name else FaultSet.none()
    )
    sequences = spec.param("sequences", 2)
    prefix_ops = spec.param("prefix_ops", 20)
    max_states = spec.param("max_states", 128)
    alphabet = store_alphabet()
    bias = BiasConfig()
    recorder = shard_recorder(spec, faults, kind=spec.kind, seed=spec.seed)

    result = ShardResult(
        shard_id=spec.shard_id,
        kind=spec.kind,
        seed=spec.seed,
        expected_failure=bool(fault_name),
        detector="crash-consistency PBT" if fault_name else "",
        fault=fault_name,
    )

    def finish() -> ShardResult:
        # One final snapshot serves the shard and its failure alike.
        for name, value in observed(recorder).items():
            setattr(result, name, value)
            if name != "metrics":
                for failure in result.failures:
                    setattr(failure, name, value)
        return result

    for index in range(sequences):
        seed = spec.seed + index
        rng = random.Random(seed)
        ops = alphabet.generate_sequence(rng, prefix_ops, bias)
        harness = StoreHarness(faults, seed, recorder=recorder)
        prefix_failure = harness.run(ops)
        result.ops += len(ops)
        if prefix_failure is not None:
            result.failures.append(
                ShardFailure(
                    kind=spec.kind,
                    seed=seed,
                    detail=f"prefix violation: {prefix_failure}",
                    fault=fault_name,
                )
            )
            return finish()
        if recorder.enabled:
            recorder.event(
                "crash.explore", sequence=index, pending=harness.store.pending_io_count
            )
        exploration = explore_block_level(harness, max_states=max_states)
        result.cases += exploration.states_explored
        if exploration.violation is not None:
            recorder.event(
                "crash.violation", sequence=index, states=exploration.states_explored
            )
            result.failures.append(
                ShardFailure(
                    kind=spec.kind,
                    seed=seed,
                    detail=exploration.violation,
                    fault=fault_name,
                )
            )
            return finish()
    return finish()


def coarse_crash_states(
    harness: StoreHarness, *, samples: int = 16, seed: int = 0
) -> CrashExplorationResult:
    """The coarse comparison point: sample N random pump budgets.

    This is what a single ``DirtyReboot(pump=k)`` operation explores; the
    section 5 trade-off benchmark contrasts its cost and coverage with
    :func:`explore_block_level`.  A budget that reaches a state an earlier
    one did counts as deduplicated and is not crashed again.
    """
    system = harness.system
    pending = system.store.scheduler.pending_count
    rng = random.Random(seed)
    result = CrashExplorationResult()
    seen: Set[Hashable] = set()
    for _ in range(samples):
        budget = rng.randrange(0, pending + 1) if pending else 0
        saved = system.snapshot()
        system.store.pump(budget)
        if _new_state(system, seen, result, samples):
            result.violation = _crash_here(harness, RebootType(pump=0))
        system.restore(saved)
        if result.violation is not None:
            return result
    return result
