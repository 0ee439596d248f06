"""Section 4.3: automatic test-case minimization.

The paper's anecdote for bug #9: the first failing random sequence had 61
operations, 9 crashes, and 226 KiB of writes; after automatic minimization
it had 6 operations, 1 crash, and 2 bytes.  This benchmark reproduces the
experiment's shape on our re-injected crash-consistency bugs: find a
failing sequence with the PBT runner, minimize it, and assert order-of-
magnitude reductions in operation count, crash count, and bytes written --
while the minimized sequence still fails deterministically.
"""

from __future__ import annotations

from repro.campaign.fault_matrix import DIRECTED_PLAN, directed_ops
from repro.core import (
    BiasConfig,
    StoreHarness,
    crash_alphabet,
    minimize,
    replay_fails,
    run_conformance,
    sequence_bytes,
    sequence_crashes,
)
from repro.shardstore import Fault, FaultSet


def _find_and_minimize(fault: Fault, base_seed: int, uuid_bias: float = 0.0):
    def factory(seed: int) -> StoreHarness:
        return StoreHarness(FaultSet.only(fault), seed, uuid_magic_bias=uuid_bias)

    report = run_conformance(
        factory,
        crash_alphabet(),
        sequences=40,
        ops_per_sequence=80,
        bias=BiasConfig(),
        base_seed=base_seed,
    )
    assert not report.passed, f"{fault.name}: no failing sequence found"
    fails = replay_fails(factory, report.failing_seed)
    reduced, stats = minimize(report.failing_sequence, fails)
    return report, reduced, stats


def test_sec43_minimization(benchmark):
    report, reduced, stats = benchmark.pedantic(
        _find_and_minimize,
        args=(Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP, 0),
        rounds=1,
        iterations=1,
    )
    print(
        f"\nminimization (bug #8 analogue of the paper's #9 anecdote):\n"
        f"  before: {stats.initial_ops} ops, {stats.initial_crashes} crashes, "
        f"{stats.initial_bytes_written} bytes written\n"
        f"  after:  {stats.final_ops} ops, {stats.final_crashes} crashes, "
        f"{stats.final_bytes_written} bytes written\n"
        f"  ({stats.candidates_tried} candidates over {stats.rounds} rounds)\n"
        f"  minimized sequence: {[str(op) for op in reduced]}"
    )
    # Paper shape: 61 -> 6 ops, 9 -> 1 crashes, 226 KiB -> 2 B.
    assert stats.final_ops <= max(8, stats.initial_ops // 5)
    assert stats.final_crashes <= 2
    assert stats.final_bytes_written <= max(8, stats.initial_bytes_written // 20)
    # Determinism: the minimized sequence still fails on replay.
    fails = replay_fails(
        lambda seed: StoreHarness(
            FaultSet.only(Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP), seed
        ),
        report.failing_seed,
    )
    assert fails(reduced)


def _minimize_directed(fault: Fault):
    seed, bias, _ = DIRECTED_PLAN[fault]
    fails = replay_fails(
        lambda s: StoreHarness(FaultSet.only(fault), s, uuid_magic_bias=bias), seed
    )
    ops = directed_ops(fault)
    reduced, stats = minimize(ops, fails)
    return ops, reduced, stats


def test_sec43_minimization_uuid_collision(benchmark):
    """The same experiment on the section 5 bug (#10) itself, starting from
    its directed sequence (random sequences do not reach it here)."""
    ops, reduced, stats = benchmark.pedantic(
        _minimize_directed,
        args=(Fault.UUID_MAGIC_COLLISION_SCAN,),
        rounds=1,
        iterations=1,
    )
    print(
        f"\nminimization of the #10 scenario: {stats.initial_ops} ops "
        f"-> {stats.final_ops} ops; {stats.initial_bytes_written} "
        f"-> {stats.final_bytes_written} bytes"
    )
    assert stats.final_ops < stats.initial_ops
    assert sequence_crashes(reduced) >= 1, "the crash is essential to #10"
    assert sequence_bytes(reduced) <= sequence_bytes(ops)
