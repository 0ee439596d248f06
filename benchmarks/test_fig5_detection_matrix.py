"""Fig. 5 (the headline result): 16 issues, each caught by its checker.

The paper's evaluation is a catalog of 16 issues the validation stack
prevented from reaching production.  This benchmark re-injects every issue
via :mod:`repro.shardstore.faults`, hunts it with the checker the paper
attributes it to (conformance PBT, crash-consistency PBT, or stateless
model checking), and regenerates the Fig. 5 table with a Detected column.

The hunt plans (alphabet, pinned seed, strategy per fault) are the
canonical ones in :mod:`repro.campaign.fault_matrix` -- the same plans the
``repro campaign`` fault-matrix phase runs in parallel in CI.  Seeds are
pinned to the known-detecting region so the matrix completes in benchmark
time; the unpinned pay-as-you-go behaviour (run longer, find the same
bugs from any seed) is exercised by ``test_pbt_throughput.py`` and the
integration tests.  A fault that random sequences do not reach is hunted
by a directed sequence; its shard checks its own fault-off replay.
"""

from typing import List

import pytest

from repro.campaign.fault_matrix import (
    PBT_PLAN,
    fault_matrix_shards,
    run_shard,
)
from repro.campaign.spec import smoke_spec
from repro.core import (
    DetectionOutcome,
    StoreHarness,
    detection_matrix,
    run_conformance,
)
from repro.core.alphabet import ALPHABETS
from repro.shardstore import Fault, FaultSet


def _run_matrix() -> List[DetectionOutcome]:
    outcomes: List[DetectionOutcome] = []
    for shard in fault_matrix_shards(smoke_spec(), 0):
        result = run_shard(shard)
        outcomes.append(
            DetectionOutcome(
                fault=Fault[result.fault],
                detected=result.detected,
                detector=result.detector,
                evidence=result.failures[0].detail if result.failures else "",
                sequences_or_executions=result.cases,
            )
        )
    return outcomes


def test_fig5_detection_matrix(benchmark):
    """Regenerate Fig. 5: every injected issue must be detected."""
    outcomes = benchmark.pedantic(_run_matrix, rounds=1, iterations=1)
    table = detection_matrix(outcomes)
    print("\n" + table)
    missed = [o.fault.name for o in outcomes if not o.detected]
    assert not missed, f"faults not detected: {missed}"
    assert len(outcomes) == 16


@pytest.mark.parametrize("fault", list(PBT_PLAN))
def test_fig5_baseline_clean_for_pbt_alphabets(fault):
    """Sanity: with the fault OFF, the same pinned region finds nothing."""
    alphabet_name, seed, bias = PBT_PLAN[fault]
    report = run_conformance(
        lambda s: StoreHarness(FaultSet.none(), s, uuid_magic_bias=bias),
        ALPHABETS[alphabet_name](),
        sequences=4,
        ops_per_sequence=80,
        base_seed=seed,
    )
    assert report.passed, report.failure
