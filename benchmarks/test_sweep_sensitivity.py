"""Detection rate of the conformance sweep, unpinned (section 4, Fig. 5).

After a Get, Put or Delete that did no background work, ``StoreHarness``
reads back only that op's key; after anything else it reads back every
key (DESIGN.md "Conformance: the sweep reads what the op could change").
This bench checks that the narrower read-back finds each Fig. 5 fault as
often and as fast as the reference rule (every key after every op).

For each ``PBT_PLAN`` fault, K base seeds away from the plan's pinned
region (1,000,000 + 10,000 k) each get a 200-sequence budget of 80-op
sequences in the plan's alphabet and bias.  The table gives how many base
seeds found the fault (found/K) and the median number of sequences to
the first failure over those that did, under both rules; the two tables
must be equal.  Each plan's fault-off twin (same alphabet, bias and
seeds, no fault) is run too.  A detection is *confounded* when the twin
fails within the same number of sequences from the same base seed: a
fault-free failure may then stand in for it (ROADMAP item 2).

    PYTHONPATH=src python -m pytest -q -s -m slow benchmarks/test_sweep_sensitivity.py
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

import pytest

from repro.campaign.fault_matrix import PBT_PLAN
from repro.core import StoreHarness, run_conformance
from repro.core.alphabet import ALPHABETS
from repro.shardstore import FaultSet

K = 10
BUDGET = 200
OPS = 80
BASE_SEEDS = [1_000_000 + 10_000 * k for k in range(K)]


class FullSweepStoreHarness(StoreHarness):
    """The reference rule (kept in ``tests/test_conformance.py`` too):
    every model key read back after every op."""

    def _check_invariants(self, index, op, touched=None):
        return super()._check_invariants(index, op)


def _sequences_to_failure(
    harness_cls, faults: FaultSet, alphabet: str, bias: float, base_seed: int
) -> Optional[int]:
    report = run_conformance(
        lambda s: harness_cls(faults, s, uuid_magic_bias=bias),
        ALPHABETS[alphabet](),
        sequences=BUDGET,
        ops_per_sequence=OPS,
        base_seed=base_seed,
    )
    return None if report.passed else report.sequences_run


def _row(found: List[Optional[int]]) -> Tuple[int, Optional[float]]:
    hits = [n for n in found if n is not None]
    return len(hits), statistics.median(hits) if hits else None


def _confounded(found: List[Optional[int]], twin: List[Optional[int]]) -> int:
    return sum(
        n is not None and m is not None and m <= n for n, m in zip(found, twin)
    )


@pytest.mark.slow
def test_sweep_detection_rate_matches_full_sweep():
    runs: Dict[str, Dict[int, List[Optional[int]]]] = {}
    for name, harness_cls in (
        ("sweep", StoreHarness),
        ("full", FullSweepStoreHarness),
    ):
        runs[name] = {
            fault.value: [
                _sequences_to_failure(
                    harness_cls, FaultSet.only(fault), alphabet, bias, seed
                )
                for seed in BASE_SEEDS
            ]
            for fault, (alphabet, _, bias) in PBT_PLAN.items()
        }
    plans = sorted({(alphabet, bias) for alphabet, _, bias in PBT_PLAN.values()})
    twins = {
        plan: [
            _sequences_to_failure(StoreHarness, FaultSet.none(), *plan, seed)
            for seed in BASE_SEEDS
        ]
        for plan in plans
    }
    print("\n| fault | found | median | full sweep | twin found | confounded |")
    print("|---|---|---|---|---|---|")
    for fault, (alphabet, _, bias) in PBT_PLAN.items():
        found, median = _row(runs["sweep"][fault.value])
        full_found, full_median = _row(runs["full"][fault.value])
        twin = twins[(alphabet, bias)]
        print(
            f"| #{fault.value} | {found}/{K} | {median} | "
            f"{full_found}/{K}, {full_median} | {_row(twin)[0]}/{K} | "
            f"{_confounded(runs['sweep'][fault.value], twin)}/{found} |"
        )
    tables = {
        name: {fault: _row(found) for fault, found in by_fault.items()}
        for name, by_fault in runs.items()
    }
    assert tables["sweep"] == tables["full"]
