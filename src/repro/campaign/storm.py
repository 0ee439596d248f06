"""The storm-shard skeleton shared by every storm suite.

An injection, cluster or anti-entropy shard is the same loop: for each
sequence, generate a fault plan from ``spec.seed + i``, drive a harness
through the storm, settle, then copy the counters the suite table names,
fold the journal-replay evidence, and stop at the first failing sequence.
What differs -- the system under test, its plan generator and settlement
gates -- lives in the suite's ``run_sequence`` callback.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from repro.shardstore.observability import NULL_RECORDER, Recorder

from .spec import Section, ShardFailure, ShardResult, ShardSpec, observed


def heads_digest(heads: Iterable[str]) -> str:
    """Collapse chain heads into one digest: equal digests mean
    byte-identical journals, regardless of worker count."""
    return hashlib.sha256("\n".join(heads).encode("ascii")).hexdigest()[:16]


@dataclass
class SequenceOutcome:
    """What one storm sequence reports back to the skeleton."""

    ops: int
    #: First violation (mid-storm or at settlement), None when it passed.
    detail: Optional[str]
    #: Superset of the section's counter keys; absent keys count as 0.
    counters: Mapping[str, int]
    #: Journal-replay evidence (journaled sequences only): per-key counts,
    #: chain heads, and the checker's report.
    evidence: Mapping[str, int] = field(default_factory=dict)
    heads: Iterable[str] = ()
    report: Any = None


def run_storm_shard(
    spec: ShardSpec,
    section: Section,
    run_sequence: Callable[[int], SequenceOutcome],
    *,
    sequences: int,
    profile: str,
    identity: Dict[str, Any],
    evidence_keys: Optional[Iterable[str]] = None,
    extras: Optional[Dict[str, Any]] = None,
    recorder: Recorder = NULL_RECORDER,
) -> ShardResult:
    """Run ``sequences`` storm sequences and assemble the shard's block:
    ``identity``, the section's verdict, its counters, ``extras`` (filled
    by ``run_sequence`` as it goes), then the evidence verdict."""
    totals = dict.fromkeys(section.keys, 0)
    evidence: Optional[Dict[str, Any]] = None
    if evidence_keys is not None:
        evidence = {
            **dict.fromkeys(evidence_keys, 0),
            "check_passed": True,
            "violations": [],
        }
    heads: List[str] = []
    failures: List[ShardFailure] = []
    cases = 0
    ops_run = 0
    for i in range(sequences):
        seed = spec.seed + i
        outcome = run_sequence(seed)
        cases += 1
        ops_run += outcome.ops
        for key in totals:
            totals[key] += outcome.counters.get(key, 0)
        if evidence is not None:
            evidence["sequences"] += 1
            for key, count in outcome.evidence.items():
                evidence[key] += count
            heads.extend(outcome.heads)
            if not outcome.report.passed:
                evidence["check_passed"] = False
                for violation in outcome.report.violations[:4]:
                    if len(evidence["violations"]) < 16:
                        evidence["violations"].append(
                            {"seed": seed, **violation}
                        )
        if outcome.detail is not None:
            failures.append(
                ShardFailure(
                    kind=spec.kind,
                    seed=seed,
                    detail=outcome.detail,
                    fault=f"{spec.kind}:{profile}",
                    **observed(recorder, metrics=False),
                )
            )
            break
    block = dict(identity)
    if section.verdict is not None:
        block[section.verdict[0]] = not failures
    block.update(totals)
    block.update(extras or {})
    if evidence is not None:
        evidence["heads_digest"] = heads_digest(heads)
        block["evidence"] = evidence
    return ShardResult(
        shard_id=spec.shard_id,
        kind=spec.kind,
        seed=spec.seed,
        cases=cases,
        ops=ops_run,
        failures=failures,
        section=block,
        **observed(recorder),
    )
