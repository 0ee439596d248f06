"""Merging per-shard results into the campaign artifact.

The artifact is one JSON document (schema documented in EXPERIMENTS.md):
phase totals, every unexpected failure with its replay seed and minimized
reproducer, the Fig. 5 fault matrix with per-fault detection verdicts,
merged coverage statistics, and a ``timing`` section.  Everything outside
``timing`` is deterministic -- rerunning the same spec produces the same
bytes for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .spec import (
    ALL_KINDS,
    KIND_FAULT_MATRIX,
    SCHEMA_VERSION,
    SUITE_TABLE,
    CampaignSpec,
    Section,
    ShardResult,
)
from .storm import heads_digest


@dataclass
class CampaignResult:
    """Aggregated campaign outcome (``to_json`` renders the artifact)."""

    spec: CampaignSpec
    results: List[ShardResult]
    wall_clock_seconds: float
    shard_durations: Dict[int, float] = field(default_factory=dict)

    @property
    def total_cases(self) -> int:
        return sum(result.cases for result in self.results)

    @property
    def total_ops(self) -> int:
        return sum(result.ops for result in self.results)

    @property
    def cases_per_second(self) -> float:
        if self.wall_clock_seconds <= 0:
            return 0.0
        return self.total_cases / self.wall_clock_seconds

    @property
    def unexpected_failures(self) -> List[ShardResult]:
        return [
            result
            for result in self.results
            if not result.expected_failure and result.failures
        ]

    @property
    def missed_faults(self) -> List[str]:
        return [
            result.fault or "?"
            for result in self.results
            if result.expected_failure
            and not result.skipped
            and not result.detected
        ]

    @property
    def skipped_faults(self) -> List[str]:
        return [
            result.fault or "?"
            for result in self.results
            if result.kind == KIND_FAULT_MATRIX and result.skipped
        ]

    @property
    def passed(self) -> bool:
        # A budget cut may skip random-search shards (pay-as-you-go: less
        # budget, fewer cases) without failing the gate, but the fault
        # matrix is a known-answer suite: every one of the 16 issues must
        # actually run and be detected for the campaign to certify.
        return (
            not self.unexpected_failures
            and not self.missed_faults
            and not self.skipped_faults
        )

    def to_json(self) -> Dict[str, Any]:
        return result_to_json(self)

    def merged_metrics(self) -> Optional[Dict[str, Any]]:
        """Campaign-wide metrics (None unless the campaign was traced)."""
        return _merged_metrics(self.results)


def aggregate(
    spec: CampaignSpec,
    results: List[ShardResult],
    wall_clock_seconds: float,
    shard_durations: Optional[Dict[int, float]] = None,
) -> CampaignResult:
    """Wrap ordered shard results in a :class:`CampaignResult`."""
    return CampaignResult(
        spec=spec,
        results=list(results),
        wall_clock_seconds=wall_clock_seconds,
        shard_durations=dict(shard_durations or {}),
    )


def _phase_summary(results: List[ShardResult], kind: str) -> Dict[str, Any]:
    phase = [result for result in results if result.kind == kind]
    return {
        "shards": len(phase),
        "shards_skipped": sum(1 for result in phase if result.skipped),
        "cases": sum(result.cases for result in phase),
        "ops": sum(result.ops for result in phase),
        "failures": sum(
            len(result.failures)
            for result in phase
            if not result.expected_failure
        ),
    }


def _coverage_summary(results: List[ShardResult]) -> Dict[str, Any]:
    lines: set = set()
    for result in results:
        if result.coverage_lines:
            lines.update(tuple(entry) for entry in result.coverage_lines)
    by_file: Dict[str, int] = {}
    for filename, _ in lines:
        by_file[filename] = by_file.get(filename, 0) + 1
    return {
        "lines": len(lines),
        "by_file": {name: by_file[name] for name in sorted(by_file)},
    }


def _fault_matrix_rows(results: List[ShardResult]) -> List[Dict[str, Any]]:
    from repro.shardstore.faults import FAULT_CATALOG, Fault

    rows: List[Dict[str, Any]] = []
    matrix = [
        result for result in results if result.kind == KIND_FAULT_MATRIX
    ]
    for result in sorted(matrix, key=lambda r: Fault[r.fault or ""].value):
        fault = Fault[result.fault or ""]
        meta = FAULT_CATALOG[fault]
        row: Dict[str, Any] = {
            "id": fault.value,
            "fault": fault.name,
            "component": meta["component"],
            "property": meta["property"],
            "detector": result.detector,
            "detected": result.detected,
            "skipped": result.skipped,
            "seed": result.seed,
            "cases": result.cases,
            "evidence": (
                result.failures[0].detail if result.failures else ""
            ),
        }
        if result.fault_events is not None:
            row["fault_events"] = result.fault_events
        if result.trace is not None:
            row["trace"] = result.trace
        rows.append(row)
    return rows


def _section_summary(
    results: List[ShardResult], kind: str, section: Section
) -> Optional[Dict[str, Any]]:
    """Roll one suite-table row's shards up into its artifact section:
    per-shard entries, summed counters, and -- when the row names them --
    the AND-ed verdict, the evidence verdict and the digest of every
    shard's chain heads (None when the row selected no shard)."""
    totals = dict.fromkeys(section.keys, 0)
    verdict = evidence_passed = True
    heads: List[str] = []
    per_shard: List[Dict[str, Any]] = []
    for result in results:
        block = result.section or {}
        if result.kind != kind or (
            section.where and not block.get(section.where)
        ):
            continue
        if section.sub:
            block = block[section.sub]
        for key in section.keys:
            totals[key] += int(block.get(key, 0))
        if section.verdict:
            verdict = verdict and bool(
                block.get(section.verdict[0], result.ok)
            )
        if section.evidence:
            where = section.evidence[0]
            evidence = (block.get(where) or {}) if where else block
            evidence_passed = evidence_passed and bool(
                evidence.get("check_passed", True)
            )
            heads.append(str(evidence.get("heads_digest")))
        meta = {
            "shard_id": result.shard_id,
            "seed": result.seed,
            "cases": result.cases,
            "ok": result.ok,
            "skipped": result.skipped,
        }
        entry: Dict[str, Any] = {}
        for name in section.fields:
            if name == "*":
                entry.update(block)
            else:
                entry[name] = meta[name] if name in meta else block.get(name)
        per_shard.append(entry)
    if not per_shard:
        return None
    if section.sorted_totals:
        totals = dict(sorted(totals.items()))
    summary: Dict[str, Any] = {"shards": per_shard, "totals": totals}
    if section.verdict:
        summary[section.verdict[1]] = verdict
    if section.evidence:
        summary[section.evidence[1]] = evidence_passed
        summary["heads_digest"] = heads_digest(heads)
    return summary


def _merged_metrics(results: List[ShardResult]) -> Optional[Dict[str, Any]]:
    """Merge every traced shard's metrics snapshot (None when untraced)."""
    from repro.shardstore.observability import merge_metrics

    snapshots = [
        result.metrics for result in results if result.metrics is not None
    ]
    if not snapshots:
        return None
    return merge_metrics(snapshots)


def result_to_json(outcome: CampaignResult) -> Dict[str, Any]:
    """Render the artifact; only ``timing`` varies between reruns."""
    spec, results = outcome.spec, outcome.results
    failures: List[Dict[str, Any]] = []
    for result in results:
        if result.expected_failure:
            continue
        for failure in result.failures:
            entry = failure.to_json()
            entry["shard_id"] = result.shard_id
            failures.append(entry)
    artifact: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "campaign": {
            "profile": spec.profile,
            "base_seed": spec.base_seed,
            "workers": spec.workers,
            "budget_seconds": spec.budget_seconds,
            "shard_count": len(results),
        },
        "totals": {
            "cases": outcome.total_cases,
            "ops": outcome.total_ops,
            "shards_run": sum(1 for r in results if not r.skipped),
            "shards_skipped": sum(1 for r in results if r.skipped),
            "failures": len(failures),
            "faults_detected": sum(
                1
                for r in results
                if r.kind == KIND_FAULT_MATRIX and r.detected
            ),
            "faults_missed": len(outcome.missed_faults),
        },
        "phases": {
            kind: _phase_summary(results, kind) for kind in ALL_KINDS
        },
        "failures": failures,
        "missed_faults": list(outcome.missed_faults),
        "fault_matrix": _fault_matrix_rows(results),
        "coverage": _coverage_summary(results),
        "traced": spec.trace,
        "skipped_shards": [r.shard_id for r in results if r.skipped],
        "passed": outcome.passed,
        "timing": {
            "wall_clock_seconds": round(outcome.wall_clock_seconds, 3),
            "cases_per_second": round(outcome.cases_per_second, 1),
            "per_shard_seconds": {
                str(shard_id): round(duration, 3)
                for shard_id, duration in sorted(
                    outcome.shard_durations.items()
                )
            },
        },
    }
    metrics = _merged_metrics(results)
    if metrics is not None:
        artifact["metrics"] = metrics
    for row in SUITE_TABLE.values():
        if row.section is not None:
            summary = _section_summary(results, row.kind, row.section)
            if summary is not None:
                artifact[row.section.name] = summary
    return artifact
