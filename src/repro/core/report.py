"""Issue catalog rendering: regenerating the paper's Fig. 5 and Fig. 6.

Fig. 5 is the paper's headline result -- the 16 issues its validation
stack prevented from reaching production, grouped by top-level property.
Our reproduction re-injects each issue via
:class:`repro.shardstore.faults.Fault` and demonstrates that the matching
checker detects it; :func:`detection_matrix` renders the outcome as the
Fig. 5 table plus a Detected column.

Fig. 6 is the artifact-size table (implementation vs models vs checks);
:func:`loc_table` measures this repository the same way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.shardstore.faults import FAULT_CATALOG, Fault, detector_for

_PROPERTY_ORDER = ["Functional Correctness", "Crash Consistency", "Concurrency"]


@dataclass
class DetectionOutcome:
    """What happened when one Fig. 5 fault was re-injected and hunted."""

    fault: Fault
    detected: bool
    detector: str
    evidence: str = ""  # the failing check's message / schedule summary
    sequences_or_executions: int = 0


def detection_matrix(outcomes: Iterable[DetectionOutcome]) -> str:
    """Render the Fig. 5 table with detection results."""
    by_fault = {outcome.fault: outcome for outcome in outcomes}
    lines: List[str] = []
    header = f"{'ID':<4} {'Component':<14} {'Detector':<26} {'Detected':<9} Description"
    lines.append(header)
    lines.append("-" * len(header))
    for prop in _PROPERTY_ORDER:
        lines.append(f"-- {prop} --")
        for fault in Fault:
            meta = FAULT_CATALOG[fault]
            if meta["property"] != prop:
                continue
            outcome = by_fault.get(fault)
            detected = "-" if outcome is None else ("yes" if outcome.detected else "NO")
            detector = detector_for(fault)
            lines.append(
                f"#{fault.value:<3} {meta['component']:<14} {detector:<26} "
                f"{detected:<9} {meta['description']}"
            )
    total = sum(1 for o in by_fault.values() if o.detected)
    lines.append("-" * len(header))
    lines.append(f"detected: {total}/{len(by_fault)} injected issues")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# campaign artifacts (repro campaign --output)


def outcomes_from_campaign(artifact: Dict) -> List[DetectionOutcome]:
    """Rebuild Fig. 5 :class:`DetectionOutcome` rows from a campaign
    artifact's ``fault_matrix`` section (see EXPERIMENTS.md for the
    schema).  This is how ``repro fig5 --from-artifact`` reproduces the
    paper's headline table from CI output alone."""
    outcomes = []
    for row in artifact.get("fault_matrix", []):
        outcomes.append(
            DetectionOutcome(
                fault=Fault[row["fault"]],
                detected=bool(row["detected"]),
                detector=row.get("detector", ""),
                evidence=row.get("evidence", ""),
                sequences_or_executions=int(row.get("cases", 0)),
            )
        )
    return outcomes


def campaign_summary(artifact: Dict) -> str:
    """Human-readable digest of a campaign artifact (CLI output)."""
    campaign = artifact.get("campaign", {})
    totals = artifact.get("totals", {})
    timing = artifact.get("timing", {})
    lines: List[str] = []
    lines.append(
        f"campaign profile={campaign.get('profile')} "
        f"base_seed={campaign.get('base_seed')} "
        f"workers={campaign.get('workers')} "
        f"shards={campaign.get('shard_count')}"
    )
    header = f"{'phase':<14} {'shards':>6} {'cases':>9} {'ops':>9} {'failures':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for kind, phase in artifact.get("phases", {}).items():
        lines.append(
            f"{kind:<14} {phase['shards']:>6} {phase['cases']:>9,} "
            f"{phase['ops']:>9,} {phase['failures']:>8}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<14} {campaign.get('shard_count', 0):>6} "
        f"{totals.get('cases', 0):>9,} {totals.get('ops', 0):>9,} "
        f"{totals.get('failures', 0):>8}"
    )
    detected = totals.get("faults_detected", 0)
    matrix_size = len(artifact.get("fault_matrix", []))
    if matrix_size:
        lines.append(
            f"fault matrix: {detected}/{matrix_size} injected issues detected"
        )
        for fault_name in artifact.get("missed_faults", []):
            lines.append(f"  MISSED: {fault_name}")
        for row in artifact.get("fault_matrix", []):
            if row.get("skipped"):
                lines.append(f"  SKIPPED (budget): {row['fault']}")
    coverage = artifact.get("coverage", {})
    if coverage.get("lines"):
        lines.append(
            f"coverage: {coverage['lines']} implementation lines across "
            f"{len(coverage.get('by_file', {}))} files"
        )
    metrics = artifact.get("metrics")
    if metrics:
        counters = metrics.get("counters", {})
        fault_event_count = int(counters.get("faults.events", 0))
        lines.append(
            f"metrics: {len(counters)} counters, "
            f"{len(metrics.get('histograms', {}))} histograms, "
            f"{fault_event_count} fault events "
            "(inspect with `repro stats --from-artifact`)"
        )
    for failure in artifact.get("failures", []):
        lines.append(
            f"FAILURE shard={failure.get('shard_id')} "
            f"seed={failure.get('seed')}: {failure.get('detail')}"
        )
        for op in failure.get("minimized") or []:
            lines.append(f"    {op}")
    skipped = totals.get("shards_skipped", 0)
    if skipped:
        lines.append(f"budget exhausted: {skipped} shard(s) skipped")
    if timing:
        lines.append(
            f"wall clock {timing.get('wall_clock_seconds')}s, "
            f"{timing.get('cases_per_second')} cases/sec"
        )
    lines.append("PASS" if artifact.get("passed") else "FAIL")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Fig. 6: lines of code per artifact category


#: Maps this repository's files onto the paper's Fig. 6 rows.  The
#: paper-ratio sentence under the table is computed over these rows only.
FIG6_CATEGORIES: Dict[str, Tuple[str, ...]] = {
    "Implementation": ("src/repro/shardstore", "src/repro/serialization/codec.py"),
    "Unit tests & integration tests": ("tests",),
    "Reference models (S3.2)": ("src/repro/models",),
    "Functional correctness checks (S3)": (
        "src/repro/core/alphabet.py",
        "src/repro/core/conformance.py",
        "src/repro/core/minimize.py",
        "src/repro/core/coverage.py",
        "src/repro/core/report.py",
        "src/repro/core/model_verify.py",
    ),
    "Crash consistency checks (S5)": ("src/repro/core/crash_checker.py",),
    "Concurrency checks (S6)": (
        "src/repro/concurrency",
        "src/repro/core/linearizability.py",
        "src/repro/core/concurrent_harnesses.py",
    ),
    "Serialization checks (S7)": ("src/repro/serialization/fuzz.py",),
    "Benchmarks (evaluation harness)": ("benchmarks",),
}

#: What this repository grew beyond the paper's artifact: with the
#: ``src/`` paths above, these rows partition ``src/repro`` (every file is
#: counted exactly once -- ``tests/test_coverage_report.py`` checks it).
BEYOND_PAPER_CATEGORIES: Dict[str, Tuple[str, ...]] = {
    "Validation campaigns (S4.4 CI loop)": ("src/repro/campaign",),
    "Evidence plane (journal replay, invariants)": ("src/repro/evidence",),
    "Cluster plane (quorum router, anti-entropy)": ("src/repro/cluster",),
    "Bench harness (repro bench)": ("src/repro/bench",),
    "CLI, errors & package glue": (
        "src/repro/cli.py",
        "src/repro/errors.py",
        "src/repro/__init__.py",
        "src/repro/__main__.py",
        "src/repro/core/__init__.py",
        "src/repro/serialization/__init__.py",
    ),
}


def count_lines(path: str) -> int:
    """Non-blank lines of Python in a file or directory tree; a path that
    does not exist is an error, not zero lines."""
    if os.path.isfile(path):
        candidates = [path]
    elif os.path.isdir(path):
        candidates = [
            os.path.join(root, name)
            for root, _, files in os.walk(path)
            for name in files
            if name.endswith(".py")
        ]
    else:
        raise FileNotFoundError(f"no such file or directory: {path!r}")
    total = 0
    for filename in candidates:
        with open(filename, "r", encoding="utf-8") as handle:
            total += sum(1 for line in handle if line.strip())
    return total


def loc_table(repo_root: str) -> str:
    """Render this repository's Fig. 6 analogue."""

    def measure(categories: Dict[str, Tuple[str, ...]]) -> List[Tuple[str, int]]:
        return [
            (
                category,
                sum(count_lines(os.path.join(repo_root, p)) for p in paths),
            )
            for category, paths in categories.items()
        ]

    rows = measure(FIG6_CATEGORIES)
    beyond = measure(BEYOND_PAPER_CATEGORIES)
    total = sum(count for _, count in rows)
    impl = dict(rows).get("Implementation", 1)
    validation = sum(
        count
        for category, count in rows
        if "checks" in category or "models" in category.lower()
    )
    lines = [f"{'Component':<44} Lines", "-" * 52]
    for category, count in rows:
        lines.append(f"{category:<44} {count:>6,}")
    lines.append("-" * 52)
    lines.append(f"{'Fig. 6 rows':<44} {total:>6,}")
    for category, count in beyond:
        lines.append(f"{category:<44} {count:>6,}")
    lines.append("-" * 52)
    everything = total + sum(count for _, count in beyond)
    lines.append(f"{'Total':<44} {everything:>6,}")
    lines.append("")
    lines.append(
        f"validation artifacts are {validation / max(total, 1):.0%} of the "
        f"Fig. 6 rows and {validation / max(impl, 1):.0%} of the implementation "
        "(paper: 13% and 20%; formal verification efforts report 3-10x)"
    )
    return "\n".join(lines)
