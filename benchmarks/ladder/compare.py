"""Compare two ladder result files under the bounds in ``BENCHMARK.json``.

    python benchmarks/ladder/compare.py A.json B.json

``A`` is the parent, ``B`` the change; both come from ``run.py --out``,
ideally with ``--repeat 5`` or more.  One row per workload and end-to-end
metric:

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- the run-to-run spread of either side (quartile
  distance over median) is wider than the bound, so the two medians
  cannot be told apart at that resolution;
* ``ok``         -- neither.

A larger share of failed ops in B is a regression too.  Exit code 1 on any
``regressed`` row.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, NamedTuple, Optional

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir,
    "BENCHMARK.json",
)


class Row(NamedTuple):
    workload: str
    metric: str
    a: float
    b: float
    #: Share of A's median by which B is worse (negative: B is better).
    worse: float
    #: The wider of the two sides' quartile distance over median.
    spread: float
    bound: float
    status: str


def load_bounds(path: str = BENCHMARK_JSON) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def spread_of(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def failure_share(runs: List[Dict[str, Any]]) -> float:
    return sum(r["ops_failed"] for r in runs) / sum(r["ops_attempted"] for r in runs)


def compare(
    a: Dict[str, Any], b: Dict[str, Any], metrics: List[Dict[str, Any]]
) -> List[Row]:
    """Rows for every workload present in both result files."""
    rows: List[Row] = []
    for workload, side_a in a["workloads"].items():
        side_b = b["workloads"].get(workload)
        if side_b is None:
            continue
        runs_a, runs_b = side_a["runs"], side_b["runs"]
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            values_a = [run["e2e"][name] for run in runs_a]
            values_b = [run["e2e"][name] for run in runs_b]
            med_a = statistics.median(values_a)
            med_b = statistics.median(values_b)
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            spread = max(spread_of(values_a), spread_of(values_b))
            if spread > bound:
                status = "unresolved"
            elif worse > bound:
                status = "regressed"
            else:
                status = "ok"
            rows.append(
                Row(workload, name, med_a, med_b, worse, spread, bound, status)
            )
        share_a, share_b = failure_share(runs_a), failure_share(runs_b)
        rows.append(
            Row(
                workload, "ops_failed/ops_attempted", share_a, share_b,
                share_b - share_a, 0.0, 0.0,
                "regressed" if share_b > share_a else "ok",
            )
        )
    return rows


def render(rows: List[Row]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<25} {'A median':>12} {'B median':>12} "
        f"{'worse':>8} {'spread':>8} {'bound':>6}  status"
    ]
    for row in rows:
        lines.append(
            f"{row.workload:<18} {row.metric:<25} {row.a:>12.4f} {row.b:>12.4f} "
            f"{row.worse:>+8.1%} {row.spread:>8.1%} {row.bound:>6.0%}  {row.status}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sides = []
    for path in args:
        with open(path, encoding="utf-8") as fh:
            sides.append(json.load(fh))
    rows = compare(sides[0], sides[1], load_bounds())
    print(render(rows))
    return 1 if any(row.status == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
