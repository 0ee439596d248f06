"""Performance telemetry: the workload driver.

This package drives ShardStore/StorageNode through the KVNode protocol
under deterministic workloads (``repro bench``) -- the evidence plane's
journal source -- and renders schema-versioned ``BENCH_*.json``
artifacts (op and outcome counts, one run-level wall time).  It gates
nothing and times no op: the cost ladder (``benchmarks/ladder``) is the
repo's one stopwatch and one perf gate.
"""

from .harness import (
    BENCH_SCHEMA_VERSION,
    WORKLOADS,
    bench_store_config,
    default_output_name,
    default_target,
    run_bench,
)
from .workloads import BenchOp, generate_ops, sequence_digest, value_for

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "WORKLOADS",
    "BenchOp",
    "bench_store_config",
    "default_output_name",
    "default_target",
    "generate_ops",
    "run_bench",
    "sequence_digest",
    "value_for",
]
