"""Performance telemetry: workload driver and metrics endpoint.

This package drives ShardStore/StorageNode through the KVNode protocol
under deterministic workloads (``repro bench``) -- the evidence plane's
journal source -- renders schema-versioned ``BENCH_*.json`` artifacts
(op and outcome counts, one run-level wall time), and serves live
Prometheus metrics (``repro metrics-serve``).  It gates nothing and times
no op: the cost ladder (``benchmarks/ladder``) is the repo's one stopwatch
and one perf gate.
"""

from .harness import (
    BENCH_SCHEMA_VERSION,
    WORKLOADS,
    bench_store_config,
    default_output_name,
    default_target,
    run_bench,
)
from .serve import MetricsDemoNode, make_server, serve
from .workloads import BenchOp, generate_ops, sequence_digest, value_for

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "WORKLOADS",
    "BenchOp",
    "MetricsDemoNode",
    "bench_store_config",
    "default_output_name",
    "default_target",
    "generate_ops",
    "make_server",
    "run_bench",
    "sequence_digest",
    "serve",
    "value_for",
]
