"""Performance telemetry: workload driver and metrics endpoint.

This package drives ShardStore/StorageNode through the KVNode protocol
under deterministic workloads (``repro bench``) -- the evidence plane's
journal source -- renders schema-versioned ``BENCH_*.json`` artifacts with
per-op latency percentiles and per-component span breakdowns for a quick
look, and serves live Prometheus metrics (``repro metrics-serve``).  It
gates nothing: the cost ladder (``benchmarks/ladder``) is the repo's one
perf gate.  Wall-clock data never enters campaign artifacts; the PR 1
determinism contract is untouched.
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
