"""The workload-driven benchmark harness behind ``repro bench``.

Drives a ShardStore (single disk) or StorageNode (multi-disk RPC layer)
through the unified KVNode protocol with a
:class:`~repro.shardstore.observability.RingRecorder` attached, counts ops
and outcomes, optionally journals the run, and renders a schema-versioned
JSON artifact (``BENCH_<workload>_<date>.json`` by convention; schema
documented in EXPERIMENTS.md).

Determinism contract: the *op sequence* is a pure function of
``(workload, ops, value_size, seed)`` -- the artifact's
``op_sequence_sha256`` and the journal bytes are reproducible.  The only
wall-clock values are ``wall_seconds`` and ``throughput_ops_per_sec``, one
clock read pair around the whole run; per-op and per-layer times are the
ladder's job (``benchmarks/ladder/run.py --traced``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.shardstore import (
    DeadlineExceededError,
    DiskGeometry,
    KeyNotFoundError,
    NotFoundError,
    OverloadedError,
    StorageNode,
    StoreConfig,
    StoreSystem,
)
from repro.shardstore.observability import (
    Journal,
    RingRecorder,
    seal_on_signal,
)

from .workloads import (
    WORKLOADS,
    BenchOp,
    generate_ops,
    sequence_digest,
    value_for,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "MUTANTS",
    "WORKLOADS",
    "bench_store_config",
    "default_target",
    "execute_op",
    "pick_mutant_victim",
    "run_bench",
]

BENCH_SCHEMA_VERSION = 2

#: Seeded implementation mutants for the evidence plane's negative
#: control: the run *executes* the bug but *journals* the honest-looking
#: outcome, so only trace-conformance checking can catch it.
MUTANTS = ("drop-delete",)

#: Workloads that exercise per-store machinery (reclamation, recovery) and
#: therefore run against a single-disk StoreSystem by default.
_STORE_TARGET_WORKLOADS = ("reclaim-churn", "crash-recover")


def default_target(workload: str) -> str:
    return "store" if workload in _STORE_TARGET_WORKLOADS else "node"


def bench_store_config(
    workload: str, seed: int, recorder, journal: Optional[Journal] = None
) -> StoreConfig:
    """A store geometry sized for the workload.

    Request-plane workloads get a roomy geometry so the run exercises the
    write path, not allocation pressure; ``reclaim-churn`` keeps the small
    seed-default geometry so reclamation genuinely lands on the hot path.
    """
    if workload == "reclaim-churn":
        # Few-but-roomy extents: enough headroom for grown LSM meta
        # records, little enough capacity that churn forces reclamation.
        return StoreConfig(
            geometry=DiskGeometry(
                num_extents=12, extent_size=16384, page_size=128
            ),
            seed=seed,
            recorder=recorder,
            journal=journal,
        )
    return StoreConfig(
        geometry=DiskGeometry(
            num_extents=48, extent_size=32768, page_size=512
        ),
        max_chunk_payload=4096,
        memtable_flush_threshold=64,
        buffer_cache_pages=256,
        seed=seed,
        recorder=recorder,
        journal=journal,
    )


class _Target:
    """The system under test: a KVNode plus its reboot capability."""

    def __init__(self, kind: str, workload: str, seed: int, num_disks: int,
                 recorder: RingRecorder,
                 journal: Optional[Journal] = None) -> None:
        self.kind = kind
        config = bench_store_config(workload, seed, recorder, journal)
        if kind == "store":
            self.system: Optional[StoreSystem] = StoreSystem(config)
            self.node: Optional[StorageNode] = None
        elif kind == "node":
            self.system = None
            self.node = StorageNode(num_disks=num_disks, config=config)
        else:
            raise ValueError(f"unknown bench target {kind!r}")

    @property
    def kv(self):
        return self.node if self.node is not None else self.system.store

    def reboot(self, clean: bool) -> None:
        if self.system is None:
            raise ValueError(
                "reboot ops need the single-disk store target "
                "(crash-recover runs with --target store)"
            )
        if clean:
            self.system.clean_reboot()
        else:
            self.system.dirty_reboot()

    def settle(self) -> None:
        """Unmeasured post-run writeback so the store ends quiescent."""
        self.kv.flush()
        self.kv.drain()


def execute_op(target: _Target, op: BenchOp, value_size: int) -> str:
    """Run one benchmark op; returns the outcome bucket (``ok``/...)."""
    kv = target.kv
    try:
        if op.op == "put":
            kv.put(op.key, value_for(op.key, value_size))
        elif op.op == "get":
            kv.get(op.key)
        elif op.op == "delete":
            kv.delete(op.key)
        elif op.op == "contains":
            kv.contains(op.key)
        elif op.op == "keys":
            kv.keys()
        elif op.op == "flush":
            kv.flush()
        elif op.op == "drain":
            kv.drain()
        elif op.op == "reboot-clean":
            target.reboot(clean=True)
        elif op.op == "reboot-dirty":
            target.reboot(clean=False)
        else:
            raise ValueError(f"unknown bench op {op.op!r}")
    except (OverloadedError, DeadlineExceededError):
        # Admission-enabled targets shed under pressure; a shed is a
        # legitimate outcome bucket, not a harness failure.
        return "shed"
    except (NotFoundError, KeyNotFoundError):
        return "not_found"
    return "ok"


def pick_mutant_victim(sequence: List[BenchOp]) -> Optional[int]:
    """The op index where ``drop-delete`` strikes.

    Picks the first delete whose key is (per a presence simulation of the
    deterministic op sequence) present at that point *and* is read again
    later with no intervening same-key write -- so an honest later ``get``
    is guaranteed to expose the dropped delete to the trace checker.
    Reboot-bearing workloads can legitimately lose unflushed writes, which
    would let the mutant hide behind crash uncertainty; use a reboot-free
    workload (e.g. ``mixed``) for the negative control.
    """
    present = set()
    for index, op in enumerate(sequence):
        if op.op == "put":
            present.add(op.key)
        elif op.op == "delete":
            if op.key in present:
                for later in sequence[index + 1:]:
                    if later.key != op.key:
                        continue
                    if later.op == "get":
                        return index
                    if later.op in ("put", "delete"):
                        break
            present.discard(op.key)
    return None


def run_bench(
    workload: str,
    *,
    ops: int = 2000,
    value_size: int = 64,
    seed: int = 0,
    target: Optional[str] = None,
    num_disks: int = 3,
    journal_path: Optional[str] = None,
    mutant: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one benchmark and return the artifact dict.

    ``journal_path`` streams every op into a chained JSONL evidence
    journal (deterministic bytes for a given spec).
    ``mutant`` seeds an implementation bug -- the journal still reports the
    honest-looking outcome, so ``repro check-trace`` MUST flag the run.
    """
    if mutant is not None and mutant not in MUTANTS:
        raise ValueError(f"unknown mutant {mutant!r} (have: {MUTANTS})")
    if mutant is not None and journal_path is None:
        raise ValueError("--mutant needs --journal (it only exists to be caught)")
    target_kind = target or default_target(workload)
    sequence = generate_ops(workload, ops, value_size, seed)
    recorder = RingRecorder()
    journal: Optional[Journal] = None
    if journal_path is not None:
        journal = Journal(
            journal_path,
            meta={
                "source": "bench",
                "workload": workload,
                "target": target_kind,
                "ops": ops,
                "value_size": value_size,
                "seed": seed,
            },
        )
        journal.attach_recorder(recorder)
    system = _Target(
        target_kind, workload, seed, num_disks, recorder, journal=journal
    )
    victim = (
        pick_mutant_victim(sequence) if mutant == "drop-delete" else None
    )
    if mutant is not None and victim is None:
        raise ValueError(
            f"mutant {mutant!r} found no victim op in workload "
            f"{workload!r} (needs a delete later read back; try 'mixed')"
        )

    outcomes = {"ok": 0, "not_found": 0}
    op_counts: Dict[str, int] = {}
    started = time.perf_counter_ns()
    # SIGINT/SIGTERM mid-run still seals the journal, so an interrupted
    # bench leaves a chain-verifiable (if short) evidence file.
    with seal_on_signal(journal):
        for index, op in enumerate(sequence):
            op_counts[op.op] = op_counts.get(op.op, 0) + 1
            if index == victim:
                # The seeded bug: the delete is silently dropped, but the
                # journal records the success the client was told about.
                assert journal is not None
                journal.record_op("delete", key=op.key, out="ok")
                outcome = "ok"
            else:
                outcome = execute_op(system, op, value_size)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        wall_seconds = (time.perf_counter_ns() - started) / 1e9
        system.settle()

    artifact: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "bench",
        "workload": workload,
        "target": target_kind,
        "ops": ops,
        "value_size": value_size,
        "seed": seed,
        "op_sequence_sha256": sequence_digest(sequence),
        "op_counts": {name: op_counts[name] for name in sorted(op_counts)},
        "outcomes": outcomes,
        "wall_seconds": round(wall_seconds, 6),
        "throughput_ops_per_sec": round(
            len(sequence) / max(wall_seconds, 1e-9), 1
        ),
    }
    if journal is not None:
        head = journal.close()
        artifact["journal"] = {
            "path": journal_path,
            "records": journal.records_written,
            "bytes": journal.bytes_written,
            "head": head,
        }
    if mutant is not None:
        artifact["mutant"] = {"name": mutant, "victim_op_index": victim}
    return artifact


def default_output_name(workload: str, date: str) -> str:
    """The conventional artifact filename: ``BENCH_<workload>_<date>.json``."""
    return f"BENCH_{workload.replace('-', '_')}_{date}.json"
